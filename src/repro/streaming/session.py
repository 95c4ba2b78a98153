"""Concurrent multi-query EARL sessions over one shared sample.

Interactive analytics rarely asks one question: a dashboard wants the
mean, a tail quantile and a correlation of the *same* dataset at once.
Running one :class:`~repro.core.EarlSession` per query would draw one
pilot and one growing uniform sample per query — paying the sampling
and (on a cluster) the scan cost k times for k queries.

:class:`SessionManager` instead runs all submitted queries over **one**
pilot and **one** growing uniform sample (a random permutation prefix —
every query's sampler is the same uniform-without-replacement design,
which is what makes them *compatible*): each expansion round draws a
single delta and feeds it to every active query's own delta-maintained
:class:`~repro.core.delta.ResampleSet` (§4.1).  Queries terminate
independently — each stops expanding the moment its own error bound σ
is met — and the shared sample only keeps growing while some query
still needs more data.  This is the M3R-style in-memory reuse across
jobs and the Shark-style interactive serving loop from PAPERS.md,
applied to EARL's early-answer machinery.

The per-round accuracy-estimation stages of the active queries are
independent work units, so they fan out through the PR-1 executor seam
(:class:`~repro.exec.Executor`, selected by ``EarlConfig.executor``):
every query owns a pre-spawned RNG stream and results are gathered in
submission order, so serial, thread and process backends produce
byte-identical results for a fixed seed.

The engine itself is :class:`repro.core.engine.UniformEngine` — one
sample unit, k pipelines, stepped by the round core every in-memory
entry point shares (a solo :class:`~repro.core.EarlSession` is the same
engine holding one query).  This module gives it its public
multi-query name and the HDFS ingest constructor.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import EarlConfig
from repro.core.engine import Pipeline as QueryHandle
from repro.core.engine import UniformEngine

__all__ = ["QueryHandle", "SessionManager"]


class SessionManager(UniformEngine):
    """Run multiple concurrent EARL queries over one shared sample.

    Example
    -------
    >>> import numpy as np
    >>> from repro.streaming import SessionManager
    >>> from repro.core import EarlConfig
    >>> data = np.random.default_rng(0).lognormal(0, 1, 300_000)
    >>> mgr = SessionManager(data, config=EarlConfig(sigma=0.05, seed=1))
    >>> q_mean = mgr.submit("mean")
    >>> q_p90 = mgr.submit("p90", sigma=0.1)
    >>> results = mgr.run()
    >>> sorted(results) == ["mean", "p90"]
    True

    ``data`` may be 1-D (numeric items) or 2-D (rows are items, e.g.
    (x, y) pairs for ``"correlation"`` queries).  ``config`` provides
    the shared knobs — seed, pilot sizing, expansion policy, resample
    maintenance, and the execution backend; per-query σ / error metric
    / B / n come from :meth:`submit`.

    A manager streams **once**: iterate :meth:`stream` (or call
    :meth:`run`, which drains it).  Closing the stream cancels every
    query still running.
    """

    def __init__(self, data: Sequence[float], *,
                 config: Optional[EarlConfig] = None) -> None:
        super().__init__(data, config=config, label="session_manager")

    @classmethod
    def from_hdfs(cls, fs, path: str, *,
                  config: Optional[EarlConfig] = None,
                  ledger=None,
                  split_logical_bytes: Optional[int] = None,
                  parser=None) -> "SessionManager":
        """Build a session over a newline-delimited simulated-HDFS file.

        The file is ingested as one numeric column through the
        filesystem's columnar split cache
        (:func:`repro.hdfs.read_numeric_column`): the first session over
        ``path`` newline-indexes and decodes each split once, and every
        later session — a dashboard reopening the same dataset, the
        next round of an iterative driver — replays the cached column
        without re-parsing (the M3R-style reuse this module's shared
        sample already applies *within* a session, extended across
        sessions).  The simulated cost of the scan is charged to
        ``ledger`` on every call regardless.
        """
        from repro.hdfs.split_cache import read_numeric_column

        data = read_numeric_column(fs, path, ledger=ledger,
                                   split_logical_bytes=split_logical_bytes,
                                   parser=parser)
        return cls(data, config=config)
