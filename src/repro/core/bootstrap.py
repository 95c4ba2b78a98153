"""Monte-Carlo bootstrap (paper §3).

The bootstrap estimates the sampling distribution of *any* statistic by
re-computing it on ``B`` resamples drawn **with replacement** from the
sample.  An exact bootstrap would enumerate all ``C(2n-1, n-1)``
resamples — already 77×10⁶ for n = 15 (§3) — so the Monte-Carlo
approximation with a modest ``B`` is used instead; the paper's empirical
finding is that ≈30 bootstraps stabilize the error estimate (Fig. 2a),
far below the theoretical ``B = ε₀⁻²/2`` prescription (§3, Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.estimators import Statistic, StatisticLike, get_statistic
from repro.exec.executor import (
    Executor,
    as_executor,
    broadcast_value,
    chunk_sizes,
)
from repro.util.rng import SeedLike, ensure_rng, spawn_child
from repro.util.stats import coefficient_of_variation
from repro.util.validation import check_positive, check_positive_int

#: Resamples per work unit when a bootstrap fans out over an executor.
#: Fixed (never derived from the worker count) so the decomposition —
#: and therefore every RNG stream — is identical on any backend and any
#: pool size.
DEFAULT_CHUNK_B = 32


def exact_bootstrap_count(n: int) -> int:
    """Number of distinct resamples of an ``n``-item sample: C(2n-1, n-1).

    Quantifies why exact bootstrapping is infeasible (§3).
    """
    check_positive_int("n", n)
    return math.comb(2 * n - 1, n - 1)


def theoretical_num_bootstraps(epsilon0: float) -> int:
    """Theory's resample count for Monte-Carlo error ``ε₀``: ``ε₀⁻²/2``.

    ``ε₀`` is the acceptable deviation of the Monte-Carlo estimate from
    the exact bootstrap estimator (§3, citing Efron).  Fig. 8 contrasts
    this (often wildly off) prescription with SSABE's empirical choice.
    """
    check_positive("epsilon0", epsilon0)
    return math.ceil(0.5 / (epsilon0 * epsilon0))


@dataclass
class BootstrapResult:
    """Result distribution and derived accuracy measures.

    Attributes
    ----------
    estimates:
        The ``B`` per-resample statistic values (the *result
        distribution* of Fig. 1).
    point_estimate:
        The statistic computed on the full sample ``s``.
    """

    estimates: np.ndarray
    point_estimate: float
    n: int
    B: int

    @property
    def mean(self) -> float:
        """Bootstrap mean θ̂* (average of per-resample estimates)."""
        return float(np.mean(self.estimates))

    @property
    def std(self) -> float:
        """Monte-Carlo bootstrap standard error σ̂_B (§3)."""
        if len(self.estimates) < 2:
            return 0.0
        return float(np.std(self.estimates, ddof=1))

    @property
    def variance(self) -> float:
        if len(self.estimates) < 2:
            return 0.0
        return float(np.var(self.estimates, ddof=1))

    @property
    def cv(self) -> float:
        """Coefficient of variation of the result distribution — the
        paper's error measure (§3)."""
        return coefficient_of_variation(self.mean, self.std)

    @property
    def bias(self) -> float:
        """Bootstrap bias estimate: θ̂* − θ̂."""
        return self.mean - self.point_estimate

    def confidence_interval(self, confidence: float = 0.95
                            ) -> tuple[float, float]:
        """Percentile bootstrap confidence interval."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        alpha = (1.0 - confidence) / 2.0
        lo, hi = np.quantile(self.estimates, [alpha, 1.0 - alpha])
        return float(lo), float(hi)


def _bootstrap_chunk(task: Tuple[Any, Statistic, int,
                                 np.random.Generator]) -> np.ndarray:
    """Draw and evaluate one chunk of resamples.

    Module-level so a :class:`~repro.exec.ProcessExecutor` can pickle it
    by reference.  The chunk's generator was pre-spawned by the caller,
    so the result depends only on the task, never on which worker (or
    how many workers) ran it.  The sample arrives as a
    :class:`~repro.exec.BroadcastHandle` (shipped to each worker once
    per pool) or as a raw array — :func:`~repro.exec.broadcast_value`
    accepts both.
    """
    shared, stat, chunk_b, rng = task
    data = broadcast_value(shared)
    indices = rng.integers(0, data.size, size=(chunk_b, data.size))
    return np.asarray(stat.batch(data[indices]), dtype=float)


def bootstrap(sample: Sequence[float], statistic: StatisticLike = "mean", *,
              B: int = 30, seed: SeedLike = None,
              executor: Union[None, str, Executor] = None,
              chunk_b: int = DEFAULT_CHUNK_B) -> BootstrapResult:
    """Monte-Carlo bootstrap of ``statistic`` over ``sample``.

    Without an ``executor`` (the default), resampling is vectorized in
    one shot: a ``B × n`` index matrix is drawn from ``seed``'s stream
    and the statistic's batch form evaluates all rows — bit-for-bit the
    library's historical behavior.

    With an ``executor`` (a backend name or an :class:`~repro.exec.Executor`
    instance), the ``B`` resamples are decomposed into fixed-size chunks
    of ``chunk_b`` and each chunk gets its own pre-spawned child RNG
    stream, so the result distribution is byte-identical across
    ``"serial"``, ``"threads"`` and ``"processes"`` and across worker
    counts — but it is a *different* (equally valid) draw than the
    executor-less path, which consumes ``seed``'s stream directly.  For
    process pools the statistic must be picklable (every registered
    statistic is; ad-hoc lambdas are not).

    The sample itself travels through the executor's broadcast-once
    data plane: serial/thread backends pass a zero-copy reference and a
    process pool receives it once per worker at pool start-up, so chunk
    tasks never re-pickle the data (see
    :meth:`~repro.exec.Executor.broadcast`).
    """
    check_positive_int("B", B)
    stat = get_statistic(statistic)
    data = np.asarray(sample, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("sample must be a non-empty 1-D sequence")
    rng = ensure_rng(seed)
    n = data.size
    if executor is None:
        indices = rng.integers(0, n, size=(B, n))
        estimates = np.asarray(stat.batch(data[indices]), dtype=float)
        return BootstrapResult(estimates=estimates,
                               point_estimate=stat(data), n=n, B=B)

    check_positive_int("chunk_b", chunk_b)
    sizes = chunk_sizes(B, chunk_b)
    rngs = spawn_child(rng, len(sizes))
    ex, owned = as_executor(executor)
    shared = None
    try:
        # Broadcast-once data plane: the sample is shared with the pool
        # a single time instead of being pickled into every chunk task.
        shared = ex.broadcast(data)
        tasks = [(shared, stat, size, chunk_rng)
                 for size, chunk_rng in zip(sizes, rngs)]
        parts = ex.map(_bootstrap_chunk, tasks)
    finally:
        # Released promptly so repeated bootstraps over one long-lived
        # executor never accumulate old samples in its registry.
        if shared is not None:
            ex.release(shared)
        if owned:
            ex.close()
    estimates = np.concatenate(parts)
    return BootstrapResult(estimates=estimates,
                           point_estimate=stat(data), n=n, B=B)


def bootstrap_file(fs, path: str, statistic: StatisticLike = "mean", *,
                   B: int = 30, seed: SeedLike = None,
                   executor: Union[None, str, Executor] = None,
                   chunk_b: int = DEFAULT_CHUNK_B,
                   ledger=None,
                   split_logical_bytes: Optional[int] = None
                   ) -> BootstrapResult:
    """Monte-Carlo bootstrap of ``statistic`` over a simulated-HDFS file.

    The columnar ingest entry point: the file's numeric column is
    materialized through the filesystem's split cache
    (:func:`repro.hdfs.read_numeric_column`), so an iterative driver
    that bootstraps the same file repeatedly — the M3R regime of
    caching deserialized inputs across the jobs of one session — pays
    the newline scan and float parse once and replays the cached column
    afterwards.  The *simulated* cost charged to ``ledger`` remains a
    full scan per call either way.

    Resampling semantics are exactly :func:`bootstrap`'s, including the
    broadcast-once executor data plane for the sample itself.
    """
    from repro.hdfs.split_cache import read_numeric_column

    sample = read_numeric_column(fs, path, ledger=ledger,
                                 split_logical_bytes=split_logical_bytes)
    return bootstrap(sample, statistic, B=B, seed=seed,
                     executor=executor, chunk_b=chunk_b)


def bootstrap_cv_curve(sample: Sequence[float],
                       statistic: StatisticLike = "mean", *,
                       B_values: Optional[Sequence[int]] = None,
                       B_max: int = 60,
                       seed: SeedLike = None) -> List[tuple[int, float]]:
    """cv of the result distribution as a function of ``B`` (Fig. 2a).

    Draws ``max(B_values)`` resamples once and reports the cv over each
    prefix, so the curve reflects a single growing Monte-Carlo run — the
    same way EARL's SSABE phase scans candidate ``B`` values (§3.2).
    Prefix moments come from running cumulative sums, so the whole curve
    costs one pass over the estimates instead of re-reducing every
    prefix (O(B) rather than O(B²) in the number of resamples).
    """
    stat = get_statistic(statistic)
    data = np.asarray(sample, dtype=float)
    if data.size == 0:
        raise ValueError("sample must be non-empty")
    if B_values is None:
        B_values = range(2, B_max + 1)
    B_values = sorted(set(int(b) for b in B_values))
    if B_values[0] < 2:
        raise ValueError("cv needs at least 2 resamples")
    rng = ensure_rng(seed)
    n = data.size
    top = B_values[-1]
    indices = rng.integers(0, n, size=(top, n))
    estimates = np.asarray(stat.batch(data[indices]), dtype=float)
    # One pass: cumulative first/second moments of the shifted estimates
    # give every prefix's mean and (ddof=1) std.  Shifting by the grand
    # mean keeps the sum-of-squares subtraction from cancelling.
    shift = float(estimates.mean())
    centred = estimates - shift
    counts = np.asarray(B_values)
    cum = np.cumsum(centred)[counts - 1]
    cumsq = np.cumsum(centred * centred)[counts - 1]
    means = cum / counts
    variances = np.maximum(cumsq - counts * means * means, 0.0) / (counts - 1)
    stds = np.sqrt(variances)
    return [(int(b), coefficient_of_variation(shift + m, s))
            for b, m, s in zip(counts, means, stds)]


def bootstrap_cv_vs_n(population: Sequence[float],
                      sample_sizes: Sequence[int],
                      statistic: StatisticLike = "mean", *,
                      B: int = 30, seed: SeedLike = None
                      ) -> List[tuple[int, float]]:
    """cv as a function of the sample size ``n`` (Fig. 2b).

    Draws nested samples (each size reuses the previous draw plus an
    extension) so the curve isolates the effect of ``n``.
    """
    check_positive_int("B", B)
    data = np.asarray(population, dtype=float)
    rng = ensure_rng(seed)
    sizes = sorted(set(int(s) for s in sample_sizes))
    if sizes[0] < 2:
        raise ValueError("sample sizes must be >= 2")
    if sizes[-1] > data.size:
        raise ValueError("sample size exceeds population size")
    # One shuffled order; prefixes are nested uniform samples.
    order = rng.permutation(data.size)
    curve: List[tuple[int, float]] = []
    for size in sizes:
        sample = data[order[:size]]
        res = bootstrap(sample, statistic, B=B, seed=rng)
        curve.append((size, res.cv))
    return curve
