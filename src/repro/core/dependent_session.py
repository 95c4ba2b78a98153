"""EARL for inter-dependent data (paper Appendix A, end to end).

The core EARL loop assumes i.i.d. records; for b-dependent data (time
series) two pieces must change, and the appendix names both:

* **sampling** — "instead of a single observation, blocks of consecutive
  observations are selected.  Such a sampling method insures that
  dependencies are preserved amongst data-items";
* **error estimation** — the bootstrap "can be modified to support
  non-iid (dependent) data when performing resampling", i.e. the
  moving-block bootstrap.

:class:`MovingBlockEngine` is the round engine with exactly those two
pieces swapped: its sample order and its stages.  The block length
defaults to the automatic selector (after Politis & White, whom the
paper cites).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.core.accuracy import (
    AccuracyEstimate,
    OwnSampleStage,
    summarize_distribution,
)
from repro.core.config import EarlConfig
from repro.core.correction import CorrectionLike
from repro.core.dependent import auto_block_length, block_bootstrap
from repro.core.earl import EarlSession
from repro.core.engine import Pipeline, SampleUnit, UniformEngine
from repro.core.estimators import StatisticLike
from repro.core.result import EarlResult
from repro.util.rng import SeedLike, ensure_rng, spawn_child
from repro.util.validation import check_positive_int


class BlockOrder:
    """A sample order of length-``b`` blocks of consecutive positions
    from uniform random starts in ``[0, size - b]``, drawn as far as it
    is read — from a child of ``rng``, ``FIRST_RUNG`` blocks and then
    doubling, so :meth:`head` is a function of the stream alone (as
    with :class:`~repro.sampling.PermutationPrefix`)."""

    FIRST_RUNG = 64

    def __init__(self, size: int, block_length: int,
                 rng: SeedLike = None) -> None:
        self.size, self._b = size, block_length
        self._rng = spawn_child(ensure_rng(rng))[0]
        self._drawn = np.empty(0, dtype=np.int64)

    def head(self, count: int) -> np.ndarray:
        while len(self._drawn) < count:
            starts = self._rng.integers(
                0, self.size - self._b + 1,
                size=max(self.FIRST_RUNG, len(self._drawn) // self._b))
            self._drawn = np.concatenate(
                [self._drawn, (starts[:, None] + np.arange(self._b)).ravel()])
        return self._drawn[:count]


class MovingBlockStage(OwnSampleStage):
    """Every offer re-runs the circular moving-block bootstrap over the
    whole sample (a new block changes the block structure of every
    resample: there is no delta to maintain)."""

    def __init__(self, statistic: StatisticLike, B: int, block_length: int,
                 *, metric: str = "cv", confidence: float = 0.95,
                 seed: SeedLike = None) -> None:
        super().__init__(statistic, metric=metric, confidence=confidence)
        self.B, self._b = B, block_length
        self._rng = ensure_rng(seed)

    def _estimate(self, delta: np.ndarray) -> AccuracyEstimate:
        sample = self.sample()
        boot = block_bootstrap(sample, self._stat, B=self.B,
                               block_length=self._b, seed=self._rng)
        self._work_ops += self.B * sample.size
        return summarize_distribution(
            boot.estimates, boot.point_estimate, sample.size,
            metric=self._metric, confidence=self._confidence)


class MovingBlockEngine(UniformEngine):
    """The uniform engine over a dependent series: a :class:`BlockOrder`
    sample, and a :class:`MovingBlockStage` of its own per pipeline.
    Its results carry the block length."""

    def __init__(self, series: Sequence[float], block_length: int,
                 **kwargs) -> None:
        super().__init__(series, **kwargs)
        self.block_length = block_length

    def _order(self, size: int, rng: np.random.Generator) -> BlockOrder:
        return BlockOrder(size, self.block_length, rng)

    def _shares(self, pipeline: Pipeline) -> bool:
        return False

    def _stage(self, pipeline: Pipeline, resamples: None,
               seed: SeedLike) -> MovingBlockStage:
        return MovingBlockStage(
            pipeline.statistic, pipeline.B, self.block_length,
            metric=pipeline.error_metric,
            confidence=self._config.confidence, seed=seed)

    def _sampled_result(self, unit: SampleUnit,
                        pipeline: Pipeline) -> EarlResult:
        return replace(super()._sampled_result(unit, pipeline),
                       block_length=self.block_length)


class DependentEarlSession(EarlSession):
    """Early-approximation loop over a b-dependent series: a one-query
    :class:`MovingBlockEngine`, stopping at ``cv ≤ σ`` like the i.i.d.
    loop.

    ``series`` is the ordered observations (the dependence lives in the
    order, so nothing is shuffled).  ``block_length`` is ``b``; ``None``
    picks it from a prefix probe.  ``config.B_override`` sets the
    block-bootstrap resamples (default 30), ``config.n_override`` the
    first sample size; the i.i.d. SSABE never runs on dependent data,
    and ``B × n ≥ N`` answers exactly (§3.1).

    Example
    -------
    >>> from repro.core import EarlConfig
    >>> from repro.workloads import ar1_series
    >>> series = ar1_series(50_000, phi=0.8, seed=1)
    >>> result = DependentEarlSession(
    ...     series, "mean", config=EarlConfig(sigma=0.01, seed=2)).run()
    >>> result.achieved, result.B, result.block_length > 1
    (True, 30, True)
    """

    #: Block-bootstrap resamples when no override is given.
    DEFAULT_B = 30

    def __init__(self, series: Sequence[float],
                 statistic: StatisticLike = "mean", *,
                 config: Optional[EarlConfig] = None,
                 block_length: Optional[int] = None,
                 correction: CorrectionLike = "auto") -> None:
        series = np.asarray(series, dtype=float)
        if series.ndim != 1 or series.size < 4:
            raise ValueError("series must be 1-D with at least 4 points")
        if block_length is not None:
            check_positive_int("block_length", block_length)
        super().__init__(series, statistic, config=config,
                         correction=correction)
        cfg, N = self._config, series.size
        probe = series[:min(N, max(cfg.min_pilot_size * 4, 512))]
        b = block_length or auto_block_length(probe)
        self._block_length = max(1, min(b, N // 2))
        self._B = cfg.B_override or self.DEFAULT_B
        self._n = max(cfg.n_override or max(
            cfg.min_pilot_size, math.ceil(cfg.pilot_fraction * N)),
            2 * self._block_length)

    def _new_engine(self) -> MovingBlockEngine:
        engine = MovingBlockEngine(self._data, self._block_length,
                                   config=self._config, label=self._label,
                                   log=self._log)
        engine.submit(self._stat, correction=self._correction,
                      B_override=self._B, n_override=self._n)
        return engine
