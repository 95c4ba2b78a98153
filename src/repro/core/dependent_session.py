"""EARL for inter-dependent data (paper Appendix A, end to end).

The core EARL loop assumes i.i.d. records; for b-dependent data (time
series) two pieces must change, and the appendix names both:

* **sampling** — "instead of a single observation, blocks of consecutive
  observations are selected.  Such a sampling method insures that
  dependencies are preserved amongst data-items";
* **error estimation** — the bootstrap "can be modified to support
  non-iid (dependent) data when performing resampling", i.e. the
  moving-block bootstrap.

:class:`DependentEarlSession` is the resulting driver: it grows a sample
of random *contiguous blocks* of the series and estimates the error with
the (circular) moving-block bootstrap, terminating at ``cv ≤ σ`` exactly
like the i.i.d. loop.  The block length defaults to the automatic
selector (after Politis & White, whom the paper cites).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.accuracy import AccuracyEstimate, summarize_distribution
from repro.core.config import EarlConfig
from repro.core.correction import CorrectionLike, get_correction
from repro.core.dependent import auto_block_length, block_bootstrap
from repro.core.engine import grow_target
from repro.core.estimators import StatisticLike, get_statistic
from repro.core.result import EarlResult, IterationRecord
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive_int


class DependentEarlSession:
    """Early-approximation loop over a b-dependent series.

    Parameters
    ----------
    series:
        The ordered observations (dependence structure lives in the
        order, so no shuffling happens anywhere).
    statistic:
        Statistic of interest (any registered name or callable).
    config:
        Standard :class:`EarlConfig`; ``B_override`` sets the number of
        block-bootstrap resamples (default 30), ``n_override`` the
        initial sample size.
    block_length:
        Dependence length ``b``; ``None`` selects it automatically from
        the first sampled blocks.
    """

    #: Block-bootstrap resamples when no override is given.
    DEFAULT_B = 30

    def __init__(self, series: Sequence[float],
                 statistic: StatisticLike = "mean", *,
                 config: Optional[EarlConfig] = None,
                 block_length: Optional[int] = None,
                 correction: CorrectionLike = "auto") -> None:
        self._series = np.asarray(series, dtype=float)
        if self._series.ndim != 1 or self._series.size < 4:
            raise ValueError("series must be 1-D with at least 4 points")
        self._stat = get_statistic(statistic)
        self._config = config or EarlConfig()
        if block_length is not None:
            check_positive_int("block_length", block_length)
        self._block_length = block_length
        self._correction = get_correction(correction, self._stat.name)

    # ------------------------------------------------------------------ run
    def run(self) -> EarlResult:
        cfg = self._config
        rng = ensure_rng(cfg.seed)
        series = self._series
        N = series.size
        B = cfg.B_override or self.DEFAULT_B

        # -------------------------------------------------- block length
        # Estimate b from an initial contiguous probe (dependence is a
        # local property, so a prefix window suffices).
        probe = series[:min(N, max(cfg.min_pilot_size * 4, 512))]
        b = self._block_length or auto_block_length(probe)
        b = max(1, min(b, N // 2))

        # --------------------------------------------------- sample loop
        n_target = cfg.n_override or max(cfg.min_pilot_size,
                                         math.ceil(cfg.pilot_fraction * N))
        n_target = max(n_target, 2 * b)
        blocks: List[np.ndarray] = []
        sampled = 0
        iterations: List[IterationRecord] = []
        estimate: Optional[AccuracyEstimate] = None
        for iteration in range(1, cfg.max_iterations + 1):
            while sampled < min(n_target, N):
                start = int(rng.integers(0, max(1, N - b + 1)))
                block = series[start:start + b]
                blocks.append(block)
                sampled += block.size
            sample = np.concatenate(blocks)
            boot = block_bootstrap(sample, self._stat, B=B,
                                   block_length=b, circular=True, seed=rng)
            estimate = summarize_distribution(
                boot.estimates, boot.point_estimate, sample.size,
                metric=cfg.error_metric, confidence=cfg.confidence)
            expand = (not estimate.meets(cfg.sigma)
                      and sampled < N
                      and iteration < cfg.max_iterations)
            iterations.append(IterationRecord(
                iteration=iteration, sample_size=sampled,
                accuracy=estimate, simulated_seconds=0.0, expanded=expand))
            if not expand:
                break
            n_target = grow_target(sampled, N, cfg)

        assert estimate is not None
        p = min(1.0, sampled / N)
        corrected = self._correction(estimate.estimate, p)
        result = EarlResult(
            estimate=corrected,
            uncorrected_estimate=estimate.estimate,
            error=estimate.error,
            achieved=estimate.meets(cfg.sigma),
            sigma=cfg.sigma,
            statistic=self._stat.name,
            n=sampled,
            B=B,
            population_size=N,
            sample_fraction=p,
            used_fallback=False,
            simulated_seconds=0.0,
            iterations=iterations,
            ssabe=None,
            accuracy=estimate,
            block_length=b,
        )
        return result
