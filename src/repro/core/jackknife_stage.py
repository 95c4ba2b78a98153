"""Jackknife-based accuracy estimation (paper §8, future work).

"A direction for the future is to investigate other resampling methods
(e.g., jackknife) that although are not as general and as robust as
bootstrapping can still provide better performance in specific
situations."  This module implements that direction: a drop-in
alternative to :class:`~repro.core.accuracy.AccuracyEstimationStage`
whose error estimate comes from delete-1 jackknife replicates instead of
Monte-Carlo bootstrap resamples.

When it wins: for *smooth* statistics with an O(n) leave-one-out form
(mean, sum), one jackknife pass costs ``n`` state operations versus the
bootstrap's ``B × n`` — no resample maintenance, no sketches, no extra
randomness.  When it loses: for non-smooth statistics (median,
quantiles) the jackknife variance estimate is inconsistent (§3), so
:class:`JackknifeEstimationStage` refuses those statistics instead of
silently returning garbage.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

from repro.core.accuracy import AccuracyEstimate, OwnSampleStage
from repro.core.estimators import StatisticLike
from repro.core.jackknife import jackknife
from repro.util.stats import coefficient_of_variation

#: Statistics whose delete-1 jackknife is known to be consistent and
#: cheap; everything else is refused (the paper's stated limitation).
JACKKNIFE_SAFE_STATISTICS = frozenset({"mean", "sum", "variance", "std"})


class JackknifeEstimationStage(OwnSampleStage):
    """Stateful jackknife error estimation over a growing sample.

    API-compatible with :class:`AccuracyEstimationStage` (``offer`` /
    ``history`` / ``sample_size`` / ``work_ops`` / ledger hooks, from
    :class:`~repro.core.accuracy.OwnSampleStage`), so the EARL drivers
    can switch estimation strategies via configuration.
    """

    def __init__(self, statistic: StatisticLike, *,
                 confidence: float = 0.95) -> None:
        super().__init__(statistic, confidence=confidence)
        if self._stat.name not in JACKKNIFE_SAFE_STATISTICS:
            raise ValueError(
                f"jackknife estimation is unreliable for "
                f"{self._stat.name!r} (§3: 'jackknife does not work for "
                "many functions such as the median'); use the bootstrap")

    def _estimate(self, delta: np.ndarray) -> AccuracyEstimate:
        """Refresh the jackknife error estimate over the whole sample."""
        if self.sample_size < 2:
            raise ValueError("jackknife needs at least 2 observations")
        result = jackknife(self.sample(), self._stat)
        # one replicate per observation (the O(n) fast path for
        # mean/sum; variance/std pay the generic loop — still counted
        # as n replicate evaluations)
        self._work_ops += result.n

        point = result.point_estimate
        std = result.std
        cv = coefficient_of_variation(point, std)
        z = 1.96 if self._confidence == 0.95 else \
            float(abs(np.round(norm.ppf(0.5 + self._confidence / 2.0), 6)))
        return AccuracyEstimate(
            estimate=point,
            point_estimate=point,
            error=cv,
            cv=cv,
            std=std,
            variance=result.variance,
            bias=result.bias,
            ci_low=point - z * std,
            ci_high=point + z * std,
            n=result.n,
            B=result.n,   # n leave-one-out replicates
        )
