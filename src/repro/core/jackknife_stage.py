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

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.core.accuracy import AccuracyEstimate
from repro.core.estimators import StatisticLike, get_statistic
from repro.core.jackknife import jackknife
from repro.util.stats import coefficient_of_variation

#: Statistics whose delete-1 jackknife is known to be consistent and
#: cheap; everything else is refused (the paper's stated limitation).
JACKKNIFE_SAFE_STATISTICS = frozenset({"mean", "sum", "variance", "std"})


class JackknifeEstimationStage:
    """Stateful jackknife error estimation over a growing sample.

    API-compatible with :class:`AccuracyEstimationStage` (``offer`` /
    ``history`` / ``sample_size`` / ``work_ops`` / ledger hooks), so the
    EARL drivers can switch estimation strategies via configuration.
    """

    def __init__(self, statistic: StatisticLike, *,
                 confidence: float = 0.95) -> None:
        self._stat = get_statistic(statistic)
        if self._stat.name not in JACKKNIFE_SAFE_STATISTICS:
            raise ValueError(
                f"jackknife estimation is unreliable for "
                f"{self._stat.name!r} (§3: 'jackknife does not work for "
                "many functions such as the median'); use the bootstrap")
        self._confidence = confidence
        self._sample: List[float] = []
        self._history: List[AccuracyEstimate] = []
        self._work_ops = 0
        self._ledger: Optional[CostLedger] = None
        self._io_scale = 1.0

    # ------------------------------------------------------- driver hooks
    def set_ledger(self, ledger: Optional[CostLedger]) -> None:
        self._ledger = ledger

    def set_io_scale(self, io_scale: float) -> None:
        self._io_scale = io_scale

    @property
    def work_ops(self) -> int:
        """State operations performed so far (one per replicate)."""
        return self._work_ops

    @property
    def history(self) -> List[AccuracyEstimate]:
        return list(self._history)

    @property
    def sample_size(self) -> int:
        return len(self._sample)

    # ------------------------------------------------------------ estimate
    def offer(self, delta: Sequence[float]) -> AccuracyEstimate:
        """Extend the sample and refresh the jackknife error estimate."""
        self._sample.extend(float(v) for v in delta)
        if len(self._sample) < 2:
            raise ValueError("jackknife needs at least 2 observations")
        data = np.asarray(self._sample)
        result = jackknife(data, self._stat)
        # one replicate per observation (the O(n) fast path for
        # mean/sum; variance/std pay the generic loop — still counted
        # as n replicate evaluations)
        self._work_ops += result.n

        point = result.point_estimate
        std = result.std
        cv = coefficient_of_variation(point, std)
        z = 1.96 if self._confidence == 0.95 else \
            float(abs(np.round(
                _normal_ppf(0.5 + self._confidence / 2.0), 6)))
        estimate = AccuracyEstimate(
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
        self._history.append(estimate)
        return estimate

    def error_stability(self) -> Optional[float]:
        if len(self._history) < 2:
            return None
        return abs(self._history[-1].cv - self._history[-2].cv)


def _normal_ppf(q: float) -> float:
    from scipy import stats as sp_stats

    return float(sp_stats.norm.ppf(q))
