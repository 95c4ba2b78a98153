"""Accuracy Estimation Stage (AES, paper §3.1).

Consumes the result distribution produced by bootstrap resampling and
derives the error measure EARL iterates on.  The default measure is the
coefficient of variation (cv = std/mean, §3); the stage is "independent
of the error measure", so alternative metrics (relative CI half-width,
variance, bias) are pluggable.

:class:`AccuracyEstimationStage` is the stateful form used by the EARL
driver: it reads a delta-maintained :class:`~repro.core.delta.ResampleSet`
(its own or a shared one) and reports an :class:`AccuracyEstimate` after
every sample expansion — the quantity reducers publish to mappers
through the feedback channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.core.delta import MAINTENANCE_OPTIMIZED, ResampleSet
from repro.core.estimators import (
    StatisticLike,
    get_statistic,
    sorted_quantile,
)
from repro.exec.executor import Executor
from repro.util.rng import SeedLike
from repro.util.stats import coefficient_of_variation, relative_half_width


@dataclass(frozen=True)
class AccuracyEstimate:
    """Point estimate plus accuracy measures from one bootstrap round."""

    estimate: float           # bootstrap mean θ̂* (result to report)
    point_estimate: float     # f(s): the statistic on the raw sample
    error: float              # value of the selected error metric
    cv: float
    std: float
    variance: float
    bias: float
    ci_low: float
    ci_high: float
    n: int
    B: int

    def meets(self, sigma: float) -> bool:
        """Termination test: is the error within the user's bound σ?"""
        return self.error <= sigma


ErrorMetric = Callable[[np.ndarray, float], float]


def _cv_metric(estimates: np.ndarray, point: float) -> float:
    mean = float(np.mean(estimates))
    std = float(np.std(estimates, ddof=1)) if estimates.size > 1 else 0.0
    return coefficient_of_variation(mean, std)


def _relative_ci_metric(estimates: np.ndarray, point: float) -> float:
    mean = float(np.mean(estimates))
    std = float(np.std(estimates, ddof=1)) if estimates.size > 1 else 0.0
    return relative_half_width(mean, std)


def _variance_metric(estimates: np.ndarray, point: float) -> float:
    return float(np.var(estimates, ddof=1)) if estimates.size > 1 else 0.0


def _bias_metric(estimates: np.ndarray, point: float) -> float:
    return abs(float(np.mean(estimates)) - point)


ERROR_METRICS: Dict[str, ErrorMetric] = {
    "cv": _cv_metric,
    "relative_ci": _relative_ci_metric,
    "variance": _variance_metric,
    "bias": _bias_metric,
}


def get_error_metric(name: str) -> ErrorMetric:
    """Look up an error metric by name (see ``ERROR_METRICS``)."""
    try:
        return ERROR_METRICS[name]
    except KeyError:
        raise KeyError(f"unknown error metric {name!r}; "
                       f"known: {sorted(ERROR_METRICS)}") from None


def summarize_distribution(estimates: np.ndarray, point_estimate: float,
                           n: int, *, metric: str = "cv",
                           confidence: float = 0.95) -> AccuracyEstimate:
    """Turn a result distribution into an :class:`AccuracyEstimate` —
    one pass: mean and std are computed once (the default ``cv`` error
    reuses them) and both CI bounds read off one sort."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size == 0:
        raise ValueError("empty result distribution")
    mean = float(np.mean(estimates))
    std = float(np.std(estimates, ddof=1)) if estimates.size > 1 else 0.0
    cv = coefficient_of_variation(mean, std)
    error_metric = get_error_metric(metric)
    alpha = (1.0 - confidence) / 2.0
    if math.isnan(mean):    # a NaN estimate: no order to read bounds off
        lo = hi = math.nan
    else:
        ordered = np.sort(estimates)
        lo = float(sorted_quantile(ordered, alpha))
        hi = float(sorted_quantile(ordered, 1.0 - alpha))
    return AccuracyEstimate(
        estimate=mean,
        point_estimate=point_estimate,
        error=(cv if error_metric is _cv_metric
               else error_metric(estimates, point_estimate)),
        cv=cv,
        std=std,
        variance=std * std,
        bias=mean - point_estimate,
        ci_low=lo,
        ci_high=hi,
        n=n,
        B=int(estimates.size),
    )


class AccuracyEstimationStage:
    """Stateful AES over a growing sample (Fig. 1's right-hand stage).

    ``executor`` optionally parallelizes the per-resample estimate
    evaluation after every expansion (see
    :meth:`~repro.core.delta.ResampleSet.estimates`); results are
    identical with or without it.  The stage borrows the executor — the
    caller owns its lifecycle.

    A stage grows a set it owns through :meth:`offer`.  ``resamples``
    is instead a set shared with sibling stages of the same sample
    (built with its own ``maintenance`` / ``seed`` / ...): its owner
    grows it once per delta, and each stage reads its statistic over
    the set's first ``B`` resamples (:meth:`read`).
    """

    def __init__(self, statistic: StatisticLike, B: int, *,
                 metric: str = "cv",
                 maintenance: str = MAINTENANCE_OPTIMIZED,
                 sketch_c: float = 4.0,
                 seed: SeedLike = None,
                 ledger: Optional[CostLedger] = None,
                 executor: Optional[Executor] = None,
                 resamples: Optional[ResampleSet] = None) -> None:
        self._stat = get_statistic(statistic)
        self._metric = metric
        get_error_metric(metric)  # validate eagerly
        self._executor = executor
        if resamples is None:
            resamples = ResampleSet(self._stat, B, seed=seed, ledger=ledger,
                                    maintenance=maintenance, sketch_c=sketch_c)
        elif not 0 < B <= resamples.B:
            raise ValueError(f"B={B} is not in 1..{resamples.B}")
        self._resamples = resamples
        self._reader = resamples.add_reader(self._stat)
        self._B = B
        self._history: list[AccuracyEstimate] = []

    @property
    def B(self) -> int:
        """How many of the set's resamples this stage reads."""
        return self._B

    @property
    def reader(self) -> int:
        """This stage's reader index in its resample set."""
        return self._reader

    @property
    def resample_set(self) -> ResampleSet:
        return self._resamples

    def set_ledger(self, ledger: Optional[CostLedger]) -> None:
        """Re-bind the cost ledger of the underlying resample set."""
        self._resamples.set_ledger(ledger)

    def set_io_scale(self, io_scale: float) -> None:
        """Re-bind the stand-in item scale of the resample set."""
        self._resamples.set_io_scale(io_scale)

    @property
    def work_ops(self) -> int:
        """State operations performed so far (drivers charge CPU by the
        delta of this counter)."""
        return self._resamples.counters.state_ops

    @property
    def history(self) -> list[AccuracyEstimate]:
        """Estimates from every iteration so far (oldest first)."""
        return list(self._history)

    @property
    def sample_size(self) -> int:
        return self._resamples.sample_size

    def offer(self, delta: Sequence[float]) -> AccuracyEstimate:
        """Grow the stage's own set by a (delta) sample and return the
        refreshed estimate."""
        self._resamples.grow(delta)
        return self.read()

    def read(self) -> AccuracyEstimate:
        """The estimate off the set as it stands (after its latest
        growth), recorded in :attr:`history`."""
        estimates = self._resamples.estimates(
            executor=self._executor, reader=self._reader, B=self._B)
        point = self._resamples.point_estimate(self._reader)
        estimate = summarize_distribution(
            estimates, point, self.sample_size, metric=self._metric)
        self._history.append(estimate)
        return estimate

    def error_stability(self) -> Optional[float]:
        """|cvᵢ − cvᵢ₋₁| between the last two iterations (the paper's τ
        measure of error stability, §3.1); ``None`` before 2 iterations."""
        if len(self._history) < 2:
            return None
        return abs(self._history[-1].cv - self._history[-2].cv)
