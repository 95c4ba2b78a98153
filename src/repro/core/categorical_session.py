"""EARL for categorical data with closed-form error (Appendix A).

For a proportion-of-successes query the error does not need the
bootstrap at all: ``p̂ = X/n`` has the known binomial variance
``p(1-p)/n`` (Appendix A), so the driver can *solve* for the sample size
that meets σ instead of searching for it.  The loop still verifies the
bound on the realized sample (the pilot's p̂ may be off for rare events)
and expands if needed — the same architecture as the numeric loop with
the AES replaced by the z-machinery of :mod:`repro.core.categorical`.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.accuracy import AccuracyEstimate
from repro.core.categorical import (
    CategoricalEstimate,
    proportion_estimate,
    required_sample_size_proportion,
)
from repro.core.config import EarlConfig
from repro.core.engine import grow_target
from repro.core.result import EarlResult, IterationRecord
from repro.util.rng import ensure_rng


class CategoricalEarlSession:
    """Early-approximation loop for a success proportion.

    Parameters
    ----------
    data:
        The population items (any objects).
    predicate:
        Success test; defaults to truthiness (0/1 streams work as-is).
    config:
        Standard :class:`EarlConfig` (σ bounds the cv of p̂).
    """

    def __init__(self, data: Sequence, *,
                 predicate: Optional[Callable] = None,
                 config: Optional[EarlConfig] = None) -> None:
        self._data = list(data)
        if not self._data:
            raise ValueError("data cannot be empty")
        self._predicate = predicate or bool
        self._config = config or EarlConfig()

    def run(self) -> EarlResult:
        cfg = self._config
        rng = ensure_rng(cfg.seed)
        N = len(self._data)
        order = rng.permutation(N)

        # Pilot: estimate p̂ cheaply, then solve for the required n.
        # Unlike the numeric loop, a few hundred draws pin p̂ well enough
        # to seed the closed form (the fractional pilot of §3.2 would
        # routinely exceed the whole requirement); rare events that fool
        # a small pilot are caught by the verification loop below.
        pilot_size = min(N, max(cfg.min_pilot_size, 256))
        successes = sum(
            1 for i in order[:pilot_size]
            if self._predicate(self._data[int(i)]))
        consumed = pilot_size
        # A zero-success pilot gives no basis for the closed form; fall
        # back to the Laplace-smoothed estimate.
        p_pilot = max(successes, 1) / (pilot_size + 1)
        # 25% head-room over the closed form: a boundary-sized sample
        # meets cv = σ only in expectation, so without the margin the
        # verification step would trigger an expansion every other run.
        target = min(N, max(pilot_size, math.ceil(
            1.25 * required_sample_size_proportion(p_pilot, cfg.sigma))))

        iterations: List[IterationRecord] = []
        estimate: Optional[CategoricalEstimate] = None
        for iteration in range(1, cfg.max_iterations + 1):
            successes += sum(
                1 for i in order[consumed:target]
                if self._predicate(self._data[int(i)]))
            consumed = target
            estimate = proportion_estimate(successes, consumed,
                                           confidence=cfg.confidence)
            expand = (not estimate.meets(cfg.sigma)
                      and consumed < N
                      and iteration < cfg.max_iterations)
            iterations.append(IterationRecord(
                iteration=iteration, sample_size=consumed,
                accuracy=_to_accuracy(estimate), simulated_seconds=0.0,
                expanded=expand))
            if not expand:
                break
            target = grow_target(consumed, N, cfg)

        assert estimate is not None
        return EarlResult(
            estimate=estimate.proportion,
            uncorrected_estimate=estimate.proportion,
            error=estimate.cv,
            achieved=estimate.meets(cfg.sigma),
            sigma=cfg.sigma,
            statistic="proportion",
            n=consumed,
            B=1,   # closed form: no resampling at all
            population_size=N,
            sample_fraction=consumed / N,
            used_fallback=consumed >= N,
            simulated_seconds=0.0,
            iterations=iterations,
            ssabe=None,
            accuracy=_to_accuracy(estimate),
        )


def _to_accuracy(est: CategoricalEstimate) -> AccuracyEstimate:
    """Adapt the z-interval estimate to the common accuracy record."""
    return AccuracyEstimate(
        estimate=est.proportion, point_estimate=est.proportion,
        error=est.cv, cv=est.cv, std=est.std, variance=est.variance,
        bias=0.0, ci_low=est.ci_low, ci_high=est.ci_high,
        n=est.n, B=1)
