"""Categorical-data support (paper Appendix A).

For categorical data the statistic of interest is the proportion of
"successes".  Given a uniform sample of size ``n`` with ``X`` successes,
``p̂ = X/n`` follows (approximately) a normal with mean ``p`` and
variance ``p(1-p)/n``, so z-based confidence intervals and significance
tests apply — "this approach allows EARL to be applied even to
categorical data".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import stats as sp_stats

from repro.util.validation import check_fraction, check_positive_int


@dataclass(frozen=True)
class CategoricalEstimate:
    """Proportion estimate with its normal-approximation accuracy."""

    proportion: float
    variance: float
    std: float
    cv: float
    ci_low: float
    ci_high: float
    n: int
    confidence: float

    def meets(self, sigma: float) -> bool:
        """Same termination semantics as the numeric AES: cv ≤ σ."""
        return self.cv <= sigma


def proportion_estimate(successes: int, n: int, *,
                        confidence: float = 0.95) -> CategoricalEstimate:
    """Estimate a population proportion from sample counts.

    Variance is the binomial ``p(1-p)/n`` of Appendix A; the interval is
    the Wald z-interval, clipped to [0, 1].
    """
    check_positive_int("n", n)
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, {n}], got {successes}")
    check_fraction("confidence", confidence, inclusive_high=False)
    p_hat = successes / n
    variance = p_hat * (1.0 - p_hat) / n
    std = math.sqrt(variance)
    z = float(sp_stats.norm.ppf(0.5 + confidence / 2.0))
    lo = max(0.0, p_hat - z * std)
    hi = min(1.0, p_hat + z * std)
    cv = math.inf if p_hat == 0 and std > 0 else (
        0.0 if std == 0 else std / p_hat)
    return CategoricalEstimate(proportion=p_hat, variance=variance, std=std,
                               cv=cv, ci_low=lo, ci_high=hi, n=n,
                               confidence=confidence)


def z_test_proportion(successes: int, n: int, p0: float
                      ) -> Tuple[float, float]:
    """Two-sided z-test of ``H0: p = p0``; returns ``(z, p_value)``.

    Valid for large samples, where the binomial is approximately normal
    (Appendix A).
    """
    check_positive_int("n", n)
    check_fraction("p0", p0, inclusive_high=False)
    if not 0 <= successes <= n:
        raise ValueError(f"successes must be in [0, {n}], got {successes}")
    p_hat = successes / n
    se = math.sqrt(p0 * (1.0 - p0) / n)
    z = (p_hat - p0) / se
    p_value = 2.0 * float(sp_stats.norm.sf(abs(z)))
    return z, p_value


def required_sample_size_proportion(p_expected: float, sigma: float) -> int:
    """Smallest ``n`` with ``cv(p̂) ≤ σ``: ``n ≥ (1-p) / (p·σ²)``.

    The categorical analogue of SSABE's phase 2 — closed-form because
    the binomial variance is known.
    """
    check_fraction("p_expected", p_expected, inclusive_high=False)
    check_fraction("sigma", sigma, inclusive_high=True)
    return math.ceil((1.0 - p_expected) / (p_expected * sigma * sigma))


def closed_form_sample_size(pilot: np.ndarray, sigma: float) -> int:
    """A proportion query's first sample size: the closed form for the
    pilot's Laplace-smoothed ``p̂ = max(X, 1) / (n + 1)`` (a zero-success
    pilot gives it no basis), with 25 % head-room — a boundary-sized
    sample meets ``cv = σ`` only in expectation."""
    p_pilot = max(int(np.count_nonzero(pilot)), 1) / (len(pilot) + 1)
    return math.ceil(1.25 * required_sample_size_proportion(p_pilot, sigma))
