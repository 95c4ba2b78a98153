"""Is the error bar the bootstrap stage reports the error it makes?

Byte-identity says a run is reproducible, not that its bound is true.
This is the tier-1-sized calibration check that goes with a change of
the random *stream* (DESIGN.md §5): over many seeds, feed i.i.d. draws
of a known distribution through :class:`AccuracyEstimationStage` along
a growing schedule (so delta maintenance — deletions, old-sample
additions, Δs top-ups — produces the final resamples) and compare

* the **reported** error (cv of the result distribution) with the
  asymptotic standard error theory gives for the statistic, and
* the **realised** error ``(estimate − truth) / truth`` with the
  reported one: their ratio must have rms ≈ 1 over the seeds
  (AccurateML's yardstick — accuracy loss against the exact answer).

Run as a script it prints the table of EXPERIMENTS.md for both access
paths (memory-resident and ledger-bound)::

    PYTHONPATH=src python tests/core/test_calibration.py
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.cluster.costmodel import CostLedger
from repro.core.accuracy import AccuracyEstimationStage

BOUNDS = [250, 1000, 4000]      # the sample after each offer
B = 30
SEEDS = 64
STATISTICS = ["mean", "median", "p90", "std"]
DISTRIBUTIONS = {
    "lognormal": sp_stats.lognorm(s=0.5),      # exp(N(0, 0.5²))
    "normal": sp_stats.norm(10.0, 2.0),
}


def _truth(dist, statistic: str) -> float:
    return float({"mean": dist.mean(), "median": dist.median(),
                  "p90": dist.ppf(0.9), "std": dist.std()}[statistic])


def _theory(dist, statistic: str, n: int) -> float:
    """Asymptotic relative standard error of the statistic at size n."""
    if statistic == "mean":
        return dist.std() / dist.mean() / math.sqrt(n)
    if statistic == "std":
        kurtosis = float(dist.stats(moments="k")) + 3.0
        return math.sqrt((kurtosis - 1.0) / (4.0 * n))
    p = 0.5 if statistic == "median" else 0.9
    q = dist.ppf(p)
    return math.sqrt(p * (1.0 - p) / n) / dist.pdf(q) / q


def calibration_row(name: str, statistic: str, storage: str = "resident"):
    """``(mean reported error ÷ theory, rms of realised ÷ reported)``
    over :data:`SEEDS` independent samples and bootstrap streams."""
    dist = DISTRIBUTIONS[name]
    truth = _truth(dist, statistic)
    reported, ratios = [], []
    for seed in range(SEEDS):
        data = dist.rvs(BOUNDS[-1],
                        random_state=np.random.default_rng([seed, 17]))
        stage = AccuracyEstimationStage(
            statistic, B, seed=seed,
            ledger=CostLedger() if storage == "ledger" else None)
        lo = 0
        for hi in BOUNDS:
            estimate = stage.offer(data[lo:hi])
            lo = hi
        reported.append(estimate.error)
        ratios.append((estimate.estimate - truth) / truth / estimate.error)
    return (float(np.mean(reported)) / _theory(dist, statistic, BOUNDS[-1]),
            math.sqrt(float(np.mean(np.square(ratios)))))


@pytest.mark.parametrize("statistic", STATISTICS)
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_resident_error_bars_are_calibrated(name, statistic):
    reported_over_theory, realised_over_reported = calibration_row(
        name, statistic)
    assert 0.9 <= reported_over_theory <= 1.1
    assert 0.8 <= realised_over_reported <= 1.25


if __name__ == "__main__":
    print("| distribution | statistic | reported ÷ theory (resident) "
          "| realised ÷ reported rms (resident) | reported ÷ theory "
          "(ledger-bound) | realised ÷ reported rms (ledger-bound) |")
    print("|---|---|---|---|---|---|")
    for name in sorted(DISTRIBUTIONS):
        for statistic in STATISTICS:
            cells = [f"{value:.3f}" for storage in ("resident", "ledger")
                     for value in calibration_row(name, statistic, storage)]
            print(f"| {name} | {statistic} | " + " | ".join(cells) + " |")
