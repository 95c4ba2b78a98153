"""The law of the two Appendix A drivers, pinned across commits.

``tests/fixtures/appendix_a_law.json`` holds, for 40 seeds of each case,
the estimate, final sample size, error and whether the confidence
interval covered the population's true value — recorded on the private
pilot → grow → check → stop loops the drivers once had.  The drivers now
run on the round engine, whose sample order replaces the old
``rng.permutation`` draws, so no run is byte-equal to its recording;
what must hold is the law: the estimates are one distribution (a
two-sample Kolmogorov-Smirnov test at α = 0.01) and the intervals cover
the truth at least as often as recorded, less two runs of forty.

Record (only on purpose, and say why in the commit):
``PYTHONPATH=src python tests/core/test_appendix_a_law.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.core import EarlConfig
from repro.core.categorical_session import CategoricalEarlSession
from repro.core.dependent_session import DependentEarlSession
from repro.workloads import ar1_series, categorical_dataset

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "appendix_a_law.json"
SEEDS = range(40)
KS_ALPHA = 0.01
COVERAGE_SLACK = 2


def _categorical(population, sigma):
    truth = float(np.mean(population != 0))

    def run(seed):
        return CategoricalEarlSession(
            population, config=EarlConfig(sigma=sigma, seed=seed)).run()
    return run, truth


def _dependent(series, statistic, sigma):
    truth = float(np.mean(series) if statistic == "mean"
                  else np.median(series))

    def run(seed):
        return DependentEarlSession(
            series, statistic,
            config=EarlConfig(sigma=sigma, seed=seed)).run()
    return run, truth


def _cases():
    # The populations of test_categorical_session / test_dependent_session.
    series = ar1_series(120_000, phi=0.85, scale=1.0, loc=100.0, seed=1)
    return {
        "categorical-p0.3": _categorical(
            categorical_dataset(400_000, 0.3, seed=1), 0.05),
        "categorical-p0.01": _categorical(
            categorical_dataset(300_000, 0.01, seed=6), 0.1),
        "dependent-mean": _dependent(series, "mean", 0.01),
        "dependent-median": _dependent(series, "median", 0.01),
    }


def _record(run, truth):
    rows = []
    for seed in SEEDS:
        res = run(seed)
        lo, hi = res.ci
        rows.append({"seed": seed, "estimate": float(res.estimate),
                     "n": int(res.n), "error": float(res.error),
                     "covered": bool(lo <= truth <= hi)})
    return rows


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", ["categorical-p0.3", "categorical-p0.01",
                                  "dependent-mean", "dependent-median"])
def test_law_matches_pinned(cases, pinned, case):
    rows = _record(*cases[case])
    before = pinned[case]
    assert [r["seed"] for r in before] == list(SEEDS)
    ks = stats.ks_2samp([r["estimate"] for r in before],
                        [r["estimate"] for r in rows])
    assert ks.pvalue >= KS_ALPHA, (case, ks)
    covered = sum(r["covered"] for r in rows)
    assert covered >= sum(r["covered"] for r in before) - COVERAGE_SLACK


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case: _record(*spec) for case, spec in _cases().items()},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(SEEDS)} seeds per case -> {FIXTURE}")
