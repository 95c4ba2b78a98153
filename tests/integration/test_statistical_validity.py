"""Statistical validity tests: the error bounds must mean something.

The paper's entire premise is that the bootstrap cv is a *reliable*
error estimate (§1: "reliable on-line estimates of the degree of
accuracy").  These tests verify the claim empirically: across many
independent runs, reported bounds must track realized errors, delta-
maintained result distributions must match fresh ones, and stricter
error metrics must buy stricter realized accuracy.
"""

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.core import EarlConfig, EarlSession

#: Many-seed statistical-stability suite: excluded from the default
#: tier-1 run (see pytest.ini); `make test-all` includes it.
pytestmark = pytest.mark.slow
from repro.core.bootstrap import bootstrap
from repro.core.delta import ResampleSet
from repro.workloads import numeric_dataset


class TestBoundCalibration:
    @pytest.mark.parametrize("distribution", ["lognormal", "exponential",
                                              "pareto"])
    def test_mean_error_tracks_sigma_across_distributions(self,
                                                          distribution):
        """cv ≤ σ is a ~1-standard-deviation bound: the *average*
        realized error across runs must sit at or below σ, for every
        data shape the workload generator produces.  32 runs: the
        average of 8 has a standard deviation of ~0.01 here, which made
        the verdict depend on which eight streams one happened to get
        (0.029-0.054 over the three shapes; 0.034-0.039 at 32)."""
        population = numeric_dataset(150_000, distribution, seed=1)
        truth = float(np.mean(population))
        errors = []
        for seed in range(32):
            res = EarlSession(population, "mean",
                              config=EarlConfig(sigma=0.05,
                                                seed=seed)).run()
            errors.append(abs(res.estimate - truth) / abs(truth))
        assert float(np.mean(errors)) < 0.05

    def test_reported_cv_predicts_realized_spread(self):
        """The cv reported at termination should match the actual
        run-to-run dispersion of the estimates (that is its job)."""
        population = numeric_dataset(150_000, "lognormal", seed=2)
        estimates, cvs = [], []
        for seed in range(12):
            res = EarlSession(population, "mean",
                              config=EarlConfig(sigma=0.05, seed=seed,
                                                B_override=40,
                                                n_override=1500)).run()
            estimates.append(res.estimate)
            cvs.append(res.error)
        realized_cv = float(np.std(estimates, ddof=1)
                            / np.mean(estimates))
        reported_cv = float(np.mean(cvs))
        assert realized_cv == pytest.approx(reported_cv, rel=0.75)

    def test_stricter_metric_buys_stricter_accuracy(self):
        """relative_ci (z·cv) forces larger samples than plain cv at the
        same σ, and the realized errors shrink accordingly."""
        population = numeric_dataset(200_000, "lognormal", seed=3)
        truth = float(np.mean(population))

        def run(metric, seed):
            cfg = EarlConfig(sigma=0.05, seed=seed, error_metric=metric)
            return EarlSession(population, "mean", config=cfg).run()

        cv_runs = [run("cv", s) for s in range(6)]
        ci_runs = [run("relative_ci", s) for s in range(6)]
        assert np.mean([r.n for r in ci_runs]) > \
            np.mean([r.n for r in cv_runs])
        cv_err = np.mean([abs(r.estimate - truth) / truth for r in cv_runs])
        ci_err = np.mean([abs(r.estimate - truth) / truth for r in ci_runs])
        assert ci_err < cv_err


class TestMaintainedDistributionMatchesFresh:
    @pytest.mark.parametrize("mode", ["naive", "optimized"])
    def test_ks_distance_small(self, mode):
        """Kolmogorov-Smirnov check: the delta-maintained result
        distribution is statistically indistinguishable from a fresh
        bootstrap of the same sample."""
        population = numeric_dataset(20_000, "lognormal", seed=4)
        B = 150
        rs = ResampleSet("mean", B, maintenance=mode, seed=5)
        rs.initialize(population[:2000])
        rs.expand(population[2000:4000])
        rs.expand(population[4000:8000])
        maintained = rs.estimates()
        fresh = bootstrap(population[:8000], "mean", B=B, seed=6).estimates
        _, p_value = sp_stats.ks_2samp(maintained, fresh)
        # we only reject equality at overwhelming evidence; a tiny
        # p-value here would mean maintenance skews the distribution
        assert p_value > 0.01

    def test_percentile_cis_agree(self):
        population = numeric_dataset(20_000, "lognormal", seed=7)
        B = 200
        rs = ResampleSet("mean", B, maintenance="optimized", seed=8)
        rs.initialize(population[:3000])
        rs.expand(population[3000:6000])
        maintained = rs.estimates()
        fresh = bootstrap(population[:6000], "mean", B=B, seed=9)
        m_lo, m_hi = np.quantile(maintained, [0.025, 0.975])
        f_lo, f_hi = fresh.confidence_interval(0.95)
        width_m, width_f = m_hi - m_lo, f_hi - f_lo
        assert width_m == pytest.approx(width_f, rel=0.5)
        # the intervals overlap substantially
        assert m_lo < f_hi and f_lo < m_hi


class TestBootstrapCoverage:
    def test_percentile_interval_coverage(self):
        """95% percentile intervals over the sample mean should cover
        the population mean about 95% of the time."""
        rng = np.random.default_rng(10)
        population = rng.lognormal(3.0, 1.0, 500_000)
        truth = float(np.mean(population))
        hits = 0
        trials = 60
        for _ in range(trials):
            sample = rng.choice(population, size=800, replace=False)
            res = bootstrap(sample, "mean", B=200, seed=rng)
            lo, hi = res.confidence_interval(0.95)
            if lo <= truth <= hi:
                hits += 1
        assert hits / trials > 0.85
