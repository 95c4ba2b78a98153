"""Tests for the in-memory EARL driver."""

import numpy as np
import pytest

from repro.core import EarlConfig, EarlSession


@pytest.fixture(scope="module")
def population():
    return np.random.default_rng(1).lognormal(3.0, 1.0, 200_000)


class TestEarlSessionBasics:
    def test_mean_within_error_bound_statistically(self, population):
        """Across seeds the relative error stays near the σ=5% bound
        (a 1-sigma style guarantee, as in the paper)."""
        true_mean = population.mean()
        errors = []
        for seed in range(10):
            res = EarlSession(population, "mean",
                              config=EarlConfig(sigma=0.05, seed=seed)).run()
            errors.append(abs(res.estimate - true_mean) / true_mean)
        assert np.mean(errors) < 0.05
        assert np.quantile(errors, 0.8) < 0.10

    def test_uses_tiny_fraction_of_data(self, population):
        res = EarlSession(population, "mean",
                          config=EarlConfig(sigma=0.05, seed=1)).run()
        assert res.sample_fraction < 0.05
        assert not res.used_fallback

    def test_iterations_recorded(self, population):
        res = EarlSession(population, "mean",
                          config=EarlConfig(sigma=0.05, seed=2)).run()
        assert res.num_iterations >= 1
        assert res.iterations[-1].expanded is False
        assert res.iterations[-1].sample_size == res.n
        for record in res.iterations[:-1]:
            assert record.expanded

    def test_achieved_flag_consistent(self, population):
        res = EarlSession(population, "mean",
                          config=EarlConfig(sigma=0.05, seed=3)).run()
        assert res.achieved == (res.error <= res.sigma)

    def test_tighter_sigma_needs_larger_sample(self, population):
        loose = EarlSession(population, "mean",
                            config=EarlConfig(sigma=0.10, seed=4)).run()
        tight = EarlSession(population, "mean",
                            config=EarlConfig(sigma=0.02, seed=4)).run()
        assert tight.n > loose.n

    def test_median_supported(self, population):
        res = EarlSession(population, "median",
                          config=EarlConfig(sigma=0.05, seed=5)).run()
        true_median = np.median(population)
        assert abs(res.estimate - true_median) / true_median < 0.15

    def test_ssabe_diagnostics_attached(self, population):
        res = EarlSession(population, "mean",
                          config=EarlConfig(sigma=0.05, seed=6)).run()
        assert res.ssabe is not None
        assert res.B == res.ssabe.B or res.B > 0

    def test_ci_available(self, population):
        res = EarlSession(population, "mean",
                          config=EarlConfig(sigma=0.05, seed=7)).run()
        lo, hi = res.ci
        assert lo < res.uncorrected_estimate < hi


class TestCorrections:
    def test_sum_corrected_by_inverse_fraction(self, population):
        res = EarlSession(population, "sum",
                          config=EarlConfig(sigma=0.05, seed=8)).run()
        true_sum = population.sum()
        assert abs(res.estimate - true_sum) / true_sum < 0.15
        # the uncorrected estimate is the sample sum — far smaller
        assert res.uncorrected_estimate < res.estimate

    def test_explicit_correction_override(self, population):
        res = EarlSession(population, "mean", correction="inverse_fraction",
                          config=EarlConfig(sigma=0.05, seed=9)).run()
        assert res.estimate == pytest.approx(
            res.uncorrected_estimate / res.sample_fraction)


class TestFallback:
    def test_small_population_falls_back_to_exact(self):
        small = np.random.default_rng(10).lognormal(3.0, 1.0, 300)
        res = EarlSession(small, "mean",
                          config=EarlConfig(sigma=0.01, seed=11)).run()
        assert res.used_fallback
        assert res.achieved
        assert res.error == 0.0
        assert res.estimate == pytest.approx(small.mean())
        assert res.sample_fraction == 1.0

    def test_override_forcing_fallback(self, population):
        cfg = EarlConfig(sigma=0.05, seed=12, B_override=1000,
                         n_override=len(population))
        res = EarlSession(population, "mean", config=cfg).run()
        assert res.used_fallback
        assert res.estimate == pytest.approx(population.mean())


class TestOverrides:
    def test_explicit_B_and_n(self, population):
        cfg = EarlConfig(sigma=0.05, seed=13, B_override=25, n_override=2000)
        res = EarlSession(population, "mean", config=cfg).run()
        assert res.B == 25
        assert res.iterations[0].sample_size == 2000

    def test_max_iterations_bounds_loop(self, population):
        cfg = EarlConfig(sigma=0.0001, seed=14, max_iterations=3,
                         B_override=20, n_override=100)
        res = EarlSession(population, "mean", config=cfg).run()
        assert res.num_iterations <= 3


@pytest.mark.parametrize("statistic", ["mean", "proportion"])
def test_confidence_sets_the_interval(population, statistic):
    """``EarlConfig.confidence`` reaches the stage: the same run's 80%
    interval lies strictly inside its 99% one (bootstrap percentiles
    for the mean, the closed form's z-interval for a proportion)."""
    data = population if statistic == "mean" else population > 20.0

    def interval(confidence):
        return EarlSession(data, statistic, config=EarlConfig(
            sigma=0.02, seed=1, B_override=50, n_override=2000,
            confidence=confidence)).run().ci

    (lo80, hi80), (lo99, hi99) = interval(0.8), interval(0.99)
    assert lo99 < lo80 < hi80 < hi99


class TestValidation:
    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            EarlSession([], "mean")

    def test_3d_data_rejected(self):
        with pytest.raises(ValueError):
            EarlSession(np.zeros((3, 3, 3)), "mean")

    def test_2d_data_rejected_for_scalar_statistics(self):
        """Scalar-item statistics cannot ingest rows; the rejection must
        be a clear ValueError at construction, not a deep TypeError."""
        with pytest.raises(ValueError, match="scalar items"):
            EarlSession(np.zeros((5000, 2)), "mean")

    def test_2d_rows_are_items(self):
        """2-D data is accepted: each row is one item (pair statistics
        such as "correlation" resample rows jointly)."""
        rng = np.random.default_rng(21)
        x = rng.normal(size=4000)
        pairs = np.column_stack([x, 0.9 * x + 0.4 * rng.normal(size=4000)])
        cfg = EarlConfig(sigma=0.1, seed=22, B_override=20, n_override=300)
        res = EarlSession(pairs, "correlation", config=cfg).run()
        truth = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
        assert res.population_size == 4000
        assert abs(res.estimate - truth) < 0.2

    def test_deterministic_given_seed(self, population):
        a = EarlSession(population, "mean",
                        config=EarlConfig(sigma=0.05, seed=15)).run()
        b = EarlSession(population, "mean",
                        config=EarlConfig(sigma=0.05, seed=15)).run()
        assert a.estimate == b.estimate
        assert a.n == b.n
