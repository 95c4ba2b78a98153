"""Tests for the Accuracy Estimation Stage."""

import numpy as np
import pytest

from repro.core.accuracy import (
    ERROR_METRICS,
    AccuracyEstimationStage,
    get_error_metric,
    summarize_distribution,
)


class TestSummarizeDistribution:
    def test_basic_fields(self):
        estimates = np.array([9.0, 10.0, 11.0, 10.0])
        est = summarize_distribution(estimates, 10.0, n=100)
        assert est.estimate == pytest.approx(10.0)
        assert est.point_estimate == 10.0
        assert est.n == 100
        assert est.B == 4
        assert est.std == pytest.approx(np.std(estimates, ddof=1))
        assert est.variance == pytest.approx(est.std ** 2)

    def test_cv_and_meets(self):
        estimates = np.array([9.0, 10.0, 11.0])
        est = summarize_distribution(estimates, 10.0, n=10)
        assert est.cv == pytest.approx(1.0 / 10.0)
        assert est.meets(0.2)
        assert not est.meets(0.05)

    def test_ci_ordering(self):
        estimates = np.random.default_rng(1).normal(100, 5, 200)
        est = summarize_distribution(estimates, 100.0, n=50)
        assert est.ci_low < est.estimate < est.ci_high

    def test_bias(self):
        estimates = np.array([11.0, 12.0, 13.0])
        est = summarize_distribution(estimates, 10.0, n=5)
        assert est.bias == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_distribution(np.array([]), 1.0, n=1)

    def test_alternative_metrics(self):
        estimates = np.array([9.0, 10.0, 11.0])
        var = summarize_distribution(estimates, 10.0, n=5, metric="variance")
        assert var.error == pytest.approx(1.0)
        bias = summarize_distribution(estimates, 9.0, n=5, metric="bias")
        assert bias.error == pytest.approx(1.0)
        ci = summarize_distribution(estimates, 10.0, n=5,
                                    metric="relative_ci")
        assert ci.error == pytest.approx(1.96 / 10.0)


class TestOnePassSummary:
    """``summarize_distribution`` computes mean/std once and reads both
    CI bounds off one sort; every field must still be what the separate
    NumPy calls give."""

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    @pytest.mark.parametrize("B", [1, 2, 15, 40])
    def test_ci_bounds_equal_np_quantile(self, B, confidence):
        rng = np.random.default_rng(100 * B)
        alpha = (1.0 - confidence) / 2.0
        for scale in (1.0, -3.0, 1e6, 1e-6):
            estimates = scale * rng.lognormal(0.0, 1.0, B)
            est = summarize_distribution(estimates, 1.0, n=50,
                                         confidence=confidence)
            lo, hi = np.quantile(estimates, [alpha, 1.0 - alpha])
            assert est.ci_low == pytest.approx(float(lo), rel=1e-12)
            assert est.ci_high == pytest.approx(float(hi), rel=1e-12)

    @pytest.mark.parametrize("metric", sorted(ERROR_METRICS))
    @pytest.mark.parametrize("B", [1, 2, 15, 40])
    def test_other_fields_equal_the_separate_calls(self, B, metric):
        from repro.util.stats import coefficient_of_variation

        estimates = np.random.default_rng(7 + B).lognormal(1.0, 0.5, B)
        point = 2.5
        est = summarize_distribution(estimates, point, n=80, metric=metric)
        mean = float(np.mean(estimates))
        std = float(np.std(estimates, ddof=1)) if B > 1 else 0.0
        assert (est.estimate, est.std, est.variance) == (mean, std, std * std)
        assert est.cv == coefficient_of_variation(mean, std)
        assert est.bias == mean - point
        assert est.error == ERROR_METRICS[metric](estimates, point)
        assert (est.point_estimate, est.n, est.B) == (point, 80, B)

    def test_a_replaced_cv_metric_is_honoured(self, monkeypatch):
        monkeypatch.setitem(ERROR_METRICS, "cv", lambda est, point: 42.0)
        est = summarize_distribution(np.array([1.0, 2.0, 3.0]), 2.0, n=3)
        assert est.error == 42.0 and est.cv == pytest.approx(0.5)

    def test_nan_estimates_give_nan_bounds(self):
        est = summarize_distribution(np.array([1.0, np.nan, 3.0]), 2.0, n=3)
        assert np.isnan(est.ci_low) and np.isnan(est.ci_high)


class TestErrorMetricRegistry:
    def test_all_metrics_callable(self):
        estimates = np.array([1.0, 2.0, 3.0])
        for name in ERROR_METRICS:
            metric = get_error_metric(name)
            assert isinstance(metric(estimates, 2.0), float)

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            get_error_metric("vibes")


class TestAccuracyEstimationStage:
    @pytest.fixture
    def population(self):
        return np.random.default_rng(2).lognormal(3.0, 1.0, 20_000)

    def test_offer_initializes_then_expands(self, population):
        stage = AccuracyEstimationStage("mean", B=30, seed=3)
        first = stage.offer(population[:500])
        assert stage.sample_size == 500
        second = stage.offer(population[500:1500])
        assert stage.sample_size == 1500
        assert second.n == 1500
        assert len(stage.history) == 2
        # more data → tighter error, statistically (allow slack)
        assert second.cv < first.cv * 1.5

    def test_error_decreases_over_expansions(self, population):
        stage = AccuracyEstimationStage("mean", B=40, seed=4)
        cvs = []
        consumed = 0
        for size in [250, 500, 1000, 2000, 4000]:
            cvs.append(stage.offer(population[consumed:size]).cv)
            consumed = size
        assert cvs[-1] < cvs[0]

    def test_error_stability(self, population):
        stage = AccuracyEstimationStage("mean", B=30, seed=5)
        assert stage.error_stability() is None
        stage.offer(population[:300])
        assert stage.error_stability() is None
        stage.offer(population[300:600])
        assert stage.error_stability() is not None
        assert stage.error_stability() >= 0

    def test_median_statistic(self, population):
        stage = AccuracyEstimationStage("median", B=25, seed=6)
        est = stage.offer(population[:1000])
        assert est.estimate == pytest.approx(np.median(population[:1000]),
                                             rel=0.1)

    def test_unknown_metric_rejected_eagerly(self):
        with pytest.raises(KeyError):
            AccuracyEstimationStage("mean", B=10, metric="nope")

    def test_estimate_tracks_point_estimate(self, population):
        stage = AccuracyEstimationStage("mean", B=50, seed=7)
        est = stage.offer(population[:2000])
        assert est.estimate == pytest.approx(est.point_estimate, rel=0.05)
