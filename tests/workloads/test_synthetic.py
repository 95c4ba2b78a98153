"""Tests for synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import (
    ar1_series,
    categorical_dataset,
    clustered_lines,
    gaussian_mixture_points,
    keyed_lines,
    numeric_dataset,
    numeric_lines,
    parse_point,
    point_lines,
    population_summary,
)
from repro.workloads.synthetic import _CHUNK_ROWS, numeric_text


class TestNumericDataset:
    @pytest.mark.parametrize("dist", ["normal", "lognormal", "exponential",
                                      "uniform", "pareto"])
    def test_distributions_available(self, dist):
        data = numeric_dataset(500, dist, seed=1)
        assert data.shape == (500,)
        assert np.isfinite(data).all()

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            numeric_dataset(10, "cauchy-ish")

    def test_deterministic(self):
        a = numeric_dataset(100, "lognormal", seed=2)
        b = numeric_dataset(100, "lognormal", seed=2)
        np.testing.assert_array_equal(a, b)

    def test_params_forwarded(self):
        data = numeric_dataset(5000, "normal", seed=3, loc=500.0, scale=1.0)
        assert np.mean(data) == pytest.approx(500.0, abs=1.0)


class TestLineRendering:
    def test_numeric_lines_fixed_width(self):
        lines = numeric_lines([1.5, 123456.789])
        assert all(len(line) == 15 for line in lines)
        assert float(lines[0]) == 1.5

    def test_roundtrip_precision(self):
        values = numeric_dataset(100, "lognormal", seed=4)
        parsed = [float(line) for line in numeric_lines(values)]
        np.testing.assert_allclose(parsed, values, atol=1e-6)

    def test_keyed_lines_format(self):
        lines = keyed_lines([1.0, 2.0, 3.0], 2, seed=5)
        for line in lines:
            key, _, value = line.partition("\t")
            assert key.startswith("k")
            float(value)

    def test_clustered_lines_sorted(self):
        lines = clustered_lines([3.0, 1.0, 2.0])
        values = [float(l) for l in lines]
        assert values == sorted(values)


def _reference_text(values):
    """The reference render: one ``%`` conversion per value."""
    return "".join("%015.6f\n" % x for x in values)


def _step_ulps(x, steps):
    """``x`` moved ``steps`` representable floats up (or down)."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, toward))
    return x


#: Exact binary ties at the 6th decimal: ``j/128`` is representable, and
#: for odd ``j`` its scaled value ends in ``.5``.
_TIES = st.integers(0, 2**34).map(lambda j: j / 128)
#: Floats next to a half-way point ``(k + ½)·10⁻⁶``, on both sides.
_NEAR_HALF = st.builds(
    _step_ulps,
    st.integers(0, 10**14 - 1).map(lambda k: (2 * k + 1) / 2e6),
    st.integers(-3, 3))
#: Around the 8-digit limit: ``99999999.9999995`` and up take 16 chars.
_STRADDLE_1E8 = st.builds(
    _step_ulps,
    st.sampled_from([99_999_999.999_999, 99_999_999.999_999_5, 1e8]),
    st.integers(-4, 4))
_SPECIALS = st.sampled_from([
    -0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
    2.2250738585072014e-308, -5e-324, -1e-9, -1.5, 1e300])
_FIXED_DOMAIN = st.floats(min_value=0.0, max_value=99_999_999.999_999)


class TestNumericTextKernel:
    """The fixed-point kernel against the one-``%``-per-value render."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_FIXED_DOMAIN, _TIES, _NEAR_HALF),
                    max_size=40))
    @example([])
    @example([0.0078125, 0.5, 2.5e-7, 5e-7, 0.0000015])
    # The products nearest the first half-way point, ``½``: the only
    # place where ``floor(p + ½)`` could part from ``rint(p)`` off a
    # tie is ``p = nextafter(0.5, 0)``, and no ``v·10⁶`` lands on it.
    @example([_step_ulps(5e-7, steps) for steps in range(-3, 4)])
    def test_in_domain_matches_reference(self, values):
        expected = _reference_text(values)
        assert numeric_text(values) == expected
        assert numeric_text(np.array(values, dtype=float)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), _FIXED_DOMAIN, _TIES,
                              _NEAR_HALF, _STRADDLE_1E8, _SPECIALS),
                    max_size=30))
    @example([99_999_999.999_999_5])
    @example([-0.0])
    @example([float("nan"), 1.5])
    @example([5e-324, 1.5])
    def test_any_float_matches_reference(self, values):
        assert numeric_text(values) == _reference_text(values)

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_scale_arrays_across_chunks(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 * _CHUNK_ROWS + 7
        values = np.abs(rng.standard_cauchy(n)) * 10.0 ** rng.uniform(
            -7, 4, n)
        # Half-way neighbours at random rows, chunk edges included.
        rows = np.concatenate([rng.integers(0, n, 40),
                               [0, _CHUNK_ROWS - 1, _CHUNK_ROWS, n - 1]])
        k = rng.integers(0, 10**10, rows.size)
        values[rows] = [_step_ulps((2 * int(j) + 1) / 2e6, int(s))
                        for j, s in zip(k, rng.integers(-2, 3, rows.size))]
        values = np.minimum(values, 99_999_999.0)  # keep the kernel path
        assert numeric_text(values) == _reference_text(values.tolist())

    def test_numeric_lines_are_the_text_lines(self):
        values = [1.5, float("nan"), -0.0, 0.0078125]
        assert numeric_lines(values) == [
            "%015.6f" % x for x in values]


class TestCategoricalDataset:
    def test_values_binary(self):
        data = categorical_dataset(1000, 0.3, seed=6)
        assert set(np.unique(data)) <= {0, 1}

    def test_proportion_close(self):
        data = categorical_dataset(20_000, 0.3, seed=7)
        assert np.mean(data) == pytest.approx(0.3, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            categorical_dataset(10, 0.0)


class TestAr1Series:
    def test_stationary_around_loc(self):
        series = ar1_series(5000, phi=0.5, loc=100.0, seed=8)
        assert np.mean(series) == pytest.approx(100.0, abs=1.0)

    def test_phi_bounds(self):
        with pytest.raises(ValueError):
            ar1_series(10, phi=1.0)

    def test_dependence_increases_with_phi(self):
        from repro.core.dependent import lag1_autocorrelation
        weak = ar1_series(3000, phi=0.1, seed=9)
        strong = ar1_series(3000, phi=0.9, seed=9)
        assert lag1_autocorrelation(strong) > lag1_autocorrelation(weak)


class TestMixturePoints:
    def test_shapes(self):
        pts, labels = gaussian_mixture_points(
            300, [[0, 0], [10, 10]], seed=10)
        assert pts.shape == (300, 2)
        assert labels.shape == (300,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_weights_respected(self):
        _, labels = gaussian_mixture_points(
            10_000, [[0, 0], [10, 10]], weights=[0.9, 0.1], seed=11)
        assert np.mean(labels == 0) == pytest.approx(0.9, abs=0.02)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture_points(10, [[0, 0]], weights=[0.5])

    def test_point_lines_roundtrip(self):
        pts, _ = gaussian_mixture_points(50, [[5, 5]], seed=12)
        lines = point_lines(pts)
        parsed = np.array([parse_point(line) for line in lines])
        np.testing.assert_allclose(parsed, pts, atol=1e-6)


class TestPopulationSummary:
    def test_fields(self):
        summary = population_summary([1.0, 2.0, 3.0, 4.0])
        assert summary["mean"] == 2.5
        assert summary["median"] == 2.5
        assert summary["sum"] == 10.0
        assert summary["std"] == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert summary["cv"] == pytest.approx(summary["std"] / 2.5)


class TestSkewedKeyedValues:
    def test_shape_and_key_coverage(self):
        from repro.workloads import skewed_keyed_values
        keys, values = skewed_keyed_values(10_000, 8, seed=3)
        assert len(keys) == len(values) == 10_000
        counts = {k: int((keys == k).sum()) for k in set(keys)}
        assert len(counts) == 8                 # every key appears
        ordered = [counts[f"g{i:03d}"] for i in range(8)]
        assert ordered == sorted(ordered, reverse=True)  # Zipf head-heavy
        assert min(ordered) >= 1

    @pytest.mark.parametrize("n,n_keys", [(50, 50), (100, 80), (20, 20),
                                          (200, 150), (65, 64)])
    def test_n_close_to_n_keys_rounding_slack(self, n, n_keys):
        # regression: bumping floored-to-zero tail keys up to one row
        # each can overshoot n; the trim must keep every key >= 1
        from repro.workloads import skewed_keyed_values
        keys, values = skewed_keyed_values(n, n_keys, seed=1)
        assert len(keys) == len(values) == n
        assert len(set(keys)) == n_keys

    def test_validation(self):
        from repro.workloads import skewed_keyed_values
        with pytest.raises(ValueError):
            skewed_keyed_values(5, 10)
        with pytest.raises(ValueError):
            skewed_keyed_values(10, 2, skew=-1.0)
