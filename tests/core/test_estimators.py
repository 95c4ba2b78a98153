"""Tests for statistic registry and incremental states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import ResampleSet
from repro.core.estimators import (
    CorrelationState,
    FunctionalState,
    MeanState,
    MedianState,
    ProportionState,
    QuantileState,
    Statistic,
    SumState,
    available_statistics,
    get_statistic,
    register_statistic,
)

values_strategy = st.lists(
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False), min_size=1,
    max_size=50)


class TestRegistry:
    def test_known_names_resolve(self):
        for name in ["mean", "sum", "median", "variance", "std", "min",
                     "max", "proportion", "p25", "p75", "p90", "p95", "p99"]:
            stat = get_statistic(name)
            assert stat.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_statistic("mode")

    def test_quantile_form(self):
        stat = get_statistic("quantile:0.37")
        data = np.arange(101.0)
        assert stat(data) == pytest.approx(np.quantile(data, 0.37))

    def test_callable_wrapped(self):
        stat = get_statistic(lambda a: float(np.ptp(a)))
        assert stat(np.array([1.0, 5.0, 3.0])) == 4.0

    def test_statistic_passthrough(self):
        stat = get_statistic("mean")
        assert get_statistic(stat) is stat

    def test_invalid_spec_type(self):
        with pytest.raises(TypeError):
            get_statistic(123)

    def test_register_custom(self):
        stat = register_statistic(Statistic(
            "range", pointwise=lambda a: float(np.ptp(a))))
        assert get_statistic("range") is stat
        assert "range" in available_statistics()

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(10, 40))
        for name in ["mean", "sum", "median", "variance", "std", "min",
                     "max", "p90"]:
            stat = get_statistic(name)
            batch = stat.batch(matrix)
            rowwise = [stat(row) for row in matrix]
            np.testing.assert_allclose(batch, rowwise, rtol=1e-10)

    def test_state_copies_diverge_independently(self):
        """A copy is a state of the same kind that grows on its own:
        the original's result does not move."""
        rng = np.random.default_rng(2)
        for name in ["mean", "sum", "median", "variance", "std", "min",
                     "max", "proportion", "count", "p90", "correlation"]:
            stat = get_statistic(name)
            shape = (40, 2) if name == "correlation" else (40,)
            first, more = rng.normal(size=shape), rng.normal(size=shape)
            state = stat.make_state()
            state.add_many(first)
            before = state.result()
            clone = state.copy()
            clone.add_many(more)
            assert type(clone) is type(state), name
            assert state.result() == before and len(state) == 40, name
            assert len(clone) == 80, name
            both = np.concatenate([first, more])
            assert clone.result() == pytest.approx(stat(both)), name


class TestMeanSumStates:
    @given(values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_mean_state_matches_numpy(self, values):
        state = MeanState()
        for v in values:
            state.add(v)
        assert state.result() == pytest.approx(np.mean(values),
                                               rel=1e-8, abs=1e-6)

    def test_sum_add_remove(self):
        state = SumState()
        for v in [1.0, 2.0, 3.0]:
            state.add(v)
        state.remove(2.0)
        assert state.result() == 4.0
        assert len(state) == 2

    def test_sum_remove_empty_raises(self):
        with pytest.raises(ValueError):
            SumState().remove(1.0)

    def test_mean_copy_independent(self):
        a = MeanState()
        a.add(1.0)
        b = a.copy()
        b.add(3.0)
        assert a.result() == 1.0
        assert b.result() == 2.0

    def test_merge(self):
        a, b = MeanState(), MeanState()
        for v in [1.0, 2.0]:
            a.add(v)
        for v in [3.0, 4.0]:
            b.add(v)
        a.merge(b)
        assert a.result() == pytest.approx(2.5)


class TestQuantileStates:
    def test_median_matches_numpy(self):
        data = [5.0, 1.0, 9.0, 3.0, 7.0]
        state = MedianState()
        for v in data:
            state.add(v)
        assert state.result() == np.median(data)

    def test_even_count_interpolates(self):
        state = MedianState()
        for v in [1.0, 2.0, 3.0, 4.0]:
            state.add(v)
        assert state.result() == 2.5

    @given(values_strategy, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_quantile_matches_numpy(self, values, q):
        state = QuantileState(q)
        for v in values:
            state.add(v)
        assert state.result() == pytest.approx(np.quantile(values, q),
                                               rel=1e-9, abs=1e-9)

    def test_remove_then_result(self):
        state = MedianState()
        for v in [1.0, 2.0, 3.0, 100.0]:
            state.add(v)
        state.remove(100.0)
        assert state.result() == 2.0

    def test_remove_missing_raises(self):
        state = MedianState()
        state.add(1.0)
        with pytest.raises(KeyError):
            state.remove(2.0)

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            MedianState().result()

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            QuantileState(1.5)

    def test_copy_independent(self):
        a = MedianState()
        for v in [1.0, 2.0, 3.0]:
            a.add(v)
        b = a.copy()
        b.remove(3.0)
        assert a.result() == 2.0
        assert b.result() == 1.5


class TestProportionState:
    def test_share_of_truthy(self):
        state = ProportionState()
        for v in [1, 0, 1, 1]:
            state.add(v)
        assert state.result() == 0.75

    def test_remove(self):
        state = ProportionState()
        for v in [1, 0]:
            state.add(v)
        state.remove(1)
        assert state.result() == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ProportionState().result()


class TestCorrelationState:
    def test_perfect_correlation(self):
        state = CorrelationState()
        for x in range(10):
            state.add((x, 2 * x + 1))
        assert state.result() == pytest.approx(1.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        y = 0.5 * x + rng.normal(size=100)
        state = CorrelationState()
        for pair in zip(x, y):
            state.add(pair)
        assert state.result() == pytest.approx(np.corrcoef(x, y)[0, 1],
                                               rel=1e-9)

    def test_add_remove_roundtrip(self):
        state = CorrelationState()
        pairs = [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0), (4.0, 4.0)]
        for pair in pairs:
            state.add(pair)
        state.add((100.0, -100.0))
        state.remove((100.0, -100.0))
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        assert state.result() == pytest.approx(np.corrcoef(x, y)[0, 1],
                                               rel=1e-9)

    def test_degenerate_variance_returns_zero(self):
        state = CorrelationState()
        for x in range(5):
            state.add((1.0, float(x)))
        assert state.result() == 0.0

    def test_too_few_pairs_raises(self):
        state = CorrelationState()
        state.add((1.0, 2.0))
        with pytest.raises(ValueError):
            state.result()


class TestFunctionalState:
    def test_arbitrary_function(self):
        state = FunctionalState(lambda a: float(np.ptp(a)))
        for v in [3.0, 9.0, 1.0]:
            state.add(v)
        assert state.result() == 8.0

    def test_remove_single_occurrence(self):
        state = FunctionalState(lambda a: float(np.sum(a)))
        for v in [1.0, 2.0, 2.0]:
            state.add(v)
        state.remove(2.0)
        assert state.result() == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FunctionalState(np.mean).result()


class TestStateRemovalEquivalence:
    """Delta maintenance's core invariant: state after add+remove equals
    state built from the surviving values."""

    @given(values_strategy, st.integers(min_value=0, max_value=49))
    @settings(max_examples=40, deadline=None)
    def test_mean_state(self, values, pick):
        pick = pick % len(values)
        state = MeanState()
        for v in values:
            state.add(v)
        state.remove(values[pick])
        survivors = values[:pick] + values[pick + 1:]
        if survivors:
            assert state.result() == pytest.approx(np.mean(survivors),
                                                   rel=1e-6, abs=1e-5)

    @given(values_strategy, st.integers(min_value=0, max_value=49))
    @settings(max_examples=40, deadline=None)
    def test_median_state(self, values, pick):
        pick = pick % len(values)
        state = MedianState()
        for v in values:
            state.add(v)
        state.remove(values[pick])
        survivors = values[:pick] + values[pick + 1:]
        if survivors:
            assert state.result() == pytest.approx(np.median(survivors),
                                                   rel=1e-9, abs=1e-9)


ORDER_STATISTICS = ("median", "p25", "p75", "p90", "p95", "p99",
                    "quantile:0", "quantile:0.5", "quantile:1")


def _rows(kind: str, n: int, seed: int) -> np.ndarray:
    """Five rows of ``n`` values."""
    rng = np.random.default_rng(seed)
    if kind == "ties":          # integer-valued, a handful of levels
        return rng.integers(-3, 4, size=(5, n)).astype(float)
    rows = rng.normal(0.0, 10.0, size=(5, n))
    if kind == "nan":
        rows[rng.random((5, n)) < 0.1] = np.nan
        rows[0, 0] = np.nan     # at least one row holds a NaN
    return rows


class TestSortedRead:
    """An order statistic's read off rows sorted along their last axis
    is NumPy's ``batch`` answer bit for bit — which is what lets one
    sort of a resample set serve every order-statistic reader."""

    @given(n=st.sampled_from([1, 2, 3, 7, 8, 4_097, 4_352]),
           kind=st.sampled_from(["continuous", "ties", "nan"]),
           seed=st.integers(0, 2**32 - 1), B=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_equals_batch_bit_for_bit(self, n, kind, seed, B):
        rows = _rows(kind, n, seed)
        ordered = np.sort(rows, axis=1)[:B]      # a B-prefix of the sort
        for name in ORDER_STATISTICS:
            stat = get_statistic(name)
            batch = stat.batch(rows[:B])
            assert stat.sorted_read(ordered).tobytes() \
                == batch.tobytes(), (name, n, kind)
            if kind == "nan":    # a state's order of NaNs is undefined
                continue
            # The incremental state reads the same rule off its two
            # order statistics: half of the rows built in one batch,
            # half value by value.
            for i, row in enumerate(rows[:B]):
                state = stat.make_state()
                if i % 2:
                    state.add_many(row)
                else:
                    for value in row:
                        state.add(value)
                assert np.float64(state.result()).tobytes() \
                    == batch[i].tobytes(), (name, n, kind, i)

    def test_only_order_statistics_have_one(self):
        assert all(get_statistic(name).sorted_read is not None
                   for name in ORDER_STATISTICS + ("quantile:0.37",))
        assert all(get_statistic(name).sorted_read is None
                   for name in ("mean", "std", "min", "correlation"))

    def test_a_set_reads_every_reader_and_prefix_as_batch_does(self):
        data = np.random.default_rng(2).integers(0, 9, 3_000) / 4.0 + 1.0
        rs = ResampleSet("median", 9, seed=5)
        readers = [rs.add_reader(name) for name in ORDER_STATISTICS]
        rs.grow(data[:500])
        rs.grow(data[500:3_000], B=7, reads=[(readers[3], 4)])
        rows = rs._dense.live()
        for reader, name in zip(readers, ORDER_STATISTICS):
            stat = get_statistic(name)
            for B in (1, 4, 7):
                assert rs.estimates(reader=reader, B=B).tobytes() \
                    == stat.batch(rows[:B]).tobytes()
            assert rs.point_estimate(reader) == stat(data)

    def test_a_zero_at_the_order_position_takes_batch(self, monkeypatch):
        """``±0`` compare equal, so the sign NumPy returns depends on
        its partition: a read that comes out zero is ``batch``'s."""
        data = np.array([-0.0, 0.0] * 50 + [-1.0, 1.0] * 5)
        stat = get_statistic("median")
        batch, calls = stat.batch, []

        def spy(rows):
            calls.append(len(rows))
            return batch(rows)

        monkeypatch.setattr(stat, "batch", spy)
        rs = ResampleSet(stat, 6, seed=3)
        rs.grow(data)
        assert calls == [6]
        assert rs.estimates().tobytes() \
            == np.median(rs._dense.live(), axis=1).tobytes()
