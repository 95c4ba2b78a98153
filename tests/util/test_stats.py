"""Tests for the removable running statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    RunningStats,
    coefficient_of_variation,
    relative_half_width,
    repeated_sum,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestRunningStats:
    def test_empty_has_zero_count(self):
        assert RunningStats().count == 0

    def test_mean_of_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStats().mean

    def test_single_value(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.variance() == 0.0

    def test_matches_numpy(self):
        values = [1.5, 2.5, -3.0, 7.25, 0.0, 11.0]
        s = RunningStats.from_values(values)
        assert s.mean == pytest.approx(np.mean(values))
        assert s.variance() == pytest.approx(np.var(values, ddof=1))
        assert s.std() == pytest.approx(np.std(values, ddof=1))

    def test_sum_property(self):
        s = RunningStats.from_values([1.0, 2.0, 3.5])
        assert s.sum == pytest.approx(6.5)

    def test_remove_inverts_add(self):
        s = RunningStats.from_values([1.0, 2.0, 3.0, 4.0])
        s.add(10.0)
        s.remove(10.0)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.variance() == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_remove_to_empty(self):
        s = RunningStats.from_values([42.0])
        s.remove(42.0)
        assert s.count == 0

    def test_remove_from_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStats().remove(1.0)

    def test_merge_matches_batch(self):
        a = RunningStats.from_values([1.0, 2.0, 3.0])
        b = RunningStats.from_values([10.0, 20.0])
        a.merge(b)
        combined = [1.0, 2.0, 3.0, 10.0, 20.0]
        assert a.count == 5
        assert a.mean == pytest.approx(np.mean(combined))
        assert a.variance() == pytest.approx(np.var(combined, ddof=1))

    def test_merge_with_empty_is_noop(self):
        a = RunningStats.from_values([1.0, 2.0])
        a.merge(RunningStats())
        assert a.count == 2
        b = RunningStats()
        b.merge(a)
        assert b.count == 2
        assert b.mean == pytest.approx(1.5)

    def test_copy_is_independent(self):
        a = RunningStats.from_values([1.0, 2.0])
        b = a.copy()
        b.add(100.0)
        assert a.count == 2
        assert b.count == 3

    def test_cv(self):
        s = RunningStats.from_values([10.0, 20.0, 30.0])
        assert s.cv() == pytest.approx(np.std([10, 20, 30], ddof=1) / 20.0)

    @given(st.lists(finite_floats, min_size=2, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_numpy(self, values):
        s = RunningStats.from_values(values)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-8, abs=1e-6)
        assert s.variance() == pytest.approx(np.var(values, ddof=1),
                                             rel=1e-6, abs=1e-4)

    @given(st.lists(finite_floats, min_size=3, max_size=40),
           st.integers(min_value=0, max_value=39))
    @settings(max_examples=60, deadline=None)
    def test_property_add_remove_roundtrip(self, values, pick):
        pick = pick % len(values)
        s = RunningStats.from_values(values)
        removed = values[pick]
        s.remove(removed)
        remaining = values[:pick] + values[pick + 1:]
        assert s.count == len(remaining)
        assert s.mean == pytest.approx(np.mean(remaining), rel=1e-6, abs=1e-5)


class TestCoefficientOfVariation:
    def test_basic(self):
        assert coefficient_of_variation(10.0, 2.0) == pytest.approx(0.2)

    def test_negative_mean_uses_absolute(self):
        assert coefficient_of_variation(-10.0, 2.0) == pytest.approx(0.2)

    def test_zero_mean_zero_std(self):
        assert coefficient_of_variation(0.0, 0.0) == 0.0

    def test_zero_mean_positive_std_is_inf(self):
        assert math.isinf(coefficient_of_variation(0.0, 1.0))

    def test_negative_std_raises(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(1.0, -0.1)

    def test_relative_half_width(self):
        assert relative_half_width(10.0, 2.0, z=2.0) == pytest.approx(0.4)


@settings(max_examples=300, deadline=None)
@given(start=st.floats(allow_nan=False), step=st.floats(allow_nan=False),
       count=st.integers(-2, 4000))
def test_repeated_sum_is_the_left_to_right_loop(start, step, count):
    total = start
    for _ in range(count):
        total += step
    got = repeated_sum(start, step, count)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(total).tobytes()


@given(values=st.lists(st.one_of(finite_floats,
                                 st.sampled_from([0.0, -0.0])),
                       max_size=80),
       head=st.integers(0, 80))
def test_add_floats_is_add_per_value(values, head):
    folded, added = RunningStats(), RunningStats()
    for value in values[:head]:
        folded.add(value)
        added.add(value)
    folded.add_floats(values[head:])
    for value in values[head:]:
        added.add(value)
    state = lambda s: np.array([s.count, s._mean, s._m2]).tobytes()
    assert state(folded) == state(added)
