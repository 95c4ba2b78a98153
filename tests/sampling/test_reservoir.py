"""Tests for the reservoir-sampling baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.reservoir import reservoir_sample


class TestReservoirSample:
    def test_exact_size(self):
        sample = reservoir_sample(range(1000), 50, seed=1)
        assert len(sample) == 50

    def test_subset_of_population(self):
        sample = reservoir_sample(range(100), 20, seed=2)
        assert set(sample) <= set(range(100))

    def test_short_stream_returns_all(self):
        assert sorted(reservoir_sample(range(5), 10, seed=3)) == list(range(5))

    def test_no_duplicates(self):
        sample = reservoir_sample(range(1000), 100, seed=4)
        assert len(set(sample)) == 100

    def test_deterministic(self):
        a = reservoir_sample(range(500), 30, seed=5)
        b = reservoir_sample(range(500), 30, seed=5)
        assert a == b

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            reservoir_sample(range(10), 0)

    def test_uniformity_chi_square_like(self):
        """Every item should appear with probability k/n over many runs."""
        counts = np.zeros(20)
        runs = 2000
        rng = np.random.default_rng(6)
        for _ in range(runs):
            for item in reservoir_sample(range(20), 5, seed=rng):
                counts[item] += 1
        expected = runs * 5 / 20
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))

    @given(n=st.integers(min_value=1, max_value=300),
           k=st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_property_size_and_membership(self, n, k):
        sample = reservoir_sample(range(n), k, seed=7)
        assert len(sample) == min(n, k)
        assert all(0 <= x < n for x in sample)
        assert len(set(sample)) == len(sample)
