"""Tests for the shared sampling helpers."""

import pytest


class TestBaseHelpers:
    def test_draw_sample_without_replacement(self):
        from repro.sampling.base import draw_sample
        sample = draw_sample(list(range(50)), 10, seed=1)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_draw_sample_with_replacement_allows_oversampling(self):
        from repro.sampling.base import draw_sample
        sample = draw_sample([1, 2, 3], 10, replace=True, seed=2)
        assert len(sample) == 10

    def test_draw_sample_validation(self):
        from repro.sampling.base import draw_sample
        with pytest.raises(ValueError):
            draw_sample([1, 2], 3)
        with pytest.raises(ValueError):
            draw_sample([1, 2], -1)

    def test_allocate_per_split_sums_to_total(self):
        from repro.hdfs.splits import InputSplit
        from repro.sampling.base import allocate_per_split
        splits = [InputSplit("/f", i, i * 100, 100, logical_length=ln)
                  for i, ln in enumerate([100, 300, 600])]
        counts = allocate_per_split(splits, 100)
        assert sum(counts) == 100
        assert counts[2] > counts[0]

    def test_allocate_empty(self):
        from repro.sampling.base import allocate_per_split
        assert allocate_per_split([], 10) == []
