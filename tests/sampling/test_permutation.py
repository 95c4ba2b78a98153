"""PermutationPrefix: a uniform random permutation drawn as it is read.

The law is the contract: every prefix is a uniform ordered sample
without replacement, on both sides of the switch from sequential
rejection to shuffling the remainder whole, and the rows depend on the
stream alone — never on how the prefix was asked for.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from repro.sampling import PermutationPrefix
from repro.util.rng import spawn_child


class _ShortLadder(PermutationPrefix):
    """Rungs 1, 2, 4, …: tiny populations then draw their first
    positions by rejection before the switch."""

    __slots__ = ()
    FIRST_RUNG = 1


class _TwoRungLadder(PermutationPrefix):
    """Rungs 2, 4, 8 over ``range(12)``: positions 0–3 by rejection,
    4–11 shuffled whole."""

    __slots__ = ()
    FIRST_RUNG = 2


class TestLaw:
    @pytest.mark.parametrize("cls", [PermutationPrefix, _ShortLadder])
    def test_every_order_of_five_is_equally_likely(self, cls):
        rng = np.random.default_rng(2024)
        orders = {order: i for i, order in
                  enumerate(itertools.permutations(range(5)))}
        counts = np.zeros(len(orders), dtype=np.int64)
        for _ in range(12_000):
            counts[orders[tuple(cls(5, rng).head(5).tolist())]] += 1
        assert sp_stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("positions", [(0, 1), (3, 4), (0, 11)])
    def test_pairs_of_twelve_across_the_switch(self, positions):
        """(3, 4) straddles the switch: the last rejected position and
        the first shuffled one; every ordered pair of distinct rows is
        equally likely there as anywhere."""
        rng = np.random.default_rng(77)
        i, j = positions
        counts = np.zeros((12, 12), dtype=np.int64)
        for _ in range(13_200):
            head = _TwoRungLadder(12, rng).head(12)
            counts[head[i], head[j]] += 1
        assert not np.diag(counts).any()
        off_diagonal = counts[~np.eye(12, dtype=bool)]
        assert sp_stats.chisquare(off_diagonal).pvalue > 1e-3

    def test_rejection_prefix_is_uniform_over_a_large_population(self):
        """Far below the switch: which rows land in a 64-row prefix of
        ``range(200)`` is uniform."""
        rng = np.random.default_rng(5)
        counts = np.bincount(np.concatenate(
            [PermutationPrefix(200, rng).head(64) for _ in range(500)]),
            minlength=200)
        assert sp_stats.chisquare(counts).pvalue > 1e-3


class TestShape:
    @pytest.mark.parametrize("size", [0, 1, 5, 63, 64, 65, 127, 128, 129,
                                      300, 4_097])
    def test_head_of_everything_is_a_permutation(self, size):
        head = PermutationPrefix(size, 3).head(size)
        assert head.dtype == np.int64
        assert sorted(head.tolist()) == list(range(size))

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 3_000), seed=st.integers(0, 2**32 - 1),
           asks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_any_sequence_of_heads_is_one_head(self, size, seed, asks):
        counts = [int(size * ask) for ask in asks]
        prefix = PermutationPrefix(size, seed)
        heads = [prefix.head(count).copy() for count in counts]
        once = PermutationPrefix(size, seed).head(max(counts))
        for count, head in zip(counts, heads):
            np.testing.assert_array_equal(head, once[:count])

    def test_draws_only_up_to_the_next_rung(self):
        prefix = PermutationPrefix(1_000_000, 1)
        prefix.head(100)
        assert len(prefix._drawn) == 128
        prefix.head(4_000)
        assert len(prefix._drawn) == 4_096

    def test_heads_are_read_only(self):
        head = PermutationPrefix(500, 1).head(10)
        with pytest.raises(ValueError):
            head[0] = 0

    def test_out_of_range_heads_rejected(self):
        prefix = PermutationPrefix(10, 1)
        with pytest.raises(ValueError):
            prefix.head(11)
        with pytest.raises(ValueError):
            prefix.head(-1)
        with pytest.raises(ValueError):
            PermutationPrefix(-1, 1)

    def test_draws_from_its_own_child_stream(self):
        """Constructing one takes exactly one spawn off the caller's
        generator; drawing from it afterwards takes nothing more."""
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        prefix = PermutationPrefix(10_000, rng)
        spawn_child(twin, 1)
        prefix.head(5_000)
        assert rng.integers(0, 2**62) == twin.integers(0, 2**62)
