"""StratifiedSampler: strata and drawing; the capped largest-remainder
split the budget allocator uses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import (
    PermutationPrefix,
    StratifiedSampler,
    allocate_with_caps,
)


class TestAllocateWithCaps:
    def test_sums_to_total_and_respects_caps(self):
        counts = allocate_with_caps([3.0, 1.0, 1.0], 10, [100, 100, 100])
        assert sum(counts) == 10
        assert counts == [6, 2, 2]

    def test_caps_redistribute_excess(self):
        counts = allocate_with_caps([10.0, 1.0, 1.0], 12, [2, 100, 100])
        assert counts[0] == 2          # capped
        assert sum(counts) == 12       # excess went to the open slots

    def test_total_beyond_capacity_fills_everything(self):
        counts = allocate_with_caps([1.0, 1.0], 99, [3, 4])
        assert counts == [3, 4]

    def test_zero_weights_spread_evenly(self):
        counts = allocate_with_caps([0.0, 0.0, 0.0], 6, [10, 10, 10])
        assert sum(counts) == 6
        assert max(counts) - min(counts) <= 1

    def test_small_total_goes_to_heaviest(self):
        counts = allocate_with_caps([1.0, 5.0, 2.0], 1, [10, 10, 10])
        assert counts == [0, 1, 0]

    def test_deterministic(self):
        a = allocate_with_caps([2.0, 3.0, 5.0], 7, [4, 4, 4])
        b = allocate_with_caps([2.0, 3.0, 5.0], 7, [4, 4, 4])
        assert a == b

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            allocate_with_caps([1.0], -1, [5])
        with pytest.raises(ValueError):
            allocate_with_caps([-1.0], 5, [5])

    @pytest.mark.parametrize("floors", [[1], [1, 1], [1, 1, 1, 1]])
    def test_rejects_floors_of_another_length(self, floors):
        # Checked before clipping to the caps: NumPy would broadcast a
        # one-element list into a floor for every slot.
        with pytest.raises(ValueError, match="matching lengths"):
            allocate_with_caps([1.0, 1.0, 1.0], 10, [5, 5, 5],
                               floors=floors)

    def test_floors_clip_to_caps(self):
        counts = allocate_with_caps([0.0, 1.0], 4, [1, 10], floors=[3, 1])
        assert counts == [1, 3]

    def test_rejects_negative_floors(self):
        with pytest.raises(ValueError, match="floors cannot be negative"):
            allocate_with_caps([1.0, 1.0], 10, [5, 5], floors=[-1, 1])

    def test_rejects_weights_of_another_length(self):
        with pytest.raises(ValueError, match="matching lengths"):
            allocate_with_caps([1.0, 1.0], 10, [5, 5, 5])

    def test_population_weights_split_proportionally(self):
        # Populations 80 / 15 / 5 as weights: a proportional split.
        assert allocate_with_caps([80, 15, 5], 20, [80, 15, 5]) \
            == [16, 3, 1]

    def test_heavy_capped_slot_spills_by_weight(self):
        # N_h * S_h = 80, 15, 200: the rare-but-noisy slot dominates,
        # caps at its 5 rows, and the rest spills back by weight.
        counts = allocate_with_caps([80.0, 15.0, 200.0], 20, [80, 15, 5])
        assert counts == [13, 2, 5]

    def test_exhausted_slot_gets_nothing_even_with_a_floor(self):
        counts = allocate_with_caps([5.0, 1.0, 1.0], 10, [50, 0, 50],
                                    floors=[1, 1, 1])
        assert counts == [8, 0, 2]

    def test_floors_come_before_the_weighted_split(self):
        counts = allocate_with_caps([100.0, 0.0, 0.0], 10, [50, 50, 50],
                                    floors=[1, 1, 1])
        assert counts == [8, 1, 1]

    def test_total_below_floors_splits_the_floors(self):
        # Two units for three one-row floors: largest remainder over the
        # floors alone, ties to the earlier slots; weights play no part.
        counts = allocate_with_caps([1.0, 1.0, 5.0], 2, [50, 50, 50],
                                    floors=[1, 1, 1])
        assert counts == [1, 1, 0]


class TestStrata:
    def test_appearance_order_and_populations(self):
        sampler = StratifiedSampler(["b", "a", "b", "c", "b"], seed=0)
        assert sampler.keys == ["b", "a", "c"]
        assert [sampler.population(k) for k in sampler.keys] == [3, 1, 1]
        assert list(sampler.rows("b")) == [0, 2, 4]

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            StratifiedSampler([])


class TestDrawing:
    def test_take_is_without_replacement_and_uniform_design(self):
        keys = ["a"] * 10 + ["b"] * 5
        sampler = StratifiedSampler(keys, seed=3)
        first = sampler.take("a", 4)
        second = sampler.take("a", 6)
        drawn = np.concatenate([first, second])
        assert sorted(drawn) == list(range(10))      # exactly stratum a
        assert sampler.remaining("a") == 0
        assert sampler.remaining("b") == 5

    def test_take_matches_attached_rng_permutation(self):
        # The stratum walks a permutation prefix rooted in the attached
        # stream: the one PermutationPrefix(size, rng) would draw.
        keys = ["a"] * 300
        sampler = StratifiedSampler(keys)
        rng = np.random.default_rng(17)
        sampler.attach_rng("a", rng)
        expected = PermutationPrefix(300, np.random.default_rng(17)).head(300)
        drawn = np.concatenate([sampler.take("a", 100),
                                sampler.take("a", 200)])
        assert list(drawn) == list(expected)

    def test_attach_after_draw_rejected(self):
        sampler = StratifiedSampler(["a", "a"], seed=1)
        sampler.take("a", 1)
        with pytest.raises(RuntimeError):
            sampler.attach_rng("a", np.random.default_rng(0))

    def test_overdraw_rejected(self):
        sampler = StratifiedSampler(["a"] * 3, seed=2)
        with pytest.raises(ValueError):
            sampler.take("a", 4)
        with pytest.raises(ValueError):
            sampler.take("a", -1)
        assert sampler.remaining("a") == 3

    def test_seeded_runs_identical(self):
        keys = list("aabbccab")
        a = StratifiedSampler(keys, seed=11)
        b = StratifiedSampler(keys, seed=11)
        for key in a.keys:
            assert list(a.take(key, a.population(key))) \
                == list(b.take(key, b.population(key)))


# ---------------------------------------------------------------- factorize

def _reference_strata(keys):
    """The original per-row loop of ``StratifiedSampler.__init__``,
    kept as the reference the C-speed factorization must equal."""
    order, rows = [], {}
    for row, key in enumerate(keys):
        bucket = rows.get(key)
        if bucket is None:
            rows[key] = bucket = []
            order.append(key)
        bucket.append(row)
    return order, {key: np.asarray(positions, dtype=np.int64)
                   for key, positions in rows.items()}


def _assert_strata_equal_reference(keys):
    sampler = StratifiedSampler(keys, seed=0)
    order, rows = _reference_strata(keys)
    assert sampler.keys == order
    assert [type(k) for k in sampler.keys] == [type(k) for k in order]
    for key in order:
        got = sampler.rows(key)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, rows[key])
    assert [sampler.population(k) for k in order] \
        == [len(rows[k]) for k in order]


def _assert_native_equals_dict_pass(column):
    from repro.sampling import Factorization
    from repro.sampling.stratified import factorizes_natively

    assert factorizes_natively(column)
    got = Factorization.of(column)
    want = Factorization.of(list(column))       # the dict pass, same scalars
    order, rows = _reference_strata(column)
    assert got.keys == want.keys == order
    assert [type(k) for k in got.keys] == [type(k) for k in order]
    assert got.codes.dtype == want.codes.dtype
    np.testing.assert_array_equal(got.codes, want.codes)
    assert all(mine.dtype == np.int64 for mine in got.rows)
    assert [len(mine) for mine in got.rows] == [len(rows[k]) for k in order]
    np.testing.assert_array_equal(np.concatenate(got.rows),
                                  np.concatenate([rows[k] for k in order]))


class TestFactorizeEqualsPerRowLoop:
    _key = st.one_of(
        st.text(max_size=3),
        st.integers(-3, 3),
        st.booleans(),                      # True == 1, False == 0
        st.sampled_from([1.0, 2.5, None, (1, "a"), ("a",), frozenset()]),
    )

    @settings(max_examples=200, deadline=None)
    @given(keys=st.lists(_key, min_size=1, max_size=60))
    def test_mixed_hashable_keys(self, keys):
        _assert_strata_equal_reference(keys)

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.text(min_size=1, max_size=2), min_size=1,
                         max_size=200))
    def test_str_keys(self, keys):
        _assert_strata_equal_reference(keys)
        _assert_strata_equal_reference(tuple(keys))
        _assert_strata_equal_reference(np.asarray(keys))          # np.str_
        _assert_strata_equal_reference(np.asarray(keys, dtype=object))

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.integers(0, 40), min_size=1, max_size=200))
    def test_int_keys(self, keys):
        _assert_strata_equal_reference(keys)
        _assert_strata_equal_reference(np.asarray(keys))          # np.int64

    def test_single_stratum_and_all_single_row_strata(self):
        _assert_strata_equal_reference(["only"] * 7)
        _assert_strata_equal_reference(list(range(50)))
        _assert_strata_equal_reference(["x"])

    def test_more_strata_than_uint16_codes(self):
        keys = list(range(70_000)) + [5, 69_999, 5]
        _assert_strata_equal_reference(keys)

    def test_unhashable_key_rejected(self):
        with pytest.raises(TypeError):
            StratifiedSampler([["list", "key"], ["x"]])

    # A NumPy column of a native dtype is factorized from its bytes; it
    # must give what the dict pass gives over the column's own scalars.
    _CHARS = st.sampled_from(["a", "b", "\x00", "é", "\U0001F600"])

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(-128, 127), min_size=1,
                           max_size=300),
           dtype=st.sampled_from([np.int8, np.uint16, np.int64]))
    def test_native_int_columns(self, values, dtype):
        _assert_native_equals_dict_pass(
            np.asarray(values).astype(dtype))

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.booleans(), min_size=1, max_size=100))
    def test_native_bool_columns(self, values):
        _assert_native_equals_dict_pass(np.asarray(values, dtype=bool))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.text(_CHARS, max_size=4), min_size=1,
                           max_size=200))
    def test_native_str_columns(self, values):
        # '' and NUL-only strings, and strings that differ only by
        # trailing NULs ("a" / "a\x00"), which the column stores alike
        _assert_native_equals_dict_pass(np.asarray(values, dtype=str))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.binary(max_size=10), min_size=1,
                           max_size=200))
    def test_native_bytes_columns(self, values):
        # up to 10 bytes: rows span two words
        _assert_native_equals_dict_pass(np.asarray(values, dtype=bytes))

    def test_native_shapes(self):
        rng = np.random.default_rng(8)
        _assert_native_equals_dict_pass(np.array(["one"]))
        _assert_native_equals_dict_pass(np.array([7], dtype=np.int8))
        _assert_native_equals_dict_pass(np.array(["", "a", "a\x00", ""]))
        distinct = rng.permutation(5_000)
        _assert_native_equals_dict_pass(distinct)
        _assert_native_equals_dict_pass(distinct.astype(str))
        _assert_native_equals_dict_pass(distinct[::-3])     # strided
        many = np.concatenate([rng.permutation(70_000), [5, 69_999, 5]])
        _assert_native_equals_dict_pass(many)
        _assert_native_equals_dict_pass(many.astype("S"))

    @pytest.mark.parametrize("column", [
        np.array(["b", "a", "b", "c", "a"]),
        np.array([b"xy", b"x", b"xy\x00"]),
        np.array([3, 1, 3, 2, 1, 1], dtype=np.int64),
        np.array([True, False, True]),
        np.arange(70_000)[::-1] % 69_000,
    ], ids=["str", "bytes", "int64", "bool", "over-uint16"])
    def test_a_hash_collision_falls_back_to_the_exact_pass(
            self, column, monkeypatch):
        import repro.sampling.stratified as stratified

        monkeypatch.setattr(stratified, "_row_hash",
                            lambda words: np.zeros(len(words), np.uint64))
        _assert_native_equals_dict_pass(column)
        # and when every row really is one key, one run is no collision
        _assert_native_equals_dict_pass(column[:1].repeat(9))

    @pytest.mark.parametrize("collide", [False, True],
                             ids=["hashed", "collided"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_float_columns_one_nan_stratum_and_signed_zeros_as_one(
            self, dtype, collide, monkeypatch):
        from repro.sampling import Factorization
        import repro.sampling.stratified as stratified

        if collide:
            monkeypatch.setattr(
                stratified, "_row_hash",
                lambda words: np.zeros(len(words), np.uint64))
        payload = np.array([np.nan]).view(np.uint64) | np.uint64(1)
        other_nan = payload.view(np.float64)[0]
        column = np.array([-0.0, 2.5, np.nan, 0.0, -np.nan, 2.5, other_nan,
                           -0.0, np.nan], dtype=dtype)
        strata = Factorization.of(column)
        assert len(strata.keys) == 3
        zero, two, nan = strata.keys
        assert zero == 0.0 and np.signbit(zero)      # the first to appear
        assert two == 2.5 and np.isnan(nan)
        assert [type(k) for k in strata.keys] == [dtype] * 3
        np.testing.assert_array_equal(strata.codes,
                                      [0, 1, 2, 0, 2, 1, 2, 0, 2])
        for rows, want in zip(strata.rows, ([0, 3, 7], [1, 5], [2, 4, 6, 8])):
            np.testing.assert_array_equal(rows, want)
        positive = Factorization.of(column[1:]).keys[2]   # 0.0 before -0.0
        assert positive == 0.0 and not np.signbit(positive)
        # every NaN row one stratum: 2,000 NaNs among 2,000 other keys
        keys = np.arange(4_000, dtype=dtype)
        keys[1::2] = np.nan
        assert len(Factorization.of(keys).keys) == 2_001


class TestFactorization:
    """What a sampler derives from its key column, as an object the
    holder of a table can compute once and hand over instead."""

    @staticmethod
    def _assert_equal(got, want):
        assert got.keys == want.keys
        assert [type(k) for k in got.keys] == [type(k) for k in want.keys]
        np.testing.assert_array_equal(got.codes, want.codes)
        assert len(got.rows) == len(want.rows)
        for mine, theirs in zip(got.rows, want.rows):
            assert mine.dtype == np.int64
            np.testing.assert_array_equal(mine, theirs)

    def test_sampler_accepts_it_in_place_of_the_keys(self):
        from repro.sampling import Factorization

        keys = ["b", "a", "b", "c", "b", "a"]
        strata = Factorization.of(keys)
        assert len(strata) == 6 and strata.keys == ["b", "a", "c"]
        given = StratifiedSampler(strata, seed=4)
        derived = StratifiedSampler(keys, seed=4)
        assert given.keys == derived.keys
        for key in derived.keys:
            np.testing.assert_array_equal(given.rows(key), derived.rows(key))
            np.testing.assert_array_equal(given.take(key, 1),
                                          derived.take(key, 1))
        # shared, not consumed: a second sampler starts from scratch
        fresh = StratifiedSampler(strata, seed=4)
        assert [fresh.remaining(k) for k in fresh.keys] == [3, 2, 1]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from("abcde"), st.booleans()),
                         min_size=1, max_size=80))
    def test_filtered_equals_refactorizing_the_filtered_column(self, rows):
        from repro.sampling import Factorization

        keys = np.array([key for key, _ in rows], dtype=object)
        mask = np.array([keep for _, keep in rows], dtype=bool)
        if not mask.any():
            mask[0] = True
        self._assert_equal(Factorization.of(keys).filtered(mask),
                           Factorization.of(keys[mask]))

    def test_filtered_with_more_strata_than_uint16_codes(self):
        from repro.sampling import Factorization

        keys = np.array(list(range(70_000)) + [5, 69_999, 5], dtype=object)
        mask = np.ones(len(keys), dtype=bool)
        mask[:69_990] = False
        self._assert_equal(Factorization.of(keys).filtered(mask),
                           Factorization.of(keys[mask]))
