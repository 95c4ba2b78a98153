"""``MemoTable``: a table bound to many queries factorizes a
``group_by`` column once.  Planning through it must be invisible in the
results — same strata, same order, same bytes as planning over a plain
mapping — whatever the ``where`` clause does to the rows."""

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.query import Query, agg
from repro.query.planner import MemoTable, factorize_column
from repro.sampling import Factorization


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(3)
    n = 30_000
    codes = rng.choice(4, size=n, p=[0.5, 0.3, 0.15, 0.05])
    return {
        # a NumPy string column, as a loader would hand it over
        "region": np.array(["north", "south", "east", "west"])[codes],
        "amount": rng.lognormal(3.0, 0.7, n),
        "qty": rng.integers(1, 20, n).astype(float),
    }


CONFIG = EarlConfig(sigma=0.03, seed=17, B_override=20, n_override=200)
SELECT = [agg("mean", "amount"), agg("sum", "qty", sigma=0.05)]

WHERES = {
    "none": None,
    "other-column": ("amount", ">", 15.0),
    # these two need the raw keys: planned the long way, same answer
    "group-by-column": ("region", "!=", "west"),
    "callable": lambda cols: cols["qty"] > 3,
}


@pytest.mark.parametrize("where", sorted(WHERES))
def test_planning_through_the_memo_is_byte_identical(table, where):
    query = Query(SELECT, group_by="region", where=WHERES[where])

    def stream(source):
        return [snap.to_dict()
                for snap in query.on(source, config=CONFIG).stream()]

    plain = stream(table)
    memo = MemoTable(table)
    first = stream(memo)
    second = stream(memo)       # served from the memo
    assert len(plain) >= 2 and plain[-1]["final"]
    # dict equality ignores key order; the strata order is checked too
    assert list(first[-1]["groups"]) == list(plain[-1]["groups"])
    assert first == plain
    assert second == plain


@pytest.mark.parametrize("select", [
    [agg("mean", "qty")],                       # the only column read
    [agg("mean", "qty"), agg("mean", "amount")],
], ids=["alone", "with-another"])
def test_an_aggregate_over_the_group_by_column_plans_the_long_way(
        table, select):
    query = Query(select, group_by="qty")

    def final(source):
        return list(query.on(source, config=CONFIG).stream())[-1].to_dict()

    assert final(MemoTable(table)) == final(table)


def test_factorized_once_per_column_and_only_when_usable(table, monkeypatch):
    calls = []
    real = Factorization.of.__func__
    monkeypatch.setattr(
        Factorization, "of",
        classmethod(lambda cls, keys: calls.append(len(keys))
                    or real(cls, keys)))
    memo = MemoTable(table)
    assert calls == []                                  # lazy
    for where in (None, ("amount", ">", 15.0), None):
        Query(SELECT, group_by="region", where=where).on(
            memo, config=CONFIG).plan()
    assert calls == [30_000]
    assert memo.factorization("region") is memo.factorization("region")
    # an ungrouped query never asks for one
    Query(SELECT).on(memo, config=CONFIG).plan()
    assert calls == [30_000]


def test_filter_recodes_instead_of_refactorizing(table):
    memo = MemoTable(table)
    full = memo.factorization("region")
    mask = table["amount"] > 40.0
    want = Factorization.of(np.asarray(table["region"], dtype=object)[mask])
    got = full.filtered(mask)
    assert got.keys == want.keys and all(type(k) is str for k in got.keys)
    for mine, theirs in zip(got.rows, want.rows):
        np.testing.assert_array_equal(mine, theirs)
    assert len(full) == 30_000      # the memoized one is untouched


@pytest.mark.parametrize("column", [
    np.array(["north", "south", "north", "", "east"]),
    np.array([b"n", b"s", b"n\x00", b""]),
    np.array([3, -1, 3, 2**40], dtype=np.int64),
    np.array([3, 1, 3], dtype=np.uint8),
    np.array([True, False, True]),
    np.array([2.5, -0.0, 2.5, 0.0], dtype=np.float32),
    np.array(["2024-01-02", "2024-01-01", "2024-01-02"],
             dtype="datetime64[D]"),                   # boxed: dict pass
    ["b", 1, "b", 1.0],                                # not an ndarray
], ids=["str", "bytes", "int64", "uint8", "bool", "float32", "datetime",
        "list"])
def test_factorize_column_keys_are_what_the_boxed_column_holds(column):
    got = factorize_column(column, "k")
    want = Factorization.of(np.asarray(column, dtype=object))
    assert got.keys == want.keys
    assert [type(k) for k in got.keys] == [type(k) for k in want.keys]
    np.testing.assert_array_equal(got.codes, want.codes)
    for mine, theirs in zip(got.rows, want.rows):
        np.testing.assert_array_equal(mine, theirs)


def test_a_plain_mapping_factorizes_the_group_by_column_natively(
        table, monkeypatch):
    seen = []
    real = Factorization.of.__func__
    monkeypatch.setattr(
        Factorization, "of",
        classmethod(lambda cls, keys: seen.append(keys.dtype)
                    or real(cls, keys)))
    for where in (None, ("region", "!=", "west")):
        Query(SELECT, group_by="region", where=where).on(
            table, config=CONFIG).plan()
    assert seen == [table["region"].dtype] * 2        # never boxed


def test_nan_keys_are_one_group_and_signed_zeros_one():
    rng = np.random.default_rng(4)
    key = rng.choice([0.0, 1.5, 3.0], size=6_000)
    key[rng.permutation(6_000)[:2_000]] = np.nan
    key[key == 0.0] = -0.0
    key[np.flatnonzero(key == 0.0)[::2]] = 0.0          # both signs
    source = {"key": key, "amount": rng.lognormal(3.0, 0.7, 6_000)}
    first_zero = key[np.flatnonzero(key == 0.0)[0]]
    for where in (None, ("key", "!=", 1.5)):
        query = Query([agg("mean", "amount")], group_by="key", where=where)
        for bound in (source, MemoTable(source)):
            groups = list(query.on(bound, config=CONFIG).run().groups)
            assert len(groups) == (4 if where is None else 3)
            assert sum(np.isnan(k) for k in groups) == 1
            (zero,) = [k for k in groups if k == 0.0]
            assert type(zero) is float
            assert np.signbit(zero) == np.signbit(first_zero)


def test_bad_columns_still_fail_the_same_way(table):
    memo = MemoTable(dict(table, short=np.arange(5.0),
                          square=np.zeros((30_000, 2))))
    with pytest.raises(KeyError, match="not in the bound source"):
        Query(SELECT, group_by="nope").on(memo, config=CONFIG).plan()
    with pytest.raises(ValueError, match="must be 1-D"):
        Query(SELECT, group_by="square").on(memo, config=CONFIG).plan()
    with pytest.raises(ValueError, match="rows; expected"):
        Query(SELECT, group_by="short").on(memo, config=CONFIG).plan()
