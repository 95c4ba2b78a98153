"""``_SortedFloats`` under mixed scalar / batch use.

The multiset keeps an ndarray while batch ops (``insert_many`` /
``remove_many`` — the delta-maintenance kernel) are in use and a Python
list while scalar ops (``insert`` / ``remove``) are, converting only on
the switch; ``insert`` only queues a value, merged in by the next read.
Whatever the interleaving, it must behave like one plain sorted list
built with ``bisect.insort`` — down to the order of ``0.0`` and ``-0.0``.
"""

import bisect
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.estimators import QuantileState, _SortedFloats

# A small value pool, so duplicates (multiplicity) are the common case;
# 0.0 and -0.0 are equal values whose order is visible.
_values = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 2**-40,
                           3.0, 7.25])
_batches = st.lists(_values, min_size=0, max_size=12)

_ops = st.one_of(
    st.tuples(st.just("insert"), _values),
    # A long run of inserts, then one read (optionally after a pickle
    # round trip, with the inserts still pending).
    st.tuples(st.just("insert_run"),
              st.tuples(st.lists(_values, min_size=2, max_size=200),
                        st.booleans())),
    st.tuples(st.just("remove"), _values),
    st.tuples(st.just("insert_many"), _batches),
    st.tuples(st.just("remove_many"), _batches),
    st.tuples(st.just("remove_held"), st.integers(0, 10**6)),
    st.tuples(st.just("remove_many_held"), st.integers(0, 10**6)),
    st.tuples(st.just("copy"), st.none()),
    st.tuples(st.just("pickle"), st.none()),
)


def _signed(value: float) -> tuple:
    return value, math.copysign(1.0, value)


def _check(sorted_floats: _SortedFloats, model: list) -> None:
    assert len(sorted_floats) == len(model)
    for index, want in enumerate(model):
        got = sorted_floats.kth(index)
        assert type(got) is float and _signed(got) == _signed(want)
    if model:
        assert sorted_floats.kth(-1) == model[-1]


def _after_sort(sorted_floats: _SortedFloats, model: list) -> list:
    """The model after a batch insert.  ``np.sort`` keeps no order
    among equal values and, on SIMD builds, not even ``-0.0``'s sign:
    pin the values, then carry on from the zeros the batch op chose."""
    got = [sorted_floats.kth(i) for i in range(len(sorted_floats))]
    assert got == model
    return got


def _model_remove_many(model: list, batch: list) -> list:
    """The list after removing ``batch`` as a multiset, or KeyError."""
    remaining = list(model)
    for value in batch:
        index = bisect.bisect_left(remaining, value)
        if index >= len(remaining) or remaining[index] != value:
            raise KeyError(value)
        remaining.pop(index)
    return remaining


@settings(max_examples=200, deadline=None)
@given(initial=_batches, ops=st.lists(_ops, max_size=30))
# Signed zeros one insert at a time: each lands after the equal values
# already held, as bisect.insort (insort_right) puts it.
@example(initial=[0.0, -0.0],
         ops=[("insert", -0.0), ("insert", 0.0), ("remove", 0.0),
              ("insert", -0.0)])
# A long insert run, then one read: one stable sort, same order.
@example(initial=[-0.0, 0.0, 3.0],
         ops=[("insert_run", ([0.0, -0.0, 7.25, -0.0, 0.0, -2.5] * 40,
                              False)),
              ("insert_run", ([-0.0, 0.0] * 10, True))])
def test_any_interleaving_matches_a_sorted_list(initial, ops):
    sorted_floats = _SortedFloats(initial)
    model = sorted(initial)
    _check(sorted_floats, model)
    for op, arg in ops:
        if op == "remove_held":          # a value known to be present
            if not model:
                continue
            op, arg = "remove", model[arg % len(model)]
        elif op == "remove_many_held":   # a sub-multiset known present
            picks = np.random.default_rng(arg).random(len(model)) < 0.4
            op, arg = "remove_many", [v for v, p in zip(model, picks) if p]

        if op == "insert":
            sorted_floats.insert(arg)
            bisect.insort(model, arg)
        elif op == "insert_run":
            run, round_trip = arg
            for value in run:
                sorted_floats.insert(value)
                bisect.insort(model, value)
            if round_trip:
                sorted_floats = pickle.loads(pickle.dumps(sorted_floats))
        elif op == "insert_many":
            sorted_floats.insert_many(np.asarray(arg, dtype=float))
            model = _after_sort(sorted_floats, sorted(model + arg))
        elif op in ("remove", "remove_many"):
            batch = [arg] if op == "remove" else arg
            try:
                expected = _model_remove_many(model, batch)
            except KeyError:
                # Missing (counting multiplicity): KeyError, unchanged.
                with pytest.raises(KeyError):
                    getattr(sorted_floats, op)(arg)
            else:
                getattr(sorted_floats, op)(arg)
                model = expected
        elif op == "copy":
            # The copy carries on; the original must not see its edits
            # — in whichever representation the copy was taken.
            original, frozen = sorted_floats, list(model)
            sorted_floats = original.copy()
            sorted_floats.insert(99.0)
            sorted_floats.insert_many(np.array([-99.0, 99.0]))
            sorted_floats.remove_many(np.array([99.0, 99.0]))
            sorted_floats.remove(-99.0)
            _check(original, frozen)
            model = _after_sort(sorted_floats, model)
        elif op == "pickle":
            sorted_floats = pickle.loads(pickle.dumps(sorted_floats))
        _check(sorted_floats, model)


def test_representation_switches_only_on_the_kind_of_op():
    sorted_floats = _SortedFloats([3.0, 1.0])
    assert type(sorted_floats._data) is list
    sorted_floats.insert(2.0)
    assert type(sorted_floats._data) is list          # scalar op: list
    sorted_floats.insert_many(np.array([0.5, 2.5]))
    batch_array = sorted_floats._data
    assert isinstance(batch_array, np.ndarray)        # batch op: array
    sorted_floats.kth(0), len(sorted_floats), sorted_floats.copy()
    assert sorted_floats._data is batch_array         # reads never convert
    sorted_floats.remove(2.0)
    assert type(sorted_floats._data) is list          # back on the switch
    assert sorted_floats._data == [0.5, 1.0, 2.5, 3.0]


def test_record_by_record_state_stays_on_the_list_path():
    """The exact-median job adds record by record: no ndarray, ever."""
    state = QuantileState(0.5)
    for value in np.random.default_rng(0).normal(size=200):
        state.add(value)
        assert type(state._sorted._data) is list
    assert state.result() == pytest.approx(
        float(np.median(np.random.default_rng(0).normal(size=200))))
