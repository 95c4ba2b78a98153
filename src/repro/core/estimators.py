"""Statistics of interest ``f`` and their incremental states.

EARL's reduce extension represents a user function as a *state* that can
be updated without reprocessing the whole sample (§2.1), and its delta-
maintained bootstrap (§4.1) additionally needs to *remove* single items
from a state when a resample sheds data during maintenance.  This module
provides both views of every statistic used in the evaluation:

* a **batch** form (vectorized over a matrix of resamples — the fast
  path for plain Monte-Carlo bootstrapping), and
* an **incremental state** with ``add`` / ``remove`` / ``merge`` /
  ``result`` (the path delta maintenance uses).

A registry maps statistic names to both forms; arbitrary callables are
supported through a functional fallback state that keeps raw values.
"""

from __future__ import annotations

import bisect
import math
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.util.stats import RunningStats

# --------------------------------------------------------------------------
# Incremental states
# --------------------------------------------------------------------------


class EstimatorState:
    """Interface of an incremental statistic state.

    Besides the scalar ``add``/``remove``, every state accepts whole
    *batches* through ``add_many``/``remove_many`` — the entry point of
    the vectorized delta-maintenance kernel (§4.1 does O(|Δs|) state
    updates per resample; the batch forms do them in one NumPy call
    instead of |Δs| Python calls).  The default implementations fall
    back to the scalar loop, so arbitrary user states stay correct; the
    registered statistics override them with true NumPy kernels.  A
    batch op is equivalent to the corresponding scalar loop — same
    final count, same result up to floating-point reassociation.
    """

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def remove(self, value: Any) -> None:
        raise NotImplementedError

    def add_many(self, values: Any) -> None:
        """Add every item of ``values`` (rows of a 2-D array are items)."""
        for value in values:
            self.add(value)

    def remove_many(self, values: Any) -> None:
        """Remove every item of ``values`` (batch analogue of ``remove``)."""
        for value in values:
            self.remove(value)

    def result(self) -> float:
        raise NotImplementedError

    def copy(self) -> "EstimatorState":
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _SortedFloats:
    """Minimal sorted multiset of floats.

    O(1) order statistics, which quantile states need on every
    ``result()`` call.

    *Representation rule:* ``_data`` holds the sorted values — an
    ndarray while the batch ops (``insert_many``/``remove_many`` — the
    delta-maintenance kernel) are in use, a Python list while the scalar
    ops (``insert``/``remove``) are; it is converted only when the kind
    of op switches, never per call.  ``insert`` appends to the unsorted
    ``_pending`` list; the next read, ``remove`` or batch op merges it
    into ``_data`` with one stable sort (a single pending value with
    ``bisect.insort``, so add/read interleavings cost what they did).
    ``m`` inserts in a row — an exact quantile job adds record by record
    — thus cost one sort instead of ``m`` O(n) shifting insertions, and
    leave the order ``m`` calls of ``bisect.insort`` would: equal values
    (``0.0`` and ``-0.0``) in insertion order, after those already held.
    """

    __slots__ = ("_data", "_pending")

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._data: Union[List[float], np.ndarray] = sorted(
            float(v) for v in values)
        self._pending: List[float] = []

    def _merged(self) -> Union[List[float], np.ndarray]:
        """``_data`` with the pending inserts merged in."""
        pending = self._pending
        if pending:
            data = self._list()
            if len(pending) == 1:
                bisect.insort(data, pending[0])
            else:
                data += pending
                data.sort()
            self._pending = []
        return self._data

    def _list(self) -> List[float]:
        if type(self._data) is not list:
            self._data = self._data.tolist()
        return self._data

    def _array(self) -> np.ndarray:
        self._merged()
        if type(self._data) is list:
            self._data = np.asarray(self._data, dtype=float)
        return self._data

    def insert(self, value: float) -> None:
        self._pending.append(value)

    def remove(self, value: float) -> None:
        self._merged()
        data = self._list()
        idx = bisect.bisect_left(data, value)
        if idx >= len(data) or data[idx] != value:
            raise KeyError(f"value {value!r} not present")
        data.pop(idx)

    def insert_many(self, values: Iterable[float]) -> None:
        """Bulk insert: one O((n+m) log(n+m)) sort instead of ``m``
        O(n) shifting insertions."""
        incoming = np.asarray(values, dtype=float).ravel()
        if incoming.size == 0:
            return
        merged = np.concatenate([self._array(), incoming])
        merged.sort()
        self._data = merged

    def remove_many(self, values: Iterable[float]) -> None:
        """Bulk removal of a multiset of values (KeyError if any value
        — counting multiplicity — is not present)."""
        incoming = np.sort(np.asarray(values, dtype=float).ravel())
        m = incoming.size
        if m == 0:
            return
        arr = self._array()
        if arr.size == 0:
            raise KeyError(f"value {incoming[0]!r} not present")
        base = np.searchsorted(arr, incoming, side="left")
        # The i-th copy of a repeated value claims the i-th slot of its
        # equal run in ``arr`` (both arrays are sorted, so run ranks
        # line up).
        new_run = np.r_[True, incoming[1:] != incoming[:-1]]
        run_starts = np.flatnonzero(new_run)
        rank_in_run = np.arange(m) - run_starts[np.cumsum(new_run) - 1]
        idx = base + rank_in_run
        bad = (idx >= arr.size) | (arr[np.minimum(idx, arr.size - 1)]
                                   != incoming)
        if bad.any():
            missing = incoming[int(np.flatnonzero(bad)[0])]
            raise KeyError(f"value {missing!r} not present")
        self._data = np.delete(arr, idx)

    def kth(self, index: int) -> float:
        return float(self._merged()[index])

    def __len__(self) -> int:
        return len(self._data) + len(self._pending)

    def copy(self) -> "_SortedFloats":
        clone = _SortedFloats.__new__(_SortedFloats)
        clone._data = self._merged().copy()
        clone._pending = []
        return clone

    def as_array(self) -> np.ndarray:
        return np.asarray(self._merged())


class MeanState(EstimatorState):
    """Running mean (Welford add/remove)."""

    def __init__(self) -> None:
        self._stats = RunningStats()

    def add(self, value: Any) -> None:
        self._stats.add(float(value))

    def remove(self, value: Any) -> None:
        self._stats.remove(float(value))

    def add_many(self, values: Any) -> None:
        self._stats.add_values(np.asarray(values, dtype=float))

    def remove_many(self, values: Any) -> None:
        self._stats.remove_values(np.asarray(values, dtype=float))

    def merge(self, other: "MeanState") -> None:
        self._stats.merge(other._stats)

    def result(self) -> float:
        return self._stats.mean

    def copy(self) -> "MeanState":
        clone = MeanState.__new__(MeanState)
        clone._stats = self._stats.copy()
        return clone

    def __len__(self) -> int:
        return self._stats.count


class SumState(EstimatorState):
    """Running sum.  Pair with the ``1/p`` correction when sampled."""

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        self._sum += float(value)
        self._count += 1

    def remove(self, value: Any) -> None:
        if self._count == 0:
            raise ValueError("cannot remove from an empty SumState")
        self._sum -= float(value)
        self._count -= 1

    def add_many(self, values: Any) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        self._sum += float(arr.sum())
        self._count += arr.size

    def remove_many(self, values: Any) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size > self._count:
            raise ValueError("cannot remove from an empty SumState")
        self._sum -= float(arr.sum())
        self._count -= arr.size

    def merge(self, other: "SumState") -> None:
        self._sum += other._sum
        self._count += other._count

    def result(self) -> float:
        return self._sum

    def copy(self) -> "SumState":
        clone = SumState.__new__(SumState)
        clone._sum, clone._count = self._sum, self._count
        return clone

    def __len__(self) -> int:
        return self._count


class VarianceState(EstimatorState):
    """Sample variance (ddof=1)."""

    def __init__(self) -> None:
        self._stats = RunningStats()

    def add(self, value: Any) -> None:
        self._stats.add(float(value))

    def remove(self, value: Any) -> None:
        self._stats.remove(float(value))

    def add_many(self, values: Any) -> None:
        self._stats.add_values(np.asarray(values, dtype=float))

    def remove_many(self, values: Any) -> None:
        self._stats.remove_values(np.asarray(values, dtype=float))

    def merge(self, other: "VarianceState") -> None:
        self._stats.merge(other._stats)

    def result(self) -> float:
        return self._stats.variance()

    def copy(self) -> "VarianceState":
        clone = VarianceState.__new__(VarianceState)
        clone._stats = self._stats.copy()
        return clone

    def __len__(self) -> int:
        return self._stats.count


class StdState(VarianceState):
    """Sample standard deviation (ddof=1)."""

    def result(self) -> float:
        return self._stats.std()

    def copy(self) -> "StdState":
        clone = StdState.__new__(StdState)
        clone._stats = self._stats.copy()
        return clone


class QuantileState(EstimatorState):
    """Order-statistic state for quantiles (numpy 'linear' interpolation).

    ``remove`` is what the bootstrap's delta maintenance needs and what
    closed-form approaches cannot give for the median (§3: "jackknife
    does not work for many functions such as the median").
    """

    def __init__(self, q: float) -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._q = q
        self._sorted = _SortedFloats()

    def add(self, value: Any) -> None:
        self._sorted.insert(float(value))

    def remove(self, value: Any) -> None:
        self._sorted.remove(float(value))

    def add_many(self, values: Any) -> None:
        self._sorted.insert_many(values)

    def remove_many(self, values: Any) -> None:
        self._sorted.remove_many(values)

    def result(self) -> float:
        n = len(self._sorted)
        if n == 0:
            raise ValueError("quantile of an empty state is undefined")
        position = self._q * (n - 1)
        lower = int(math.floor(position))
        upper = min(lower + 1, n - 1)
        frac = position - lower
        return (1 - frac) * self._sorted.kth(lower) + frac * self._sorted.kth(upper)

    def copy(self) -> "QuantileState":
        clone = QuantileState.__new__(QuantileState)
        clone._q = self._q
        clone._sorted = self._sorted.copy()
        return clone

    def __len__(self) -> int:
        return len(self._sorted)


class MedianState(QuantileState):
    """The paper's running example of a non-trivial statistic (Fig. 6)."""

    def __init__(self) -> None:
        super().__init__(0.5)

    def copy(self) -> "MedianState":
        clone = MedianState.__new__(MedianState)
        clone._q = self._q
        clone._sorted = self._sorted.copy()
        return clone


class ExtremeState(EstimatorState):
    """Min/max with removal (kept as a sorted multiset)."""

    def __init__(self, kind: str) -> None:
        if kind not in ("min", "max"):
            raise ValueError("kind must be 'min' or 'max'")
        self._kind = kind
        self._sorted = _SortedFloats()

    def add(self, value: Any) -> None:
        self._sorted.insert(float(value))

    def remove(self, value: Any) -> None:
        self._sorted.remove(float(value))

    def add_many(self, values: Any) -> None:
        self._sorted.insert_many(values)

    def remove_many(self, values: Any) -> None:
        self._sorted.remove_many(values)

    def result(self) -> float:
        n = len(self._sorted)
        if n == 0:
            raise ValueError(f"{self._kind} of an empty state is undefined")
        return self._sorted.kth(0 if self._kind == "min" else n - 1)

    def copy(self) -> "ExtremeState":
        clone = ExtremeState.__new__(ExtremeState)
        clone._kind = self._kind
        clone._sorted = self._sorted.copy()
        return clone

    def __len__(self) -> int:
        return len(self._sorted)


class ProportionState(EstimatorState):
    """Share of truthy values — the categorical-data statistic (App. A)."""

    def __init__(self) -> None:
        self._successes = 0
        self._count = 0

    def add(self, value: Any) -> None:
        self._count += 1
        if value:
            self._successes += 1

    def remove(self, value: Any) -> None:
        if self._count == 0:
            raise ValueError("cannot remove from an empty ProportionState")
        self._count -= 1
        if value:
            self._successes -= 1

    def add_many(self, values: Any) -> None:
        arr = np.asarray(values)
        self._count += arr.size
        self._successes += int(np.count_nonzero(arr))

    def remove_many(self, values: Any) -> None:
        arr = np.asarray(values)
        if arr.size > self._count:
            raise ValueError("cannot remove from an empty ProportionState")
        self._count -= arr.size
        self._successes -= int(np.count_nonzero(arr))

    def merge(self, other: "ProportionState") -> None:
        self._successes += other._successes
        self._count += other._count

    def result(self) -> float:
        if self._count == 0:
            raise ValueError("proportion of an empty state is undefined")
        return self._successes / self._count

    def copy(self) -> "ProportionState":
        clone = ProportionState.__new__(ProportionState)
        clone._successes, clone._count = self._successes, self._count
        return clone

    def __len__(self) -> int:
        return self._count


class CorrelationState(EstimatorState):
    """Pearson correlation over ``(x, y)`` pairs.

    Sampling "is applicable to algorithms relying on capturing
    data-structure such as correlation analysis" (§3.3) — this state is
    the concrete witness used in tests and examples.
    """

    def __init__(self) -> None:
        self._n = 0
        self._sx = self._sy = 0.0
        self._sxx = self._syy = self._sxy = 0.0

    def add(self, value: Any) -> None:
        x, y = float(value[0]), float(value[1])
        self._n += 1
        self._sx += x
        self._sy += y
        self._sxx += x * x
        self._syy += y * y
        self._sxy += x * y

    def remove(self, value: Any) -> None:
        if self._n == 0:
            raise ValueError("cannot remove from an empty CorrelationState")
        x, y = float(value[0]), float(value[1])
        self._n -= 1
        self._sx -= x
        self._sy -= y
        self._sxx -= x * x
        self._syy -= y * y
        self._sxy -= x * y

    def _batch_sums(self, values: Any):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                "correlation batch needs an (m, 2) array of (x, y) pairs")
        x, y = arr[:, 0], arr[:, 1]
        return (arr.shape[0], float(x.sum()), float(y.sum()),
                float((x * x).sum()), float((y * y).sum()),
                float((x * y).sum()))

    def add_many(self, values: Any) -> None:
        m, sx, sy, sxx, syy, sxy = self._batch_sums(values)
        self._n += m
        self._sx += sx
        self._sy += sy
        self._sxx += sxx
        self._syy += syy
        self._sxy += sxy

    def remove_many(self, values: Any) -> None:
        m, sx, sy, sxx, syy, sxy = self._batch_sums(values)
        if m > self._n:
            raise ValueError("cannot remove from an empty CorrelationState")
        self._n -= m
        self._sx -= sx
        self._sy -= sy
        self._sxx -= sxx
        self._syy -= syy
        self._sxy -= sxy

    def merge(self, other: "CorrelationState") -> None:
        self._n += other._n
        self._sx += other._sx
        self._sy += other._sy
        self._sxx += other._sxx
        self._syy += other._syy
        self._sxy += other._sxy

    def result(self) -> float:
        if self._n < 2:
            raise ValueError("correlation needs at least two pairs")
        cov = self._n * self._sxy - self._sx * self._sy
        vx = self._n * self._sxx - self._sx * self._sx
        vy = self._n * self._syy - self._sy * self._sy
        denom = math.sqrt(max(vx, 0.0) * max(vy, 0.0))
        if denom == 0.0:
            return 0.0
        return cov / denom

    def copy(self) -> "CorrelationState":
        clone = CorrelationState.__new__(CorrelationState)
        clone._n = self._n
        clone._sx, clone._sy = self._sx, self._sy
        clone._sxx, clone._syy, clone._sxy = self._sxx, self._syy, self._sxy
        return clone

    def __len__(self) -> int:
        return self._n


class CountState(EstimatorState):
    """Record count — COUNT(*) pairs with the ``1/p`` correction (§2.1)."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        self._count += 1

    def remove(self, value: Any) -> None:
        if self._count == 0:
            raise ValueError("cannot remove from an empty CountState")
        self._count -= 1

    def add_many(self, values: Any) -> None:
        self._count += len(values)

    def remove_many(self, values: Any) -> None:
        if len(values) > self._count:
            raise ValueError("cannot remove from an empty CountState")
        self._count -= len(values)

    def merge(self, other: "CountState") -> None:
        self._count += other._count

    def result(self) -> float:
        return float(self._count)

    def copy(self) -> "CountState":
        clone = CountState.__new__(CountState)
        clone._count = self._count
        return clone

    def __len__(self) -> int:
        return self._count


class FunctionalState(EstimatorState):
    """Fallback for arbitrary user functions: keep raw values, recompute.

    This is the "EARL works for arbitrary functions" escape hatch — no
    algebraic structure is assumed, so ``result()`` costs a full
    evaluation.  ``remove`` drops one occurrence of the value.  A row
    item (``Statistic(..., row_items=True)``, e.g. an (x, y) pair) is
    kept whole as a list of floats, so ``fn`` sees the ``(n, d)`` rows.
    """

    def __init__(self, fn: Callable[[np.ndarray], float]) -> None:
        self._fn = fn
        self._values: List[Any] = []

    @staticmethod
    def _item(value: Any) -> Any:
        if np.ndim(value):
            return np.asarray(value, dtype=float).tolist()
        return float(value)

    def add(self, value: Any) -> None:
        self._values.append(self._item(value))

    def remove(self, value: Any) -> None:
        self._values.remove(self._item(value))

    def add_many(self, values: Any) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim < 2:
            values = values.ravel()
        self._values.extend(values.tolist())

    def result(self) -> float:
        if not self._values:
            raise ValueError("result of an empty FunctionalState is undefined")
        return float(self._fn(np.asarray(self._values)))

    def copy(self) -> "FunctionalState":
        clone = FunctionalState.__new__(FunctionalState)
        clone._fn = self._fn
        clone._values = list(self._values)
        return clone

    def __len__(self) -> int:
        return len(self._values)


# --------------------------------------------------------------------------
# Batch (vectorized) forms and the registry
# --------------------------------------------------------------------------


def _nan_rows(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values``, with NumPy's answer for rows holding a NaN: the NaN
    itself, which sorts to the end of its row."""
    last = ordered[..., -1]
    return np.where(np.isnan(last), last, values)


def sorted_quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(ordered, q, axis=-1)`` (the default ``"linear"``
    method, ``q`` a Python float) of rows already sorted along their
    last axis, by NumPy's own rule: position ``(n - 1)·q``, its floor
    and the next index (both the last one once the position reaches
    ``n - 1``), then ``_lerp``'s two-sided interpolation.  Equal to
    ``np.quantile`` bit for bit except where a ``±0`` sits at the order
    position: zeros compare equal, so which sign NumPy returns depends
    on its partition."""
    n = ordered.shape[-1]
    position = (n - 1) * q
    if position >= n - 1:
        below = above = -1
    else:
        below = math.floor(position)
        above = below + 1
    t = position - below
    a, b = ordered[..., below], ordered[..., above]
    diff = b - a
    values = b - diff * (1 - t) if t >= 0.5 else a + diff * t
    return _nan_rows(ordered, values)


def sorted_median(ordered: np.ndarray) -> np.ndarray:
    """``np.median(ordered, axis=-1)`` of rows already sorted along
    their last axis: the mean of the middle one or two values (same
    ``±0`` caveat as :func:`sorted_quantile`)."""
    n = ordered.shape[-1]
    half = n // 2
    if n % 2:
        values = ordered[..., half]
    else:
        values = (ordered[..., half - 1] + ordered[..., half]) / 2
    return _nan_rows(ordered, values)


class _RowwiseBatch:
    """Default ``batch``: apply ``pointwise`` to every resample row.

    A class rather than a closure so that a ``Statistic`` built from a
    picklable callable is itself picklable (process-pool bootstrap).
    """

    __slots__ = ("pointwise",)

    def __init__(self, pointwise: Callable[[np.ndarray], float]) -> None:
        self.pointwise = pointwise

    def __call__(self, matrix: np.ndarray) -> np.ndarray:
        return np.apply_along_axis(self.pointwise, 1, matrix)


class _FunctionalStateFactory:
    """Default ``make_state``: a :class:`FunctionalState` over
    ``pointwise`` (lambda-free for the same picklability reason)."""

    __slots__ = ("pointwise",)

    def __init__(self, pointwise: Callable[[np.ndarray], float]) -> None:
        self.pointwise = pointwise

    def __call__(self) -> "FunctionalState":
        return FunctionalState(self.pointwise)


class Statistic:
    """A named statistic with batch and incremental implementations.

    ``pointwise`` evaluates on one 1-D sample; ``batch`` evaluates on a
    2-D matrix whose rows are resamples (the Monte-Carlo fast path);
    ``make_state`` builds the incremental state used by delta
    maintenance.  ``row_items=True`` declares that one *item* of the
    sample is a vector row rather than a scalar (e.g. an (x, y) pair
    for ``"correlation"``) — the drivers only accept 2-D data for such
    statistics, since scalar states cannot ingest rows.

    ``sorted_read`` is set on the order statistics (``median`` and every
    quantile): their value off rows already sorted along the last axis
    (:func:`sorted_median`, :func:`sorted_quantile`), equal to ``batch``
    bit for bit except at ``±0``.  One sort of a resample set's rows
    then serves all of its order-statistic readers.
    """

    sorted_read: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __init__(self, name: str,
                 pointwise: Callable[[np.ndarray], float],
                 batch: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 make_state: Optional[Callable[[], EstimatorState]] = None,
                 row_items: bool = False) -> None:
        self.name = name
        self.pointwise = pointwise
        self.batch = batch or _RowwiseBatch(pointwise)
        self.make_state = make_state or _FunctionalStateFactory(pointwise)
        self.row_items = row_items

    def __call__(self, sample: np.ndarray) -> float:
        return float(self.pointwise(np.asarray(sample)))

    def __reduce__(self):
        """Pickle registry statistics *by name*.

        The implementations are lambdas (unpicklable by value), but a
        registered statistic — or a ``quantile:<q>`` built by
        :func:`get_statistic` — can be reconstructed from its name on
        the far side of a process pool, which is what lets bootstrap
        work units ship a statistic to a
        :class:`~repro.exec.ProcessExecutor` worker.  By-name
        reconstruction only fires when the name provably rebuilds *this*
        statistic (registry identity, or the ``_reconstruct_by_name``
        marker set by :func:`_quantile_statistic`); ad-hoc instances —
        even ones whose name looks like ``quantile:...`` — fall back to
        default pickling and must bring picklable callables.
        """
        if _REGISTRY.get(self.name) is self \
                or getattr(self, "_reconstruct_by_name", False):
            return (get_statistic, (self.name,))
        return super().__reduce__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Statistic({self.name!r})"


def _quantile_statistic(q: float, name: str) -> Statistic:
    stat = Statistic(
        name,
        pointwise=lambda a: float(np.quantile(a, q)),
        batch=lambda m: np.quantile(m, q, axis=1),
        make_state=lambda: QuantileState(q),
    )
    stat.sorted_read = partial(sorted_quantile, q=q)
    # get_statistic(name) rebuilds exactly this statistic, so pickling
    # by name is sound for these instances (see Statistic.__reduce__).
    stat._reconstruct_by_name = True
    return stat


_REGISTRY: Dict[str, Statistic] = {}


def register_statistic(stat: Statistic) -> Statistic:
    """Add a statistic to the global registry (last write wins)."""
    _REGISTRY[stat.name] = stat
    return stat


register_statistic(Statistic(
    "mean", pointwise=lambda a: float(np.mean(a)),
    batch=lambda m: np.mean(m, axis=1), make_state=MeanState))
register_statistic(Statistic(
    "sum", pointwise=lambda a: float(np.sum(a)),
    batch=lambda m: np.sum(m, axis=1), make_state=SumState))
_median = register_statistic(Statistic(
    "median", pointwise=lambda a: float(np.median(a)),
    batch=lambda m: np.median(m, axis=1), make_state=MedianState))
_median.sorted_read = sorted_median
register_statistic(Statistic(
    "variance", pointwise=lambda a: float(np.var(a, ddof=1)),
    batch=lambda m: np.var(m, axis=1, ddof=1), make_state=VarianceState))
register_statistic(Statistic(
    "std", pointwise=lambda a: float(np.std(a, ddof=1)),
    batch=lambda m: np.std(m, axis=1, ddof=1), make_state=StdState))
register_statistic(Statistic(
    "min", pointwise=lambda a: float(np.min(a)),
    batch=lambda m: np.min(m, axis=1),
    make_state=lambda: ExtremeState("min")))
register_statistic(Statistic(
    "max", pointwise=lambda a: float(np.max(a)),
    batch=lambda m: np.max(m, axis=1),
    make_state=lambda: ExtremeState("max")))
register_statistic(Statistic(
    "proportion", pointwise=lambda a: float(np.mean(a != 0)),
    batch=lambda m: np.mean(m != 0, axis=1), make_state=ProportionState))
register_statistic(Statistic(
    "count", pointwise=lambda a: float(len(a)),
    batch=lambda m: np.full(m.shape[0], float(m.shape[1])),
    make_state=CountState))
def _pearson_pointwise(sample: np.ndarray) -> float:
    """Pearson r over an ``(n, 2)`` array whose rows are (x, y) pairs."""
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("correlation needs an (n >= 2, 2) array of pairs")
    x, y = arr[:, 0], arr[:, 1]
    sx, sy = float(x.std()), float(y.std())
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def _pearson_batch(resamples: np.ndarray) -> np.ndarray:
    """Batch form over a ``(B, n, 2)`` stack of pair resamples,
    vectorized over the resample axis."""
    arr = np.asarray(resamples, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[1] < 2:
        raise ValueError(
            "correlation batch needs a (B, n >= 2, 2) stack of pairs")
    x, y = arr[:, :, 0], arr[:, :, 1]
    cov = np.mean((x - x.mean(axis=1, keepdims=True))
                  * (y - y.mean(axis=1, keepdims=True)), axis=1)
    denom = x.std(axis=1) * y.std(axis=1)
    out = np.zeros(arr.shape[0])
    np.divide(cov, denom, out=out, where=denom > 0.0)
    return out


# Items of a correlation sample are (x, y) ROWS, not scalars: the
# drivers treat 2-D data row-wise, resampling pairs jointly (resampling
# x and y independently would destroy the dependence being measured).
register_statistic(Statistic(
    "correlation", pointwise=_pearson_pointwise,
    batch=_pearson_batch, make_state=CorrelationState, row_items=True))
register_statistic(_quantile_statistic(0.25, "p25"))
register_statistic(_quantile_statistic(0.75, "p75"))
register_statistic(_quantile_statistic(0.90, "p90"))
register_statistic(_quantile_statistic(0.95, "p95"))
register_statistic(_quantile_statistic(0.99, "p99"))


StatisticLike = Union[str, Statistic, Callable[[np.ndarray], float]]


class _PointwiseAdapter:
    """Lambda-free wrapper for user callables.

    Being a plain class (not a closure), it pickles whenever the wrapped
    callable does — so a :class:`FunctionalState` built from a
    module-level user function can cross a process pool, which is what
    lets arbitrary statistics ride the parallel resample evaluation.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[np.ndarray], float]) -> None:
        self.fn = fn

    def __call__(self, a: np.ndarray) -> float:
        return float(self.fn(a))


def get_statistic(spec: StatisticLike) -> Statistic:
    """Resolve a name, ``Statistic`` or plain callable to a ``Statistic``.

    Names accept a ``quantile:<q>`` form (e.g. ``quantile:0.9``) besides
    the registered aliases.  Plain callables are wrapped with the
    functional (recompute) state.
    """
    if isinstance(spec, Statistic):
        return spec
    if callable(spec):
        name = getattr(spec, "__name__", "custom")
        return Statistic(name, pointwise=_PointwiseAdapter(spec))
    if isinstance(spec, str):
        if spec in _REGISTRY:
            return _REGISTRY[spec]
        if spec.startswith("quantile:"):
            q = float(spec.split(":", 1)[1])
            return _quantile_statistic(q, spec)
        raise KeyError(
            f"unknown statistic {spec!r}; known: {sorted(_REGISTRY)}")
    raise TypeError(f"cannot interpret {spec!r} as a statistic")


def available_statistics() -> List[str]:
    """Names currently registered (sorted)."""
    return sorted(_REGISTRY)
