"""Inter-iteration delta maintenance of bootstrap resamples (paper §4.1).

When EARL enlarges the sample ``s`` (size n) with a delta ``Δs`` into
``s' = s + Δs`` (size n'), a fresh bootstrap of ``s'`` would redo all
``B × n'`` draws and recompute the user's job from scratch.  Instead,
each existing resample ``b`` is *updated*:

1. draw ``k = |b'_s|`` — how many of the n' positions come from the old
   sample — from ``Binomial(n', n/n')`` (Eq. 2), or from its Gaussian
   approximation ``N(n, n(1-n/n'))`` (Eq. 3) in the optimized algorithm;
2. if ``k < n`` randomly delete ``n-k`` items from ``b``; if ``k > n``
   add ``k-n`` random items drawn from ``s``;
3. add ``n'-k`` items randomly drawn from ``Δs``.

The result is distributed exactly like a fresh resample of ``s'`` (the
multinomial thinning argument), but costs only O(|Δs|) work per
resample.  The **naive** maintainer hits the disk-resident ``s``/``b``
for every random access; the **optimized** maintainer goes through the
§4.1 two-layer sketches and touches disk only on sketch exhaustion —
or, when the sample is memory-resident (no cost ledger bound), indexes
it directly: there is no disk round trip for a sketch to save.

Batched kernel
--------------
The O(|Δs|)-per-resample accounting only pays off if the constant per
item is small, so the maintainers take index draws as whole arrays
(``rng.integers(..., size=m)``, batched sketch serves) and update
estimator states through ``add_many``/``remove_many`` instead of one
Python call per item.  Over (simulated) storage, in the naive
maintainer and in the ``"none"`` rebuild the kernel consumes the random
stream in exactly the order of the item-at-a-time reading of §4.1, so
drawn items, resample contents and :class:`MaintenanceCounters` are
those of that reading for any seed; only the estimator-state arithmetic
is reassociated (batch moment merges), which can move finalized
estimates by floating-point rounding.  The scalar reading itself lives
in the test suite as the oracle (``tests/delta_reference.py``, pinned
by ``tests/fixtures/delta_streams.json``).  A memory-resident optimized
set goes further (:class:`_DenseRows`): all ``B`` resamples are one
array, updated and evaluated together — same law as the oracle's
resident access, not the same bytes.
See DESIGN.md "Vectorized kernel & data plane".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.obs.metrics import REGISTRY as _METRICS
from repro.core.estimators import (
    EstimatorState,
    FunctionalState,
    StatisticLike,
    _RowwiseBatch,
    get_statistic,
)
from repro.core.sketch import ITEM_BYTES, Sketch
from repro.exec.executor import Executor
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive, check_positive_int

#: Maintainer selection values.
MAINTENANCE_NAIVE = "naive"
MAINTENANCE_OPTIMIZED = "optimized"
MAINTENANCE_NONE = "none"


@dataclass
class MaintenanceCounters:
    """Work accounting used by the Fig. 6 / Fig. 10 benchmarks."""

    state_ops: int = 0        # add/remove operations on estimator states
    disk_accesses: int = 0    # random accesses charged to disk
    sketch_draws: int = 0     # draws served from memory-resident sketches
    full_rebuilds: int = 0    # resamples rebuilt from scratch
    _published: Dict[str, int] = field(default_factory=dict, repr=False,
                                       compare=False)

    def merge(self, other: "MaintenanceCounters") -> None:
        self.state_ops += other.state_ops
        self.disk_accesses += other.disk_accesses
        self.sketch_draws += other.sketch_draws
        self.full_rebuilds += other.full_rebuilds

    def publish(self) -> None:
        """Mirror this bag into the metrics registry as
        ``repro_maintenance_ops_total{op=...}``.  Delta-tracked, so
        round-boundary republishing never double counts.  No-op when
        telemetry is disabled."""
        if not _METRICS.enabled:
            return
        for op in ("state_ops", "disk_accesses", "sketch_draws",
                   "full_rebuilds"):
            value = getattr(self, op)
            delta = value - self._published.get(op, 0)
            if delta > 0:
                _METRICS.counter(
                    "repro_maintenance_ops_total", labels={"op": op},
                    help="delta-maintenance work, by operation kind",
                ).inc(delta)
                self._published[op] = value


class _ItemBuffer:
    """Growable ndarray-backed segment of a :class:`Resample`.

    A whole batch lands as one array copy (:meth:`extend_array`); the
    maintainers' delete is :meth:`swap_pop`, which returns a scalar for
    a 1-D buffer and a row *copy* for a 2-D one — never a view, so a
    later swap-pop overwriting the slot can't retroactively change an
    item already handed out.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self) -> None:
        self._buf: Optional[np.ndarray] = None
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __getstate__(self):
        """Pickle the live prefix only: the spare capacity is at least
        as large again and uninitialised, and a process fan-out ships
        every segment to a worker and back each round."""
        return (None if self._buf is None else self._buf[:self._len],)

    def __setstate__(self, state) -> None:
        (self._buf,) = state
        self._len = 0 if self._buf is None else len(self._buf)

    def _reserve(self, extra: int, template: np.ndarray) -> None:
        if self._buf is None:
            cap = max(16, 2 * extra)
            self._buf = np.empty((cap,) + template.shape[1:],
                                 dtype=template.dtype)
        elif self._len + extra > len(self._buf):
            cap = max(2 * len(self._buf), self._len + extra)
            grown = np.empty((cap,) + self._buf.shape[1:],
                             dtype=self._buf.dtype)
            grown[:self._len] = self._buf[:self._len]
            self._buf = grown

    def extend_array(self, items: np.ndarray) -> None:
        count = len(items)
        if count == 0:
            return
        items = np.asarray(items)
        self._reserve(count, items)
        self._buf[self._len:self._len + count] = items
        self._len += count

    def swap_pop(self, idx: int) -> Any:
        """Remove and return item ``idx`` (``0 <= idx < len``), moving
        the last item into its slot — the maintainers' O(1) delete."""
        item = self._buf[idx]
        if isinstance(item, np.ndarray):
            item = item.copy()
        self._len -= 1
        self._buf[idx] = self._buf[self._len]
        return item

    def __iter__(self):
        return iter(self.as_array())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        arr = self.as_array()
        return arr if dtype is None else arr.astype(dtype)

    def as_array(self) -> np.ndarray:
        if self._buf is None:
            return np.empty(0)
        return self._buf[:self._len]


class Resample:
    """One bootstrap resample: items partitioned by delta-generation.

    After the i-th iteration a resample is partitioned into
    ``{b_Δs_k, k <= i}`` (§4.1) — the items drawn from each delta sample.
    Keeping the partition explicit lets the maintainer delete uniformly
    (segment chosen proportionally to its size) and lets the optimized
    algorithm keep one sketch per segment.  Each segment is an
    :class:`_ItemBuffer`; ``states`` has one estimator state per
    statistic read off the resample.
    """

    __slots__ = ("states", "segments")

    def __init__(self, *states: EstimatorState) -> None:
        self.states = states
        self.segments: List[_ItemBuffer] = []

    @property
    def size(self) -> int:
        return sum(len(seg) for seg in self.segments)

    def new_segment(self) -> None:
        self.segments.append(_ItemBuffer())

    def add_many(self, items: np.ndarray, segment: int) -> None:
        """Append a batch to one segment (one array copy) and fold it
        into the estimator state with one ``add_many``."""
        if len(items) == 0:
            return
        self.segments[segment].extend_array(items)
        for state in self.states:
            state.add_many(items)

    def remove_random_many(self, rng: np.random.Generator,
                           count: int) -> np.ndarray:
        """Delete ``count`` uniformly random items with one index draw
        and one state call.

        ``rng.integers(0, bounds)`` over the descending bounds
        ``size, size-1, …`` consumes the generator exactly like
        ``count`` scalar ``rng.integers(0, size)`` calls with their
        shrinking bound (``tests/core/test_rng_identities.py``), so the
        deleted items are those of ``count`` one-at-a-time swap-pops,
        which then replay on plain ints.
        """
        total = self.size
        if count < 0:
            raise ValueError(f"cannot remove a negative number of items "
                             f"({count})")
        if count > total:
            raise ValueError(f"cannot remove {count} items from a "
                             f"resample of {total}")
        flats = rng.integers(0, np.arange(total, total - count, -1)).tolist()
        sizes = [len(segment) for segment in self.segments]
        removed = []
        for flat in flats:
            seg_idx = 0
            while flat >= sizes[seg_idx]:
                flat -= sizes[seg_idx]
                seg_idx += 1
            removed.append(self.segments[seg_idx].swap_pop(flat))
            sizes[seg_idx] -= 1
        removed = np.asarray(removed)
        if count:
            for state in self.states:
                state.remove_many(removed)
        return removed

    def estimate(self, reader: int = 0) -> float:
        return self.states[reader].result()


class _BaseMaintainer:
    """The three-step §4.1 update, shared by both algorithms.

    They differ in the law ``k`` is drawn from (:meth:`_draw_k`) and in
    how random stored items are reached (:meth:`_add_from_old`,
    :meth:`_add_from_delta`).  Both reach them a batch at a time: the
    draws consume the random stream in the order of one draw per item,
    and the items land with one state call.
    """

    def __init__(self, *, rng: np.random.Generator,
                 ledger: Optional[CostLedger],
                 io_scale: float = 1.0) -> None:
        self._rng = rng
        self._ledger = ledger
        self.io_scale = io_scale
        self.counters = MaintenanceCounters()
        #: Every Δs so far, oldest first; during an iteration the last
        #: one is the delta being added and the rest the old sample.
        self._deltas: List[np.ndarray] = []

    def _draw_k(self, n_old: int, n_new: int) -> int:
        """Draw ``|b'_s|`` — the old-sample share of the updated resample."""
        raise NotImplementedError

    def _add_from_old(self, resample: Resample, count: int) -> None:
        """Add ``count`` uniform draws from the old sample, each to the
        segment of the Δs it came from."""
        raise NotImplementedError

    def _add_from_delta(self, resample: Resample, segment: int,
                        count: int) -> None:
        """Add ``count`` uniform draws from the current Δs to ``segment``."""
        raise NotImplementedError

    def on_delta(self, delta: np.ndarray) -> None:
        """Called once per iteration before resamples are updated."""
        self._deltas.append(delta)

    def end_iteration(self) -> None:
        """Called once per iteration after all resamples were updated."""

    @staticmethod
    def _land_old_items(resample: Resample, items: np.ndarray,
                        seg_ids: np.ndarray) -> None:
        """Append old-sample draws to the segments they came from
        (clamped to the resample's own segment count), one state call."""
        np.minimum(seg_ids, len(resample.segments) - 1, out=seg_ids)
        for seg in np.unique(seg_ids):
            resample.segments[int(seg)].extend_array(items[seg_ids == seg])
        for state in resample.states:
            state.add_many(items)

    def update(self, resample: Resample, n_old: int, n_new: int) -> None:
        """Apply the three-step §4.1 update to one resample."""
        if n_new <= n_old:
            raise ValueError("the sample must grow between iterations")
        k = int(min(max(self._draw_k(n_old, n_new), 0), n_new))
        # Step 2: reconcile the old-sample part of the resample to size k.
        if k < n_old:
            resample.remove_random_many(self._rng, n_old - k)
        elif k > n_old:
            self._add_from_old(resample, k - n_old)
        self.counters.state_ops += abs(n_old - k)
        # Step 3: top up to n_new with draws from the delta sample.
        resample.new_segment()
        self._add_from_delta(resample, len(resample.segments) - 1, n_new - k)
        self.counters.state_ops += n_new - k


class NaiveMaintainer(_BaseMaintainer):
    """The paper's first algorithm: exact binomial, direct HDFS access.

    Every random draw from the stored sample is a disk access ("the disk
    I/O cost can be a major performance bottleneck", §4.1); the cost
    model charges one seek plus one item read per access.  Draws are
    one fixed-bound ``rng.integers`` array call into the stored Δs
    arrays — the stream of the same number of scalar calls.
    """

    def _draw_k(self, n_old: int, n_new: int) -> int:
        return int(self._rng.binomial(n_new, n_old / n_new))

    def _charge_access(self, count: int) -> None:
        self.counters.disk_accesses += count
        if self._ledger is not None:
            self._ledger.charge_seeks(count)
            self._ledger.charge_disk_read(count * ITEM_BYTES * self.io_scale)

    #: Flattened old sample + segment starts, for one iteration.
    _old: Optional[tuple] = None

    def end_iteration(self) -> None:
        self._old = None  # old-sample layout changed; rebuild lazily

    def _old_layout(self):
        """Flattened old sample + segment start offsets (cached — the
        stored segments are fixed while resamples are updated)."""
        if self._old is None:
            old = self._deltas[:-1]
            self._old = (old[0] if len(old) == 1 else np.concatenate(old),
                         np.cumsum([0] + [len(seg) for seg in old[:-1]],
                                   dtype=np.int64))
        return self._old

    def _add_from_old(self, resample: Resample, count: int) -> None:
        flat, starts = self._old_layout()
        self._charge_access(count)
        idx = self._rng.integers(0, len(flat), size=count)
        self._land_old_items(
            resample, flat[idx],
            np.searchsorted(starts, idx, side="right") - 1)

    def _add_from_delta(self, resample: Resample, segment: int,
                        count: int) -> None:
        if count == 0:
            return
        delta = self._deltas[-1]
        self._charge_access(count)
        idx = self._rng.integers(0, len(delta), size=count)
        resample.add_many(delta[idx], segment)


class SketchMaintainer(_BaseMaintainer):
    """The optimized algorithm over (simulated) storage.

    * ``k`` is drawn from ``N(n, n(1-n/n'))`` (Eq. 3) — by the 3-sigma
      rule nearly all updates stay within ``±3√n`` of the mean, so the
      per-iteration work is tightly concentrated;
    * random items come from in-memory sketches (one per delta sample,
      ``c·√n`` items each); disk is touched only on sketch exhaustion;
    * at iteration end, sketches are refreshed by reservoir substitution.
    """

    def __init__(self, *, rng: np.random.Generator,
                 ledger: Optional[CostLedger], c: float = 4.0,
                 io_scale: float = 1.0) -> None:
        super().__init__(rng=rng, ledger=ledger, io_scale=io_scale)
        check_positive("c", c)
        self._c = c
        self._delta_sketches: List[Sketch] = []
        self._old_cdf_cache: Optional[np.ndarray] = None

    def _draw_k(self, n_old: int, n_new: int) -> int:
        var = n_old * (1.0 - n_old / n_new)
        k = self._rng.normal(n_old, math.sqrt(max(var, 1e-12)))
        return int(round(k))

    def on_delta(self, delta: np.ndarray) -> None:
        super().on_delta(delta)
        self._delta_sketches.append(
            Sketch(delta, self._c, rng=self._rng, ledger=self._ledger,
                   io_scale=self.io_scale))
        self._old_cdf_cache = None

    def end_iteration(self) -> None:
        for sketch in self._delta_sketches:
            sketch.refresh()

    def _sketch_draw(self, sketch: Sketch) -> Any:
        before = sketch.disk_reloads
        item = sketch.draw()
        if sketch.disk_reloads > before:
            self.counters.disk_accesses += 1
        else:
            self.counters.sketch_draws += 1
        return item

    def _old_cdf(self) -> np.ndarray:
        """Cumulative old-segment selection weights (each segment's
        share of the old sample), normalised exactly the way
        ``Generator.choice(k, p=)`` does it.  Cached: the stores are
        fixed while one iteration's resamples are updated."""
        if self._old_cdf_cache is None:
            sizes = np.array([len(store) for store in self._deltas[:-1]],
                             dtype=float)
            cdf = (sizes / sizes.sum()).cumsum()
            cdf /= cdf[-1]
            self._old_cdf_cache = cdf
        return self._old_cdf_cache

    # Old-sample additions go one draw at a time — the segment choice
    # interleaves with sketch reloads on the shared stream — picking the
    # segment the way ``rng.choice(k, p=)`` does internally (one
    # uniform, searched in the normalised cdf) without its per-call
    # argument validation: segment chosen proportionally to its share
    # of the old sample, then a sketch draw within it, which composes
    # to a uniform draw over the whole old sample; the O(√n) items per
    # resample land in one state call.  The delta top-up is one sketch
    # slice sequence (:meth:`Sketch.draw_many`, reloads included).
    def _add_from_old(self, resample: Resample, count: int) -> None:
        cdf = self._old_cdf()
        seg_ids, items = [], []
        for _ in range(count):
            seg = cdf.searchsorted(self._rng.random(), side="right")
            seg_ids.append(seg)
            items.append(self._sketch_draw(self._delta_sketches[seg]))
        self._land_old_items(resample, np.asarray(items),
                             np.asarray(seg_ids))

    def _add_from_delta(self, resample: Resample, segment: int,
                        count: int) -> None:
        if count == 0:
            return
        items, reloads = self._delta_sketches[-1].draw_many(count)
        self.counters.disk_accesses += reloads
        self.counters.sketch_draws += count - reloads
        resample.add_many(items, segment)


class _DenseRows:
    """All ``B`` resamples of a memory-resident sample as one array.

    ``rows`` is ``(B, cap)`` — ``(B, cap, d)`` for row items — and its
    first ``n`` columns are live; capacity doubles, only the live prefix
    pickles.  The §4.1 update runs for every row at once in a constant
    number of NumPy calls, and nothing else is maintained: in memory,
    re-reading ``f`` from the rows (``Statistic.batch``) is one
    reduction.  Same law as the item-at-a-time §4.1 update with a
    Gaussian ``k`` over a directly indexed sample (the resident access
    of ``tests/delta_reference.py``), other bytes.
    """

    def __init__(self, sample: np.ndarray, B: int,
                 rng: np.random.Generator) -> None:
        self.n = len(sample)
        self.rows = sample[rng.integers(0, self.n, size=(B, self.n))]

    def __getstate__(self):
        return {"n": self.n, "rows": self.live()}

    def live(self) -> np.ndarray:
        return self.rows[:, :self.n]

    def expand(self, old: np.ndarray, delta: np.ndarray,
               rng: np.random.Generator) -> int:
        """Update every row from the sample ``old`` to ``old + delta``;
        returns the number of items moved in or out (state ops)."""
        B, n = len(self.rows), self.n
        n_new = n + len(delta)
        spread = math.sqrt(max(n * (1.0 - n / n_new), 1e-12))
        k = np.clip(np.rint(rng.normal(n, spread, size=B)),
                    0, n_new).astype(np.int64)          # Eq. 3, per row
        dtype = np.result_type(self.rows.dtype, delta.dtype)
        if n_new > self.rows.shape[1] or dtype != self.rows.dtype:
            grown = np.empty((B, max(2 * self.rows.shape[1], n_new))
                             + self.rows.shape[2:], dtype=dtype)
            grown[:, :n] = self.live()
            self.rows = grown
        rows = self.rows
        # Step 2, k_b < n: a uniform set of n - k_b distinct slots per
        # shrinking row — i.i.d. draws, within-row duplicates redrawn
        # until none remain (symmetric in the slots, hence uniform).
        shed = np.maximum(n - k, 0)
        total = int(shed.sum())
        if total:
            owner = np.repeat(np.arange(B), shed)
            keys = owner * n + rng.integers(0, n, size=total)
            keys.sort()   # by row, then slot: ``owner`` stays aligned
            dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
            while len(dup):
                keys[dup] = owner[dup] * n + rng.integers(0, n, size=len(dup))
                keys.sort()
                dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
            slot = keys - owner * n
            # Fill the holes below k_b with the survivors of the row's
            # last n - k_b slots (both run in row-then-slot order).
            hole = slot < k[owner]
            shift = (np.cumsum(shed) - shed - k)[owner]   # tail <-> flat
            alive = np.ones(total, dtype=bool)
            alive[(slot + shift)[~hole]] = False
            rows[owner[hole], slot[hole]] = \
                rows[owner[alive], (np.arange(total) - shift)[alive]]
        # Step 2, k_b > n, and step 3: slot j of row b takes an old-sample
        # draw when n <= j < k_b and a Δs draw when j >= k_b.  Rows only
        # differ inside the band [min(n, k), max k); beyond is one block.
        lo, k_max = min(n, int(k.min())), int(k.max())
        cols = np.arange(lo, k_max)
        band = rows[:, lo:k_max]
        from_delta = cols >= k[:, None]
        from_old = (cols >= n) & ~from_delta
        added = int(from_old.sum())
        if added:
            band[from_old] = old[rng.integers(0, n, size=added)]
        topped = int(from_delta.sum())
        idx = rng.integers(0, len(delta), size=topped + B * (n_new - k_max))
        band[from_delta] = delta[idx[:topped]]
        rows[:, k_max:n_new] = delta[idx[topped:].reshape(B, n_new - k_max)]
        self.n = n_new
        return total + added + len(idx)


class ResampleSet:
    """``B`` delta-maintained bootstrap resamples over a growing sample.

    This is the reduce-side engine of EARL's accuracy-estimation stage:
    initialize with the first sample, :meth:`expand` with each delta,
    and read the result distribution via :meth:`estimates` after every
    iteration.  ``maintenance`` selects §4.1's naive or optimized
    algorithm, or ``"none"`` to rebuild every resample from scratch each
    iteration (the stock-bootstrap baseline of Fig. 6/10).

    **Residency.**  A sketch saves disk round trips, and a
    :class:`~repro.cluster.costmodel.CostLedger` is the only thing one
    is ever charged to.  So ``"optimized"`` goes through sketches
    exactly when a ledger is bound at :meth:`initialize` (the cluster's
    reducers bind one before their first offer); with none the sample
    is memory-resident and indexed directly — same ``k`` law, no sketch,
    nothing charged, and the resamples are one :class:`_DenseRows`
    array.  Decided once: a later :meth:`set_ledger` redirects charges,
    it never changes the access path.

    Every path is the batched kernel (see the module docstring): over
    storage, and for ``"naive"`` and ``"none"``, it draws the items and
    counts the :class:`MaintenanceCounters` of the item-at-a-time
    reading of §4.1 for any seed; dense rows agree with that reading in
    law, not in bytes (``benchmarks/bench_kernel.py`` measures the
    throughput gap).

    **Readers.**  Resamples depend on the sample, not the statistic,
    so several statistics may read one set (:meth:`add_reader`), each
    over any leading ``B`` of its resamples (:meth:`estimates`) — still
    ``B`` i.i.d. resamples of the sample.  Their owner grows the set
    once per delta (:meth:`grow`, to its widest reader's ``B``); the
    readers then only read.  Order statistics (``median``, quantiles)
    over dense rows are read off one sort of the rows per growth,
    shared by all of them — NumPy would partition the same rows once
    per reader — with ``batch``'s bytes.

    The sample and every stored Δs are the arrays handed to
    :meth:`initialize` / :meth:`expand` (``np.asarray`` of them — no
    copy of an ndarray or of a slice of one), so the caller must not
    write to those arrays afterwards.
    """

    def __init__(self, statistic: StatisticLike, B: int, *,
                 maintenance: str = MAINTENANCE_OPTIMIZED,
                 sketch_c: float = 4.0,
                 seed: SeedLike = None,
                 ledger: Optional[CostLedger] = None,
                 io_scale: float = 1.0) -> None:
        check_positive_int("B", B)
        if maintenance not in (MAINTENANCE_NAIVE, MAINTENANCE_OPTIMIZED,
                               MAINTENANCE_NONE):
            raise ValueError(f"unknown maintenance mode {maintenance!r}")
        check_positive("io_scale", io_scale)
        check_positive("sketch_c", sketch_c)
        self._stat = get_statistic(statistic)
        self._readers = [self._stat]
        self.B = B
        self._mode = maintenance
        self._sketch_c = sketch_c
        self._rng = ensure_rng(seed)
        self._ledger = ledger
        self._io_scale = io_scale
        self._chunks: List[np.ndarray] = []   # the sample, one array per Δs
        self._n = 0
        self._resamples: List[Resample] = []
        self.counters = MaintenanceCounters()
        # Decided by initialize(): dense rows, or a maintainer (None for
        # "none") over per-resample objects.
        self._dense: Optional[_DenseRows] = None
        self._maintainer: Optional[_BaseMaintainer] = None
        # Order-statistic reads of the latest growth, off one sort of
        # the rows (by (reader, B)) and of the sample (by reader).
        self._sorted_estimates: Dict[Tuple[int, int], np.ndarray] = {}
        self._sorted_points: Dict[int, float] = {}

    def _make_maintainer(self) -> Optional[_BaseMaintainer]:
        """The per-resample maintainer; ledger-less ``"optimized"`` sets
        are dense rows and never get here."""
        if self._mode == MAINTENANCE_NONE:
            return None
        common = dict(rng=self._rng, ledger=self._ledger,
                      io_scale=self._io_scale)
        if self._mode == MAINTENANCE_NAIVE:
            return NaiveMaintainer(**common)
        return SketchMaintainer(c=self._sketch_c, **common)

    # ------------------------------------------------------------ lifecycle
    def add_reader(self, statistic: StatisticLike) -> int:
        """Register a statistic read off these resamples (before
        :meth:`initialize`); returns its reader index."""
        stat = get_statistic(statistic)
        if stat not in self._readers:
            if self._n:
                raise RuntimeError("readers join before initialize()")
            self._readers.append(stat)
        return self._readers.index(stat)

    def grow(self, delta: Sequence[Any], B: Optional[int] = None,
             reads: Optional[Sequence[Tuple[int, int]]] = None) -> None:
        """Grow the sample by ``delta`` (the first delta initializes the
        set), first dropping the resamples beyond ``B``: the round of a
        shared set, whose width is its widest live reader's ``B``.

        ``reads`` are the round's ``(reader index, B)`` pairs (default:
        every reader over the whole set).  Those of order statistics
        over dense rows are evaluated here, all off one sort of the
        rows, so the readers only read (:meth:`estimates`)."""
        if B is not None and B < self.B:
            self.B = B
            del self._resamples[B:]
            if self._dense is not None:
                self._dense.rows = self._dense.rows[:B]
        if self._n:
            self.expand(delta)
        else:
            self.initialize(delta)
        self.sample_array()     # merged here: readers only read
        if reads is None:
            reads = [(reader, self.B) for reader in range(len(self._readers))]
        self._read_sorted(reads)

    def _sortable(self, reader: int) -> bool:
        """Whether ``reader`` is read off sorted rows: an order
        statistic over dense rows of float items."""
        return (self._dense is not None
                and self._readers[reader].sorted_read is not None
                and self._dense.rows.ndim == 2
                and self._dense.rows.dtype == np.float64)

    def _read_sorted(self, reads: Sequence[Tuple[int, int]]) -> None:
        """Evaluate the order-statistic ``reads`` (and their readers'
        point estimates) off one sort of the rows and one of the
        sample.  Only the ``B``-vectors are kept: the sorted copies die
        here, so they never outlive the growth nor ride a pickle."""
        reads = [(reader, B) for reader, B in reads if self._sortable(reader)]
        if not reads:
            return
        live = self._dense.live()
        ordered = _sort_rows(live[:max(B for _, B in reads)])
        sample = np.asarray(self.sample_array(), dtype=float)
        ordered_sample = np.sort(sample)
        for reader, B in reads:
            stat = self._readers[reader]
            self._sorted_estimates[reader, B] = self._sorted_values(
                reader, ordered[:B], live[:B])
            point = float(stat.sorted_read(ordered_sample))
            self._sorted_points[reader] = \
                point if point != 0 else stat(sample)   # the ±0 guard

    def _sorted_values(self, reader: int, ordered: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
        """``reader``'s values off ``ordered`` (``rows`` sorted along
        their last axis), or its ``batch`` of ``rows`` where a zero
        comes out: only NumPy's partition knows that zero's sign."""
        stat = self._readers[reader]
        values = np.asarray(stat.sorted_read(ordered), dtype=float)
        if (values == 0).any():
            values = np.asarray(stat.batch(rows), dtype=float)
        return values

    def _sketches(self) -> Sequence[Sketch]:
        return getattr(self._maintainer, "_delta_sketches", ())

    def set_ledger(self, ledger: Optional[CostLedger]) -> None:
        """Re-bind the cost ledger (a reduce task charges maintenance I/O
        to its own ledger, which changes between iterations)."""
        self._ledger = ledger
        if self._maintainer is not None:
            self._maintainer._ledger = ledger
        for sketch in self._sketches():
            sketch.set_ledger(ledger)

    def set_io_scale(self, io_scale: float) -> None:
        """Re-bind the logical scale of stored items (stand-in files)."""
        check_positive("io_scale", io_scale)
        self._io_scale = io_scale
        if self._maintainer is not None:
            self._maintainer.io_scale = io_scale
        for sketch in self._sketches():
            sketch.io_scale = io_scale

    @property
    def sample_size(self) -> int:
        return self._n

    def sample_array(self) -> np.ndarray:
        """The sample so far as one array (items along axis 0).  The
        per-delta chunks are merged on first read and the merged array
        is kept, so a round costs one O(n) copy, not n boxed floats."""
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0] if self._chunks else np.empty(0)

    @property
    def sample(self) -> List[Any]:
        return list(self.sample_array())

    def _fresh_resample(self, items: np.ndarray) -> Resample:
        """One fresh bootstrap resample: ``n`` draws with replacement
        from the ``n`` ``items``, consuming this set's stream.  The
        single construction path shared by :meth:`initialize` and the
        no-maintainer rebuild, so the two can never drift apart."""
        resample = Resample(*(stat.make_state() for stat in self._readers))
        resample.new_segment()
        n = len(items)
        resample.add_many(items[self._rng.integers(0, n, size=n)], 0)
        self.counters.state_ops += n
        return resample

    def initialize(self, sample: Sequence[Any]) -> None:
        """First iteration: the initial sample is the first delta (§4.1:
        "we can treat the initial sample as a delta sample added to an
        empty set")."""
        if self._n:
            raise RuntimeError("ResampleSet already initialized")
        if len(sample) == 0:
            raise ValueError("initial sample cannot be empty")
        items = np.asarray(sample)
        self._chunks.append(items)
        self._n = len(items)
        if self._mode == MAINTENANCE_OPTIMIZED and self._ledger is None:
            self._dense = _DenseRows(items, self.B, self._rng)
            self.counters.state_ops += self.B * self._n
            self.counters.publish()
            return
        self._maintainer = self._make_maintainer()
        if self._maintainer is not None:
            self._maintainer.on_delta(items)
        for _ in range(self.B):
            self._resamples.append(self._fresh_resample(items))
        if self._maintainer is not None:
            self._maintainer.end_iteration()
            self.counters.merge(self._maintainer.counters)
            self._maintainer.counters = MaintenanceCounters()
        self.counters.publish()

    def expand(self, delta: Sequence[Any]) -> None:
        """Grow the sample by ``delta`` and update every resample."""
        if not self._n:
            raise RuntimeError("initialize() must be called first")
        self._sorted_estimates, self._sorted_points = {}, {}
        if len(delta) == 0:
            return
        delta_items = np.asarray(delta)
        if self._dense is not None:
            self.counters.state_ops += self._dense.expand(
                self.sample_array(), delta_items, self._rng)
            self._chunks.append(delta_items)
            self._n += len(delta_items)
            self.counters.publish()
            return
        n_old = self._n
        n_new = self._n = n_old + len(delta_items)
        self._chunks.append(delta_items)

        if self._maintainer is None:
            # Baseline: throw everything away and bootstrap s' afresh.
            self._resamples = []
            items = self.sample_array()
            for _ in range(self.B):
                self._resamples.append(self._fresh_resample(items))
                self.counters.full_rebuilds += 1
            if self._ledger is not None:
                # Re-reading the whole stored sample for every rebuild.
                self._ledger.charge_seeks(self.B)
                self._ledger.charge_disk_read(
                    self.B * n_new * ITEM_BYTES * self._io_scale)
            self.counters.publish()
            return

        self._maintainer.on_delta(delta_items)
        for resample in self._resamples:
            self._maintainer.update(resample, n_old, n_new)
        self._maintainer.end_iteration()
        self.counters.merge(self._maintainer.counters)
        self._maintainer.counters = MaintenanceCounters()
        self.counters.publish()

    # ------------------------------------------------------------- results
    def estimates(self, executor: Optional[Executor] = None, *,
                  reader: int = 0, B: Optional[int] = None) -> np.ndarray:
        """One reader's statistic over the first ``B`` (default: all)
        resamples — the result distribution.  Dense rows are evaluated
        by the statistic's row-wise ``batch`` form in one call (an
        order statistic off the growth's one sort, see :meth:`grow`; a
        ``B`` it did not read sorts its own rows); per-resample states
        are read one by one.  ``executor``
        optionally fans the ``B`` evaluations out over a parallel
        backend — but only when evaluation is actually work, i.e. for an
        arbitrary user function (no ``batch`` form,
        :class:`~repro.core.estimators.FunctionalState`), which
        re-evaluates each whole resample; for registered statistics
        pool dispatch and pickling can only lose.  Either way the
        result is identical on every backend (evaluation is a pure
        read; order is preserved by :meth:`~repro.exec.Executor.map`);
        the *maintenance* of the resamples stays sequential regardless
        — §4.1's delta updates share one RNG stream by design.
        """
        if not self._n:
            raise RuntimeError("no resamples yet; call initialize()")
        fan_out = executor.map if executor is not None \
            and executor.is_parallel else None
        B = self.B if B is None else B
        if self._dense is not None:
            rows, batch = self._dense.live()[:B], self._readers[reader].batch
            if self._sortable(reader):
                values = self._sorted_estimates.get((reader, B))
                if values is None:
                    values = self._sorted_values(reader, _sort_rows(rows),
                                                 rows)
                return values.copy()
            if isinstance(batch, _RowwiseBatch):
                values = list((fan_out or map)(batch.pointwise, rows))
            else:
                values = batch(rows)
            return np.array(values, dtype=float)
        resamples = self._resamples[:B]
        if fan_out and isinstance(resamples[0].states[reader],
                                  FunctionalState):
            return np.array(fan_out(_resample_estimate,
                                    [(r, reader) for r in resamples]))
        return np.array([r.estimate(reader) for r in resamples])

    def point_estimate(self, reader: int = 0) -> float:
        """One reader's statistic on the sample itself, ``f(s)`` — read
        off the growth's one sort of the sample for an order statistic
        (:meth:`grow`)."""
        point = self._sorted_points.get(reader)
        if point is None:
            point = self._readers[reader](
                np.asarray(self.sample_array(), dtype=float))
        return point

    def resample_sizes(self) -> List[int]:
        if self._dense is not None:
            return [self._n] * self.B
        return [r.size for r in self._resamples]


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` sorted along their last axis: the one sort a growth
    makes for all of a set's order-statistic reads."""
    return np.sort(rows, axis=-1)


def _resample_estimate(args: Tuple[Resample, int]) -> float:
    """Module-level accessor so process pools can pickle it by reference."""
    resample, reader = args
    return resample.estimate(reader)
