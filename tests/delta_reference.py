"""Item-at-a-time reference for §4.1 delta maintenance — the test oracle.

:class:`ReferenceResampleSet` is the plain scalar reading of the §4.1
update: one generator call, one list append or swap-pop and one
estimator-state ``add``/``remove`` per item.  It is built only from
public pieces — ``get_statistic(...).make_state()``,
:class:`~repro.core.sketch.Sketch`, :class:`~repro.cluster.costmodel.
CostLedger`, :class:`~repro.core.delta.MaintenanceCounters` and
``ITEM_BYTES`` — and shares no code with ``repro.core.delta``'s batched
kernel, so the kernel can change freely while the tests hold it to
this reference:

* naive maintenance (in memory or over storage), sketched optimized
  maintenance over storage and the ``"none"`` rebuild consume the
  generator exactly as the batched kernel does: same drawn items, same
  segments, same counters, same end state
  (``tests/fixtures/delta_streams.json`` pins both);
* a memory-resident optimized set (``access == "resident"``: Gaussian
  ``k``, direct indexing, no sketch, nothing charged) draws the same
  *law* as the kernel's dense rows, not the same bytes (the KS gate in
  ``tests/core/test_delta.py``).

``benchmarks/bench_kernel.py`` times it as the denominator of the
kernel throughput gate.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.core.delta import MaintenanceCounters
from repro.core.estimators import get_statistic
from repro.core.sketch import ITEM_BYTES, Sketch


class ReferenceResample:
    """One resample: a list of items per delta-generation (§4.1)."""

    def __init__(self, state) -> None:
        self.state = state
        self.segments: List[list] = []

    @property
    def size(self) -> int:
        return sum(len(seg) for seg in self.segments)

    def new_segment(self) -> None:
        self.segments.append([])

    def add(self, item: Any, segment: int) -> None:
        self.segments[segment].append(item)
        self.state.add(item)

    def remove_random(self, rng: np.random.Generator) -> Any:
        """Delete a uniformly random item (swap-pop within its segment)."""
        total = self.size
        if total == 0:
            raise ValueError("cannot remove from an empty resample")
        flat = int(rng.integers(0, total))
        for segment in self.segments:
            if flat < len(segment):
                item = segment[flat]
                segment[flat] = segment[-1]
                segment.pop()
                self.state.remove(item)
                return item
            flat -= len(segment)
        raise AssertionError("unreachable: index inside total size")

    def estimate(self) -> float:
        return self.state.result()


class _Maintainer:
    """The §4.1 update, one item at a time.  ``access`` is ``"naive"``
    (binomial ``k``, every access a charged disk access), ``"resident"``
    (Gaussian ``k``, direct indexing, free) or ``"sketched"`` (Gaussian
    ``k``, per-Δs sketches that reload from disk when exhausted)."""

    def __init__(self, access: str, *, rng: np.random.Generator,
                 ledger: Optional[CostLedger], io_scale: float,
                 c: float) -> None:
        self.access = access
        self.rng = rng
        self.ledger = ledger
        self.io_scale = io_scale
        self.c = c
        self.counters = MaintenanceCounters()
        self.deltas: List[np.ndarray] = []
        self.sketches: List[Sketch] = []
        #: Per iteration: the flattened old sample and its segment
        #: starts (direct access) or the segment weights (sketched).
        self._old: Any = None

    def draw_k(self, n_old: int, n_new: int) -> int:
        if self.access == "naive":
            return int(self.rng.binomial(n_new, n_old / n_new))
        var = n_old * (1.0 - n_old / n_new)
        return int(round(self.rng.normal(n_old, math.sqrt(max(var, 1e-12)))))

    def on_delta(self, delta: np.ndarray) -> None:
        self.deltas.append(delta)
        if self.access == "sketched":
            self.sketches.append(Sketch(delta, self.c, rng=self.rng,
                                        ledger=self.ledger,
                                        io_scale=self.io_scale))
        self._old = None

    def end_iteration(self) -> None:
        for sketch in self.sketches:
            sketch.refresh()
        self._old = None

    def _charge(self) -> None:
        if self.access == "naive":
            self.counters.disk_accesses += 1
            if self.ledger is not None:
                self.ledger.charge_seeks(1)
                self.ledger.charge_disk_read(ITEM_BYTES * self.io_scale)

    def _sketch_draw(self, sketch: Sketch) -> Any:
        before = sketch.disk_reloads
        item = sketch.draw()
        if sketch.disk_reloads > before:
            self.counters.disk_accesses += 1
        else:
            self.counters.sketch_draws += 1
        return item

    def draw_old(self, n_segments: int):
        """A uniform item of the old sample, and the segment (clamped to
        the resample's ``n_segments``) it came from."""
        if self.access == "sketched":
            # Segment proportional to its share, then a draw within it.
            if self._old is None:
                sizes = np.array([len(store) for store in self.deltas[:-1]],
                                 dtype=float)
                self._old = sizes / sizes.sum()
            seg = int(self.rng.choice(len(self._old), p=self._old))
            item = self._sketch_draw(self.sketches[seg])
        else:
            if self._old is None:
                old = self.deltas[:-1]
                self._old = (old[0] if len(old) == 1 else np.concatenate(old),
                             np.cumsum([0] + [len(s) for s in old[:-1]],
                                       dtype=np.int64))
            flat, starts = self._old
            self._charge()
            idx = int(self.rng.integers(0, len(flat)))
            seg = int(np.searchsorted(starts, idx, side="right")) - 1
            item = flat[idx]
        return item, min(seg, n_segments - 1)

    def draw_delta(self) -> Any:
        """A uniform item of the current delta sample."""
        if self.access == "sketched":
            return self._sketch_draw(self.sketches[-1])
        delta = self.deltas[-1]
        self._charge()
        return delta[int(self.rng.integers(0, len(delta)))]

    def update(self, resample: ReferenceResample, n_old: int,
               n_new: int) -> None:
        k = int(min(max(self.draw_k(n_old, n_new), 0), n_new))
        # Step 2: reconcile the old-sample part to size k.
        for _ in range(n_old - k):
            resample.remove_random(self.rng)
        for _ in range(k - n_old):
            item, segment = self.draw_old(len(resample.segments))
            resample.add(item, segment)
        self.counters.state_ops += abs(n_old - k)
        # Step 3: top up to n_new with draws from the delta sample.
        resample.new_segment()
        new_segment = len(resample.segments) - 1
        for _ in range(n_new - k):
            resample.add(self.draw_delta(), new_segment)
        self.counters.state_ops += n_new - k


class ReferenceResampleSet:
    """``B`` item-at-a-time resamples over a growing sample; the
    constructor and the read-outs mirror ``ResampleSet``'s."""

    def __init__(self, statistic, B: int, *, maintenance: str = "optimized",
                 sketch_c: float = 4.0, seed=None,
                 ledger: Optional[CostLedger] = None,
                 io_scale: float = 1.0) -> None:
        self._stat = get_statistic(statistic)
        self.B = B
        self._mode = maintenance
        self._sketch_c = sketch_c
        self._rng = np.random.default_rng(seed)
        self._ledger = ledger
        self._io_scale = io_scale
        self._chunks: List[np.ndarray] = []
        self._n = 0
        self._resamples: List[ReferenceResample] = []
        self.counters = MaintenanceCounters()
        #: None for ``"none"``; decided by :meth:`initialize`.
        self._maintainer: Optional[_Maintainer] = None

    @property
    def access(self) -> Optional[str]:
        return None if self._maintainer is None else self._maintainer.access

    @property
    def sample_size(self) -> int:
        return self._n

    def sample_array(self) -> np.ndarray:
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def _sketches(self) -> Sequence[Sketch]:
        return () if self._maintainer is None else self._maintainer.sketches

    def _fresh_resample(self, items: np.ndarray) -> ReferenceResample:
        resample = ReferenceResample(self._stat.make_state())
        resample.new_segment()
        n = len(items)
        for i in self._rng.integers(0, n, size=n):
            resample.add(items[int(i)], 0)
        self.counters.state_ops += n
        return resample

    def _close_iteration(self) -> None:
        self._maintainer.end_iteration()
        self.counters.merge(self._maintainer.counters)
        self._maintainer.counters = MaintenanceCounters()

    def initialize(self, sample: Sequence[Any]) -> None:
        items = np.asarray(sample)
        self._chunks.append(items)
        self._n = len(items)
        if self._mode != "none":
            access = ("naive" if self._mode == "naive"
                      else "resident" if self._ledger is None else "sketched")
            self._maintainer = _Maintainer(
                access, rng=self._rng, ledger=self._ledger,
                io_scale=self._io_scale, c=self._sketch_c)
            self._maintainer.on_delta(items)
        for _ in range(self.B):
            self._resamples.append(self._fresh_resample(items))
        if self._maintainer is not None:
            self._close_iteration()

    def expand(self, delta: Sequence[Any]) -> None:
        if len(delta) == 0:
            return
        delta_items = np.asarray(delta)
        n_old = self._n
        n_new = self._n = n_old + len(delta_items)
        self._chunks.append(delta_items)
        if self._maintainer is None:
            # The stock bootstrap: rebuild every resample from s'.
            items = self.sample_array()
            self._resamples = [self._fresh_resample(items)
                               for _ in range(self.B)]
            self.counters.full_rebuilds += self.B
            if self._ledger is not None:
                self._ledger.charge_seeks(self.B)
                self._ledger.charge_disk_read(
                    self.B * n_new * ITEM_BYTES * self._io_scale)
            return
        self._maintainer.on_delta(delta_items)
        for resample in self._resamples:
            self._maintainer.update(resample, n_old, n_new)
        self._close_iteration()

    def estimates(self) -> np.ndarray:
        return np.array([r.estimate() for r in self._resamples])

    def resample_sizes(self) -> List[int]:
        return [r.size for r in self._resamples]
