"""Two-layer memory/disk sketch structure (paper §4.1).

Delta maintenance needs random items from the stored sample and from
each bootstrap resample, but those collections are too large for memory
and live on HDFS.  The paper's fix is a *sketch*: ``c·√n`` items drawn
without replacement and kept in memory.  Updates consume sketch items
sequentially (a sequential pick from a random subset is a random pick);
at the end of an iteration the used items are replaced via reservoir
substitution so the sketch stays a uniform subset; only when a sketch is
exhausted does the algorithm touch the disk copy — committing changes
and resampling a fresh sketch.

The constant ``c`` trades memory for update latency: "a larger c will
cost more memory space but will introduce less randomized update
latency" — the ablation benchmark sweeps it.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive

#: Simulated bytes per stored item, used to price disk access.
ITEM_BYTES = 8


class Sketch:
    """In-memory random subset of a disk-resident collection."""

    def __init__(self, backing: Sequence[Any], c: float = 4.0, *,
                 rng: Optional[np.random.Generator] = None,
                 ledger: Optional[CostLedger] = None,
                 io_scale: float = 1.0) -> None:
        check_positive("c", c)
        check_positive("io_scale", io_scale)
        self._backing = backing
        self._c = c
        self._rng = ensure_rng(rng)
        self._ledger = ledger
        #: Logical bytes represented by one stored item (stand-in files:
        #: each sampled record is a proxy for ``logical_scale`` records).
        self.io_scale = io_scale
        self.disk_reloads = 0
        self.draws = 0
        #: In-memory items, kept as an ndarray so whole runs of draws
        #: can be served as one slice (see :meth:`draw_many`).
        self._items: np.ndarray = np.empty(0)
        self._next = 0
        # Derived from the backing store, re-derived only when its
        # length changes: the ndarray view and the target size c·√n.
        self._backing_arr: Optional[np.ndarray] = None
        self._backing_len = -1
        self._size = 0
        self._resample_from_backing(charge=False)

    def set_ledger(self, ledger: Optional[CostLedger]) -> None:
        """Redirect disk charges (tasks re-bind ledgers between runs)."""
        self._ledger = ledger

    # ----------------------------------------------------------- structure
    @property
    def sketch_size(self) -> int:
        """Target in-memory size: ``c·√n`` (at least 1 for non-empty data)."""
        self._sync_backing()
        return self._size

    @property
    def remaining(self) -> int:
        return len(self._items) - self._next

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0

    def _sync_backing(self) -> None:
        """Refresh what is derived from the backing store if it grew."""
        n = len(self._backing)
        if n != self._backing_len:
            self._backing_len = n
            self._backing_arr = np.asarray(self._backing)
            self._size = 0 if n == 0 else max(
                1, min(n, int(math.ceil(self._c * math.sqrt(n)))))

    def _backing_array(self) -> np.ndarray:
        """The backing store as an ndarray (cached; rebuilt on growth)."""
        self._sync_backing()
        return self._backing_arr

    def _resample_from_backing(self, *, charge: bool) -> None:
        """Draw a fresh sketch from the disk copy (without replacement)."""
        self._sync_backing()
        size = self._size
        if size == 0:
            self._items, self._next = np.empty(0), 0
            return
        idx = self._rng.choice(self._backing_len, size=size, replace=False)
        self._items = self._backing_arr[idx]
        self._next = 0
        if charge:
            self.disk_reloads += 1
            if self._ledger is not None:
                # Commit + resample: one seek plus a sketch-sized read.
                self._ledger.charge_seeks(1)
                self._ledger.charge_disk_read(size * ITEM_BYTES
                                              * self.io_scale)

    # --------------------------------------------------------------- drawing
    def draw(self) -> Any:
        """Next random item; reloads from disk when the sketch runs dry."""
        if len(self._backing) == 0:
            raise ValueError("cannot draw from a sketch over empty data")
        if self.exhausted:
            self._resample_from_backing(charge=True)
        item = self._items[self._next]
        self._next += 1
        self.draws += 1
        return item

    def draw_many(self, count: int) -> Tuple[np.ndarray, int]:
        """``count`` sequential random items as one array, plus how many
        disk reloads the run triggered.

        Byte-identical to ``count`` calls of :meth:`draw` for any seed:
        items are served in the same order and a reload — the only RNG
        consumer — fires at exactly the same positions with the same
        arguments.  This is the batched path the vectorized delta
        maintainers use to top resamples up from Δs in one state call.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty(0), 0
        if len(self._backing) == 0:
            raise ValueError("cannot draw from a sketch over empty data")
        chunks = []
        reloads = 0
        left = count
        while left > 0:
            if self._next == len(self._items):
                self._resample_from_backing(charge=True)
                reloads += 1
            start = self._next
            self._next = min(start + left, len(self._items))
            chunks.append(self._items[start:self._next])
            left -= self._next - start
        self.draws += count
        return (chunks[0] if len(chunks) == 1
                else np.concatenate(chunks)), reloads

    # -------------------------------------------------------------- refresh
    def refresh(self) -> None:
        """End-of-iteration reservoir substitution of used items (§4.1).

        Used slots are replaced by uniform picks from the backing store so
        the sketch remains a random subset; memory-only, no disk charge
        (the paper defers the disk commit to exhaustion time).
        """
        if len(self._items) == 0 or len(self._backing) == 0:
            return
        used = self._next
        # Substitute into a private copy: draw_many hands out views of
        # the current item array, which must stay immutable.
        items = self._items.copy()
        if used:
            # One array draw == `used` scalar draws (same bound, same
            # stream), so the vectorized refresh stays byte-identical.
            replacements = self._rng.integers(0, len(self._backing),
                                              size=used)
            items[:used] = self._backing_array()[replacements]
        # Reshuffle so the sequential pointer again walks a random order.
        order = self._rng.permutation(len(items))
        self._items = items[order]
        self._next = 0

    def notify_backing_grew(self) -> None:
        """Re-derive the sketch size after the backing store was extended
        (a new delta sample was appended); keeps ``c·√n`` in force."""
        if self.sketch_size > len(self._items):
            self._resample_from_backing(charge=False)
