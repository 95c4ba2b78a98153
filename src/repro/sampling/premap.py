"""Pre-map sampling (paper §3.3, Algorithm 2).

Samples lines *before* they enter the mapper: pick a random input split,
pick a random byte offset inside it, backtrack to the beginning of the
enclosing line with the record reader, and include that line if it was
not already included (a per-split set of line-start offsets — the paper's
"bit-vector" — provides the dedup).  Load time is proportional to the
*sample*, not the file, which is what makes EARL's response times beat a
full scan (Fig. 5, Fig. 9).

Two physical implementations share Algorithm 2's semantics, and the
split cache's availability check picks between them per split read.
When :meth:`~repro.hdfs.split_cache.SplitIndexCache.acquire` returns the
split's columnar newline index (:mod:`repro.hdfs.split_cache`), the
sampler draws whole blocks of offsets from the RNG stream, maps them to
line ids with ``np.searchsorted``, and dedups against a boolean
inclusion mask instead of per-offset set probes.  When it cannot — no
cache, or some block of the region unreadable — the sampler probes one
offset at a time through the record reader's backtracking, which is
the failure-semantics reference.

RNG-order contract: NumPy's bounded-integer generation consumes the
PCG64 stream identically for ``rng.integers(lo, hi, size=k)`` and ``k``
scalar draws, and each batch is sized ``min(outstanding quota,
misses till exhaustion)`` — so quota fill and the 200-consecutive-miss
exhaustion can only land exactly on a batch boundary.  The batched
sampler therefore consumes *exactly* the variates the scalar loop
would: included-line sets, exhaustion behaviour, per-probe
:class:`~repro.cluster.costmodel.CostLedger` charges and even the
generator's end state are byte-identical for any seed (pinned against
a filesystem without a cache by
``tests/sampling/test_batched_equivalence.py``).  The equivalence
assumes :meth:`PreMapSampler.read`'s iterator is drained, as the map
engine always does: batched draws and their charges are committed a
batch at a time, so a consumer that abandons the iterator mid-batch
has already paid (and consumed RNG for) the rest of that batch, where
the scalar loop would have stopped at the last consumed probe.  A
read that falls back asks the cache once, not once per probe.

Trade-off faithfully reproduced from the paper: because whole lines are
sampled, the number of ``(key, value)`` pairs obtained is only
approximately proportional to the byte fraction sampled, so corrections
that need an exact pair count should prefer post-map sampling (§3.3).

Caveat inherited from the paper's algorithm: offset-then-backtrack makes
a line's inclusion probability proportional to its byte length.  For the
fixed-width records of the evaluation datasets this is exactly uniform;
for variable-length records it is approximately uniform and the bias is
documented rather than corrected (the paper does likewise).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.hdfs.filesystem import HDFS
from repro.hdfs.record_reader import LineRecordReader
from repro.hdfs.split_cache import acquire_index
from repro.hdfs.splits import InputSplit
from repro.mapreduce.types import KeyValue
from repro.sampling.base import allocate_per_split
from repro.util.validation import check_positive_int

#: Give up probing a split after this many consecutive duplicate hits —
#: the split is (nearly) exhausted.
_MAX_CONSECUTIVE_MISSES = 200


class PreMapSampler:
    """Stateful record source implementing Algorithm 2.

    Use :meth:`set_total_target` before each EARL iteration to raise the
    desired cumulative sample size; the engine then calls :meth:`read`
    per split and receives only the *newly* sampled lines (already-
    delivered lines live in the persistent mappers, so re-sending them
    would double-count).
    """

    #: A sampled stand-in record is a proxy for ``logical_scale``
    #: records of the real sample (fraction-based sample sizing, §3.2).
    scales_with_file = True
    #: Stateful across splits (per-split dedup sets, cumulative
    #: ``sampled_count`` the driver reads) — the wave must stay serial.
    parallel_safe = False

    def __init__(self, fs: HDFS, path: str, *,
                 split_logical_bytes: Optional[int] = None) -> None:
        self._fs = fs
        self._path = path
        self._splits: List[InputSplit] = fs.get_splits(path, split_logical_bytes)
        self._included: Dict[int, Set[int]] = {s.index: set() for s in self._splits}
        #: Indexed-path accelerator: per-split boolean inclusion mask
        #: over the columnar index's line entries (always consistent
        #: with ``_included``; rebuilt after any scalar fallback).
        self._masks: Dict[int, np.ndarray] = {}
        self._exhausted: Set[int] = set()
        self._targets: Dict[int, int] = {s.index: 0 for s in self._splits}
        self._total_target = 0
        #: Incrementally maintained distinct-line count — the driver
        #: polls this every iteration, so it must not be a full
        #: recomputation over the per-split sets.
        self._sampled = 0

    # ------------------------------------------------------------- control
    @property
    def splits(self) -> List[InputSplit]:
        return list(self._splits)

    @property
    def sampled_count(self) -> int:
        """Number of distinct lines included so far (O(1))."""
        return self._sampled

    def set_total_target(self, total: int) -> None:
        """Raise the cumulative sample-size target to ``total`` lines.

        Monotone: shrinking the sample would invalidate delivered data.
        """
        check_positive_int("total", total)
        if total < self._total_target:
            raise ValueError(
                f"sample target cannot shrink ({self._total_target} -> {total})")
        self._total_target = total
        for split, count in zip(self._splits,
                                allocate_per_split(self._splits, total)):
            self._targets[split.index] = max(self._targets[split.index], count)

    # ------------------------------------------------------------ sampling
    def read(self, fs: HDFS, split: InputSplit, ledger: CostLedger,
             rng: np.random.Generator) -> Iterator[KeyValue]:
        """Probe for this split's outstanding quota; yield new lines only."""
        quota = self._targets.get(split.index, 0) - len(self._included[split.index])
        if quota <= 0 or split.index in self._exhausted:
            return
        index = acquire_index(self._fs, split)
        if index is None:
            # No cache, or the region is not fully readable: the scalar
            # loop is the failure-semantics reference — and it keeps the
            # per-split sets authoritative, so drop the derived mask.
            self._masks.pop(split.index, None)
            yield from self._probe_split(split, quota, ledger, rng)
            return

        included = self._included[split.index]
        mask = self._masks.get(split.index)
        if mask is None or len(mask) != len(index.starts):
            mask = np.zeros(len(index.starts), dtype=bool)
            if included:
                offsets = np.fromiter(included, dtype=np.int64,
                                      count=len(included))
                mask[np.searchsorted(index.starts, offsets)] = True
            self._masks[split.index] = mask

        seek_counts = index.seek_counts
        scaled_bytes = index.scaled_bytes
        produced = 0
        misses = 0
        while produced < quota and misses < _MAX_CONSECUTIVE_MISSES:
            # Sized so neither quota fill nor exhaustion can land
            # mid-batch: every drawn variate is one the scalar loop
            # would also have drawn (see the module docstring).
            batch = min(quota - produced, _MAX_CONSECUTIVE_MISSES - misses)
            positions = rng.integers(split.start, split.end, size=batch)
            entries = index.entries_of(positions)
            ok = index.acceptable[entries] & ~mask[entries]
            if ok.any():
                # Within-batch dedup: only an entry's first occurrence
                # can be accepted; later duplicates are misses.
                first = np.zeros(batch, dtype=bool)
                first[np.unique(entries, return_index=True)[1]] = True
                accept = ok & first
            else:
                accept = ok
            # Per-probe simulated charges, in draw order — the same
            # sequence of ledger additions (and float rounding) the
            # scalar path makes.
            ledger.charge_probe_sequence(seek_counts[entries].tolist(),
                                         scaled_bytes[entries].tolist())
            acc_idx = np.flatnonzero(accept)
            if acc_idx.size == 0:
                misses += batch
                continue
            misses = batch - 1 - int(acc_idx[-1])
            produced += int(acc_idx.size)
            # Inclusion state is recorded alongside each yield (as the
            # scalar loop does), so a consumer abandoning the generator
            # mid-batch leaves mask and set consistent: undelivered
            # lines remain samplable.  Within-batch dedup does not rely
            # on these updates — ``accept`` already encodes it.
            acc_entries = entries[acc_idx]
            acc_lines = index.lines.take(acc_entries)
            for entry, start, line in zip(acc_entries.tolist(),
                                          index.starts[acc_entries].tolist(),
                                          acc_lines):
                mask[entry] = True
                included.add(start)
                self._sampled += 1
                yield start, line
        if misses >= _MAX_CONSECUTIVE_MISSES:
            self._exhausted.add(split.index)

    # -------------------------------------------------------- scalar fallback
    def _probe_split(self, split: InputSplit, quota: int, ledger: CostLedger,
                     rng: np.random.Generator
                     ) -> Iterator[Tuple[int, str]]:
        reader = LineRecordReader(self._fs, split, ledger=ledger)
        included = self._included[split.index]
        misses = 0
        produced = 0
        while produced < quota and misses < _MAX_CONSECUTIVE_MISSES:
            position = int(rng.integers(split.start, split.end))
            start, line = reader.line_at(position)
            # Ownership rule: the line must start inside this split so a
            # line probed near a boundary is not sampled by two splits.
            if not (split.start <= start < split.end) and start != 0:
                misses += 1
                continue
            if start == 0 and split.start != 0:
                misses += 1
                continue
            if start in included or not line:
                misses += 1
                continue
            included.add(start)
            self._sampled += 1
            misses = 0
            produced += 1
            yield start, line
        if misses >= _MAX_CONSECUTIVE_MISSES:
            self._exhausted.add(split.index)
