"""Post-map sampling (paper §3.3, Algorithm 1).

Reads and parses the *entire* split once, stores every record in the
mapper's local hashmap, then releases uniformly random records **without
replacement** toward the reducer.  Compared to pre-map sampling the load
time is a full scan (Fig. 9 shows the gap), but the count of ``(key,
value)`` pairs is exact, which matters when the user's ``correct()``
needs an accurate sample fraction ``p``.

Because EARL keeps mappers alive across iterations (§2.1), the hashmap
survives sample expansions: growing the sample costs no additional I/O,
only the release of more already-loaded pairs (Algorithm 1, lines 9-15).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.hdfs.filesystem import HDFS
from repro.hdfs.record_reader import LineRecordReader
from repro.hdfs.splits import InputSplit
from repro.mapreduce.types import KeyValue
from repro.sampling.base import allocate_per_split
from repro.util.validation import check_positive_int


class PostMapSampler:
    """Stateful record source implementing Algorithm 1."""

    #: A sampled stand-in record is a proxy for ``logical_scale``
    #: records of the real sample (fraction-based sample sizing, §3.2).
    scales_with_file = True
    #: Stateful across splits (cumulative ``sampled_count`` the driver
    #: reads) — the wave must stay serial.
    parallel_safe = False

    def __init__(self, fs: HDFS, path: str, *,
                 split_logical_bytes: Optional[int] = None) -> None:
        self._fs = fs
        self._path = path
        self._splits: List[InputSplit] = fs.get_splits(path, split_logical_bytes)
        #: split index -> all (offset, line) records, loaded lazily once.
        self._cache: Dict[int, List[Tuple[int, str]]] = {}
        #: split index -> how many records have been released so far; the
        #: cached record list is pre-shuffled, so a prefix is a uniform
        #: sample without replacement.
        self._released: Dict[int, int] = {s.index: 0 for s in self._splits}
        self._targets: Dict[int, int] = {s.index: 0 for s in self._splits}
        self._total_target = 0

    # ------------------------------------------------------------- control
    @property
    def splits(self) -> List[InputSplit]:
        return list(self._splits)

    @property
    def sampled_count(self) -> int:
        return sum(self._released.values())

    def total_pairs(self) -> Optional[int]:
        """Exact record count, known only after every split was loaded.

        This is post-map sampling's advantage: the exact total makes the
        sample fraction ``p`` (and hence ``correct()``) accurate.
        """
        if len(self._cache) < len(self._splits):
            return None
        return sum(len(records) for records in self._cache.values())

    def set_total_target(self, total: int) -> None:
        """Raise the cumulative sample-size target to ``total`` records."""
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
        """Release this split's outstanding quota of cached records."""
        records = self._load_split(split, ledger, rng)
        released = self._released[split.index]
        quota = min(self._targets.get(split.index, 0), len(records))
        for i in range(released, quota):
            yield records[i]
        self._released[split.index] = max(released, quota)

    def _load_split(self, split: InputSplit, ledger: CostLedger,
                    rng: np.random.Generator) -> List[Tuple[int, str]]:
        if split.index in self._cache:
            return self._cache[split.index]
        # The reader loads through the filesystem's columnar split cache
        # when it can (one newline scan + decode per split, shared with
        # every other reader over the same fs) and scans otherwise;
        # records, their order and the simulated charges are identical.
        reader = LineRecordReader(self._fs, split, ledger=ledger)
        records = list(reader.read_records())
        # Parsing every stored record costs CPU proportional to the
        # *logical* record count, exactly like a full scan.
        meta = self._fs.namenode.get(self._path)
        ledger.charge_cpu_records(len(records) * meta.logical_scale)
        # Pre-shuffle once: prefixes of a random permutation are uniform
        # samples without replacement, and the order is frozen so sample
        # expansion extends (never resamples) the released prefix.  The
        # permutation is a single batch draw; applying it via a list of
        # native ints keeps the hot loop free of per-item conversions.
        order = rng.permutation(len(records))
        shuffled = [records[i] for i in order.tolist()]
        self._cache[split.index] = shuffled
        return shuffled
