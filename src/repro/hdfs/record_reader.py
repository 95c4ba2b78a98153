"""Line-oriented record reading over the simulated HDFS.

Reproduces the two behaviours of Hadoop's ``LineRecordReader`` that the
paper's sampling algorithms rely on (§3.3, Algorithm 2):

* **Split-boundary convention** — a mapper whose split does not start at
  byte 0 skips the first (partial) line, and reads one line *past* its
  split end, so that every line of the file is processed exactly once
  even though splits cut lines arbitrarily.
* **Backtracking** — given an arbitrary byte position (pre-map sampling
  draws positions uniformly at random), back up to the beginning of the
  enclosing line before reading it.

The full scan has two physical implementations with one semantics.
Whenever the filesystem's columnar
:class:`~repro.hdfs.split_cache.SplitIndexCache` can serve the split
(it is present and :meth:`~repro.hdfs.split_cache.SplitIndexCache.acquire`
returns an index) the split's bytes are newline-indexed **once** and
every later scan is a list replay of the entries the index owns
(``[first_owned, owned_stop)``, fixed when the index is built).
Otherwise — no cache, or some block of the region unreadable — the
reader scans for newlines itself, which is the failure-semantics
reference; the salvage read of a split with lost blocks is that same
scan over the readable prefix.  The simulated
:class:`~repro.cluster.costmodel.CostLedger` charges are byte-identical
either way (the cache optimizes the simulator's wall clock, never the
simulated cluster).  The random probe :meth:`LineRecordReader.line_at`
always backtracks the scalar way: it is the pre-map sampler's fallback
for regions the cache cannot serve.  The chunked boundary scans
forward and backward are :mod:`repro.hdfs.split_cache`'s, shared with
the index build, so the two paths cannot drift apart there.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.cluster.costmodel import CostLedger
from repro.hdfs.filesystem import HDFS
from repro.hdfs.split_cache import (
    SplitIndex,
    _find_backward_line_start,
    _find_forward_newline,
    acquire_index,
)
from repro.hdfs.splits import InputSplit


class LineRecordReader:
    """Reads newline-delimited records from one input split."""

    def __init__(self, fs: HDFS, split: InputSplit, *,
                 ledger: Optional[CostLedger] = None) -> None:
        self._fs = fs
        self._split = split
        self._ledger = ledger
        self._file_size = fs.file_size(split.path)

    @property
    def split(self) -> InputSplit:
        return self._split

    # ------------------------------------------------------------- full scan
    def read_records(self) -> Iterator[Tuple[int, str]]:
        """Yield ``(byte_offset, line)`` for every record owned by the split.

        Follows the Hadoop convention: skip a leading partial line unless
        the split starts at byte 0; keep reading past the split end until
        the current line completes.
        """
        return self.read_split()[1]

    def read_split(self) -> Tuple[Optional[SplitIndex],
                                  Iterator[Tuple[int, str]]]:
        """:meth:`read_records`, with the split-cache index that serves
        it (``None`` when the scan is scalar or the split is empty).
        Same charges and cache lookups: a caller that takes the whole
        split off the index need not iterate the records."""
        split = self._split
        if split.length == 0 or split.start >= self._file_size:
            return None, iter(())
        index = acquire_index(self._fs, split)
        if index is not None:
            # Same simulated price as the scalar path's single
            # read_range over [split.start, data_end).
            if self._ledger is not None:
                self._ledger.charge_seeks(1)
                self._ledger.charge_disk_read(index.scan_scaled_bytes)
            return index, iter(index.owned_records())
        return None, self._scan(salvage=False)

    def _scan(self, *, salvage: bool) -> Iterator[Tuple[int, str]]:
        """Scan ``[split.start, data_end)`` for newlines and yield the
        split's records: the full scan whenever the split cache cannot
        serve it, and with ``salvage`` the surviving prefix of a split
        with lost blocks.  Lazy: nothing is read, charged or raised
        before the first record is asked for."""
        split = self._split
        # Hadoop reads the next line while the current position is <= the
        # split end (inclusive), so a line starting exactly at the
        # boundary belongs to this split and the next split skips it.
        end_limit = min(split.end, self._file_size)
        if salvage:
            data_end = self.available_prefix_end()
        else:
            # Over-read to complete the final line: fetch until the next
            # newline at or after end_limit (bounded scan in chunks).
            data_end = _find_forward_newline(self._fs, split.path, end_limit,
                                             self._file_size)
        if data_end <= split.start:
            return
        data = self._fs.read_range(split.path, split.start, data_end,
                                   ledger=self._ledger)
        pos = 0
        if split.start != 0:
            # Skip the partial first line; it belongs to the previous split.
            nl = data.find(b"\n")
            if nl < 0:
                return
            pos = nl + 1
        while split.start + pos <= end_limit and split.start + pos < data_end:
            nl = data.find(b"\n", pos)
            if nl < 0:
                # Unterminated tail: real end-of-file keeps it, a loss
                # wall drops it (the rest of the line is gone).
                line = data[pos:]
                if line and data_end >= self._file_size:
                    yield split.start + pos, line.decode("utf-8")
                return
            yield split.start + pos, data[pos:nl].decode("utf-8")
            pos = nl + 1

    # -------------------------------------------------------------- salvage
    def available_prefix_end(self) -> int:
        """Largest offset ``p >= split.start`` such that every block of
        ``[split.start, p)`` is still readable on some replica (capped at
        the file size).  The degraded-read primitive: when a split loses
        its tail mid-scan, the prefix before the first lost block can
        still be served."""
        split = self._split
        meta = self._fs.namenode.get(split.path)
        end = meta.size
        if split.start >= end:
            return split.start
        prefix = split.start
        for block in self._fs.namenode.blocks_for_range(meta, split.start,
                                                        end):
            if not self._fs.block_available(block):
                break
            prefix = min(block.end, end)
        return prefix

    def read_records_salvage(self) -> Iterator[Tuple[int, str]]:
        """Best-effort :meth:`read_records`: yield the split's records
        whose bytes survive, stopping at the first lost block.

        The full scan's own loop over the readable prefix, with one
        degradation: a line cut by the loss wall (its newline lies in a
        lost block) is dropped, since its tail is unrecoverable.  Charged
        as one sequential read of the whole readable prefix
        (``[split.start, available_prefix_end())``, which on an intact
        file runs to EOF, past the line the full scan stops at).
        """
        split = self._split
        if split.length == 0 or split.start >= self._file_size:
            return iter(())
        return self._scan(salvage=True)

    # ------------------------------------------------------------ random probe
    def line_at(self, position: int) -> Tuple[int, str]:
        """Return ``(line_start, line)`` for the line containing ``position``.

        This is the backtracking primitive of Algorithm 2: seek to a random
        byte, back up to the start of the enclosing line, read the line.
        Charged as one random probe (seek + bytes actually touched).
        """
        if not 0 <= position < self._file_size:
            raise ValueError(f"position {position} outside file of size "
                             f"{self._file_size}")
        path = self._split.path
        start = _find_backward_line_start(self._fs, path, position)
        end = _find_forward_newline(self._fs, path, start, self._file_size)
        raw = self._fs.read_range(path, start, end,
                                  ledger=self._ledger, sequential=False)
        return start, raw.decode("utf-8").rstrip("\n")
