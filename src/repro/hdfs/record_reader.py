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
every later scan is a list replay.  Otherwise — no cache, or some block
of the region unreadable — the reader scans for newlines itself, which
is the failure-semantics reference.  The simulated
:class:`~repro.cluster.costmodel.CostLedger` charges are byte-identical
either way (the cache optimizes the simulator's wall clock, never the
simulated cluster).  The random probe :meth:`LineRecordReader.line_at`
always backtracks the scalar way: it is the pre-map sampler's fallback
for regions the cache cannot serve.
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
        return None, self._read_records_scalar()

    def _read_records_scalar(self) -> Iterator[Tuple[int, str]]:
        """Scan the region for newlines (the fallback whenever the
        split cache cannot serve it)."""
        split = self._split
        # Hadoop reads the next line while the current position is <= the
        # split end (inclusive), so a line starting exactly at the
        # boundary belongs to this split and the next split skips it.
        end_limit = min(split.end, self._file_size)
        # Over-read to complete the final line: fetch until the next
        # newline at or after end_limit (bounded scan in chunks).
        data_end = self._find_line_end(end_limit)
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
                line = data[pos:]
                if line:
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

        Follows the same boundary conventions as the full scan, with one
        degradation: a line cut by the loss wall (its newline lies in a
        lost block) is dropped, since its tail is unrecoverable.  Charged
        like a sequential scan of the bytes actually read.
        """
        split = self._split
        if split.length == 0 or split.start >= self._file_size:
            return
        prefix_end = self.available_prefix_end()
        if prefix_end <= split.start:
            return
        end_limit = min(split.end, self._file_size)
        data = self._fs.read_range(split.path, split.start, prefix_end,
                                   ledger=self._ledger)
        pos = 0
        if split.start != 0:
            nl = data.find(b"\n")
            if nl < 0:
                return
            pos = nl + 1
        at_eof = prefix_end >= self._file_size
        while split.start + pos <= end_limit and split.start + pos < prefix_end:
            nl = data.find(b"\n", pos)
            if nl < 0:
                # Unterminated tail: real end-of-file keeps it, a loss
                # wall drops it (the rest of the line is gone).
                line = data[pos:]
                if line and at_eof:
                    yield split.start + pos, line.decode("utf-8")
                return
            yield split.start + pos, data[pos:nl].decode("utf-8")
            pos = nl + 1

    def _find_line_end(self, position: int) -> int:
        """First byte offset after the line containing ``position - 1``.

        Shared with the index builder (one implementation of the
        chunked boundary scan — see :mod:`repro.hdfs.split_cache`), so
        the indexed and scanning paths can never drift apart here.
        """
        return _find_forward_newline(self._fs, self._split.path, position,
                                     self._file_size)

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
        start = self._find_line_start(position)
        end = self._find_line_end(start)
        raw = self._fs.read_range(self._split.path, start, end,
                                  ledger=self._ledger, sequential=False)
        return start, raw.decode("utf-8").rstrip("\n")

    def _find_line_start(self, position: int) -> int:
        """Scan backwards from ``position`` to the start of its line
        (the shared chunked boundary scan of
        :mod:`repro.hdfs.split_cache`)."""
        return _find_backward_line_start(self._fs, self._split.path,
                                         position)
