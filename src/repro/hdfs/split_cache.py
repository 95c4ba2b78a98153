"""Columnar newline-index cache for input splits (the ingest data plane).

EARL's response-time advantage comes from touching only the sample, yet
the scalar ingest path pays Python-level, record-at-a-time costs: the
record reader scans for newlines on every read and pre-map sampling
backtracks byte-by-byte per probe.  Following M3R (cache deserialized
inputs across the jobs of an iterative driver) and Shark (columnar
in-memory layout makes re-scans cheap), this module indexes a split's
bytes **once** — ``np.frombuffer``/``np.flatnonzero`` over the raw
buffer — into columnar arrays:

* ``starts``      — line-start offsets (absolute file coordinates),
* ``lines``       — the decoded text column,
* ``seek_counts`` / ``scaled_bytes`` — per-line *simulated* probe
  charges, precomputed so cached probes charge the
  :class:`~repro.cluster.costmodel.CostLedger` bit-for-bit what the
  scalar path charges.

The cache changes **where the wall-clock goes, never what is simulated**:
ledger charges, sampled record sets and estimates are byte-identical
whether a read is served from the cache or scanned.  There is no switch
between the two: the cache's own availability check picks the path.  A
:class:`SplitIndexCache` hangs off every
:class:`~repro.hdfs.filesystem.HDFS` instance, is invalidated when a
path is rewritten or deleted, survives across the expansion iterations
of the iterative drivers (zero re-parse of already-cached splits), and
is dropped from pickles so a process-pool worker builds its own copy
once per worker — not once per task — via the broadcast-once fs.

Availability contract: an index is only served while every block of its
region is still readable; after a DataNode failure :meth:`acquire`
returns ``None`` and callers fall back to the scalar scan (or, for
pre-map sampling, the probe-at-a-time backtrack), so failure behaviour
(including mid-read ``BlockUnavailableError``) is exactly the scalar
path's.  A filesystem without a cache takes that same scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.hdfs.errors import BlockUnavailableError
from repro.hdfs.splits import InputSplit

#: Window size used when scanning for line boundaries at build time
#: (same constant as the scalar reader's backtracking).
_SCAN_CHUNK = 4096
_NEWLINE = 10  # ord("\n")


@dataclass
class CacheStats:
    """Physical-plane counters of one :class:`SplitIndexCache`.

    These count *wall-clock* work (index builds, cache hits), not
    simulated time — the integration tests use them to assert that
    expansion iteration >= 2 performs zero re-parse of already-cached
    splits.
    """

    materializations: int = 0
    hits: int = 0
    fallbacks: int = 0
    invalidations: int = 0


class LineColumn:
    """Lazily decoded text column of one :class:`SplitIndex`.

    Behaves like the eager ``List[Optional[str]]`` it replaces —
    indexing, slicing, iteration, ``len()``, equality — but holds the
    split's raw bytes and decodes UTF-8 per entry on first access.  A
    pre-map sampler probing 50k entries of a 1M-line split decodes 50k
    short slices instead of the whole region (index builds used to be
    the 1M-row hot spot: ``str.split`` over the full body dominated the
    build, and at n=1e6 the build is *not* amortized away by the probe
    volume the way it is at smaller n).  Bulk consumers — full scans,
    iteration, comparison — still get the one-pass decode-and-split via
    :meth:`materialize`, after which the raw buffer is dropped.

    Entry 0 of a split that starts mid-line is always ``None`` (the
    prefix belongs to the previous split and may cut a multi-byte
    character).
    """

    __slots__ = ("_raw", "_text_starts", "_text_ends", "_partial_first",
                 "_cache", "_full")

    def __init__(self, raw: bytes, text_starts: np.ndarray,
                 text_ends: np.ndarray, partial_first: bool) -> None:
        self._raw = raw
        #: Region-relative ``[text_start, text_end)`` per entry — the
        #: entry's text without its terminating newline.
        self._text_starts = text_starts
        self._text_ends = text_ends
        self._partial_first = partial_first
        self._cache: List[Optional[str]] = [None] * len(text_starts)
        self._full = False

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, entry):
        if isinstance(entry, slice):
            return self.materialize()[entry]
        if entry < 0:
            entry += len(self._cache)
        if entry == 0 and self._partial_first:
            return None
        line = self._cache[entry]
        if line is None and not self._full:
            line = self._raw[int(self._text_starts[entry]):
                             int(self._text_ends[entry])].decode("utf-8")
            self._cache[entry] = line
        return line

    def __iter__(self):
        return iter(self.materialize())

    def __eq__(self, other):
        if isinstance(other, LineColumn):
            other = other.materialize()
        if isinstance(other, list):
            return self.materialize() == other
        return NotImplemented

    __hash__ = None

    def take(self, entries: np.ndarray) -> List[str]:
        """Decode a batch of entries in one pass (no per-entry dispatch).

        Callers pass entries that are never the partial entry 0 — the
        pre-map sampler only takes entries its ``acceptable`` mask
        admits, and that mask excludes the partial prefix.
        """
        idx = entries.tolist()
        if self._full:
            cache = self._cache
            return [cache[e] for e in idx]
        raw = self._raw
        return [raw[s:e].decode("utf-8")
                for s, e in zip(self._text_starts[entries].tolist(),
                                self._text_ends[entries].tolist())]

    def materialize(self) -> List[Optional[str]]:
        """Decode the whole column in one pass (decode + split, the old
        eager build) and return it as a plain list."""
        if not self._full:
            n = len(self._cache)
            first = 1 if self._partial_first else 0
            if n > first:
                body = self._raw[int(self._text_starts[first]):] \
                    .decode("utf-8")
                pieces = body.split("\n")
                # A region ending in "\n" yields a phantom empty final
                # piece; slicing to the real entries drops it.
                self._cache[first:] = pieces[:n - first]
            if self._partial_first and n:
                self._cache[0] = None
            self._raw = b""  # decoded: the raw buffer is no longer needed
            self._full = True
        return self._cache


@dataclass
class SplitIndex:
    """Columnar view of one split's region ``[split.start, data_end)``.

    ``data_end`` is the scalar reader's over-read bound: one byte past
    the newline that completes the line containing the split end (or
    EOF).  Entry 0 starts at ``split.start``; when the split begins
    mid-line its true line start is ``prefix_start`` (< ``split.start``)
    and entry 0's text is ``None`` — such probes are ownership misses,
    so the partial text is never needed (and, split boundaries being
    byte offsets, might not even be valid UTF-8 to decode).
    """

    path: str
    split_start: int
    split_end: int
    data_end: int
    file_size: int
    logical_scale: float
    prefix_start: int
    #: Absolute line-start offset per entry (entry 0 == ``split_start``).
    starts: np.ndarray
    #: One past each entry's terminating newline (``data_end`` for an
    #: unterminated tail).
    ends: np.ndarray
    #: Lazily decoded text per entry (``None`` for a partial entry 0).
    lines: LineColumn
    #: Simulated random-probe seek count per entry:
    #: ``1 + max(0, blocks_spanned - 1)`` over ``[charge_start, end)``.
    seek_counts: np.ndarray
    #: Simulated probe read volume per entry:
    #: ``(end - charge_start) * logical_scale``.
    scaled_bytes: np.ndarray
    #: Entries a pre-map probe may accept: line start owned by the
    #: split and text non-empty.
    acceptable: np.ndarray
    #: Index of the first entry ``read_records`` yields (0 when the
    #: split starts at byte 0, else 1 — Hadoop's skip-first-line rule).
    first_owned: int
    #: One past the last entry it yields: the owned entries
    #: ``[first_owned, owned_stop)`` are those starting at or before
    #: the split end, capped at EOF (a line starting on the split end
    #: is this split's).
    owned_stop: int
    #: Lazily built ``(offset, line)`` pairs for cached full scans.
    _owned_pairs: Optional[List[Tuple[int, str]]] = field(
        default=None, repr=False)
    #: Lazily parsed :meth:`owned_floats`, per delimiter.
    _owned_floats: Dict[str, Optional[List[float]]] = field(
        default_factory=dict, repr=False)

    # ------------------------------------------------------------- full scan
    @property
    def scan_scaled_bytes(self) -> float:
        """Simulated volume of one full scan of the region — what the
        scalar ``read_records`` charges for its single ``read_range``."""
        return (self.data_end - self.split_start) * self.logical_scale

    def owned_records(self) -> List[Tuple[int, str]]:
        """The ``(byte_offset, line)`` records ``read_records`` yields.

        Built once, then served as-is: repeated scans of a cached split
        (every EARL expansion iteration re-reads its splits) cost a list
        iteration instead of a newline scan plus per-line decode.
        """
        if self._owned_pairs is None:
            owned = slice(self.first_owned, self.owned_stop)
            self._owned_pairs = list(zip(self.starts[owned].tolist(),
                                         self.lines[owned]))
        return self._owned_pairs

    def owned_floats(self, delimiter: str) -> Optional[List[float]]:
        """``float`` of every non-empty owned line, in record order —
        what a built-in projection mapper emits for them, one value per
        line — or ``None`` when some owned line holds ``delimiter`` (a
        keyed line) or ``float`` rejects one; the record-at-a-time map
        then decides.

        Parsed once, then served as-is (and dropped with the index on
        write, delete or invalidation); the ``(offset, line)`` pairs are
        never built for it.  The list is shared: callers must copy
        before handing it on.
        """
        if delimiter not in self._owned_floats:
            lines = self.lines[self.first_owned:self.owned_stop]
            values = None
            # Lines hold no newline, so a newline-free delimiter is in
            # the joined text only where it is in some line.
            if "\n" in delimiter or delimiter not in "\n".join(lines):
                try:
                    values = list(map(float, filter(None, lines)))
                except ValueError:
                    pass
            self._owned_floats[delimiter] = values
        return self._owned_floats[delimiter]

    # ---------------------------------------------------------- random probe
    def entries_of(self, positions: np.ndarray) -> np.ndarray:
        """Entry index of the line containing each probe offset (each
        must lie inside ``[split_start, data_end)``)."""
        return np.searchsorted(self.starts, positions, side="right") - 1


def _find_forward_newline(fs, path: str, position: int, size: int) -> int:
    """First byte offset after the line containing ``position - 1``
    (uncharged; the index build and the scalar reader's over-read and
    probes share it)."""
    pos = position
    while pos < size:
        chunk_end = min(pos + _SCAN_CHUNK, size)
        chunk = fs.read_range(path, pos, chunk_end, ledger=None)
        nl = chunk.find(b"\n")
        if nl >= 0:
            return pos + nl + 1
        pos = chunk_end
    return size


def _find_backward_line_start(fs, path: str, position: int) -> int:
    """Start of the line containing ``position`` (uncharged; shared by
    the index build and the scalar reader's probes)."""
    pos = position
    while pos > 0:
        chunk_start = max(0, pos - _SCAN_CHUNK)
        chunk = fs.read_range(path, chunk_start, pos, ledger=None)
        nl = chunk.rfind(b"\n")
        if nl >= 0:
            return chunk_start + nl + 1
        pos = chunk_start
    return 0


def build_split_index(fs, split: InputSplit) -> SplitIndex:
    """Scan a split's region once and return its columnar index.

    All reads here are physical only (``ledger=None``): the simulated
    charges stay attached to the *operations* (scans, probes) so cached
    and scalar runs price identically.  Raises
    :class:`~repro.hdfs.errors.BlockUnavailableError` exactly where a
    scalar full read of the region would.
    """
    meta = fs.namenode.get(split.path)
    file_size = meta.size
    end_limit = min(split.end, file_size)
    data_end = _find_forward_newline(fs, split.path, end_limit, file_size)
    raw = fs.read_range(split.path, split.start, data_end, ledger=None)
    arr = np.frombuffer(raw, dtype=np.uint8)
    nl_rel = np.flatnonzero(arr == _NEWLINE)

    # Line starts: the region head plus every newline successor that is
    # still inside the region.
    succ = nl_rel + 1
    succ = succ[succ < len(raw)]
    starts = np.concatenate(([0], succ)).astype(np.int64) + split.start

    # Entry i is terminated by newline i (when it exists); the last
    # entry may be an unterminated tail ending at data_end == EOF.
    n = len(starts)
    ends = np.empty(n, dtype=np.int64)
    terminated = min(n, len(nl_rel))
    ends[:terminated] = nl_rel[:terminated] + 1 + split.start
    ends[terminated:] = data_end

    # Where does the line containing the region head actually begin?
    if split.start == 0:
        prefix_start = 0
    else:
        head = fs.read_range(split.path, split.start - 1, split.start,
                             ledger=None)
        prefix_start = split.start if head == b"\n" \
            else _find_backward_line_start(fs, split.path, split.start - 1)

    # Text spans per entry, region-relative and *undecoded*: the text
    # column decodes lazily (see :class:`LineColumn`), so building the
    # index costs the newline scan, not a full-region UTF-8 decode.
    # Entry 0 stays ``None`` when the region head is mid-line; a
    # mid-line head may cut a multi-byte character, and the scalar path
    # never decodes that prefix either.
    text_starts = starts - split.start
    text_ends = np.empty(n, dtype=np.int64)
    text_ends[:terminated] = nl_rel[:terminated]
    text_ends[terminated:] = len(raw)
    partial_first = bool(n) and prefix_start != split.start
    lines = LineColumn(raw, text_starts, text_ends, partial_first)

    # Simulated probe charges per entry, matching the scalar line_at's
    # read_range(start, end, sequential=False): the charged range starts
    # at the *line* start (prefix_start for a partial entry 0).
    charge_starts = starts.copy()
    if n and prefix_start != split.start:
        charge_starts[0] = prefix_start
    block_offsets = np.array([b.offset for b in meta.blocks], dtype=np.int64)
    lo = np.searchsorted(block_offsets, charge_starts, side="right") - 1
    hi = np.searchsorted(block_offsets, ends - 1, side="right") - 1
    seek_counts = 1 + np.maximum(0, hi - lo)
    scaled_bytes = (ends - charge_starts) * meta.logical_scale

    # A probe may accept an entry iff its line start is owned by the
    # split and its text is non-empty — both knowable from the spans
    # alone, without decoding anything.
    acceptable = (charge_starts >= split.start) & (text_ends > text_starts)

    return SplitIndex(
        path=split.path, split_start=split.start, split_end=split.end,
        data_end=data_end, file_size=file_size,
        logical_scale=meta.logical_scale, prefix_start=prefix_start,
        starts=starts, ends=ends, lines=lines, seek_counts=seek_counts,
        scaled_bytes=scaled_bytes, acceptable=acceptable,
        first_owned=0 if split.start == 0 else 1,
        owned_stop=int(np.searchsorted(starts, end_limit, side="right")))


class SplitIndexCache:
    """Per-filesystem cache of :class:`SplitIndex` objects.

    Keyed by ``(path, split.start, split.length)``; entries live until
    the path is rewritten or deleted.  The cache is deliberately *not*
    pickled with its filesystem: a process-pool worker that receives the
    fs through the executor's broadcast plane builds its own indexes
    once per worker and reuses them across every task and wave it runs.
    """

    def __init__(self) -> None:
        self._indexes: Dict[Tuple[str, int, int], SplitIndex] = {}
        #: Default-parser numeric columns per path (read-only arrays),
        #: so repeated whole-file ingests also skip the float parse.
        self._columns: Dict[str, np.ndarray] = {}
        #: Keyed ``(keys, values)`` column pairs per (path, delimiter)
        #: — the grouped-query ingest counterpart of ``_columns``.
        self._keyed: Dict[Tuple[str, str],
                          Tuple[np.ndarray, np.ndarray]] = {}
        #: Whole-file content digest per path (a hashlib object; only
        #: copies go in and out) — a durable service's job fingerprint.
        self._digests: Dict[str, Any] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------ split view
    def acquire(self, fs, split: InputSplit) -> Optional[SplitIndex]:
        """Index for ``split``, building it on first touch.

        Returns ``None`` when the region cannot be served safely — some
        block of ``[prefix_start, data_end)`` is unreadable — in which
        case the caller must take the scalar path, whose behaviour under
        failures (partial probe success, mid-read errors) is the
        reference.
        """
        key = (split.path, split.start, split.length)
        index = self._indexes.get(key)
        if index is not None:
            if self._region_available(fs, index):
                self.stats.hits += 1
                return index
            self.stats.fallbacks += 1
            return None
        try:
            index = build_split_index(fs, split)
        except BlockUnavailableError:
            self.stats.fallbacks += 1
            return None
        self._indexes[key] = index
        self.stats.materializations += 1
        return index

    @staticmethod
    def _region_available(fs, index: SplitIndex) -> bool:
        """Whether every block the *scalar* path could touch is readable.

        The scalar reference scans line boundaries in ``_SCAN_CHUNK``
        windows, so its reads can overrun the region by up to one chunk
        on either side (a forward scan past ``data_end``, a backward
        scan below ``prefix_start``).  The availability window covers
        that overrun too: the cache is served only when the scalar path
        could not possibly have raised, and falls back — to the scalar
        path itself, hence byte-identically — otherwise.
        """
        meta = fs.namenode.get(index.path)
        if meta.size != index.file_size:
            return False  # path rewritten underneath the cache key
        lo = max(0, index.prefix_start - _SCAN_CHUNK - 1)
        hi = min(index.file_size, index.data_end + _SCAN_CHUNK)
        if lo >= hi:
            return True
        blocks = fs.namenode.blocks_for_range(meta, lo, hi)
        return all(fs.block_available(b) for b in blocks)

    # ----------------------------------------------------------- column view
    def column_lookup(self, path: str) -> Optional[np.ndarray]:
        """The cached default-parser numeric column of ``path``, if any."""
        return self._columns.get(path)

    def store_column(self, path: str, column: np.ndarray) -> None:
        """Cache a whole-file numeric column (kept read-only: it is
        handed out by reference on every later ingest)."""
        column.setflags(write=False)
        self._columns[path] = column

    def keyed_lookup(self, path: str, delimiter: str
                     ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The cached ``(keys, values)`` columns of ``path``, if any."""
        return self._keyed.get((path, delimiter))

    def store_keyed(self, path: str, delimiter: str, keys: np.ndarray,
                    values: np.ndarray) -> None:
        """Cache a whole-file keyed column pair (both read-only: they
        are handed out by reference on every later ingest)."""
        keys.setflags(write=False)
        values.setflags(write=False)
        self._keyed[(path, delimiter)] = (keys, values)

    # ----------------------------------------------------------- digest view
    def content_digest(self, fs, path: str) -> Optional[Any]:
        """A copy of the stored content digest of ``path``: ``None``
        when there is none, or while some block of the path is
        unreadable (a full read would raise; callers hash that instead)."""
        digest = self._digests.get(path)
        if digest is None or not all(
                fs.block_available(block)
                for block in fs.namenode.get(path).blocks):
            return None
        return digest.copy()

    def store_content_digest(self, path: str, digest: Any) -> None:
        self._digests[path] = digest.copy()

    # ---------------------------------------------------------- invalidation
    def invalidate(self, path: str) -> None:
        """Drop every cached view of ``path`` (called on write/delete)."""
        stale = [k for k in self._indexes if k[0] == path]
        stale_keyed = [k for k in self._keyed if k[0] == path]
        for k in stale:
            del self._indexes[k]
        for k in stale_keyed:
            del self._keyed[k]
        had_column = self._columns.pop(path, None) is not None
        had_digest = self._digests.pop(path, None) is not None
        if stale or stale_keyed or had_column or had_digest:
            self.stats.invalidations += 1

    def clear(self) -> None:
        self._indexes.clear()
        self._columns.clear()
        self._keyed.clear()
        self._digests.clear()

    def __len__(self) -> int:
        return len(self._indexes)


def acquire_index(fs, split: InputSplit) -> Optional[SplitIndex]:
    """The split's index when ``fs`` has a split cache that can serve
    it, else ``None`` — the one rule that sends a read to the scalar
    fallback."""
    cache = getattr(fs, "split_cache", None)
    return cache.acquire(fs, split) if cache is not None else None


def read_numeric_column(fs, path: str, *,
                        ledger: Optional[CostLedger] = None,
                        split_logical_bytes: Optional[int] = None,
                        parser: Optional[Callable[[str], float]] = None
                        ) -> np.ndarray:
    """Materialize a newline-delimited file as one numeric column.

    The columnar ingest entry point for the in-memory engines
    (:func:`repro.core.bootstrap.bootstrap_file`,
    :meth:`repro.streaming.SessionManager.from_hdfs`): every split is
    read through the cached record reader, and for the default parser
    the finished float column itself is cached per path — a *second*
    ingest of the same file (another bootstrap, another session)
    neither decodes nor re-parses anything, it replays the cached
    column (M3R-style reuse).  The returned array is read-only when it
    comes from the cache.  Simulated cost is a full scan on *every*
    call either way, charged to ``ledger``.

    Empty lines are skipped before ``parser`` sees them, as
    :class:`~repro.mapreduce.ProjectionMapper` skips them in the exact
    job.  ``parser`` converts one line to a float (default: ``float``
    itself, vectorized through numpy; custom parsers bypass the column
    cache).
    """
    from repro.hdfs.record_reader import LineRecordReader

    cache = getattr(fs, "split_cache", None)
    splits = fs.get_splits(path, split_logical_bytes)
    hit = cache.column_lookup(path) \
        if cache is not None and parser is None else None
    if hit is not None:
        # Replay the scan's simulated charges (and its failure
        # behaviour — an unreadable region raises here exactly as the
        # uncached walk would) without rebuilding the column.
        for split in splits:
            for _ in LineRecordReader(fs, split, ledger=ledger).read_records():
                pass
        return hit

    columns: List[np.ndarray] = []
    for split in splits:
        reader = LineRecordReader(fs, split, ledger=ledger)
        lines = [line for _, line in reader.read_records() if line]
        if not lines:
            continue
        if parser is None:
            columns.append(np.asarray(lines, dtype=float))
        else:
            columns.append(np.array([parser(line) for line in lines],
                                    dtype=float))
    column = np.concatenate(columns) if columns else np.empty(0, dtype=float)
    if cache is not None and parser is None:
        cache.store_column(path, column)
    return column


#: Key assigned to lines without a delimiter (bare numeric values) —
#: the same constant key :class:`~repro.mapreduce.ProjectionMapper`
#: routes such lines under, so the two ingest paths agree on grouping.
BARE_LINE_KEY = "all"


def read_keyed_column(fs, path: str, *,
                      delimiter: str = "\t",
                      ledger: Optional[CostLedger] = None,
                      split_logical_bytes: Optional[int] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize a ``key<TAB>value`` file as two aligned columns.

    The keyed ingest entry point for the grouped query engine
    (:meth:`repro.query.Query.from_hdfs`): every split is read through
    the cached record reader, each line is split on ``delimiter`` into
    ``(key, float(value))`` — a line with no delimiter parses as a bare
    value under :data:`BARE_LINE_KEY` and an empty line is skipped, both
    matching :class:`~repro.mapreduce.ProjectionMapper` — and the finished
    column pair is cached per ``(path, delimiter)``, so a second query
    over the same file replays the cached columns without decoding or
    parsing anything.  Returned arrays are read-only when they come
    from the cache.  Simulated cost is a full scan on *every* call
    either way, charged to ``ledger``.
    """
    from repro.hdfs.record_reader import LineRecordReader

    cache = getattr(fs, "split_cache", None)
    splits = fs.get_splits(path, split_logical_bytes)
    hit = cache.keyed_lookup(path, delimiter) if cache is not None else None
    if hit is not None:
        # Replay the scan's simulated charges (and its failure
        # behaviour) without rebuilding the columns.
        for split in splits:
            for _ in LineRecordReader(fs, split, ledger=ledger).read_records():
                pass
        return hit

    keys: List[str] = []
    values: List[str] = []
    for split in splits:
        reader = LineRecordReader(fs, split, ledger=ledger)
        for _, line in reader.read_records():
            if not line:
                continue
            key, sep, payload = line.partition(delimiter)
            if sep:
                keys.append(key)
                values.append(payload)
            else:
                keys.append(BARE_LINE_KEY)
                values.append(line)
    key_column = np.asarray(keys, dtype=object)
    value_column = (np.asarray(values, dtype=float) if values
                    else np.empty(0, dtype=float))
    if cache is not None:
        cache.store_keyed(path, delimiter, key_column, value_column)
    return key_column, value_column
