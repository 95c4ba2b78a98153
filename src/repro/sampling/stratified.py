"""Stratified sampling over keyed records (the GROUP BY sampling design).

Uniform sampling starves rare groups: a key holding 1 % of a table gets
1 % of every sample, so its estimate converges ~100x slower than the
head key's and the whole query is held hostage by its laggard.  A
stratified design samples **within** each group instead — every group's
sample is uniform-without-replacement over *that group's* rows, and
each group grows until its own error bound is met.

The sampler is the keyed-record counterpart of the in-memory helpers in
:mod:`repro.sampling.base`: it walks one lazily drawn permutation per
stratum (a :class:`~repro.sampling.permutation.PermutationPrefix`:
prefixes = uniform samples without replacement, exactly the design of
:class:`~repro.core.EarlSession` within each group) and tracks
consumption — deterministic for a fixed seed, so the grouped drivers
built on top are reproducible across executor backends.  How many rows
each group draws per round is not the sampler's business: its own
expansion schedule decides, or, under a shared row budget, the
cross-query scheduler's live ``N_h·S_h`` split
(:mod:`repro.scheduler.budget`, built on :func:`allocate_with_caps`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sampling.permutation import PermutationPrefix
from repro.util.rng import SeedLike, ensure_rng


def allocate_with_caps(weights: Sequence[float], total: int,
                       caps: Sequence[int],
                       floors: Optional[Sequence[int]] = None) -> List[int]:
    """Allocate ``total`` integer units ∝ ``weights``, capped per slot.

    Largest-remainder rounding (the same scheme as
    :func:`repro.sampling.base.allocate_per_split`), then any excess over
    a slot's cap is redistributed among the uncapped slots — repeated
    until everything is placed or every slot is full.  Deterministic:
    ties break on slot order.

    ``floors`` optionally guarantees each slot a minimum (clipped to its
    cap) before the weighted split of the rest — the liveness guarantee
    the cross-query budget allocator needs, so a near-zero-weight slot
    still progresses every round instead of starving.  When ``total``
    cannot cover the floors, the floors themselves are allocated by
    largest remainder and no weighted pass runs.
    """
    if total < 0:
        raise ValueError("total cannot be negative")
    weights = np.asarray(weights, dtype=float)
    caps_arr = np.asarray(caps, dtype=np.int64)
    if weights.shape != caps_arr.shape:
        raise ValueError("weights and caps must have matching lengths")
    if np.any(weights < 0):
        raise ValueError("weights cannot be negative")
    if floors is not None:
        floors_arr = np.asarray(floors, dtype=np.int64)
        if floors_arr.shape != caps_arr.shape:
            raise ValueError("floors and caps must have matching lengths")
        floors_arr = np.minimum(floors_arr, caps_arr)
        if np.any(floors_arr < 0):
            raise ValueError("floors cannot be negative")
        need = int(floors_arr.sum())
        if need >= total:
            return allocate_with_caps(floors_arr.astype(float), total,
                                      floors_arr)
        rest = allocate_with_caps(weights, total - need,
                                  caps_arr - floors_arr)
        return [int(f + r) for f, r in zip(floors_arr, rest)]
    counts = np.zeros(len(weights), dtype=np.int64)
    remaining = min(int(total), int(caps_arr.sum()))
    open_slots = caps_arr > 0
    while remaining > 0 and open_slots.any():
        w = np.where(open_slots, weights, 0.0)
        if w.sum() <= 0.0:
            # No informative weights among the open slots: spread evenly.
            w = open_slots.astype(float)
        shares = w / w.sum() * remaining
        step = np.floor(shares).astype(np.int64)
        leftover = remaining - int(step.sum())
        if leftover > 0:
            # Hand leftover units to the largest fractional parts among
            # open slots (argsort is stable: ties go to earlier slots).
            frac = np.where(open_slots, shares - step, -1.0)
            for slot in np.argsort(-frac, kind="stable")[:leftover]:
                step[slot] += 1
        step = np.minimum(step, caps_arr - counts)
        counts += step
        remaining -= int(step.sum())
        open_slots = counts < caps_arr
        if int(step.sum()) == 0:
            # Every open slot rounded to zero (total < open slot count
            # after capping): give one unit at a time by weight order.
            order = np.argsort(-np.where(open_slots, weights, -1.0),
                               kind="stable")
            for slot in order:
                if remaining == 0:
                    break
                if open_slots[slot]:
                    counts[slot] += 1
                    remaining -= 1
            open_slots = counts < caps_arr
    return [int(c) for c in counts]


def factorizes_natively(column: np.ndarray) -> bool:
    """Whether :meth:`Factorization.of` splits ``column`` into strata
    without a Python object per row: a 1-D column of booleans, integers,
    fixed-width bytes or strings, or floats of at most 8 bytes.

    For those kinds two rows hold equal keys exactly when they hold
    equal bytes — a fixed-width string pads with NULs that reading it
    strips, so trailing NULs never tell two values apart — once a float
    column is canonicalized (:func:`_row_words`).  The other kinds take
    the dict pass.  Object columns hold references, not values.  A
    ``datetime64``/``timedelta64`` NaT is unequal to itself as a NumPy
    scalar (a stratum per row) but boxes to ``None`` (one stratum), so
    no byte rule matches both dict passes.  A ``longdouble`` has padding
    bytes that no arithmetic defines.
    """
    kind = column.dtype.kind
    return column.ndim == 1 and (
        kind in "biuSU" or (kind == "f" and column.dtype.itemsize <= 8))


def _row_words(column: np.ndarray) -> np.ndarray:
    """Every row's bytes as ``uint64`` words, shape ``(N, ⌈size / 8⌉)``
    (zero-padded), equal exactly for rows of equal keys.

    A float column is canonicalized first: ``-0.0`` becomes ``0.0`` and
    every NaN the one ``np.nan``, so NaN rows form one stratum (as dict
    keys, each boxed NaN was a stratum of its own).
    """
    if column.dtype.kind == "f":
        column = column + 0.0               # a copy; -0.0 + 0.0 is 0.0
        column[np.isnan(column)] = np.nan
    column = np.ascontiguousarray(column)
    size = column.dtype.itemsize
    if size in (1, 2, 4, 8):
        return column.view(f"u{size}").astype(np.uint64)[:, None]
    words = np.zeros((len(column), -(-size // 8) * 8), dtype=np.uint8)
    if size:
        words[:, :size] = column.view(np.uint8).reshape(-1, size)
    return words.view(np.uint64)


def _row_hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash per row of ``words`` whose *high* bits are the
    well-mixed ones: Fibonacci hashing (a multiply by ⌊2⁶⁴/φ⌋, odd, so a
    one-word row maps one to one) folded over the row's words."""
    hashed = np.zeros(len(words), dtype=np.uint64)
    for word in words.T:
        hashed ^= word
        hashed *= np.uint64(0x9E3779B97F4A7C15)
    return hashed


def _collides(words: np.ndarray, rows: np.ndarray,
              opens: np.ndarray) -> bool:
    """Whether some row, listed in ``rows`` order, differs from the row
    before it although ``opens`` starts no new run there."""
    inside = ~opens[1:]
    for word in words.T:
        listed = word[rows]
        if np.any((listed[1:] != listed[:-1]) & inside):
            return True
    return False


def _code_dtype(strata: int) -> type:
    return np.uint16 if strata <= 0xFFFF else np.int64


def _dict_codes(keys: Sequence[Hashable]
                ) -> Tuple[List[Hashable], np.ndarray]:
    """The distinct ``keys`` in first-appearance order (dict insertion
    order) and every key's code, at C speed."""
    distinct = list(dict.fromkeys(keys))
    code_of = {key: code for code, key in enumerate(distinct)}
    return distinct, np.fromiter(map(code_of.__getitem__, keys),
                                 count=len(keys),
                                 dtype=_code_dtype(len(distinct)))


class Factorization:
    """A key column split into strata: the distinct ``keys`` in order
    of first appearance, one stratum code per table row, and every
    stratum's table rows (ascending).

    This is what :class:`StratifiedSampler` derives from its ``keys``
    before it can sample; it depends on the column alone, so whoever
    holds a table for many queries (the service's registered tables)
    computes it once and hands it over in place of the raw keys.
    """

    __slots__ = ("keys", "codes", "rows")

    def __init__(self, keys: List[Hashable], codes: np.ndarray,
                 rows: Optional[List[np.ndarray]] = None) -> None:
        self.keys = keys
        self.codes = codes
        if rows is None:
            # A stable sort of the stratum codes lists every stratum's
            # rows in table order.
            by_stratum = np.argsort(codes, kind="stable").astype(
                np.int64, copy=False)
            ends = np.cumsum(np.bincount(codes, minlength=len(keys)))
            rows = np.split(by_stratum, ends[:-1])
        self.rows: List[np.ndarray] = rows

    @classmethod
    def of(cls, keys: Sequence[Hashable]) -> "Factorization":
        """Factorize at C speed: dict insertion order is
        first-appearance order.  A column :func:`factorizes_natively`
        skips the dict and every per-row object (:meth:`_of_native`),
        with the same keys, codes and rows."""
        if isinstance(keys, np.ndarray) and len(keys) \
                and factorizes_natively(keys):
            return cls._of_native(keys)
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)  # both passes must see the same objects
        return cls(*_dict_codes(keys))

    @classmethod
    def _of_native(cls, column: np.ndarray) -> "Factorization":
        """Strata of a non-empty native column, from its rows' bytes.

        Each row's hash keeps its high bits above the row index in one
        ``uint64``, so one ``np.sort`` (no argsort) lines equal hashes
        up in runs that list their rows in ascending order.  Every row
        of a run must equal the row before it in the run (so all equal
        its first) — a hash collision otherwise, and then the exact dict
        pass runs over the rows' bytes instead.  Runs ordered by first
        row are the strata.
        """
        n = len(column)
        words = _row_words(column)
        bits = (n - 1).bit_length()                 # for the row index
        packed = _row_hash(words) >> bits << bits
        packed |= np.arange(n, dtype=np.uint64)
        packed.sort()
        rows = (packed & np.uint64((1 << bits) - 1)).view(np.int64)
        packed >>= bits
        opens = np.empty(n, dtype=bool)             # a run starts here
        opens[0] = True
        np.not_equal(packed[1:], packed[:-1], out=opens[1:])
        if _collides(words, rows, opens):
            _, codes = _dict_codes(
                words.view(f"S{words.shape[1] * 8}").ravel().tolist())
            firsts = np.unique(codes, return_index=True)[1]
            return cls(list(column[firsts]), codes)
        starts = np.flatnonzero(opens)
        firsts = rows[starts]
        order = np.argsort(firsts)                  # stratum → its run
        code_of_run = np.empty(len(order), dtype=_code_dtype(len(order)))
        code_of_run[order] = np.arange(len(order))
        codes = np.empty(n, dtype=code_of_run.dtype)
        codes[rows] = np.repeat(code_of_run, np.diff(starts, append=n))
        runs = np.split(rows, starts[1:])
        return cls(list(column[firsts[order]]), codes,
                   [runs[run] for run in order])

    def __len__(self) -> int:
        return len(self.codes)

    def filtered(self, mask: np.ndarray) -> "Factorization":
        """The factorization of the rows where ``mask`` holds — equal
        to ``Factorization.of(column[mask])``, from the codes alone."""
        codes = self.codes[mask]
        present, first = np.unique(codes, return_index=True)
        kept = present[np.argsort(first, kind="stable")]
        recode = np.zeros(len(self.keys), dtype=codes.dtype)
        recode[kept] = np.arange(len(kept), dtype=codes.dtype)
        return Factorization([self.keys[code] for code in kept],
                             recode[codes])


class StratifiedSampler:
    """Per-stratum uniform sampling without replacement.

    Parameters
    ----------
    keys:
        One group key per table row; strata are formed in order of first
        appearance (a stable order every consumer shares).  A ready
        :class:`Factorization` of that column is taken as is.
    seed:
        Seeds the per-stratum permutations drawn lazily on first use.
        A caller that owns per-stratum RNG streams (the grouped EARL
        session does, to stay byte-identical with solo sessions) may
        instead install them via :meth:`attach_rng` before any draw.

    Example
    -------
    >>> sampler = StratifiedSampler(["a", "b", "a", "b", "b"], seed=0)
    >>> sampler.remaining("a"), sampler.remaining("b")
    (2, 3)
    >>> len(sampler.take("b", 2)), sampler.remaining("b")
    (2, 1)
    """

    def __init__(self, keys: Sequence[Hashable], *,
                 seed: SeedLike = None) -> None:
        if len(keys) == 0:
            raise ValueError("keys must be non-empty")
        self._rng = ensure_rng(seed)
        strata = (keys if isinstance(keys, Factorization)
                  else Factorization.of(keys))
        self._keys: List[Hashable] = list(strata.keys)
        self._rows: Dict[Hashable, np.ndarray] = dict(
            zip(strata.keys, strata.rows))
        self._orders: Dict[Hashable, PermutationPrefix] = {}
        self._consumed: Dict[Hashable, int] = {key: 0 for key in self._keys}

    # ------------------------------------------------------------- inventory
    @property
    def keys(self) -> List[Hashable]:
        """Stratum keys in order of first appearance."""
        return list(self._keys)

    def population(self, key: Hashable) -> int:
        return len(self._rows[key])

    def remaining(self, key: Hashable) -> int:
        return len(self._rows[key]) - self._consumed[key]

    def rows(self, key: Hashable) -> np.ndarray:
        """Table-row indices of ``key``'s stratum, in appearance order."""
        return self._rows[key]

    # ------------------------------------------------------------ randomness
    def attach_rng(self, key: Hashable, rng: np.random.Generator) -> None:
        """Root ``key``'s permutation in a caller-owned stream: its
        prefix draws from a child spawned off ``rng`` *now*.

        Must happen before the stratum's first :meth:`order`/:meth:`take`
        (a permutation cannot be replaced — samples already handed out
        would silently change design).
        """
        if key in self._orders:
            raise RuntimeError(f"stratum {key!r} is already permuted")
        self._orders[key] = PermutationPrefix(len(self._rows[key]), rng)

    def order(self, key: Hashable) -> PermutationPrefix:
        """``key``'s within-stratum permutation (rooted in the sampler's
        own stream on first use), drawn as far as it is read.

        ``rows(key)[order(key).head(m)]`` is a uniform sample of ``m``
        rows without replacement from the stratum.
        """
        order = self._orders.get(key)
        if order is None:
            order = PermutationPrefix(len(self._rows[key]), self._rng)
            self._orders[key] = order
        return order

    # ------------------------------------------------------------- drawing
    def take(self, key: Hashable, count: int) -> np.ndarray:
        """Consume and return the next ``count`` sampled table rows of
        ``key`` (uniform without replacement within the stratum)."""
        if count < 0:
            raise ValueError("count cannot be negative")
        if count > self.remaining(key):
            raise ValueError(
                f"cannot draw {count} rows from stratum {key!r} with "
                f"{self.remaining(key)} remaining")
        lo = self._consumed[key]
        self._consumed[key] = lo + count
        return self._rows[key][self.order(key).head(lo + count)[lo:]]
