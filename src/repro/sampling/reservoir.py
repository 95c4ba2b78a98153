"""Reservoir sampling baseline (Vitter's Algorithm R).

The paper's §3.3 dismisses reservoir sampling over HDFS because "the
entire dataset needs to be read, and possibly re-read when further
samples are required" — it is nevertheless the textbook way to produce
an exactly-uniform fixed-size sample in one pass, so it serves as the
uniform baseline of the block-sampling bias ablation.

Replacement indices are drawn in batches: NumPy's bounded-integer
generation consumes the PCG64 stream identically for an array draw with
per-element bounds and for the equivalent sequence of scalar draws, so
the sampler selects *exactly* the items Algorithm R's draw-per-item
loop selects for any seed (its equivalence test keeps that loop as the
oracle) — only the per-item Python overhead of the draw goes away.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, TypeVar

import numpy as np

from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int

T = TypeVar("T")

#: Items per batched draw.  Any chunking yields the same stream (the
#: decomposition never depends on data), so this is purely a wall-clock
#: knob.
_CHUNK = 1024


def reservoir_sample(items: Iterable[T], k: int, *,
                     seed: SeedLike = None) -> List[T]:
    """One-pass uniform sample of ``k`` items from an iterable.

    Every length-``k`` subset of the stream is equally likely.  If the
    stream has fewer than ``k`` items, all of them are returned.
    """
    check_positive_int("k", k)
    rng = ensure_rng(seed)
    it = iter(items)
    reservoir: List[T] = list(itertools.islice(it, k))
    if len(reservoir) < k:
        return reservoir
    i = k
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            return reservoir
        # One array draw with per-item bounds [0, i+1) ... [0, i+c):
        # the same variates the scalar loop would draw one by one.
        draws = rng.integers(0, np.arange(i + 1, i + len(chunk) + 1))
        i += len(chunk)
        hits = np.flatnonzero(draws < k)
        for pos in hits.tolist():
            reservoir[int(draws[pos])] = chunk[pos]
