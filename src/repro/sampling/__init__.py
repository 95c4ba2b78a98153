"""Sampling layer: EARL's samplers plus the baselines they beat.

* :class:`PreMapSampler` — Algorithm 2: random byte offsets + record-
  reader backtracking; load cost proportional to the sample.
* :class:`PostMapSampler` — Algorithm 1: full parse into a local
  hashmap, then release of a uniform without-replacement prefix.
* :func:`reservoir_sample` — exact-uniform one-pass baseline.
* :func:`sample_blocks` — biased block-level baseline (§7).
* :class:`StratifiedSampler` — per-stratum uniform sampling over keyed
  records (the grouped-query design); :func:`allocate_with_caps` is the
  capped largest-remainder split the cross-query budget allocator uses.
* :class:`PermutationPrefix` — a uniform random permutation drawn only
  as far as it is read (the in-memory engines' sample order).
"""

from repro.sampling.base import allocate_per_split, draw_sample
from repro.sampling.block_sampling import sample_blocks
from repro.sampling.permutation import PermutationPrefix
from repro.sampling.postmap import PostMapSampler
from repro.sampling.premap import PreMapSampler
from repro.sampling.reservoir import reservoir_sample
from repro.sampling.stratified import (
    Factorization,
    StratifiedSampler,
    allocate_with_caps,
)

__all__ = [
    "PreMapSampler",
    "PostMapSampler",
    "reservoir_sample",
    "sample_blocks",
    "StratifiedSampler",
    "PermutationPrefix",
    "Factorization",
    "allocate_with_caps",
    "draw_sample",
    "allocate_per_split",
]
