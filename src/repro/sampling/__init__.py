"""Sampling layer: EARL's samplers plus the baselines they beat.

* :class:`PreMapSampler` — Algorithm 2: random byte offsets + record-
  reader backtracking; load cost proportional to the sample.
* :class:`PostMapSampler` — Algorithm 1: full parse into a local
  hashmap, then release of a uniform without-replacement prefix.
* :func:`reservoir_sample` — exact-uniform one-pass baseline.
* :func:`sample_blocks` — biased block-level baseline (§7).
* :class:`TwoFileSampler` — Olken & Rotem's 2-file/ARHASH method (§7).
* :class:`StratifiedSampler` — per-stratum uniform sampling over keyed
  records with uniform / proportional / Neyman quota allocation (the
  grouped-query design).
* :class:`PermutationPrefix` — a uniform random permutation drawn only
  as far as it is read (the in-memory engines' sample order).
"""

from repro.sampling.base import allocate_per_split, draw_sample
from repro.sampling.block_sampling import block_sampling_bias, sample_blocks
from repro.sampling.permutation import PermutationPrefix
from repro.sampling.postmap import PostMapSampler
from repro.sampling.premap import PreMapSampler
from repro.sampling.reservoir import reservoir_sample, reservoir_sample_indices
from repro.sampling.stratified import (
    ALLOCATION_NEYMAN,
    ALLOCATION_PROPORTIONAL,
    ALLOCATION_UNIFORM,
    ALLOCATIONS,
    Factorization,
    StratifiedSampler,
    allocate_with_caps,
)
from repro.sampling.twofile import TwoFileSampler

__all__ = [
    "PreMapSampler",
    "PostMapSampler",
    "reservoir_sample",
    "reservoir_sample_indices",
    "sample_blocks",
    "block_sampling_bias",
    "TwoFileSampler",
    "StratifiedSampler",
    "PermutationPrefix",
    "Factorization",
    "ALLOCATIONS",
    "ALLOCATION_UNIFORM",
    "ALLOCATION_PROPORTIONAL",
    "ALLOCATION_NEYMAN",
    "allocate_with_caps",
    "draw_sample",
    "allocate_per_split",
]
