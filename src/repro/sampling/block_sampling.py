"""Block-level sampling baseline and its bias (paper §3.3 and §7).

The naive way to sample from HDFS is to pick whole blocks at random:
cheap (sequential reads) but **not uniform** when the data layout is
clustered — "if the data is clustered on some attribute, the resulting
statistic will be inaccurate when compared to that constructed from a
uniform-random sample" (§7, citing Chaudhuri et al.).  This module
implements the baseline so the bias ablation
(``benchmarks/bench_ablation_sampling_bias.py``) can demonstrate the
bias that motivates EARL's line-level samplers.  Every block is read
whole from the filesystem; there is no cached variant.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.costmodel import CostLedger
from repro.hdfs.filesystem import HDFS
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int


def trim_block_lines(data: bytes, offset: int, end: int,
                     file_size: int) -> List[str]:
    """Decode one block's bytes into its whole lines.

    The block sampler's edge rule: partial lines at block boundaries
    are dropped (a block sampler does not coordinate with its
    neighbours), as are empty lines.  Strict UTF-8: a boundary that
    cuts a multi-byte character raises.
    """
    lines = data.decode("utf-8").split("\n")
    if offset != 0:
        lines = lines[1:]
    if end != file_size:
        lines = lines[:-1]
    return [line for line in lines if line]


def sample_blocks(fs: HDFS, path: str, n_lines: int, *,
                  seed: SeedLike = None,
                  ledger: Optional[CostLedger] = None) -> List[str]:
    """Collect ≈ ``n_lines`` lines by reading whole random blocks.

    Blocks are drawn without replacement in random order — the block
    order is one batch draw (a single permutation) — until the line
    quota is met; the final block is consumed entirely (block sampling
    cannot stop mid-block without paying the read anyway — that is its
    selling point and its curse).
    """
    check_positive_int("n_lines", n_lines)
    rng = ensure_rng(seed)
    meta = fs.namenode.get(path)
    if not meta.blocks:
        return []
    order = rng.permutation(len(meta.blocks))
    collected: List[str] = []
    for block_pos in order:
        block = meta.blocks[int(block_pos)]
        data = fs.read_range(path, block.offset, block.end, ledger=ledger)
        collected.extend(trim_block_lines(data, block.offset, block.end,
                                          meta.size))
        if len(collected) >= n_lines:
            break
    return collected
