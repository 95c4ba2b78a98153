"""Correlation analysis: an example of a structure-capturing statistic.

§3.3 notes that the independence assumption "makes sampling applicable
to algorithms relying on capturing data-structure such as correlation
analysis".  This module provides the MR job (pairs → Pearson r, the
stock job over the ``"correlation"`` statistic) and the bootstrap error
estimate for it — a statistic far outside what closed-form error
analysis (or online aggregation of simple AVG/SUM) covers.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.bootstrap import BootstrapResult
from repro.core.earl import run_stock_job
from repro.mapreduce.job import JobResult
from repro.mapreduce.mapper import Mapper
from repro.mapreduce.types import KeyValue, TaskContext
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int


class PairMapper(Mapper):
    """Parse ``x,y`` lines into ``(key, (x, y))`` pairs."""

    def __init__(self, constant_key: Hashable = "all") -> None:
        self.constant_key = constant_key

    def map(self, key: Hashable, value: Any,
            ctx: TaskContext) -> Iterable[KeyValue]:
        text = value if isinstance(value, str) else str(value)
        if not text:
            return
        x_str, _, y_str = text.partition(",")
        yield self.constant_key, (float(x_str), float(y_str))


def run_correlation(cluster: Cluster, input_path: str, *,
                    seed: SeedLike = None) -> Tuple[float, JobResult]:
    """Exact Pearson correlation of an ``x,y`` file via MapReduce."""
    return run_stock_job(cluster, input_path, "correlation",
                         mapper=PairMapper(), seed=seed)


def bootstrap_correlation(pairs: Sequence[Tuple[float, float]], *,
                          B: int = 30, seed: SeedLike = None
                          ) -> BootstrapResult:
    """Bootstrap error estimate for Pearson r over a sample of pairs.

    Pairs are resampled jointly (resampling x and y independently would
    destroy the very dependence being measured).
    """
    check_positive_int("B", B)
    data = np.asarray(pairs, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ValueError("pairs must be an (n >= 2, 2) array-like")
    rng = ensure_rng(seed)
    n = data.shape[0]

    def pearson(sample: np.ndarray) -> float:
        x, y = sample[:, 0], sample[:, 1]
        sx, sy = x.std(), y.std()
        if sx == 0.0 or sy == 0.0:
            return 0.0
        return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))

    estimates = np.empty(B)
    for b in range(B):
        idx = rng.integers(0, n, size=n)
        estimates[b] = pearson(data[idx])
    return BootstrapResult(estimates=estimates, point_estimate=pearson(data),
                           n=n, B=B)
