"""Aggregate MR jobs used throughout the evaluation.

Single-group aggregates (mean, median, sum — Figs. 5, 6, 9, 10) and
per-key grouped statistics are the stock full-scan jobs of
:mod:`repro.core.earl` (:func:`~repro.core.earl.run_stock_job`,
:func:`~repro.core.earl.run_grouped_stock_job`); this module adds
COUNT, which is SUM over a mapper emitting ones.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Tuple

from repro.cluster.cluster import Cluster
from repro.core.earl import run_grouped_stock_job
from repro.mapreduce.job import JobResult
from repro.mapreduce.mapper import Mapper
from repro.mapreduce.types import KeyValue, TaskContext


class CountingMapper(Mapper):
    """Emit ``(key, 1)`` per record — COUNT via SUM with 1/p correction."""

    def __init__(self, *, delimiter: str = "\t",
                 constant_key: Hashable = "all") -> None:
        self.delimiter = delimiter
        self.constant_key = constant_key

    def map(self, key: Hashable, value: Any,
            ctx: TaskContext) -> Iterable[KeyValue]:
        text = value if isinstance(value, str) else str(value)
        if not text:
            return
        if self.delimiter in text:
            group, _, _ = text.partition(self.delimiter)
            yield group, 1.0
        else:
            yield self.constant_key, 1.0


def run_count(cluster: Cluster, input_path: str, **job_kwargs
              ) -> Tuple[Dict[Hashable, float], JobResult]:
    """COUNT per key (via the counting mapper and SUM reduction);
    ``job_kwargs`` go to :func:`~repro.core.earl.run_grouped_stock_job`."""
    job_kwargs.setdefault("mapper", CountingMapper())
    job_kwargs.setdefault("combine", False)
    return run_grouped_stock_job(cluster, input_path, "sum", **job_kwargs)
