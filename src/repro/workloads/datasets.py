"""Dataset loaders: put synthetic workloads into the simulated HDFS.

The central trick is :func:`load_stand_in`: the experiments sweep data
sizes up to 200 GB (Fig. 5), which cannot be materialized on a laptop.
Instead a laptop-sized record set is written with a ``logical_scale``
such that splits, disk costs and CPU costs behave like the full-size
file (see DESIGN.md's substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.util.rng import SeedLike
from repro.util.validation import check_positive
from repro.workloads.synthetic import (
    numeric_dataset,
    numeric_text,
    population_summary,
)

GB = 1_000_000_000


@dataclass(frozen=True)
class LoadedDataset:
    """Handle to a dataset written into a cluster's HDFS."""

    path: str
    records: int
    actual_bytes: int
    logical_bytes: int
    truth: Dict[str, float]

    @property
    def logical_gb(self) -> float:
        return self.logical_bytes / GB


def load_numeric(cluster: Cluster, path: str, values: Sequence[float], *,
                 logical_scale: float = 1.0) -> LoadedDataset:
    """Write a numeric stream as fixed-width lines."""
    text = numeric_text(values)
    meta = cluster.hdfs.write_text(path, text, logical_scale=logical_scale)
    return LoadedDataset(path=path, records=len(values),
                         actual_bytes=meta.size,
                         logical_bytes=meta.logical_size,
                         truth=population_summary(values))


def load_lines(cluster: Cluster, path: str, lines: Sequence[str], *,
               logical_scale: float = 1.0,
               truth: Optional[Dict[str, float]] = None) -> LoadedDataset:
    """Write pre-rendered lines (keyed, clustered, points, ...)."""
    meta = cluster.hdfs.write_lines(path, list(lines),
                                    logical_scale=logical_scale)
    return LoadedDataset(path=path, records=len(lines),
                         actual_bytes=meta.size,
                         logical_bytes=meta.logical_size,
                         truth=truth or {})


def load_stand_in(cluster: Cluster, path: str, *,
                  logical_gb: float,
                  records: int = 200_000,
                  distribution: str = "lognormal",
                  seed: SeedLike = None,
                  **dist_params: float) -> LoadedDataset:
    """Write a laptop-sized stand-in for a ``logical_gb``-sized file.

    ``records`` actual fixed-width records are stored; the file's
    ``logical_scale`` is set so its logical size equals ``logical_gb``.
    Splits, scan costs and CPU charges then match the full-size file
    while sampling and statistics operate on real data.
    """
    check_positive("logical_gb", logical_gb)
    values = numeric_dataset(records, distribution, seed=seed, **dist_params)
    text = numeric_text(values)
    scale = max(1.0, logical_gb * GB / len(text))
    meta = cluster.hdfs.write_text(path, text, logical_scale=scale)
    return LoadedDataset(path=path, records=records,
                         actual_bytes=meta.size,
                         logical_bytes=meta.logical_size,
                         truth=population_summary(values))
