"""Shared fixtures for the EARL test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.hdfs import SplitIndexCache


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster() -> Cluster:
    """5-node cluster with small blocks (multi-block files stay cheap)."""
    return Cluster(n_nodes=5, block_size=4096, replication=3, seed=7)


@pytest.fixture
def tiny_cluster() -> Cluster:
    """Single-node cluster for degenerate-topology tests."""
    return Cluster(n_nodes=1, block_size=1024, replication=1, seed=11)


class NoSplitCache(SplitIndexCache):
    """A split cache that never serves: every read of a filesystem
    carrying it takes the scalar path (newline scans, backtracking
    probes, a fresh parse per ingest).  Writes still invalidate through
    it, so a driver that writes to HDFS runs unchanged."""

    def acquire(self, fs, split):
        return None

    def column_lookup(self, path):
        return None

    def keyed_lookup(self, path, delimiter):
        return None


@pytest.fixture(scope="session")
def cacheless():
    """``cacheless(fs)``: swap ``fs``'s split cache for one that never
    serves, and return ``fs`` — the scalar reference the cache-served
    reads are checked against."""
    def strip(fs):
        fs.split_cache = NoSplitCache()
        return fs
    return strip


@pytest.fixture
def lognormal_values(rng) -> np.ndarray:
    """Right-skewed positive values (the paper's interesting regime)."""
    return rng.lognormal(3.0, 1.0, 4000)


@pytest.fixture
def numeric_file(small_cluster, lognormal_values):
    """A numeric dataset loaded into the small cluster's HDFS."""
    from repro.workloads import load_numeric

    return load_numeric(small_cluster, "/data/values", lognormal_values)


@pytest.fixture
def resample_items():
    """``resample_items(rs)``: each resample of a ``ResampleSet`` (or of
    the ``ReferenceResampleSet`` oracle) as one array of its items,
    whichever layout holds them (dense rows, or per-resample objects
    with one segment per delta)."""
    def items(rs):
        if getattr(rs, "_dense", None) is not None:
            return list(rs._dense.live())
        return [np.concatenate([np.asarray(seg) for seg in r.segments
                                if len(seg)])
                for r in rs._resamples]
    return items
