"""Tests for HDFS dataset loaders."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.workloads import GB, load_lines, load_numeric, load_stand_in
from repro.workloads.synthetic import numeric_dataset, numeric_lines

#: Values whose fixed-width rendering is easy to get wrong.
SPECIAL = [float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e20,
           -1e20, 5e-324, 1.5, -2.25, 123456789.123456789]


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(n_nodes=4, block_size=1 << 18, seed=60)


class TestLoadNumeric:
    def test_records_and_truth(self, cluster):
        ds = load_numeric(cluster, "/n", [1.0, 2.0, 3.0])
        assert ds.records == 3
        assert ds.truth["mean"] == 2.0
        assert cluster.hdfs.exists("/n")

    def test_bytes_are_the_joined_numeric_lines(self, cluster):
        values = SPECIAL + list(np.random.default_rng(5).lognormal(
            3.0, 2.0, 200))
        with np.errstate(invalid="ignore"):  # the truth of inf - inf
            ds = load_numeric(cluster, "/special", values)
        expected = ("\n".join(numeric_lines(values)) + "\n").encode()
        assert cluster.hdfs.read_bytes("/special") == expected
        assert ds.actual_bytes == len(expected)
        assert ds.records == len(values)

    def test_logical_scale_applied(self, cluster):
        ds = load_numeric(cluster, "/scaled", [1.0] * 100,
                          logical_scale=50.0)
        assert ds.logical_bytes == 50 * ds.actual_bytes


class TestLoadLines:
    def test_arbitrary_lines(self, cluster):
        ds = load_lines(cluster, "/l", ["a,b", "c,d"], truth={"rows": 2.0})
        assert ds.records == 2
        assert ds.truth["rows"] == 2.0
        assert cluster.hdfs.read_lines("/l") == ["a,b", "c,d"]


class TestLoadStandIn:
    def test_logical_size_hits_target(self, cluster):
        ds = load_stand_in(cluster, "/big", logical_gb=10.0,
                           records=20_000, seed=61)
        assert ds.logical_gb == pytest.approx(10.0, rel=0.01)
        assert ds.records == 20_000
        assert ds.actual_bytes < 1_000_000  # laptop-sized on disk

    def test_bytes_are_the_joined_numeric_lines(self, cluster):
        ds = load_stand_in(cluster, "/stand", logical_gb=1.0, records=3000,
                           seed=65)
        values = numeric_dataset(3000, "lognormal", seed=65)
        data = cluster.hdfs.read_bytes("/stand")
        assert data == ("\n".join(numeric_lines(values)) + "\n").encode()
        assert ds.actual_bytes == len(data)
        assert ds.logical_bytes == pytest.approx(GB, rel=1e-9)

    def test_truth_recorded(self, cluster):
        ds = load_stand_in(cluster, "/big2", logical_gb=1.0,
                           records=5000, seed=62)
        assert "mean" in ds.truth and ds.truth["mean"] > 0

    def test_splits_match_logical_size(self, cluster):
        ds = load_stand_in(cluster, "/big3", logical_gb=2.0,
                           records=10_000, seed=63)
        splits = cluster.hdfs.get_splits(ds.path, 64 * 1024 * 1024)
        expected_tasks = 2.0 * GB / (64 * 1024 * 1024)
        assert len(splits) == pytest.approx(expected_tasks, rel=0.05)

    def test_small_target_never_scales_below_one(self, cluster):
        ds = load_stand_in(cluster, "/tiny", logical_gb=0.000001,
                           records=1000, seed=64)
        assert ds.logical_bytes >= ds.actual_bytes
