"""Tests for block sampling (its clustered-layout bias, §7, is measured
by ``benchmarks/bench_ablation_sampling_bias.py``)."""

import pytest

from repro.cluster import Cluster
from repro.sampling.block_sampling import sample_blocks


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(n_nodes=4, block_size=512, replication=2, seed=10)


class TestSampleBlocks:
    def test_returns_requested_volume(self, cluster):
        lines = [f"{i:08d}" for i in range(500)]
        cluster.hdfs.write_lines("/b", lines)
        got = sample_blocks(cluster.hdfs, "/b", 50, seed=1)
        assert len(got) >= 50

    def test_lines_come_from_file(self, cluster):
        lines = [f"{i:08d}" for i in range(500)]
        cluster.hdfs.write_lines("/b", lines)
        got = sample_blocks(cluster.hdfs, "/b", 30, seed=2)
        assert set(got) <= set(lines)

    def test_empty_file(self, cluster):
        cluster.hdfs.write_lines("/empty", [])
        assert sample_blocks(cluster.hdfs, "/empty", 10, seed=3) == []

    def test_blocks_are_contiguous_runs(self, cluster):
        lines = [f"{i:08d}" for i in range(500)]
        cluster.hdfs.write_lines("/b", lines)
        got = sample_blocks(cluster.hdfs, "/b", 20, seed=4)
        values = [int(x) for x in got]
        # at least the first block's values are consecutive
        first_run = values[:10]
        assert all(b - a == 1 for a, b in zip(first_run, first_run[1:]))
