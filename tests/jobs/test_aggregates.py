"""Tests for aggregate jobs."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import (
    StatisticReducer,
    run_grouped_stock_job,
    run_stock_job,
)
from repro.jobs.aggregates import run_count
from repro.mapreduce import JobClient, JobConf, ProjectionMapper
from repro.workloads import keyed_lines, numeric_dataset


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(n_nodes=4, block_size=1 << 18, seed=40)


@pytest.fixture
def values():
    return numeric_dataset(5000, "normal", seed=41)


class TestRunAggregate:
    def test_global_mean(self, cluster, values):
        cluster.hdfs.write_lines("/v", [f"{v:.6f}" for v in values])
        result, _ = run_grouped_stock_job(cluster, "/v", "mean",
                                          combine=False, seed=1)
        assert result["all"] == pytest.approx(np.mean(values))

    def test_per_key_statistics(self, cluster, values):
        cluster.hdfs.write_lines("/kv", keyed_lines(values, 3, seed=42))
        result, _ = run_grouped_stock_job(cluster, "/kv", "max",
                                          combine=False, n_reducers=2,
                                          seed=2)
        assert len(result) == 3
        assert max(result.values()) == pytest.approx(np.max(values),
                                                     rel=1e-6)

    def test_median(self, cluster, values):
        cluster.hdfs.write_lines("/v", [f"{v:.6f}" for v in values])
        result, _ = run_grouped_stock_job(cluster, "/v", "median",
                                          combine=False, seed=3)
        assert result["all"] == pytest.approx(np.median(values), rel=1e-6)

    def test_count(self, cluster, values):
        cluster.hdfs.write_lines("/kv", keyed_lines(values, 4, seed=43))
        counts, _ = run_count(cluster, "/kv", seed=4)
        assert sum(counts.values()) == len(values)

    def test_sum_correction_param(self, cluster, values):
        cluster.hdfs.write_lines("/v", [f"{v:.6f}" for v in values])
        conf = JobConf(name="sum", input_path="/v",
                       mapper=ProjectionMapper(),
                       reducer=StatisticReducer("sum"),
                       params={"sample_fraction": 0.5}, seed=5)
        (key, total), = JobClient(cluster).run(conf).output
        assert total == pytest.approx(2 * np.sum(values), rel=1e-9)


class TestStockJob:
    def test_single_key_is_its_value(self, cluster, values):
        cluster.hdfs.write_lines("/v", [f"{v:.6f}" for v in values])
        value, _ = run_stock_job(cluster, "/v", "mean", seed=6)
        grouped, _ = run_grouped_stock_job(cluster, "/v", "mean",
                                           combine=False, seed=6)
        assert value == grouped["all"]

    def test_many_keys_collapse_to_their_mean(self, cluster, values):
        cluster.hdfs.write_lines("/kv", keyed_lines(values, 3, seed=44))
        value, _ = run_stock_job(cluster, "/kv", "max", n_reducers=2,
                                 seed=7)
        grouped, _ = run_grouped_stock_job(cluster, "/kv", "max",
                                           combine=False, n_reducers=2,
                                           seed=7)
        assert len(grouped) == 3
        assert value == pytest.approx(np.mean(list(grouped.values())))
