"""Tests for the MapReduce-backed EARL driver."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import EarlConfig, EarlJob, run_stock_job
from repro.core.earl import estimate_record_count
from repro.workloads import load_numeric, numeric_dataset


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(n_nodes=5, block_size=1 << 20, replication=3, seed=20)


@pytest.fixture
def values():
    return numeric_dataset(40_000, "lognormal", seed=21)


@pytest.fixture
def dataset(cluster, values):
    return load_numeric(cluster, "/data/values", values,
                        logical_scale=1000.0)


class TestEstimateRecordCount:
    def test_accurate_for_fixed_width(self, cluster, dataset):
        n, seconds = estimate_record_count(cluster, dataset.path)
        assert n == pytest.approx(dataset.records, rel=0.01)
        assert seconds > 0

    def test_empty_file(self, cluster):
        cluster.hdfs.write_lines("/empty", [])
        n, _ = estimate_record_count(cluster, "/empty")
        assert n == 0


class TestEarlJobEndToEnd:
    def test_mean_close_to_truth(self, cluster, dataset):
        job = EarlJob(cluster, dataset.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=22))
        res = job.run()
        truth = dataset.truth["mean"]
        assert abs(res.estimate - truth) / truth < 0.12
        assert not res.used_fallback
        assert res.n < dataset.records / 5

    def test_faster_than_stock(self, cluster, dataset):
        # What is compared is an early answer that stops at its first
        # draw with a full scan.  The draw is pinned (SSABE still picks
        # B) at 500 records, where this data reads cv ~0.06 — far enough
        # under sigma that bootstrap noise cannot force a second
        # iteration; left to SSABE's pilot, a draw just short of the
        # bound doubles past what the job needed and, at 40k records,
        # past the scan (ROADMAP 4d).
        job = EarlJob(cluster, dataset.path, statistic="mean",
                      config=EarlConfig(sigma=0.1, seed=23, n_override=500))
        res = job.run()
        _, stock = run_stock_job(cluster, dataset.path, "mean", seed=24)
        assert res.num_iterations == 1 and not res.used_fallback
        assert res.simulated_seconds < stock.simulated_seconds

    def test_iteration_records(self, cluster, dataset):
        job = EarlJob(cluster, dataset.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=25))
        res = job.run()
        assert res.num_iterations >= 1
        assert all(r.simulated_seconds > 0 for r in res.iterations)

    def test_postmap_sampler_variant(self, cluster, dataset):
        job = EarlJob(cluster, dataset.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=26,
                                        sampler="postmap"))
        res = job.run()
        truth = dataset.truth["mean"]
        assert abs(res.estimate - truth) / truth < 0.12

    def test_median_job(self, cluster, dataset):
        job = EarlJob(cluster, dataset.path, statistic="median",
                      config=EarlConfig(sigma=0.05, seed=27))
        res = job.run()
        truth = dataset.truth["median"]
        assert abs(res.estimate - truth) / truth < 0.15

    def test_sum_with_correction(self, cluster, dataset):
        job = EarlJob(cluster, dataset.path, statistic="sum",
                      config=EarlConfig(sigma=0.05, seed=28))
        res = job.run()
        truth = dataset.truth["sum"]
        assert abs(res.estimate - truth) / truth < 0.15

    def test_overrides_respected(self, cluster, dataset):
        cfg = EarlConfig(sigma=0.05, seed=29, B_override=20, n_override=800)
        res = EarlJob(cluster, dataset.path, statistic="mean",
                      config=cfg).run()
        assert res.B == 20

    def test_deterministic(self, cluster, values):
        def run(seed_cluster):
            ds = load_numeric(seed_cluster, "/d", values)
            job = EarlJob(seed_cluster, "/d", statistic="mean",
                          config=EarlConfig(sigma=0.05, seed=30))
            return job.run().estimate

        a = run(Cluster(n_nodes=5, block_size=1 << 20, seed=31))
        b = run(Cluster(n_nodes=5, block_size=1 << 20, seed=31))
        assert a == b


class TestEarlJobFallback:
    def test_tiny_input_runs_exact(self, cluster):
        small = numeric_dataset(400, "lognormal", seed=32)
        ds = load_numeric(cluster, "/small", small)
        job = EarlJob(cluster, ds.path, statistic="mean",
                      config=EarlConfig(sigma=0.01, seed=33))
        res = job.run()
        assert res.used_fallback
        assert res.estimate == pytest.approx(float(np.mean(small)), rel=1e-6)

    def test_empty_input_rejected(self, cluster):
        cluster.hdfs.write_lines("/void", [])
        job = EarlJob(cluster, "/void", statistic="mean",
                      config=EarlConfig(seed=34))
        with pytest.raises(ValueError):
            job.run()


class TestFaultTolerance:
    def test_survives_node_failures(self, cluster, dataset):
        """§3.4: approximate result + error bound despite lost nodes."""
        cluster.fail_node("node-0")
        cluster.fail_node("node-1")
        job = EarlJob(cluster, dataset.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=35))
        res = job.run()
        truth = dataset.truth["mean"]
        assert abs(res.estimate - truth) / truth < 0.2
        assert res.error < 1.0

    def test_stock_job_fails_when_data_lost(self, cluster, dataset):
        from repro.mapreduce import JobFailedError
        for node in list(cluster.nodes):
            cluster.fail_node(node.node_id)
        for node in cluster.nodes:
            node.recover()  # compute back, storage still gone
        with pytest.raises(JobFailedError):
            run_stock_job(cluster, dataset.path, "mean", seed=36)
