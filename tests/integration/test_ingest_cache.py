"""Integration tests for the columnar ingest plane on the full driver.

Pins two system-level claims:

* an :class:`EarlJob` run is byte-identical — estimates, iteration
  records, simulated seconds — whether ingest goes through the
  columnar cache or, on a filesystem whose cache never serves, the
  scalar path; and
* expansion iteration >= 2 performs **zero re-parse** of already-cached
  splits (M3R-style reuse across the jobs of an iterative driver),
  asserted through the cache counters and the per-iteration ledger.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import EarlConfig, EarlJob, bootstrap_file, run_stock_job
from repro.sampling.postmap import PostMapSampler
from repro.sampling.premap import PreMapSampler
from repro.streaming import SessionManager
from repro.workloads import load_stand_in


def multi_iteration_config(seed, **overrides):
    base = dict(sigma=0.05, seed=seed, B_override=25, n_override=64,
                expansion_factor=2.0, max_iterations=8)
    base.update(overrides)
    return EarlConfig(**base)


def make_env(seed=90):
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed)
    ds = load_stand_in(cluster, "/data/p", logical_gb=20.0,
                       records=50_000, seed=seed + 1)
    return cluster, ds


class TestCachedJobEquivalence:
    @pytest.mark.parametrize("sampler", ["premap", "postmap"])
    def test_earl_job_byte_identical_cache_on_or_off(self, sampler,
                                                     cacheless):
        results = []
        for strip in (lambda fs: fs, cacheless):
            cluster, ds = make_env()
            strip(cluster.hdfs)
            cfg = multi_iteration_config(3, sampler=sampler)
            results.append(EarlJob(cluster, ds.path, statistic="mean",
                                   config=cfg).run())
        cached, scalar = results
        assert cached.estimate == scalar.estimate
        assert cached.error == scalar.error
        assert cached.n == scalar.n
        assert cached.simulated_seconds == scalar.simulated_seconds
        assert [(it.iteration, it.sample_size, it.simulated_seconds)
                for it in cached.iterations] \
            == [(it.iteration, it.sample_size, it.simulated_seconds)
                for it in scalar.iterations]


class TestZeroReparseAcrossIterations:
    def test_premap_expansion_reuses_cached_splits(self):
        cluster, ds = make_env()
        cache = cluster.hdfs.split_cache
        job = EarlJob(cluster, ds.path, statistic="mean",
                      config=multi_iteration_config(4))
        snapshots = list(job.stream())
        assert len(snapshots) >= 3  # several expansion iterations ran
        # Every split the sampler owns was indexed exactly once for the
        # whole run: the pilot materialized them, and no expansion
        # iteration re-parsed any split (pilot + loop share the fs cache).
        n_splits = len(job.last_sampler.splits)
        assert cache.stats.materializations == n_splits
        assert cache.stats.hits > 0

    def test_iteration_ledgers_show_no_rescan(self):
        """Ledger view of the same claim, per sampler, per iteration.

        A fresh ledger is handed to every expansion iteration of the
        driver loop; from iteration 2 on its ``disk_read`` charge must
        be probe-sized (pre-map) or exactly zero (post-map) — re-parsing
        even one already-cached split would show up as a split-sized
        sequential read.
        """
        cluster, ds = make_env(seed=77)
        fs = cluster.hdfs
        full_scan = (fs.logical_size(ds.path)
                     / cluster.cost_params.disk_bandwidth)

        pre = PreMapSampler(fs, ds.path)
        per_split_scan = full_scan / len(pre.splits)
        rng = np.random.default_rng(1)
        for iteration, target in enumerate((64, 128, 256, 512), start=1):
            pre.set_total_target(target)
            ledger = cluster.new_ledger()
            for split in pre.splits:
                for _ in pre.read(fs, split, ledger, rng):
                    pass
            # every iteration touches only its delta's lines: far less
            # sequential I/O than re-parsing a single split
            assert ledger.seconds("disk_read") < per_split_scan / 4

        post = PostMapSampler(fs, ds.path)
        rng = np.random.default_rng(2)
        for iteration, target in enumerate((64, 128, 256, 512), start=1):
            post.set_total_target(target)
            ledger = cluster.new_ledger()
            for split in post.splits:
                for _ in post.read(fs, split, ledger, rng):
                    pass
            if iteration == 1:
                # Algorithm 1 loads everything once: a full scan
                assert ledger.seconds("disk_read") \
                    == pytest.approx(full_scan, rel=0.05)
            else:
                # expansions release cached pairs: zero re-parse
                assert ledger.seconds("disk_read") == 0.0
                assert ledger.seconds("disk_seek") == 0.0

    def test_materializations_frozen_between_iterations(self):
        cluster, ds = make_env(seed=55)
        cache = cluster.hdfs.split_cache
        job = EarlJob(cluster, ds.path, statistic="mean",
                      config=multi_iteration_config(6))
        per_iteration = []
        for snapshot in job.stream():
            per_iteration.append(cache.stats.materializations)
        assert len(per_iteration) >= 3
        # iteration >= 2: zero new parses, strictly cache hits
        assert all(m == per_iteration[0] for m in per_iteration[1:])


class TestColumnarIngestEntryPoints:
    def test_bootstrap_file_matches_in_memory_bootstrap(self):
        from repro.core import bootstrap

        cluster = Cluster(n_nodes=3, block_size=4096, seed=10)
        values = np.random.default_rng(2).lognormal(0, 1, 2000)
        cluster.hdfs.write_lines("/b", [f"{float(v)}" for v in values])
        res_file = bootstrap_file(cluster.hdfs, "/b", "mean", B=25, seed=9)
        res_mem = bootstrap(values, "mean", B=25, seed=9)
        assert np.array_equal(res_file.estimates, res_mem.estimates)

    def test_blank_lines_accepted_like_stock_job(self):
        cluster = Cluster(n_nodes=3, block_size=4096, seed=10)
        cluster.hdfs.write_text("/b", "".join(
            f"{i}.5\n" + ("\n" if i % 7 == 0 else "") for i in range(2000)))
        exact, _ = run_stock_job(cluster, "/b", "mean")
        res = bootstrap_file(cluster.hdfs, "/b", "mean", B=10, seed=1)
        assert res.n == 2000
        assert res.point_estimate == pytest.approx(exact, rel=1e-12)
        mgr = SessionManager.from_hdfs(
            cluster.hdfs, "/b", config=EarlConfig(sigma=0.05, seed=1))
        mgr.submit("mean")
        assert mgr.run()["mean"].estimate == pytest.approx(exact, rel=0.1)

    def test_repeated_bootstraps_parse_once(self):
        cluster = Cluster(n_nodes=3, block_size=4096, seed=10)
        cluster.hdfs.write_lines("/b", [f"{i}" for i in range(5000)])
        bootstrap_file(cluster.hdfs, "/b", "mean", B=10, seed=1)
        built = cluster.hdfs.split_cache.stats.materializations
        bootstrap_file(cluster.hdfs, "/b", "p95", B=10, seed=2)
        bootstrap_file(cluster.hdfs, "/b", "std", B=10, seed=3)
        assert cluster.hdfs.split_cache.stats.materializations == built

    def test_session_manager_from_hdfs(self):
        cluster = Cluster(n_nodes=3, block_size=8192, seed=11)
        data = np.random.default_rng(4).lognormal(0, 1, 30_000)
        cluster.hdfs.write_lines("/s", [f"{float(v)}" for v in data])
        mgr = SessionManager.from_hdfs(
            cluster.hdfs, "/s", config=EarlConfig(sigma=0.05, seed=1))
        mgr.submit("mean")
        mgr.submit("p90", sigma=0.1)
        results = mgr.run()
        assert set(results) == {"mean", "p90"}
        assert all(r is not None and r.achieved for r in results.values())
        # a second session over the same file re-parses nothing
        built = cluster.hdfs.split_cache.stats.materializations
        mgr2 = SessionManager.from_hdfs(
            cluster.hdfs, "/s", config=EarlConfig(sigma=0.05, seed=2))
        mgr2.submit("mean")
        mgr2.run()
        assert cluster.hdfs.split_cache.stats.materializations == built
