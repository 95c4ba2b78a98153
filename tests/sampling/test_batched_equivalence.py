"""Batched/cached vs scalar sampler equivalence (the PR's contract).

Every sampler in this package has a scalar reference implementation and
a batched (or cache-served) fast path.  For any seed the two must agree
*byte for byte*: the same sampled records in the same order, the same
internal counters, and the same :class:`CostLedger` charges — category
by category, to float equality — because the batched paths replay the
exact sequence of simulated charges, not an aggregate of them.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.costmodel import CostLedger
from repro.sampling.block_sampling import sample_blocks
from repro.sampling.postmap import PostMapSampler
from repro.sampling.premap import PreMapSampler
from repro.sampling.reservoir import reservoir_sample


def make_cluster(lines, block_size=512, seed=8):
    cluster = Cluster(n_nodes=4, block_size=block_size, replication=2,
                      seed=seed)
    cluster.hdfs.write_lines("/f", lines)
    return cluster


def variable_lines(seed, n=1200):
    rng = np.random.default_rng(seed)
    return ["" if rng.integers(0, 12) == 0
            else "v" * int(rng.integers(1, 30)) + f"-{i}"
            for i in range(n)]


def drive_record_source(cluster, sampler, seed, targets):
    """Run a stateful record source through several expansion rounds."""
    rng = np.random.default_rng(seed)
    rounds, ledgers = [], []
    for target in targets:
        sampler.set_total_target(target)
        ledger = cluster.new_ledger()
        got = []
        for split in sampler.splits:
            got.extend(sampler.read(cluster.hdfs, split, ledger, rng))
        rounds.append(got)
        ledgers.append(ledger.breakdown())
    return rounds, ledgers, sampler.sampled_count, rng.bit_generator.state


class TestPreMapEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_equals_scalar(self, seed):
        lines = variable_lines(seed)
        targets = (30, 90, 400, 1000)
        c1 = make_cluster(lines)
        ref = drive_record_source(
            c1, PreMapSampler(c1.hdfs, "/f", batched=False), seed, targets)
        c2 = make_cluster(lines)
        fast = drive_record_source(
            c2, PreMapSampler(c2.hdfs, "/f", batched=True), seed, targets)
        assert ref[0] == fast[0]       # records, per round, in order
        assert ref[1] == fast[1]       # ledger charges, per round
        assert ref[2] == fast[2]       # incremental sampled_count
        assert ref[3] == fast[3]       # RNG end state: same variates drawn

    @pytest.mark.parametrize("seed", range(4))
    def test_exhaustion_equivalence(self, seed):
        """A nearly-fully-sampled split exhausts at the identical point."""
        lines = [f"{i:04d}" for i in range(15)]
        c1 = make_cluster(lines)
        ref = drive_record_source(
            c1, PreMapSampler(c1.hdfs, "/f", batched=False), seed,
            (10, 50, 200))
        c2 = make_cluster(lines)
        fast = drive_record_source(
            c2, PreMapSampler(c2.hdfs, "/f", batched=True), seed,
            (10, 50, 200))
        assert ref == fast

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_cache_then_node_failure_equivalence(self, seed):
        """A failure after the cache is warm must not let the cached
        path serve where the scalar path raises: both fall back (or
        fail) identically, including the boundary-scan overrun windows."""
        from repro.hdfs import HDFS
        from repro.hdfs.errors import BlockUnavailableError

        def run(batched):
            fs = HDFS(n_datanodes=3, block_size=64, replication=1,
                      seed=9)
            fs.write_lines("/f", [f"{i:06d}" for i in range(300)])
            s = PreMapSampler(fs, "/f", batched=batched,
                              split_logical_bytes=400)
            rng = np.random.default_rng(seed)
            s.set_total_target(40)
            warm = []
            for sp in s.splits:
                warm.extend(s.read(fs, sp, CostLedger(), rng))
            fs.fail_datanode("datanode-0")
            s.set_total_target(120)
            ledger = CostLedger()
            out, err = [], None
            for sp in s.splits:
                try:
                    out.extend(s.read(fs, sp, ledger, rng))
                except BlockUnavailableError:
                    err = True
                    break
            return warm, out, err, ledger.breakdown(), \
                rng.bit_generator.state

        assert run(False) == run(True)

    def test_incremental_sampled_count_matches_sets(self):
        c = make_cluster(variable_lines(7))
        sampler = PreMapSampler(c.hdfs, "/f")
        sampler.set_total_target(300)
        rng = np.random.default_rng(1)
        got = []
        for split in sampler.splits:
            got.extend(sampler.read(c.hdfs, split, c.new_ledger(), rng))
        assert sampler.sampled_count == len(got) \
            == sum(len(v) for v in sampler._included.values())


class TestPostMapEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_equals_scalar(self, seed):
        lines = variable_lines(100 + seed, n=800)
        c1 = make_cluster(lines)
        ref = drive_record_source(
            c1, PostMapSampler(c1.hdfs, "/f", cached=False), seed,
            (20, 120, 600))
        c2 = make_cluster(lines)
        fast = drive_record_source(
            c2, PostMapSampler(c2.hdfs, "/f", cached=True), seed,
            (20, 120, 600))
        assert ref == fast


class TestBlockSamplingEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_equals_scalar(self, seed):
        lines = [f"{i:06d}\t{i % 13}" for i in range(2000)]
        c1 = make_cluster(lines, block_size=1024)
        l1 = c1.new_ledger()
        ref = sample_blocks(c1.hdfs, "/f", 300, seed=seed, ledger=l1,
                            cached=False)
        c2 = make_cluster(lines, block_size=1024)
        l2 = c2.new_ledger()
        fast = sample_blocks(c2.hdfs, "/f", 300, seed=seed, ledger=l2,
                             cached=True)
        assert ref == fast
        assert l1.breakdown() == l2.breakdown()

    def test_repeat_samples_hit_cache(self):
        c = make_cluster([f"{i}" for i in range(3000)], block_size=1024)
        # quota large enough to touch most blocks every trial
        sample_blocks(c.hdfs, "/f", 2500, seed=0)
        built = c.hdfs.split_cache.stats.block_materializations
        assert built >= 2
        sample_blocks(c.hdfs, "/f", 2500, seed=0)
        assert c.hdfs.split_cache.stats.block_materializations == built
        assert c.hdfs.split_cache.stats.block_hits >= built


class TestReservoirEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,k", [(10, 5), (1000, 32), (5000, 100),
                                     (3, 10)])
    def test_batched_equals_scalar(self, seed, n, k):
        items = [f"item-{i}" for i in range(n)]
        ref = reservoir_sample(items, k, seed=seed, batched=False)
        fast = reservoir_sample(items, k, seed=seed, batched=True)
        assert ref == fast
