"""Cache-served vs scalar sampler equivalence.

The pre-map and post-map samplers read through the filesystem's split
cache whenever it can serve a split, and fall back to the scalar path
otherwise.  The reference here is the same sampler over a filesystem
whose cache never serves (the ``cacheless`` fixture).  For any seed the
two must agree *byte for byte*: the same sampled records in the same
order, the same internal counters, and the same :class:`CostLedger`
charges — category by category, to float equality — because the
batched path replays the exact sequence of simulated charges, not an
aggregate of them.  The reservoir sampler's batched draws are checked
against Algorithm R's draw-per-item loop.
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
    def test_batched_equals_scalar(self, seed, cacheless):
        lines = variable_lines(seed)
        targets = (30, 90, 400, 1000)
        c1 = make_cluster(lines)
        ref = drive_record_source(
            c1, PreMapSampler(cacheless(c1.hdfs), "/f"), seed, targets)
        c2 = make_cluster(lines)
        fast = drive_record_source(
            c2, PreMapSampler(c2.hdfs, "/f"), seed, targets)
        assert ref[0] == fast[0]       # records, per round, in order
        assert ref[1] == fast[1]       # ledger charges, per round
        assert ref[2] == fast[2]       # incremental sampled_count
        assert ref[3] == fast[3]       # RNG end state: same variates drawn

    @pytest.mark.parametrize("seed", range(4))
    def test_exhaustion_equivalence(self, seed, cacheless):
        """A nearly-fully-sampled split exhausts at the identical point."""
        lines = [f"{i:04d}" for i in range(15)]
        c1 = make_cluster(lines)
        ref = drive_record_source(
            c1, PreMapSampler(cacheless(c1.hdfs), "/f"), seed,
            (10, 50, 200))
        c2 = make_cluster(lines)
        fast = drive_record_source(
            c2, PreMapSampler(c2.hdfs, "/f"), seed, (10, 50, 200))
        assert ref == fast

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_cache_then_node_failure_equivalence(self, seed,
                                                      cacheless):
        """A failure after the cache is warm must not let the cached
        path serve where the scalar path raises: both fall back (or
        fail) identically, including the boundary-scan overrun windows."""
        from repro.hdfs import HDFS
        from repro.hdfs.errors import BlockUnavailableError

        def run(strip):
            fs = HDFS(n_datanodes=3, block_size=64, replication=1,
                      seed=9)
            fs.write_lines("/f", [f"{i:06d}" for i in range(300)])
            s = PreMapSampler(strip(fs), "/f", split_logical_bytes=400)
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

        assert run(cacheless) == run(lambda fs: fs)

    def test_fallback_acquires_once_per_read(self, cacheless):
        """A warm index whose region went unreadable is refused once per
        split read — the fallback probes never ask the cache again —
        and the fallback read is byte-identical to the cacheless one.

        Geometry: 8-byte lines, 4,048-byte blocks, split 0 =
        ``[0, 4000)`` whose region ends at byte 4008.  The cache's
        availability window reaches one 4,096-byte boundary-scan chunk
        past the region (to 8104), into block 2 (from 8096); the scalar
        probes of split 0 scan forward from line starts <= 3992, so they
        read blocks 0 and 1 only (to 8088).  Losing block 2 alone
        therefore refuses the index while every probe still succeeds.
        """
        from repro.hdfs import HDFS

        def run(strip):
            fs = HDFS(n_datanodes=4, block_size=4048, replication=1,
                      seed=2)
            fs.write_lines("/f", [f"{i:07d}" for i in range(2000)])
            blocks = fs.namenode.get("/f").blocks
            s = PreMapSampler(strip(fs), "/f", split_logical_bytes=4000)
            split = s.splits[0]
            rng = np.random.default_rng(5)
            s.set_total_target(40)
            warm = list(s.read(fs, split, CostLedger(), rng))
            (node,) = blocks[2].replicas
            fs.fail_datanode(node)
            assert [fs.block_available(b) for b in blocks[:3]] \
                == [True, True, False]
            s.set_total_target(800)
            ledger = CostLedger()
            before = fs.split_cache.stats.fallbacks
            out = list(s.read(fs, split, ledger, rng))
            return (warm, out, ledger.breakdown(), rng.bit_generator.state,
                    fs.split_cache.stats.fallbacks - before)

        ref, got = run(cacheless), run(lambda fs: fs)
        assert got[4] == 1
        assert len(got[1]) > 100  # many fallback probes, one refusal
        assert got[:4] == ref[:4]

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
    def test_cached_equals_scalar(self, seed, cacheless):
        lines = variable_lines(100 + seed, n=800)
        c1 = make_cluster(lines)
        ref = drive_record_source(
            c1, PostMapSampler(cacheless(c1.hdfs), "/f"), seed,
            (20, 120, 600))
        c2 = make_cluster(lines)
        fast = drive_record_source(
            c2, PostMapSampler(c2.hdfs, "/f"), seed, (20, 120, 600))
        assert ref == fast


def algorithm_r(items, k, seed):
    """Vitter's Algorithm R, one scalar draw per item (the oracle)."""
    rng = np.random.default_rng(seed)
    reservoir = list(items[:k])
    for i in range(k, len(items)):
        j = int(rng.integers(0, i + 1))
        if j < k:
            reservoir[j] = items[i]
    return reservoir


class TestBlockSamplingEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_equals_scalar(self, seed, cacheless):
        lines = [f"{i:06d}\t{i % 13}" for i in range(2000)]
        c1 = make_cluster(lines, block_size=1024)
        l1 = c1.new_ledger()
        ref = sample_blocks(cacheless(c1.hdfs), "/f", 300, seed=seed,
                            ledger=l1)
        c2 = make_cluster(lines, block_size=1024)
        l2 = c2.new_ledger()
        fast = sample_blocks(c2.hdfs, "/f", 300, seed=seed, ledger=l2)
        assert ref == fast
        assert l1.breakdown() == l2.breakdown()


class TestReservoirEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,k", [(10, 5), (1000, 32), (5000, 100),
                                     (3, 10)])
    def test_batched_equals_scalar(self, seed, n, k):
        items = [f"item-{i}" for i in range(n)]
        assert reservoir_sample(items, k, seed=seed) \
            == algorithm_r(items, k, seed)
