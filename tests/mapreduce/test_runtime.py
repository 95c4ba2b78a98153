"""Tests for the MapReduce execution engine."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.hdfs.record_reader import LineRecordReader
from repro.mapreduce import (
    JobClient,
    JobConf,
    JobFailedError,
    Mapper,
    MeanReducer,
    ProjectionMapper,
    SumReducer,
    estimate_pair_bytes,
    stable_hash,
)
from repro.mapreduce import counters as C
from repro.mapreduce.job import ON_UNAVAILABLE_SKIP
from repro.mapreduce.runtime import (
    FullScanSource,
    _execute_map_task,
    _MapTaskArgs,
)

#: Keys that are equal but route by different reprs (0.0 / -0.0;
#: 1 / 1.0 / True / np.int64(1)), and an equal str that is a different
#: object: a routing memo keyed by bare equality would send some of
#: them to the wrong reducer.
JOINED = "".join(["k", "ey"])
EDGE_KEYS = ["key", JOINED, 1, 1.0, True, np.int64(1), 0.0, -0.0, (0.0,),
             (-0.0,)]


class EdgeKeyMapper(Mapper):
    """Emits the edge keys interleaved and repeated; odd records yield
    ``[key, value]`` lists instead of tuples."""

    def map(self, key, value, ctx):
        i = int(float(value.partition("\t")[2]))
        for j in (i, i + 3, i + 7, i + 3):
            pair = (EDGE_KEYS[j % len(EDGE_KEYS)], float(i))
            yield list(pair) if i % 2 else pair


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(n_nodes=5, block_size=2048, replication=2, seed=3)


@pytest.fixture
def values():
    return np.random.default_rng(4).normal(50.0, 5.0, 3000)


@pytest.fixture
def loaded(cluster, values):
    lines = [f"{v:.6f}" for v in values]
    cluster.hdfs.write_lines("/in", lines)
    return lines


class TestBasicExecution:
    def test_mean_job_exact(self, cluster, values, loaded):
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       seed=1)
        result = JobClient(cluster).run(conf)
        parsed = [float(l) for l in loaded]
        assert result.single_value() == pytest.approx(np.mean(parsed))

    def test_counters(self, cluster, loaded):
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       seed=1)
        result = JobClient(cluster).run(conf)
        assert result.counters[C.MAP_INPUT_RECORDS] == len(loaded)
        assert result.counters[C.MAP_OUTPUT_RECORDS] == len(loaded)
        assert result.counters[C.REDUCE_INPUT_GROUPS] == 1
        assert result.counters[C.REDUCE_OUTPUT_RECORDS] == 1

    def test_deterministic_across_runs(self, cluster, loaded):
        def run():
            conf = JobConf(name="mean", input_path="/in",
                           mapper=ProjectionMapper(), reducer=MeanReducer(),
                           seed=9)
            return JobClient(cluster).run(conf).output
        assert run() == run()

    @pytest.mark.parametrize("mapper, n_reducers", [
        (ProjectionMapper(), 3), (EdgeKeyMapper(), 7)],
        ids=["keyed-lines", "edge-keys"])
    def test_multiple_reducers_partition_keys(self, cluster, mapper,
                                              n_reducers):
        assert JOINED == EDGE_KEYS[0] and JOINED is not EDGE_KEYS[0]
        lines = [f"k{i % 7}\t{float(i)}" for i in range(700)]
        cluster.hdfs.write_lines("/keyed", lines, logical_scale=3.7)
        conf = JobConf(name="sum", input_path="/keyed", mapper=mapper,
                       reducer=SumReducer(), n_reducers=n_reducers, seed=2)
        # Map side: every pair is routed to stable_hash(key) % n, each
        # partition holds its values as lists grouped by equal key in
        # pair order (under the first key seen, as a reducer groups
        # them), and each partition's bytes and records are the
        # per-pair estimates summed in pair order.
        expected = {}
        for split in cluster.hdfs.get_splits("/keyed"):
            task = _execute_map_task(_MapTaskArgs(
                fs=cluster.hdfs, ledger=cluster.new_ledger(), conf=conf,
                source=FullScanSource(), split=split,
                rng=np.random.default_rng(0), record_scale=3.7,
                warm_start=False))
            groups = [{} for _ in range(n_reducers)]
            nbytes = [0.0] * n_reducers
            nrecords = [0.0] * n_reducers
            for offset, line in LineRecordReader(
                    cluster.hdfs, split).read_records():
                for key, value in mapper.map(offset, line, None):
                    p = stable_hash(key) % n_reducers
                    groups[p].setdefault(key, []).append(value)
                    nbytes[p] += estimate_pair_bytes(key, value) * 3.7
                    nrecords[p] += 3.7
                    # A reducer groups its equal keys under the first.
                    expected[(p, key)] = expected.get((p, key), 0.0) + value
            for p, got in enumerate(task.partitions):
                assert type(got) is dict
                for key, values in got.items():
                    assert type(values) is list
                    assert stable_hash(key) % n_reducers == p
                assert [(repr(k), v) for k, v in got.items()] \
                    == [(repr(k), v) for k, v in groups[p].items()]
                assert task.partition_bytes[p] == nbytes[p]
                assert task.partition_records[p] == nrecords[p]
        # Reduce side: one sum per group of equal keys in a partition.
        result = JobClient(cluster).run(conf)
        assert sorted((repr(k), v) for k, v in result.output) == sorted(
            (repr(k), v) for (_, k), v in expected.items())
        if isinstance(mapper, ProjectionMapper):  # and from the input
            grouped = result.grouped()
            assert len(grouped) == 7
            for key, sums in grouped.items():
                i0 = int(key[1:])
                expected_sum = sum(float(i) for i in range(700)
                                   if i % 7 == i0)
                assert sums[0] == pytest.approx(expected_sum)

    def test_combiner_reduces_shuffle(self, cluster, loaded):
        no_comb = JobConf(name="sum", input_path="/in",
                          mapper=ProjectionMapper(), reducer=SumReducer(),
                          seed=1)
        with_comb = JobConf(name="sum", input_path="/in",
                            mapper=ProjectionMapper(), reducer=SumReducer(),
                            combiner=SumReducer(), seed=1)
        client = JobClient(cluster)
        r1 = client.run(no_comb)
        r2 = client.run(with_comb)
        assert r1.single_value() == pytest.approx(r2.single_value())
        assert r2.breakdown["network"] < r1.breakdown["network"]


class TestCostAccounting:
    def test_simulated_time_positive(self, cluster, loaded):
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       seed=1)
        result = JobClient(cluster).run(conf)
        assert result.simulated_seconds > 0
        assert result.breakdown["startup"] > 0

    def test_local_mode_skips_startup(self, cluster, loaded):
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       local_mode=True, seed=1)
        result = JobClient(cluster).run(conf)
        assert result.breakdown["startup"] == 0.0

    def test_warm_start_skips_startup(self, cluster, loaded):
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       seed=1)
        client = JobClient(cluster)
        cold = client.run(conf)
        warm = client.run(conf, warm_start=True)
        assert warm.breakdown["startup"] == 0.0
        assert warm.simulated_seconds < cold.simulated_seconds

    def test_logical_scale_multiplies_costs(self, cluster, values):
        lines = [f"{v:.6f}" for v in values]
        cluster.hdfs.write_lines("/small", lines, logical_scale=1.0)
        cluster.hdfs.write_lines("/big", lines, logical_scale=100.0)
        client = JobClient(cluster)

        def run(path):
            conf = JobConf(name="mean", input_path=path,
                           mapper=ProjectionMapper(), reducer=MeanReducer(),
                           seed=1)
            return client.run(conf)

        small, big = run("/small"), run("/big")
        assert big.breakdown["disk_read"] > 50 * small.breakdown["disk_read"]
        assert big.single_value() == pytest.approx(small.single_value())

    def test_more_map_tasks_for_larger_logical_file(self, cluster, values):
        lines = [f"{v:.6f}" for v in values]
        cluster.hdfs.write_lines("/scaled", lines, logical_scale=50.0)
        conf = JobConf(name="mean", input_path="/scaled",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       split_logical_bytes=2048 * 50, seed=1)
        result = JobClient(cluster).run(conf)
        base_conf = JobConf(name="mean", input_path="/scaled",
                            mapper=ProjectionMapper(), reducer=MeanReducer(),
                            split_logical_bytes=2048 * 50 * 50, seed=1)
        base = JobClient(cluster).run(base_conf)
        assert result.map_tasks > base.map_tasks


class TestFailureHandling:
    def _kill_everything(self, cluster):
        for node in cluster.nodes:
            cluster.fail_node(node.node_id)
        # bring back compute (not storage) so the job has slots:
        for node in cluster.nodes:
            node.recover()

    def test_fail_policy_raises(self, cluster, loaded):
        self._kill_everything(cluster)
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       seed=1)
        with pytest.raises(JobFailedError):
            JobClient(cluster).run(conf)

    def test_skip_policy_counts_lost_input(self, cluster, loaded):
        self._kill_everything(cluster)
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       on_unavailable=ON_UNAVAILABLE_SKIP, seed=1)
        result = JobClient(cluster).run(conf)
        assert result.input_fraction == 0.0
        assert result.counters[C.SKIPPED_SPLITS] == result.map_tasks

    def test_partial_failure_partial_result(self, cluster, loaded):
        # fail two nodes; replication=2 over 5 nodes usually loses little
        cluster.fail_node("node-0")
        cluster.fail_node("node-1")
        conf = JobConf(name="mean", input_path="/in",
                       mapper=ProjectionMapper(), reducer=MeanReducer(),
                       on_unavailable=ON_UNAVAILABLE_SKIP, seed=1)
        result = JobClient(cluster).run(conf)
        assert 0.0 <= result.input_fraction <= 1.0


class TestJobValidation:
    def test_bad_reducer_count(self):
        with pytest.raises(Exception):
            JobConf(name="x", input_path="/in", mapper=ProjectionMapper(),
                    reducer=MeanReducer(), n_reducers=0)

    def test_bad_policy(self):
        with pytest.raises(Exception):
            JobConf(name="x", input_path="/in", mapper=ProjectionMapper(),
                    reducer=MeanReducer(), on_unavailable="explode")

    def test_single_value_requires_single_output(self, cluster):
        lines = [f"k{i % 3}\t1.0" for i in range(30)]
        cluster.hdfs.write_lines("/multi", lines)
        conf = JobConf(name="sum", input_path="/multi",
                       mapper=ProjectionMapper(), reducer=SumReducer(),
                       seed=1)
        result = JobClient(cluster).run(conf)
        with pytest.raises(ValueError):
            result.single_value()
