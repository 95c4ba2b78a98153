"""Tests for the FaultPolicy recovery layer of the MapReduce engine."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.mapreduce import (
    FaultPolicy,
    JobClient,
    JobConf,
    JobFailedError,
    Mapper,
    MeanReducer,
    ProjectionMapper,
    Reducer,
    SumReducer,
    TaskFailedError,
)
from repro.mapreduce import counters as C
from repro.mapreduce.job import ON_UNAVAILABLE_SKIP


class FlakyMapper(Mapper):
    """Projection mapper that fails the first ``fail_attempts[i]``
    attempts of map task ``i`` (deterministic fault injection)."""

    parallel_safe = True

    def __init__(self, fail_attempts=None):
        self.fail_attempts = dict(fail_attempts or {})

    def map(self, key, value, ctx):
        index = int(ctx.task_id.split("-", 1)[1])
        if ctx.attempt < self.fail_attempts.get(index, 0):
            raise TaskFailedError(
                f"injected failure: {ctx.task_id} attempt {ctx.attempt}")
        yield None, float(value)


class FailingReducer(Reducer):
    """Reducer whose reduce task 0 fails every attempt."""

    def reduce(self, key, values, ctx):
        if ctx.task_id == "reduce-0":
            raise TaskFailedError(f"injected failure: {ctx.task_id}")
        yield key, len(values)


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(n_nodes=5, block_size=2048, replication=2, seed=3)


@pytest.fixture
def loaded(cluster):
    values = np.random.default_rng(4).normal(50.0, 5.0, 3000)
    lines = [f"{v:.6f}" for v in values]
    cluster.hdfs.write_lines("/in", lines)
    return lines


def mean_conf(mapper, policy=None, seed=1, **kwargs):
    return JobConf(name="mean", input_path="/in", mapper=mapper,
                   reducer=MeanReducer(), seed=seed, fault_policy=policy,
                   **kwargs)


class TestRetries:
    def test_retry_recovers_flaky_tasks(self, cluster, loaded):
        clean = JobClient(cluster).run(mean_conf(FlakyMapper()))
        policy = FaultPolicy(max_task_retries=3)
        result = JobClient(cluster).run(
            mean_conf(FlakyMapper({0: 2, 2: 1}), policy))
        assert result.output == clean.output
        assert result.counters[C.TASK_RETRIES] == 3
        assert result.counters[C.FAILED_TASKS] == 3
        assert result.input_fraction == 1.0
        # wasted attempts and backoff waits are charged, not free
        assert result.breakdown["startup"] > clean.breakdown["startup"]

    def test_retries_exhausted_fails_job(self, cluster, loaded):
        policy = FaultPolicy(max_task_retries=2)
        with pytest.raises(JobFailedError, match="failed after 3 attempts"):
            JobClient(cluster).run(mean_conf(FlakyMapper({1: 99}), policy))

    def test_reduce_retries_exhausted_names_the_reduce_task(self, cluster,
                                                            loaded):
        conf = JobConf(name="count", input_path="/in",
                       mapper=ProjectionMapper(), reducer=FailingReducer(),
                       seed=1, fault_policy=FaultPolicy(max_task_retries=2))
        with pytest.raises(JobFailedError,
                           match="reduce task 0 failed after 3 attempts"):
            JobClient(cluster).run(conf)

    def test_no_policy_propagates_first_failure(self, cluster, loaded):
        with pytest.raises(TaskFailedError):
            JobClient(cluster).run(mean_conf(FlakyMapper({1: 1})))

    def test_faulted_run_is_deterministic(self, cluster, loaded):
        policy = FaultPolicy(max_task_retries=3)

        def run():
            r = JobClient(cluster).run(
                mean_conf(FlakyMapper({0: 2, 2: 1}), policy))
            return r.output, r.simulated_seconds, r.breakdown

        assert run() == run()

    def test_backoff_schedule_is_capped(self):
        policy = FaultPolicy(max_task_retries=8, retry_backoff_seconds=2.0,
                             backoff_factor=3.0, max_backoff_seconds=10.0)
        assert policy.backoff(0) == 2.0
        assert policy.backoff(1) == 6.0
        assert policy.backoff(2) == 10.0
        assert policy.backoff(7) == 10.0


class TestByteIdentity:
    def test_disabled_policy_is_byte_identical(self, cluster, loaded):
        def run(policy):
            conf = JobConf(name="mean", input_path="/in",
                           mapper=ProjectionMapper(), reducer=MeanReducer(),
                           seed=9, fault_policy=policy)
            r = JobClient(cluster).run(conf)
            return r.output, r.simulated_seconds, r.breakdown, \
                r.counters.as_dict()

        baseline = run(None)
        assert run(FaultPolicy()) == baseline
        # enabled policy with zero faults firing is also identical
        assert run(FaultPolicy.resilient()) == baseline

    def test_enabled_policy_zero_faults_grouped(self, cluster):
        lines = [f"k{i % 7}\t{float(i)}" for i in range(700)]
        cluster.hdfs.write_lines("/keyed", lines)

        def run(policy):
            conf = JobConf(name="sum", input_path="/keyed",
                           mapper=ProjectionMapper(), reducer=SumReducer(),
                           n_reducers=3, seed=2, fault_policy=policy)
            r = JobClient(cluster).run(conf)
            return r.output, r.simulated_seconds

        assert run(FaultPolicy(max_task_retries=5, blacklist_after=1,
                               speculative=True)) == run(None)


class TestBlacklisting:
    def test_repeated_failures_blacklist_a_node(self, cluster, loaded):
        policy = FaultPolicy(max_task_retries=4, blacklist_after=3)
        client = JobClient(cluster)
        result = client.run(mean_conf(FlakyMapper({0: 3}), policy))
        assert result.counters[C.BLACKLISTED_NODES] == 1
        assert len(client.blacklisted_nodes) == 1
        # the blacklisted machine stops contributing slots
        blacklisted = next(iter(client.blacklisted_nodes))
        assert client._slots_excluding(client.blacklisted_nodes,
                                       reduce_side=False) \
            < cluster.total_map_slots
        assert blacklisted in {n.node_id for n in cluster.nodes}

    def test_blacklist_never_empties_the_cluster(self, cluster, loaded):
        policy = FaultPolicy(max_task_retries=4, blacklist_after=1)
        client = JobClient(cluster)
        client.blacklisted_nodes = {n.node_id for n in cluster.nodes}
        result = client.run(mean_conf(FlakyMapper(), policy))
        assert result.simulated_seconds > 0


class TestSpeculation:
    def test_speculative_execution_caps_stragglers(self, cluster, loaded):
        cluster.set_slow_node("node-1", 8.0)
        slow = JobClient(cluster).run(
            mean_conf(FlakyMapper(), FaultPolicy(max_task_retries=1)))
        spec = JobClient(cluster).run(
            mean_conf(FlakyMapper(),
                      FaultPolicy(max_task_retries=1, speculative=True)))
        assert spec.output == slow.output
        assert spec.counters[C.SPECULATIVE_TASKS] >= 1
        assert spec.simulated_seconds < slow.simulated_seconds
        # the duplicate attempts are charged to the breakdown
        assert spec.breakdown["startup"] > slow.breakdown["startup"]

    def test_recover_clears_slow_factor(self, cluster):
        cluster.set_slow_node("node-1", 4.0)
        cluster.recover_node("node-1")
        assert cluster.slow_factors == {}


class TestSalvage:
    def _lossy_env(self):
        cluster = Cluster(n_nodes=4, block_size=512, replication=1, seed=11)
        values = np.random.default_rng(12).normal(50.0, 5.0, 4000)
        cluster.hdfs.write_lines("/in", [f"{v:.6f}" for v in values])
        # replication=1: losing one machine loses ~1/4 of the blocks,
        # so some splits lose their over-read tail mid-task.
        cluster.fail_node("node-2")
        return cluster

    def test_salvage_keeps_partial_splits(self):
        cluster = self._lossy_env()
        skip = JobClient(cluster).run(mean_conf(
            FlakyMapper(), None, on_unavailable=ON_UNAVAILABLE_SKIP))
        cluster2 = self._lossy_env()
        salvage = JobClient(cluster2).run(mean_conf(
            FlakyMapper(), FaultPolicy(salvage_partial_splits=True),
            on_unavailable=ON_UNAVAILABLE_SKIP))
        assert salvage.counters[C.SALVAGED_SPLITS] >= 1
        # salvaged prefixes recover records the skip policy threw away
        assert salvage.counters[C.MAP_OUTPUT_RECORDS] \
            > skip.counters[C.MAP_OUTPUT_RECORDS]
        assert salvage.input_fraction > skip.input_fraction
        assert 0.0 < salvage.input_fraction < 1.0

    def test_salvage_disabled_matches_skip(self):
        cluster = self._lossy_env()
        skip = JobClient(cluster).run(mean_conf(
            FlakyMapper(), None, on_unavailable=ON_UNAVAILABLE_SKIP))
        cluster2 = self._lossy_env()
        off = JobClient(cluster2).run(mean_conf(
            FlakyMapper(), FaultPolicy(max_task_retries=2),
            on_unavailable=ON_UNAVAILABLE_SKIP))
        assert off.output == skip.output
        assert off.input_fraction == skip.input_fraction


class TestReplicaFailover:
    def test_failover_reads_are_counted(self):
        cluster = Cluster(n_nodes=4, block_size=512, replication=2, seed=11)
        values = np.random.default_rng(12).normal(50.0, 5.0, 2000)
        cluster.hdfs.write_lines("/in", [f"{v:.6f}" for v in values])
        cluster.fail_node("node-1")
        assert cluster.hdfs.available_fraction("/in") == 1.0
        result = JobClient(cluster).run(mean_conf(FlakyMapper()))
        assert result.input_fraction == 1.0
        assert cluster.hdfs.failover_reads >= 1
