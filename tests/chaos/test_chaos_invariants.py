"""Chaos-harness invariants (§3.4 degrade-don't-die, end to end):

* zero-fault runs are byte-identical to undriven runs on every
  executor backend, and no pool executor leaks;
* any single sample loss leaves bounds valid over the survivors;
* every query a SessionManager accepted finalizes exactly once;
* node kills mid-job salvage and finish instead of dying;
* the service keeps its event sequence contiguous (zero event loss)
  while a session degrades under it.

The long randomized sweeps are marked ``chaos`` and deselected from
the default tier-1 run (``make test-all`` includes them).
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    KIND_KILL_NODES,
    KIND_LOSS,
    KIND_RECOVER,
    ChaosDriver,
    ChaosEvent,
    ChaosSchedule,
)
from repro.cluster import Cluster
from repro.core import EarlConfig, EarlJob, EarlSession
from repro.core.grouped import GroupedEarlSession, Measure
from repro.exec.executor import available_executors, live_pool_executors
from repro.service import STATE_DONE, ApproxQueryService, LocalClient
from repro.streaming import SessionManager
from repro.workloads import load_stand_in


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(7).lognormal(0.0, 1.0, 120_000)


@pytest.fixture(scope="module")
def grouped_table():
    rng = np.random.default_rng(8)
    keys = rng.choice(["a", "b", "c"], size=120_000, p=[0.6, 0.3, 0.1])
    vals = rng.lognormal(3.0, 1.0, 120_000)
    return keys, vals


def run(coro, timeout=60.0):
    # A chaos bug that hangs a session must fail the test, not CI.
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestZeroFaultByteIdentity:
    @pytest.mark.parametrize("backend", sorted(available_executors()))
    def test_empty_schedule_is_transparent(self, data, backend):
        cfg = EarlConfig(sigma=0.05, seed=3, executor=backend)
        report = ChaosDriver(ChaosSchedule.none()).run_session(
            EarlSession(data, "mean", config=cfg))
        reference = EarlSession(data, "mean", config=cfg).run()
        assert report.fired == [] and not report.degraded
        result = report.final.result
        assert result.estimate == reference.estimate
        assert result.n == reference.n
        assert not result.degraded and result.lost_fraction == 0.0
        # Driving through the harness leaks no worker pools.
        assert live_pool_executors() == []

    def test_backends_agree_on_the_answer(self, data):
        estimates = set()
        for backend in sorted(available_executors()):
            cfg = EarlConfig(sigma=0.05, seed=3, executor=backend)
            report = ChaosDriver().run_session(
                EarlSession(data, "mean", config=cfg))
            estimates.add(report.final.result.estimate)
        assert len(estimates) == 1
        assert live_pool_executors() == []


class TestLossInvariants:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fraction=st.floats(0.05, 0.9),
           loss_at=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_any_single_loss_keeps_bounds_valid(self, data, fraction,
                                                loss_at, seed):
        sched = ChaosSchedule((ChaosEvent(
            at=loss_at, kind=KIND_LOSS, fraction=fraction, seed=seed),))
        report = ChaosDriver(sched).run_session(EarlSession(
            data, "mean", config=EarlConfig(sigma=0.02, seed=1)))
        final = report.final
        assert final.final
        result = final.result
        assert np.isfinite(result.estimate)
        if result.accuracy is not None:   # None on exact fallback
            assert (result.accuracy.ci_low <= result.estimate
                    <= result.accuracy.ci_high)
        if report.fired and report.degraded:
            assert 0.0 < result.lost_fraction < 1.0
            assert result.population_size == len(data)

    def test_chaotic_run_is_reproducible(self, data):
        sched = ChaosSchedule((ChaosEvent(
            at=1, kind=KIND_LOSS, fraction=0.4, seed=99),))

        def chaotic():
            # n pinned far under what sigma needs (cv 0.02 on this data
            # takes ~4,300 rows; the second snapshot has 500, cv ~0.06 —
            # three times the bound, out of reach of bootstrap noise):
            # the loss after it always meets a query still expanding
            return ChaosDriver(sched).run_session(EarlSession(
                data, "mean", config=EarlConfig(sigma=0.02, seed=1,
                                                n_override=250)))

        a, b = chaotic(), chaotic()
        assert a.final.to_dict() == b.final.to_dict()
        assert a.fired == b.fired
        assert a.degraded   # the comparison is not vacuous


class TestManagerChaos:
    def _manager(self, data):
        mgr = SessionManager(data, config=EarlConfig(sigma=0.015,
                                                     seed=1))
        mgr.submit("mean")
        mgr.submit("p90", sigma=0.06)
        return mgr

    def test_every_query_finalizes_exactly_once(self, data):
        sched = ChaosSchedule.generate(21, rounds=6, loss_rate=0.6,
                                       max_fraction=0.6)
        finals = {}
        mgr = self._manager(data)
        for query, snap in ChaosDriver(sched).drive(mgr.stream(),
                                                    loss_target=mgr):
            if snap.final:
                finals[query.name] = finals.get(query.name, 0) + 1
        # Zero result loss: nothing dropped, nothing duplicated.
        assert finals == {"mean": 1, "p90": 1}

    def test_run_manager_reports_per_query_results(self, data):
        sched = ChaosSchedule.generate(21, rounds=6, loss_rate=0.6,
                                       max_fraction=0.6)
        report = ChaosDriver(sched).run_manager(self._manager(data))
        assert set(report.results) == {"mean", "p90"}
        for snap in report.results.values():
            res = snap.result
            assert np.isfinite(res.estimate)
            assert (res.accuracy.ci_low <= res.estimate
                    <= res.accuracy.ci_high)

    def test_chaotic_manager_is_reproducible(self, data):
        sched = ChaosSchedule.generate(21, rounds=6, loss_rate=0.6,
                                       max_fraction=0.6)

        def estimates():
            report = ChaosDriver(sched).run_manager(self._manager(data))
            return {name: snap.result.estimate
                    for name, snap in report.results.items()}

        assert estimates() == estimates()


class TestGroupedChaos:
    def _run(self, grouped_table, sched):
        keys, vals = grouped_table
        session = GroupedEarlSession(keys, [Measure("m", "mean", vals)],
                                     config=EarlConfig(sigma=0.02,
                                                       seed=1))
        return ChaosDriver(sched).run_grouped(session)

    def test_keyed_loss_terminates_with_a_full_board(self, grouped_table):
        sched = ChaosSchedule((ChaosEvent(
            at=1, kind=KIND_LOSS, fraction=0.5, keys=("a",), seed=4),))
        report = self._run(grouped_table, sched)
        assert report.final.final
        assert report.final.result is not None
        assert set(report.final.result.groups) == {"a", "b", "c"}

    def test_chaotic_grouped_run_is_reproducible(self, grouped_table):
        sched = ChaosSchedule.generate(9, rounds=5, loss_rate=0.5,
                                       max_fraction=0.7, keys=("a",))
        a = self._run(grouped_table, sched)
        b = self._run(grouped_table, sched)
        assert a.final.to_dict() == b.final.to_dict()
        assert a.fired == b.fired


class TestClusterChaos:
    @staticmethod
    def make_cluster():
        cluster = Cluster(n_nodes=8, block_size=16 * 1024,
                          replication=2, seed=5)
        ds = load_stand_in(cluster, "/data/chaos", logical_gb=3.0,
                           records=9_000, seed=6)
        return cluster, ds

    def test_node_kills_mid_job_salvage_and_finish(self):
        cluster, ds = self.make_cluster()
        sched = ChaosSchedule((ChaosEvent(
            at=0, kind=KIND_KILL_NODES, fraction=0.25, seed=3),))
        job = EarlJob(cluster, ds.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=2))
        report = ChaosDriver(sched, cluster=cluster).run_job(job)
        assert report.fired and report.fired[0].kind == KIND_KILL_NODES
        assert len(cluster.healthy_nodes) == 6
        assert report.final is not None and report.final.final
        assert np.isfinite(report.final.result.estimate)

    def test_recover_event_heals_the_cluster(self):
        cluster, ds = self.make_cluster()
        sched = ChaosSchedule((
            ChaosEvent(at=0, kind=KIND_KILL_NODES, fraction=0.25,
                       seed=3),
            ChaosEvent(at=1, kind=KIND_RECOVER),
        ))
        job = EarlJob(cluster, ds.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=2))
        report = ChaosDriver(sched, cluster=cluster).run_job(job)
        assert report.final is not None and report.final.final
        if len(report.fired) == 2:   # the job ran past round 1
            assert len(cluster.healthy_nodes) == 8
            assert cluster.slow_factors == {}

    def test_loss_event_without_a_target_raises(self, data):
        sched = ChaosSchedule((ChaosEvent(
            at=0, kind=KIND_LOSS, fraction=0.5),))
        stream = iter([object(), object()])
        with pytest.raises(ValueError, match="loss target"):
            list(ChaosDriver(sched).drive(stream))

    def test_cluster_event_without_a_cluster_raises(self, data):
        sched = ChaosSchedule((ChaosEvent(
            at=0, kind=KIND_KILL_NODES, fraction=0.5),))
        with pytest.raises(ValueError, match="cluster"):
            list(ChaosDriver(sched).drive(iter([object()])))


class TestServiceChaos:
    def test_degrading_service_session_loses_no_events(self):
        async def scenario():
            rng = np.random.default_rng(3)
            table = {"k": rng.choice(["a", "b"], size=200_000),
                     "v": rng.lognormal(3.0, 1.0, 200_000)}
            service = ApproxQueryService(
                config=EarlConfig(sigma=0.01, n_override=500,
                                  B_override=30, expansion_factor=1.3,
                                  max_iterations=30),
                seed=42, event_capacity=2)
            service.register_table("t", table)
            await service.start()
            try:
                client = LocalClient(service)
                sid = await client.submit({
                    "kind": "query", "table": "t", "group_by": "k",
                    "select": [{"statistic": "mean", "column": "v"}]})
                events, after, lost = [], 0, False
                while True:
                    page = await client.poll(sid, after=after,
                                             wait=True, timeout=5.0)
                    events.extend(page.events)
                    if page.events:
                        after = page.events[-1].seq
                        if not lost:
                            service.store.get(sid).engine.report_loss(
                                0.3, seed=7)
                            lost = True
                        continue
                    if page.terminal:
                        return events, await client.status(sid)
            finally:
                await service.stop()

        events, status = run(scenario())
        assert status["state"] == STATE_DONE
        seqs = [e.seq for e in events]
        # Zero event loss: the consumed sequence is contiguous even
        # though the session degraded under tight backpressure.
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert live_pool_executors() == []


@pytest.mark.chaos
class TestChaosSweep:
    """Randomized schedule sweeps (deselected from tier-1 by default)."""

    def test_generated_schedules_never_break_session_invariants(
            self, data):
        for seed in range(10):
            sched = ChaosSchedule.generate(seed, rounds=8,
                                           loss_rate=0.5,
                                           max_fraction=0.8)
            report = ChaosDriver(sched).run_session(EarlSession(
                data, "mean", config=EarlConfig(sigma=0.02, seed=seed)))
            final = report.final
            assert final.final and np.isfinite(final.result.estimate)
            acc = final.result.accuracy
            if acc is not None:   # None on the exact-fallback path
                assert (acc.ci_low <= final.result.estimate
                        <= acc.ci_high)
            assert final.result.degraded == (
                final.result.lost_fraction > 0.0)

    def test_generated_schedules_never_break_grouped_invariants(
            self, grouped_table):
        keys, vals = grouped_table
        for seed in range(6):
            sched = ChaosSchedule.generate(100 + seed, rounds=8,
                                           loss_rate=0.5,
                                           max_fraction=0.8)
            session = GroupedEarlSession(
                keys, [Measure("m", "mean", vals)],
                config=EarlConfig(sigma=0.02, seed=seed))
            report = ChaosDriver(sched).run_grouped(session)
            assert report.final.final
            board = report.final.result
            assert board is not None
            for by in board.groups.values():
                res = by["m"]
                assert np.isfinite(res.estimate)
                if res.accuracy is not None:
                    assert res.accuracy.ci_low <= res.accuracy.ci_high
