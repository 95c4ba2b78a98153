"""Kill-and-restart chaos: crash drills against the durable service.

The quick tests pin the harness wiring (kill-restart events belong to
the restart harness, not the engine driver; empty schedules fire no
kills).  The randomized sweep — marked ``chaos``, run by ``make
test-chaos`` — generates seeded kill schedules and asserts the
tentpole invariant: any number of service crashes at snapshot
boundaries leaves every session's collected event stream byte-identical
to an uninterrupted run.
"""

import asyncio

import numpy as np
import pytest

from repro.chaos import (
    KIND_KILL_RESTART,
    ChaosDriver,
    ChaosEvent,
    ChaosSchedule,
    run_with_restarts,
)
from repro.cluster import Cluster
from repro.core import EarlConfig, EarlSession
from repro.service import ApproxQueryService
from repro.workloads import load_stand_in

#: Forces multi-round streams (see tests/service/test_restart.py).
CFG = dict(sigma=0.01, B_override=15, n_override=100,
           expansion_factor=1.6, max_iterations=12)

#: One spec of every kind: two statistics sharing a scan and a GROUP BY
#: query recover through the rebuilt dispatch window, the cluster job
#: through its own replayed stream.
SPECS = [
    {"kind": "statistic", "dataset": "pop", "statistic": "mean"},
    {"kind": "statistic", "dataset": "pop", "statistic": "std"},
    {"kind": "query", "table": "orders", "group_by": "region",
     "select": [{"statistic": "mean", "column": "amount"}]},
    {"kind": "job", "cluster": "sim", "path": "/data/values",
     "statistic": "mean"},
]


def build(store):
    """Every generation registers the same data, table and cluster
    (rebuilt from fixed seeds, so the job's source fingerprint holds)."""
    service = ApproxQueryService(
        config=EarlConfig(**CFG), seed=99, batch_window=5.0,
        event_capacity=8, store=store)
    service.register_dataset(
        "pop", np.random.default_rng(0).lognormal(1.0, 0.5, 20_000))
    rng = np.random.default_rng(3)
    service.register_table("orders", {
        "region": np.repeat(["east", "west"], 3000),
        "amount": rng.exponential(40.0, 6000)})
    cluster = Cluster(n_nodes=4, block_size=16 * 1024, replication=2, seed=9)
    load_stand_in(cluster, "/data/values", logical_gb=2.0, records=6_000,
                  seed=10)
    service.register_cluster("sim", cluster)
    return service


def run(coro, timeout=180.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestHarnessWiring:
    def test_schedule_generates_kill_restart_events(self):
        sched = ChaosSchedule.generate(5, rounds=20, loss_rate=0.0,
                                       kill_restart_rate=1.0)
        assert len(sched) == 20
        assert all(e.kind == KIND_KILL_RESTART for e in sched.events)
        # Round-trips through JSON like every other event kind.
        assert ChaosSchedule.from_dict(sched.to_dict()) == sched

    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            ChaosSchedule.generate(0, rounds=4, kill_restart_rate=1.5)

    def test_engine_driver_rejects_kill_restart(self):
        data = np.random.default_rng(1).lognormal(0, 1, 50_000)
        sched = ChaosSchedule(
            (ChaosEvent(at=0, kind=KIND_KILL_RESTART),))
        session = EarlSession(data, "mean",
                              config=EarlConfig(sigma=0.05, seed=2))
        with pytest.raises(ValueError, match="run_with_restarts"):
            ChaosDriver(sched).run(session)

    def test_empty_schedule_means_zero_restarts(self, tmp_path):
        report = run(run_with_restarts(
            build, str(tmp_path / "store"), SPECS[:1],
            ChaosSchedule.none()))
        assert report.restarts == 0
        assert report.snapshots > 3
        (stream,) = report.events.values()
        assert stream   # the session ran to completion

    def test_single_scheduled_kill_is_byte_identical(self, tmp_path):
        reference = run(run_with_restarts(
            build, str(tmp_path / "ref"), SPECS, ChaosSchedule.none()))
        sched = ChaosSchedule(
            (ChaosEvent(at=3, kind=KIND_KILL_RESTART),))
        chaotic = run(run_with_restarts(
            build, str(tmp_path / "live"), SPECS, sched))
        assert chaotic.restarts == 1
        assert chaotic.events == reference.events


@pytest.mark.chaos
class TestKillRestartSweep:
    """Randomized seeded kill schedules (deselected from tier-1)."""

    def test_random_kill_schedules_never_change_a_byte(self, tmp_path):
        reference = run(run_with_restarts(
            build, str(tmp_path / "ref"), SPECS, ChaosSchedule.none()))
        assert reference.restarts == 0
        for seed in range(3):
            sched = ChaosSchedule.generate(
                seed, rounds=reference.snapshots, loss_rate=0.0,
                kill_restart_rate=0.4)
            report = run(run_with_restarts(
                build, str(tmp_path / f"run{seed}"), SPECS, sched))
            assert report.restarts == len(sched)
            assert report.events == reference.events
            assert report.snapshots == reference.snapshots
