"""Broadcast-once data plane: shared handles across every backend.

The contract: a :class:`~repro.exec.BroadcastHandle` never changes what
is computed — it only changes how the payload travels (zero-copy
reference on shared-memory backends, one per-worker transfer at pool
construction on the process backend).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accuracy import AccuracyEstimationStage
from repro.core.bootstrap import bootstrap
from repro.core.engine import _resident_round
from repro.exec import (
    BroadcastHandle,
    broadcast_value,
    get_executor,
)

BACKENDS = ["serial", "threads", "processes"]


def _payload_fingerprint(args):
    """Module-level work unit (picklable by reference): resolve the
    broadcast and report on the payload."""
    shared, lo, hi = args
    data = broadcast_value(shared)
    return float(np.sum(data[lo:hi]))


def _identity_probe(shared):
    """Return id(value) worker-side — used to show payload reuse."""
    return id(broadcast_value(shared))


class TestHandleSemantics:
    @pytest.mark.parametrize("name", ["serial", "threads"])
    def test_shared_memory_backends_are_zero_copy(self, name):
        data = np.arange(1000.0)
        with get_executor(name) as ex:
            handle = ex.broadcast(data)
            assert isinstance(handle, BroadcastHandle)
            assert handle.value is data  # the reference, not a copy

    def test_broadcast_value_passthrough(self):
        raw = np.arange(5.0)
        assert broadcast_value(raw) is raw
        with get_executor("serial") as ex:
            assert broadcast_value(ex.broadcast(raw)) is raw

    @pytest.mark.parametrize("name", BACKENDS)
    def test_work_units_read_the_payload(self, name):
        data = np.arange(10_000.0)
        with get_executor(name, max_workers=2) as ex:
            shared = ex.broadcast(data)
            work = [(shared, i * 1000, (i + 1) * 1000) for i in range(10)]
            results = ex.map(_payload_fingerprint, work)
        expected = [float(np.sum(data[lo:hi])) for _, lo, hi in work]
        assert results == expected

    def test_process_tasks_carry_only_the_id(self):
        """A process-pool handle pickles as its id — the payload is not
        re-serialized into every task."""
        import pickle

        data = np.arange(50_000.0)
        with get_executor("processes", max_workers=2) as ex:
            handle = ex.broadcast(data)
            assert len(pickle.dumps(handle)) < 200  # id, not 400 KB
            # ... and workers still resolve it (installed at pool start).
            work = [(handle, 0, 100)] * 4
            assert ex.map(_payload_fingerprint, work) \
                == [float(np.sum(data[:100]))] * 4

    def test_process_workers_reuse_one_copy_across_maps(self):
        """Consecutive map waves see the same worker-side object — the
        payload was shipped once, at pool construction."""
        data = np.arange(1000.0)
        with get_executor("processes", max_workers=1) as ex:
            shared = ex.broadcast(data)
            first = ex.map(_identity_probe, [shared, shared])
            second = ex.map(_identity_probe, [shared, shared])
        assert set(first) == set(second)  # same resident object(s)

    def test_broadcast_after_pool_start_falls_back_by_value(self):
        """Late broadcasts still reach workers — pickled by value per
        task (the pre-broadcast cost) — and never tear the pool down."""
        with get_executor("processes", max_workers=2) as ex:
            a = ex.broadcast(np.arange(100.0))
            assert ex.map(_payload_fingerprint, [(a, 0, 10), (a, 10, 20)]) \
                == [45.0, 145.0]
            pool = ex._pool
            b = ex.broadcast(np.arange(100.0, 200.0))
            assert ex.map(_payload_fingerprint, [(b, 0, 10), (a, 0, 10)]) \
                == [1045.0, 45.0]
            assert ex._pool is pool  # same workers throughout

    def test_release_retires_payloads_and_reenables_initializer(self):
        """The repeated-bootstrap pattern: each call broadcasts,
        fans out, and releases.  Releasing an initializer-shipped
        payload marks the pool stale, so the next call's payload rides
        a fresh pool's initializer (id-only tasks) instead of being
        re-pickled per task, and retired samples do not stay resident
        in workers."""
        import pickle

        data = np.random.default_rng(3).lognormal(3.0, 1.0, 2000)
        with get_executor("processes", max_workers=2) as ex:
            for seed in (5, 6, 7):
                bootstrap(data, "mean", B=24, seed=seed, executor=ex)
                assert ex._broadcasts == {}  # released after every call
                # The next broadcast ships via the (rebuilt) pool's
                # initializer again — its handle pickles as an id.
                probe = ex.broadcast(np.arange(4000.0))
                assert len(pickle.dumps(probe)) < 200
                ex.release(probe)


class TestGrowingColumns:
    """``broadcast_column``: a sample column allocated once and filled
    as it is read.  Rows no unit has been handed yet may be written
    after the broadcast — and, on processes, after the fork."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_a_writable_column_of_the_asked_shape(self, name):
        with get_executor(name, max_workers=2) as ex:
            handle = ex.broadcast_column((1_000, 2), np.float64)
            assert isinstance(handle, BroadcastHandle)
            column = broadcast_value(handle)
            assert column.shape == (1_000, 2) and column.dtype == np.float64
            column[:20] = np.arange(40.0).reshape(20, 2)
            work = [(handle, 0, 10), (handle, 10, 20)]
            assert ex.map(_payload_fingerprint, work) == [190.0, 590.0]

    def test_rows_written_after_the_fork_are_what_a_resident_stage_reads(
            self):
        """The workers (more than this container's two cores) fork while
        the column is still empty; each round the driver writes the next
        rows and every resident stage — kept in its worker — reads them:
        the same estimates as stages fed the rows directly."""
        rows = np.random.default_rng(8).lognormal(0.0, 1.0, 4_000)
        slots = range(3)
        with get_executor("processes", max_workers=3) as ex:
            handle = ex.broadcast_column(rows.shape, rows.dtype)
            ex.map(_identity_probe, [None] * 3, place=list(slots))
            twins = [AccuracyEstimationStage("mean", 20, seed=slot)
                     for slot in slots]
            stages = [AccuracyEstimationStage("mean", 20, seed=slot)
                      for slot in slots]
            for lo, hi in ((0, 500), (500, 1_000), (1_000, 2_500),
                           (2_500, 4_000)):
                handle.value[lo:hi] = rows[lo:hi]
                got = ex.map(_resident_round, [
                    (slot, (stages[slot].resample_set, {0: stages[slot]},
                            handle) if lo == 0 else None,
                     lo, hi, [(0, 1e-9)])
                    for slot in slots], place=list(slots))
                assert got == [[twin.offer(rows[lo:hi])] for twin in twins]

    def test_a_column_after_the_fork_raises(self):
        """By value, its rows would freeze at the first task that carried
        it; so it is refused rather than silently shipped."""
        with get_executor("processes", max_workers=2) as ex:
            early = ex.broadcast_column((10,), np.float64)
            early.value[:] = 0.0
            ex.map(_identity_probe, [None, None], place=[0, 1])
            with pytest.raises(RuntimeError, match="forked"):
                ex.broadcast_column((10,), np.float64)
            assert ex.map(_payload_fingerprint,
                          [(early, 0, 10), (early, 0, 10)]) == [0.0, 0.0]

    def test_a_process_column_travels_as_its_id(self):
        import pickle

        with get_executor("processes", max_workers=2) as ex:
            handle = ex.broadcast_column((50_000,), np.float64)
            assert len(pickle.dumps(handle)) < 200


class TestBootstrapOnBroadcastPlane:
    """The bootstrap ships its sample through the broadcast plane; the
    numbers must stay byte-identical across backends and chunkings."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(3).lognormal(3.0, 1.0, 4000)

    def test_identical_across_backends(self, data):
        results = [bootstrap(data, "median", B=48, seed=11, executor=name,
                             chunk_b=16)
                   for name in BACKENDS]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0].estimates,
                                          other.estimates)

    def test_borrowed_executor_runs_many_bootstraps(self, data):
        """One pool, several bootstraps: each broadcast is independent
        and the results match the owned-executor runs."""
        with get_executor("processes", max_workers=2) as ex:
            first = bootstrap(data, "mean", B=32, seed=5, executor=ex)
            second = bootstrap(data, "mean", B=32, seed=6, executor=ex)
        assert first.estimates.shape == second.estimates.shape
        np.testing.assert_array_equal(
            first.estimates,
            bootstrap(data, "mean", B=32, seed=5,
                      executor="serial").estimates)
        np.testing.assert_array_equal(
            second.estimates,
            bootstrap(data, "mean", B=32, seed=6,
                      executor="serial").estimates)
