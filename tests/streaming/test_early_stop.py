"""Early-stop and cancellation: a consumer walking away after k
snapshots leaves no running work behind, and the cost ledger holds only
the k completed iterations."""

import gc
import threading

import numpy as np
import pytest

from repro import EarlConfig, EarlJob, EarlSession
from repro.cluster import Cluster
from repro.core import CategoricalEarlSession, DependentEarlSession
from repro.exec import live_pool_executors
from repro.query import Query, agg
from repro.streaming import SessionManager, StreamConsumer, stream
from repro.workloads import load_stand_in

#: Never-met bound + small starting sample => many iterations to cancel.
LOOP_CFG = dict(sigma=0.001, seed=77, B_override=20, n_override=200,
                expansion_factor=1.6, max_iterations=10)


@pytest.fixture
def population():
    return np.random.default_rng(4).lognormal(1.0, 1.0, 100_000)


def make_job(seed=9):
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed)
    ds = load_stand_in(cluster, "/data/stop", logical_gb=5.0,
                       records=12_000, seed=seed + 1)
    return EarlJob(cluster, ds.path, statistic="mean",
                   config=EarlConfig(**LOOP_CFG))


class TestSessionEarlyStop:
    def test_closing_after_k_snapshots_matches_prefix(self, population):
        full = list(EarlSession(population, "mean",
                                config=EarlConfig(**LOOP_CFG)).stream())
        assert len(full) > 3
        gen = EarlSession(population, "mean",
                          config=EarlConfig(**LOOP_CFG)).stream()
        taken = [next(gen), next(gen)]
        gen.close()  # cancellation: GeneratorExit tears the run down
        assert taken == full[:2]

    def test_stream_wrapper_predicate_stops(self, population):
        session = EarlSession(population, "mean",
                              config=EarlConfig(**LOOP_CFG))
        seen = list(stream(session, stop_when=lambda s: s.iteration >= 2))
        assert len(seen) == 2
        assert not seen[-1].final


class TestJobCancellation:
    def test_cancel_after_k_iterations(self):
        # Reference run: every iteration's cost, to compare prefixes.
        full = list(make_job().stream())
        assert len(full) > 3, "config must produce a multi-iteration run"

        job = make_job()
        gen = job.stream()
        taken = [next(gen), next(gen)]
        gen.close()

        # 1. Clean teardown: the stop flag the persistent mappers poll
        #    is raised, so no task keeps running (§3.3 termination).
        assert job.last_channel is not None
        assert job.last_channel.stop_requested()
        # 2. No further sampling happened after the consumer stopped.
        assert job.last_sampler.sampled_count == taken[1].sample_size
        # 3. The cost ledger charges exactly the k completed iterations:
        #    the cancelled run's snapshots are byte-identical to the
        #    full run's first k, and the total stops there.
        assert taken == full[:2]
        assert taken[1].cost_total_seconds < full[-1].cost_total_seconds
        assert taken[1].cost_total_seconds == pytest.approx(
            taken[0].cost_total_seconds + taken[1].cost_delta_seconds)

    def test_stop_flag_also_raised_on_normal_completion(self):
        job = make_job()
        list(job.stream())
        assert job.last_channel.stop_requested()


class TestStreamConsumer:
    def test_max_snapshots_budget(self, population):
        consumer = StreamConsumer(max_snapshots=3)
        result = consumer.consume(
            EarlSession(population, "mean", config=EarlConfig(**LOOP_CFG)))
        assert result is None
        assert consumer.stopped_early
        assert len(consumer.snapshots) == 3
        assert consumer.result is None

    def test_stop_callable_from_callback(self, population):
        consumer = StreamConsumer(on_snapshot=lambda s: consumer.stop())
        result = consumer.consume(
            EarlSession(population, "mean", config=EarlConfig(**LOOP_CFG)))
        assert result is None and consumer.stopped_early
        assert len(consumer.snapshots) == 1

    def test_full_consume_returns_batch_result(self, population):
        cfg = EarlConfig(sigma=0.05, seed=5)
        batch = EarlSession(population, "mean", config=cfg).run()
        consumer = StreamConsumer()
        result = consumer.consume(EarlSession(population, "mean",
                                              config=cfg))
        assert not consumer.stopped_early
        assert result == batch
        assert consumer.snapshots[-1].final

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            StreamConsumer(max_snapshots=0)
        with pytest.raises(ValueError):
            list(stream(object(), max_snapshots=0))


def grouped_query(executor, **overrides):
    """A grouped query whose bound is never met: it streams rounds
    until the consumer stops it (the pool-release scenarios)."""
    rng = np.random.default_rng(21)
    table = {"key": np.tile(["a", "b"], 3000),
             "value": rng.exponential(5.0, 6000)}
    cfg_kwargs = dict(sigma=0.0001, seed=31, B_override=10, n_override=60,
                      expansion_factor=1.5, max_iterations=8,
                      executor=executor, max_workers=2)
    cfg_kwargs.update(overrides)
    return Query([agg("mean", "value")], group_by="key").on(
        table, config=EarlConfig(**cfg_kwargs))


class TestPoolRelease:
    """A consumer that walks away from ``Query.stream()`` must not leak
    the executor's worker pool (regression: the suspended generator
    used to keep a process pool alive until interpreter exit)."""

    @pytest.fixture(autouse=True)
    def baseline(self):
        gc.collect()
        before = set(id(ex) for ex in live_pool_executors())
        yield
        gc.collect()
        leaked = [ex for ex in live_pool_executors()
                  if id(ex) not in before]
        assert leaked == []

    def test_early_break_under_processes_backend_closes_pool(self):
        gen = grouped_query("processes").stream()
        first = next(gen)
        assert not first.final
        assert len(live_pool_executors()) >= 1   # pool is live mid-stream
        gen.close()   # GeneratorExit runs the stream's teardown
        assert live_pool_executors() == []

    @pytest.mark.parametrize("entry", ["earl_session", "session_manager",
                                       "grouped", "categorical",
                                       "dependent"])
    def test_early_break_closes_pool_for_every_entry_point(
            self, population, entry):
        cfg = EarlConfig(executor="processes", max_workers=2, **LOOP_CFG)
        if entry == "earl_session":
            gen = EarlSession(population, "mean", config=cfg).stream()
        elif entry == "categorical":
            gen = CategoricalEarlSession(population > np.e,
                                         config=cfg).stream()
        elif entry == "dependent":
            gen = DependentEarlSession(population, "mean",
                                       config=cfg).stream()
        elif entry == "session_manager":
            manager = SessionManager(population, config=cfg)
            manager.submit("mean")
            manager.submit("median")
            gen = manager.stream()
        else:
            gen = grouped_query("processes").plan().stream()
        for _ in gen:
            break             # walk away after the first event
        gen.close()
        assert live_pool_executors() == []

    def test_abandoned_stream_is_released_by_gc(self):
        gen = grouped_query("threads").stream()
        next(gen)
        assert len(live_pool_executors()) >= 1
        del gen       # no explicit close: finalizer must tear down
        gc.collect()
        assert live_pool_executors() == []

    def test_cross_thread_cancel_releases_pool(self):
        # A generator may only be close()d by the thread driving it —
        # other threads use cancel(), and the driving thread's own
        # loop exit runs the teardown.
        query = grouped_query("threads")
        session = query.plan()
        query.last_session = session
        snapshots = []
        started = threading.Event()

        def drive():
            for snap in session.stream():
                snapshots.append(snap)
                started.set()

        thread = threading.Thread(target=drive)
        thread.start()
        assert started.wait(timeout=30)
        query.last_session.cancel()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert snapshots                      # it did stream
        assert not snapshots[-1].final        # ... and stopped early
        assert live_pool_executors() == []

    def test_query_stream_records_cancel_handle(self):
        query = grouped_query("serial")
        gen = query.stream()
        next(gen)
        assert query.last_session is not None
        query.last_session.cancel()
        assert list(gen) == []    # cooperative stop, no further rounds
        assert query.last_session.cancelled
