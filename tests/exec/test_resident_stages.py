"""Worker-resident stages: on the process backend a pipeline's resample
state is pickled once per (re)build and then stays in its worker.

Counted, not timed: ``AccuracyEstimationStage.__getstate__`` is spied
in the driver (the workers fork with the spy, but count in their own
memory), so the number of driver-side stage pickles is exact.  The
by-value design this replaced pickled every live stage every round,
there and back.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.core.accuracy import AccuracyEstimationStage
from repro.core import engine
from repro.core.grouped import GroupedEarlSession, Measure
from repro.exec import live_pool_executors
from repro.streaming import SessionManager


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)


@pytest.fixture(scope="module")
def population() -> np.ndarray:
    return np.random.default_rng(3).lognormal(0.0, 1.0, 150_000)


@pytest.fixture
def ledger(monkeypatch):
    """Stages built by the engine, and stage pickles made in this
    process, by stage identity."""
    built, pickled = [], Counter()
    make_stage = engine.make_estimation_stage

    def stage_spy(*args, **kwargs):
        stage = make_stage(*args, **kwargs)
        built.append(stage)      # also keeps id() from being recycled
        return stage

    def getstate_spy(self):
        pickled[id(self)] += 1
        return object.__getstate__(self)

    monkeypatch.setattr(engine, "make_estimation_stage", stage_spy)
    monkeypatch.setattr(AccuracyEstimationStage, "__getstate__",
                        getstate_spy, raising=False)
    return built, pickled


def _config(executor: str, **overrides) -> EarlConfig:
    # (B, n) pinned: 500 -> 1000 -> 2000 -> ... rows whatever a pilot
    # would have picked.
    base = dict(sigma=0.02, seed=5, B_override=20, n_override=500,
                executor=executor, max_workers=2)
    base.update(overrides)
    return EarlConfig(**base)


def _manager(population, executor, loss_after=None):
    manager = SessionManager(population, config=_config(executor))
    manager.submit("mean", sigma=0.02)
    manager.submit("median", sigma=0.03)
    # The laggard: the same statistic as "mean" on ~7x its rows, so it
    # runs alone for two rounds or more whatever the stream.
    manager.submit("mean", sigma=0.0075, name="tight")
    events = []
    for query, snapshot in manager.stream():
        events.append((query.name, snapshot.to_dict()))
        if len(events) == loss_after:
            manager.report_loss(0.4)
    return manager, events


def _grouped(population, executor, losses=()):
    # B x n = 10,000 stays under the smallest stratum: all three sample.
    keys = np.repeat(np.array(["a", "b", "c"], dtype=object),
                     [90_000, 40_000, 20_000])
    session = GroupedEarlSession(
        keys, [Measure("mean", "mean", population),
               Measure("p90", "p90", population, sigma=0.06)],
        config=_config(executor))
    snapshots = []
    for snapshot in session.stream():
        snapshots.append(snapshot.to_dict())
        for at_round, fraction, only in losses:
            if snapshot.round == at_round:
                session.report_loss(fraction, keys=only)
    return session, snapshots


class TestEachStageIsPickledOncePerBuild:
    def test_clean_manager_run(self, population, ledger):
        built, pickled = ledger
        manager, events = _manager(population, "processes")
        rounds = max(len(q.iterations) for q in manager.queries)
        assert rounds >= 4 and len(events) > 3 * 2    # not one per round
        assert len(built) == 3
        assert pickled == {id(stage): 1 for stage in built}

    def test_clean_grouped_run(self, population, ledger):
        built, pickled = ledger
        _, snapshots = _grouped(population, "processes")
        assert snapshots[-1]["round"] >= 3
        assert len(built) == 6                        # 3 groups x 2 measures
        assert pickled == {id(stage): 1 for stage in built}

    def test_a_loss_reships_only_what_it_rebuilt(self, population, ledger):
        built, pickled = ledger
        manager, _ = _manager(population, "processes", loss_after=3)
        assert manager.degraded
        rebuilt = built[3:]
        assert 2 <= len(rebuilt) <= 3     # the queries still live at the loss
        assert pickled == {id(stage): 1 for stage in built}

    def test_grouped_losses_reship_only_what_they_rebuilt(self, population,
                                                          ledger):
        built, pickled = ledger
        session, _ = _grouped(population, "processes",
                              losses=[(1, 0.3, None), (2, 0.5, ["a"])])
        assert session.degraded and len(built) > 6 + 2   # both losses hit
        assert pickled == {id(stage): 1 for stage in built}

    def test_serial_and_threads_pickle_nothing(self, population, ledger):
        _, pickled = ledger
        for executor in ("serial", "threads"):
            _manager(population, executor)
        assert pickled == {}


class TestALaggardAlone:
    """Rounds whose fan-out is a single unit: the stage is in a worker,
    so the offer must go there — and equal the serial run's."""

    def test_manager_whose_queries_finish_in_different_rounds(
            self, population):
        serial_manager, serial = _manager(population, "serial")
        finished = sorted(len(q.iterations) for q in serial_manager.queries)
        assert finished[-1] > finished[-2]     # "tight" ran alone at the end
        assert _manager(population, "processes")[1] == serial

    def test_grouped_session_whose_last_round_has_one_live_pair(
            self, population):
        # Stratum "c" squared: lognormal(0, 2), cv ≈ 7 against ≈ 1.3, so
        # its mean runs its 20,000 rows dry while every other pair is
        # done by 8,000 — alone for its last rounds, whatever the stream.
        skewed = population.copy()
        skewed[-20_000:] **= 2
        session, serial = _grouped(skewed, "serial")
        last = [len(p.iterations)
                for unit in session._units for p in unit.pipelines]
        assert sorted(last)[-1] > sorted(last)[-2]
        assert _grouped(skewed, "processes")[1] == serial


class TestLossesAcrossBackends:
    """§3.4 on the pool: the driver re-stages, the rebuilt stage and its
    compacted column ride the next offer once, and every snapshot
    equals the serial run's."""

    def test_manager_loss_after_the_third_event(self, population):
        manager, serial = _manager(population, "serial", loss_after=3)
        assert manager.degraded and serial[-1][1]["degraded"]
        for executor in ("threads", "processes"):
            other, events = _manager(population, executor, loss_after=3)
            assert events == serial and other.degraded

    def test_grouped_node_loss_then_one_stratum(self, population):
        losses = [(1, 0.3, None), (2, 0.5, ["a"])]
        session, serial = _grouped(population, "serial", losses)
        assert session.degraded and serial[-1]["round"] >= 3
        for executor in ("threads", "processes"):
            other, snapshots = _grouped(population, executor, losses)
            assert snapshots == serial and other.degraded


class TestNoWorkerOutlivesItsEngine:
    """However a run on the pool ends, its engine's ``finish()`` reaps
    the workers: no live pool, no child process."""

    @pytest.fixture(autouse=True)
    def _no_new_children(self):
        gc.collect()
        before = set(multiprocessing.active_children())
        yield
        gc.collect()
        assert live_pool_executors() == []
        assert set(multiprocessing.active_children()) <= before

    @staticmethod
    def _endless(population) -> SessionManager:
        manager = SessionManager(population, config=_config(
            "processes", sigma=1e-6, expansion_factor=1.2,
            max_iterations=40))
        manager.submit("mean")
        manager.submit("median")
        return manager

    def test_run_to_completion(self, population):
        _manager(population, "processes")

    def test_early_break(self, population):
        stream = self._endless(population).stream()
        for seen, _ in enumerate(stream):
            if seen == 3:
                break
        assert len(live_pool_executors()) == 1
        assert multiprocessing.active_children()
        stream.close()

    def test_cross_thread_cancel(self, population):
        manager = self._endless(population)
        streaming = threading.Event()

        def drive():
            for _ in manager.stream():
                streaming.set()

        thread = threading.Thread(target=drive)
        thread.start()
        assert streaming.wait(timeout=30)
        manager.cancel()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_a_failing_round(self, population, monkeypatch):
        manager = self._endless(population)
        stream = manager.stream()
        next(stream)
        monkeypatch.setattr("repro.core.engine._resident_round", _boom)
        with pytest.raises(ZeroDivisionError):
            list(stream)


def _boom(args):
    return 1 / 0
