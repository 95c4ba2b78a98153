"""A finished pipeline holds no estimation stage — on any backend.

Once a pipeline's estimate meets its σ it is never offered to again, so
its ``B × n`` resample state is dead weight: the process backend frees
the worker's slot once every reader of its set is done
(``_resident_round`` only ever ships estimates back) and the
shared-memory backends drop their reference.  Dropping it
must not change a number: finals stay byte-identical to the serial run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.core.accuracy import AccuracyEstimationStage
from repro.core import engine
from repro.core.delta import ResampleSet
from repro.core.engine import LocalColumn, _resident_round
from repro.core.grouped import GroupedEarlSession, Measure
from repro.streaming import SessionManager

BACKENDS = ["serial", "threads", "processes"]


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)


@pytest.fixture(scope="module")
def population() -> np.ndarray:
    return np.random.default_rng(3).lognormal(0.0, 1.0, 150_000)


def _config(executor: str) -> EarlConfig:
    # (B, n) pinned: 500 -> 1000 -> 2000 -> ... rows, so the queries
    # below finish in different rounds whatever a pilot would pick.
    return EarlConfig(sigma=0.02, seed=5, B_override=20, n_override=500,
                      executor=executor, max_workers=2)


def _assert_stage_iff_running(pipelines) -> None:
    for pipeline in pipelines:
        if pipeline.result is not None:
            assert pipeline.stage is None, pipeline
        elif not pipeline.cancelled:
            assert pipeline.stage is not None, pipeline


def _run_manager(population, executor):
    manager = SessionManager(population, config=_config(executor))
    manager.submit("mean", sigma=0.1)       # the first round
    manager.submit("median", sigma=0.03)    # a few rounds
    manager.submit("mean", sigma=0.015, name="tight")   # the laggard
    finished_early = 0
    for _ in manager.stream():
        _assert_stage_iff_running(manager.queries)
        done = sum(q.result is not None for q in manager.queries)
        finished_early += 0 < done < len(manager.queries)
    # the invariant was checked while some pipelines were still running
    assert finished_early >= 2
    return {q.name: q.result for q in manager.queries}


def _run_grouped(population, executor):
    keys = np.repeat(np.array(["a", "b", "c"], dtype=object),
                     [100_000, 40_000, 10_000])
    session = GroupedEarlSession(
        keys, [Measure("mean", "mean", population),
               Measure("p90", "p90", population, sigma=0.06)],
        config=_config(executor))
    final = None
    for final in session.stream():
        _assert_stage_iff_running(
            p for unit in session._units for p in unit.pipelines)
    assert final is not None and final.result is not None
    return final.to_dict()


class TestFinishedPipelinesHoldNoStage:
    def test_manager_finals_equal_serial_on_every_backend(self, population):
        serial = _run_manager(population, "serial")
        assert all(result.achieved for result in serial.values())
        assert len({result.n for result in serial.values()}) == 3
        for executor in BACKENDS[1:]:
            assert _run_manager(population, executor) == serial

    def test_grouped_finals_equal_serial_on_every_backend(self, population):
        serial = _run_grouped(population, "serial")
        for executor in BACKENDS[1:]:
            assert _run_grouped(population, executor) == serial

    def test_forced_finalize_drops_stages_too(self, population):
        manager = SessionManager(population, config=_config("serial"))
        manager.submit("mean", sigma=0.001)
        manager.submit("median", sigma=0.001)
        manager.prepare()
        manager.run_round()
        assert all(q.stage is not None for q in manager.queries)
        manager.finalize()
        manager.finish()
        assert all(q.result is not None and q.stage is None
                   for q in manager.queries)


class TestResidentRound:
    """The process fan-out unit keeps a resample set, with its readers'
    stages, where it runs, decides from the σs that ride the task
    whether to keep it any longer, and sends only the estimates back."""

    SLOT = 7

    @pytest.fixture(autouse=True)
    def _clean_slots(self):
        # These tests call the unit in *this* process, standing in for
        # a worker; nothing may leak into the next test's fork.
        yield
        engine._RESIDENT.clear()

    @staticmethod
    def _stage():
        return AccuracyEstimationStage("mean", 20, seed=1)

    @staticmethod
    def _shipped(stage, column):
        return stage.resample_set, {0: stage}, column

    def test_met_sigma_drops_the_slot(self, population):
        [estimate] = _resident_round(
            (self.SLOT, self._shipped(self._stage(), LocalColumn(population)),
             0, 2_000, [(0, 0.5)]))
        assert estimate.meets(0.5)
        assert self.SLOT not in engine._RESIDENT

    def test_unmet_sigma_keeps_it_for_the_next_offer(self, population):
        stage = self._stage()
        shipped = self._shipped(stage, LocalColumn(population))
        [first] = _resident_round((self.SLOT, shipped, 0, 2_000,
                                   [(0, 1e-6)]))
        assert not first.meets(1e-6)
        assert engine._RESIDENT[self.SLOT] == shipped
        # the next round carries no set: the resident one grows
        [second] = _resident_round((self.SLOT, None, 2_000, 4_000,
                                    [(0, 1e-6)]))
        assert stage.sample_size == 4_000
        twin = self._stage()
        twin.offer(population[:2_000])
        assert second == twin.offer(population[2_000:4_000])

    def test_the_slot_stays_until_every_reader_met_sigma(self, population):
        def shared():
            resamples = ResampleSet("mean", 20, seed=1)
            return resamples, {
                0: AccuracyEstimationStage("mean", 20, resamples=resamples),
                3: AccuracyEstimationStage("median", 10,
                                           resamples=resamples)}
        resamples, stages = shared()
        column = LocalColumn(population)
        got = _resident_round((self.SLOT, (resamples, stages, column),
                               0, 2_000, [(0, 0.5), (3, 1e-6)]))
        assert got[0].meets(0.5) and not got[1].meets(1e-6)
        assert self.SLOT in engine._RESIDENT
        # the reader done last round is not offered to again
        [median] = _resident_round((self.SLOT, None, 2_000, 4_000,
                                    [(3, 0.5)]))
        assert median.meets(0.5)
        assert self.SLOT not in engine._RESIDENT
        twin, readers = shared()
        for lo, hi in ((0, 2_000), (2_000, 4_000)):
            twin.grow(population[lo:hi], 20 if lo == 0 else 10)
        assert median == readers[3].read() and resamples.B == twin.B == 10

    def test_a_reshipped_set_replaces_the_resident_one(self, population):
        _resident_round((self.SLOT,
                         self._shipped(self._stage(), LocalColumn(population)),
                         0, 2_000, [(0, 1e-6)]))
        rebuilt = self._stage()
        shipped = self._shipped(rebuilt, LocalColumn(population[::2]))
        _resident_round((self.SLOT, shipped, 0, 500, [(0, 1e-6)]))
        assert engine._RESIDENT[self.SLOT] == shipped
        assert rebuilt.sample_size == 500

    def test_an_offer_without_a_resident_set_is_an_error(self):
        with pytest.raises(KeyError):
            _resident_round((self.SLOT, None, 0, 10, [(0, 0.5)]))

    @pytest.mark.parametrize("run", [_run_manager, _run_grouped])
    def test_nothing_is_stored_in_the_driver(self, population, run):
        # _run_* assert stage-iff-running after every event, so the
        # driver held its placeholder throughout; the stages themselves
        # were only ever in the workers.
        run(population, "processes")
        assert engine._RESIDENT == {}
