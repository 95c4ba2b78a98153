"""A finished pipeline holds no estimation stage — on any backend.

Once a pipeline's estimate meets its σ it is never offered to again, so
its ``B × n`` resample state is dead weight: the process backend leaves
it in the worker (``_offer_owned`` ships ``None`` back instead of the
pipeline's last and largest stage) and the shared-memory backends drop
their reference.  Dropping it must not change a number: finals stay
byte-identical to the serial run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.core.accuracy import AccuracyEstimationStage
from repro.core.engine import LocalColumn, _offer_owned
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


class TestOfferOwned:
    """The process fan-out unit decides in the worker, from the σ that
    rides the task, whether its stage makes the trip back."""

    @staticmethod
    def _task(population, sigma):
        stage = AccuracyEstimationStage("mean", 20, seed=1)
        return stage, (stage, LocalColumn(population), 0, 2_000, sigma)

    def test_met_sigma_returns_no_stage(self, population):
        _, task = self._task(population, sigma=0.5)
        stage, estimate = _offer_owned(task)
        assert stage is None and estimate.meets(0.5)

    def test_unmet_sigma_returns_the_mutated_stage(self, population):
        mine, task = self._task(population, sigma=1e-6)
        stage, estimate = _offer_owned(task)
        assert stage is mine and not estimate.meets(1e-6)
        assert stage.sample_size == 2_000
