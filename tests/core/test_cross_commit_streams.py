"""Cross-commit safety net: clean-run streams are pinned to a fixture.

Every other identity test in the suite compares two runs of the *same*
commit, so a refactor that changes every run the same way sails
through them.  ``tests/fixtures/engine_streams.json`` holds the
``to_dict()`` snapshot streams of the three in-memory engines for fixed
seeds, recorded once; this test replays them on serial / threads /
processes and demands equality, so an engine change that moves a single
byte of a clean run fails here.

Record named cases (only new ones, or with ``--rerecord`` when a stream
is *meant* to change, and say so in the commit):
``PYTHONPATH=src:tests python tests/core/test_cross_commit_streams.py CASE...``
(see ``tests/fixture_record.py``).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import DependentEarlSession, EarlConfig, EarlSession
from repro.core.grouped import GroupedEarlSession, Measure
from repro.scheduler import QueryScheduler
from repro.streaming import SessionManager
from repro.workloads import ar1_series

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "engine_streams.json"
BACKENDS = ["serial", "threads", "processes"]

_rng = np.random.default_rng(5)
DATA = _rng.lognormal(0.0, 1.0, 60_000)
PAIRS = np.column_stack([DATA, 0.6 * DATA + _rng.normal(0.0, 1.0, 60_000)])
# Three sampled strata plus one five-row group (answered exactly).
KEYS = np.concatenate([_rng.choice(["a", "b", "c"], size=40_000,
                                   p=[0.6, 0.3, 0.1]),
                       np.array(["tiny"] * 5)])
VALS = _rng.lognormal(3.0, 1.0, len(KEYS))
VALS2 = _rng.normal(50.0, 10.0, len(KEYS))
# Appendix A: 0/1 successes (the closed form) and a dependent series.
COINS = (_rng.random(60_000) < 0.2).astype(float)
SERIES = ar1_series(30_000, phi=0.85, seed=21)


def _session(statistic, data, **cfg):
    def build(executor):
        config = EarlConfig(executor=executor, max_workers=2, **cfg)
        return [snap.to_dict()
                for snap in EarlSession(data, statistic,
                                        config=config).stream()]
    return build


def _dependent(executor):
    config = EarlConfig(sigma=0.001, seed=19, executor=executor,
                        max_workers=2)
    return [snap.to_dict() for snap
            in DependentEarlSession(SERIES, "mean", config=config).stream()]


def _manager(cancel=None):
    def build(executor):
        manager = SessionManager(DATA, config=EarlConfig(
            sigma=0.03, seed=11, executor=executor, max_workers=2))
        manager.submit("mean")
        manager.submit("median", sigma=0.02)
        manager.submit("p90", sigma=0.06)
        if cancel is not None:
            manager.submit("std", name=cancel).cancel()
        return [[query.name, snap.to_dict()]
                for query, snap in manager.stream()]
    return build


def _manager_mixed_B(executor):
    # Three readers of one column at three widths: the widest (mean)
    # stops rounds before median, and p90 is cancelled after its first
    # snapshot, so the rounds after each retirement run narrower.
    manager = SessionManager(DATA, config=EarlConfig(
        sigma=0.03, seed=11, n_override=500, executor=executor,
        max_workers=2))
    manager.submit("mean", B_override=60)
    withdrawn = manager.submit("p90", B_override=45, name="withdrawn")
    manager.submit("median", B_override=30, sigma=0.014)
    events = []
    for query, snap in manager.stream():
        events.append([query.name, snap.to_dict()])
        if query is withdrawn:
            withdrawn.cancel()
    return events


def _grouped_session(measures, executor):
    # n_override keeps SSABE (it still picks B) but starts every group
    # small, so the strata expand for several rounds instead of
    # resolving through the §3.1 fallback at set-up.
    return GroupedEarlSession(
        KEYS, measures,
        config=EarlConfig(sigma=0.04, seed=13, n_override=150,
                          executor=executor, max_workers=2))


def _grouped(measures):
    def build(executor):
        return [snap.to_dict() for snap
                in _grouped_session(measures, executor).stream()]
    return build


def _scheduled(measures, round_budget):
    # A lone grouped query under a fixed round budget: the scheduler's
    # live allocator splits every round across the still-active groups.
    def build(executor):
        scheduler = QueryScheduler(round_budget=round_budget)
        query = scheduler.submit_grouped(_grouped_session(measures,
                                                          executor))
        scheduler.run()
        return [snap.to_dict() for snap in query.snapshots]
    return build


ONE = [Measure("mean(v)", "mean", VALS)]
TWO = ONE + [Measure("p90(w)", "p90", VALS2, sigma=0.02)]

CASES = {
    # n pinned (SSABE still picks B): its own n for this seed lands on
    # the §3.1 cliff and would record a second exact-fallback case.
    "session-mean": _session("mean", DATA, sigma=0.02, seed=7,
                             n_override=1000),
    "session-median": _session("median", DATA, sigma=0.02, seed=8),
    "session-correlation": _session("correlation", PAIRS, sigma=0.015,
                                    seed=9),
    "session-fallback": _session("mean", DATA[:3_000], sigma=0.001, seed=7),
    # n pinned below the closed form's, so the bound is met rounds later.
    "session-proportion": _session("proportion", COINS, sigma=0.02,
                                   seed=17, n_override=500),
    "dependent-mean": _dependent,
    "manager-three": _manager(),
    "manager-cancelled-sibling": _manager(cancel="withdrawn"),
    "manager-mixed-B": _manager_mixed_B,
    "grouped-one-measure": _grouped(ONE),
    "grouped-two-measures": _grouped(TWO),
    "grouped-scheduled": _scheduled(ONE, round_budget=900),
}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("executor", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_matches_recorded_fixture(recorded, case, executor):
    assert CASES[case](executor) == recorded[case]


def test_fixture_exercises_every_path(recorded):
    """The recording is only a net if the paths it names really ran."""
    assert set(recorded) == set(CASES)
    fallback = recorded["session-fallback"]
    assert len(fallback) == 1 and fallback[0]["sample_fraction"] == 1.0
    for case in ("session-mean", "session-median", "session-correlation",
                 "session-proportion", "dependent-mean"):
        assert len(recorded[case]) >= 2 and recorded[case][-1]["achieved"]
    names = {name for name, _ in recorded["manager-cancelled-sibling"]}
    assert names == {"mean", "median", "p90"}
    mixed = recorded["manager-mixed-B"]
    assert [name for name, _ in mixed].count("withdrawn") == 1
    rounds = {name: snap["iteration"] for name, snap in mixed
              if snap["final"]}
    assert set(rounds) == {"mean", "median"}
    assert rounds["median"] >= rounds["mean"] + 2
    for case in ("grouped-one-measure", "grouped-two-measures",
                 "grouped-scheduled"):
        final = recorded[case][-1]
        assert final["final"] and len(recorded[case]) >= 3
        assert all(entry["used_fallback"]
                   for entry in final["groups"]["tiny"].values())


if __name__ == "__main__":
    from fixture_record import record_cases

    raise SystemExit(record_cases(
        FIXTURE, {case: lambda build=build: build("serial")
                  for case, build in CASES.items()}))
