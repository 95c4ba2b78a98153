"""One resample set per shared sample column.

The queries of a :class:`~repro.streaming.SessionManager` read one
growing sample, so they read one delta-maintained
:class:`~repro.core.delta.ResampleSet` too: ``max B_i`` resamples,
grown once per round, each query evaluating its own statistic over the
first ``B_i``.  These tests hold the sharing to its promises — each
reader's law is that of a reader alone, a round's maintenance is that
of its widest reader only, and the set narrows as readers retire.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from scipy import stats as sp_stats

import repro.core.delta as delta_module
from repro.core import EarlConfig
from repro.core.delta import (
    MAINTENANCE_NAIVE,
    MAINTENANCE_NONE,
    MAINTENANCE_OPTIMIZED,
    ResampleSet,
)
from repro.core.estimators import get_statistic
from repro.obs import (
    REGISTRY,
    disable_telemetry,
    enable_telemetry,
    reset_telemetry,
)
from repro.streaming import SessionManager

STATE_OPS = ("repro_maintenance_ops_total", {"op": "state_ops"})


@pytest.fixture(scope="module")
def table() -> np.ndarray:
    return np.random.default_rng(21).lognormal(0.0, 1.0, 20_000)


@pytest.fixture
def telemetry():
    disable_telemetry()
    reset_telemetry()
    enable_telemetry()
    yield
    disable_telemetry()
    reset_telemetry()


def _set_of(query):
    return query.stage.resample_set


class TestOneSetPerColumn:
    def test_the_queries_of_a_manager_read_one_set(self, table):
        manager = SessionManager(table, config=EarlConfig(
            seed=3, B_override=20, n_override=300))
        queries = [manager.submit(stat, B_override=B) for stat, B
                   in (("mean", 20), ("median", 50), ("p90", 35))]
        manager.prepare()
        shared = _set_of(queries[0])
        assert all(_set_of(q) is shared for q in queries)
        assert shared.B == 50
        manager.run_round()
        assert [q.estimate.B for q in queries] == [20, 50, 35]
        assert all(q.stage.sample_size == shared.sample_size == 300
                   for q in queries)

    def test_a_lone_query_keeps_a_set_of_its_own(self, table):
        manager = SessionManager(table, config=EarlConfig(
            seed=3, B_override=20, n_override=300))
        query = manager.submit("mean")
        manager.prepare()
        assert _set_of(query).B == 20


@pytest.mark.parametrize("mode", [MAINTENANCE_NAIVE, MAINTENANCE_OPTIMIZED,
                                  MAINTENANCE_NONE])
def test_every_reader_reads_its_own_statistic_off_the_resamples(
        mode, resample_items):
    """Per-resample states are kept once per reader statistic (and
    dense rows are read by each reader's ``batch``): every reader's
    estimate of a resample is its statistic of the resample's items."""
    data = np.random.default_rng(4).lognormal(0.0, 1.0, 1_500)
    rs = ResampleSet("mean", 12, maintenance=mode, seed=9)
    assert rs.add_reader("median") == 1
    assert rs.add_reader("mean") == 0
    rs.grow(data[:300])
    rs.grow(data[300:700], B=8)
    rs.grow(data[700:1_500])
    assert rs.sample_size == 1_500 and rs.B == 8
    rows = resample_items(rs)
    assert len(rows) == 8 and all(len(row) == 1_500 for row in rows)
    for reader, name in enumerate(("mean", "median")):
        stat = get_statistic(name)
        np.testing.assert_allclose(rs.estimates(reader=reader),
                                   [stat(row) for row in rows], rtol=1e-9)
        np.testing.assert_allclose(rs.estimates(reader=reader, B=5),
                                   [stat(row) for row in rows[:5]],
                                   rtol=1e-9)
    with pytest.raises(RuntimeError, match="join before"):
        rs.add_reader("p90")


# ------------------------------------------------------------------- law

def _p90_round_two(table, seed, siblings):
    """The p90 reader's round-2 (error, estimate) over the leading 30
    resamples of its set: alone, or submitted ``"first"`` or ``"last"``
    beside two wider siblings, with whom it reads one set."""
    manager = SessionManager(table, config=EarlConfig(
        sigma=1e-6, seed=seed, n_override=200))
    if siblings == "first":
        p90 = manager.submit("p90", B_override=30)
    for stat, B in (("mean", 60), ("median", 45)) if siblings else ():
        manager.submit(stat, B_override=B)
    if siblings != "first":
        p90 = manager.submit("p90", B_override=30)
    manager.prepare()
    manager.run_round()
    manager.run_round()
    assert p90.estimate.n == 400 and p90.estimate.B == 30
    return p90.estimate.error, p90.estimate.estimate


@pytest.mark.parametrize("position", ["first", "last"])
def test_a_reader_beside_siblings_has_the_law_of_a_reader_alone(table,
                                                                position):
    """Seeded two-sample KS over 200 seeds: sharing the set only
    correlates the queries with each other, it does not change what
    any one of them sees."""
    seeds = range(200)
    alone = np.array([_p90_round_two(table, seed, None) for seed in seeds])
    shared = np.array([_p90_round_two(table, 10_000 + seed, position)
                       for seed in seeds])
    for column in (0, 1):       # error, estimate
        _, p_value = sp_stats.ks_2samp(alone[:, column], shared[:, column])
        assert p_value >= 0.01, (column, p_value)


# ------------------------------------------------------------------- work

def _state_ops_of_four(table, cancel_three, executor):
    reset_telemetry()
    manager = SessionManager(table, config=EarlConfig(
        sigma=1e-6, seed=17, B_override=25, n_override=250,
        executor=executor, max_workers=2))
    queries = [manager.submit(stat) for stat in
               ("mean", "median", "p90", "std")]
    if cancel_three:
        for query in queries[1:]:
            query.cancel()
    manager.run()
    assert len(queries[0].iterations) >= 4
    return REGISTRY.value(*STATE_OPS)


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_four_readers_maintain_what_one_does(table, telemetry, executor):
    """Equal ``B``: four readers of one set cost the maintenance of
    one reader — the set grows once per round, on threads too."""
    four = _state_ops_of_four(table, cancel_three=False, executor=executor)
    one = _state_ops_of_four(table, cancel_three=True, executor=executor)
    assert one > 0
    assert four == one


def test_the_set_narrows_to_the_widest_live_reader():
    """``manager-mixed-B`` of the cross-commit fixture: mean (B = 60)
    retires rounds before median (B = 30) and p90 (B = 45) is cancelled
    after its first snapshot.  Every round after mean's is exactly the
    round of a set 30 wide, and cheaper than one 60 wide."""
    data = np.random.default_rng(5).lognormal(0.0, 1.0, 60_000)
    manager = SessionManager(data, config=EarlConfig(
        sigma=0.03, seed=11, n_override=500))
    mean = manager.submit("mean", B_override=60)
    withdrawn = manager.submit("p90", B_override=45, name="withdrawn")
    median = manager.submit("median", B_override=30, sigma=0.014)
    manager.prepare()
    shared = _set_of(median)
    reader = shared.add_reader("median")
    narrowed = []
    while manager.pending:
        n, ops = shared.sample_size, shared.counters.state_ops
        twin, wide = copy.deepcopy(shared), copy.deepcopy(shared)
        events = manager.run_round()
        if withdrawn.snapshots:
            withdrawn.cancel()
        if mean.result is None or mean.iterations[-1].sample_size \
                == shared.sample_size:
            assert shared.B == 60    # mean read this round
            continue
        assert [q for q, _ in events] == [median]
        delta = shared.sample_array()[n:]
        twin.grow(delta, B=30)
        assert shared.B == twin.B == 30
        assert shared.counters.state_ops - ops \
            == twin.counters.state_ops - ops
        assert np.array_equal(shared.estimates(reader=reader),
                              twin.estimates(reader=reader))
        if wide.B == 60:             # the round mean retired before
            wide.grow(delta)
            assert wide.counters.state_ops > twin.counters.state_ops
        narrowed.append(shared.sample_size)
    assert len(narrowed) >= 2 and median.result.achieved


def _order_statistic_run(table, executor, sorts):
    """mean / median / p90 / std over one set; median and p90 meet
    their looser σ rounds before mean and std do.  Returns every
    snapshot, and per round whether an order statistic read it and how
    many calls ``sorts`` (the set's sort helper's log) gained."""
    manager = SessionManager(table, config=EarlConfig(
        seed=17, B_override=25, n_override=250, executor=executor,
        max_workers=2))
    queries = [manager.submit(stat, sigma=sigma) for stat, sigma in
               (("mean", 0.004), ("median", 0.02), ("p90", 0.03),
                ("std", 0.01))]
    manager.prepare()
    rounds = []
    while manager.pending:
        ordered, before = any(not q.done for q in queries[1:3]), len(sorts)
        manager.run_round()
        rounds.append((ordered, len(sorts) - before))
    return [[(s.estimate, s.error, s.ci_low, s.ci_high, s.sample_size)
             for s in q.snapshots] for q in queries], rounds


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_order_statistics_read_one_sort_per_round(table, monkeypatch,
                                                  executor):
    """A round sorts the set's rows once for median and p90 together,
    not at all once both met σ, and never reaches their ``batch``
    forms — with the results of an unpatched run."""
    expected, _ = _order_statistic_run(table, executor, [])

    def no_batch(rows):
        raise AssertionError("an order statistic read its batch form")

    for name in ("median", "p90"):
        monkeypatch.setattr(get_statistic(name), "batch", no_batch)
    sorts, sort_rows = [], delta_module._sort_rows
    monkeypatch.setattr(delta_module, "_sort_rows",
                        lambda rows: sorts.append(rows.shape)
                        or sort_rows(rows))
    snapshots, rounds = _order_statistic_run(table, executor, sorts)
    assert snapshots == expected
    assert [n for ordered, n in rounds] \
        == [1 if ordered else 0 for ordered, _ in rounds]
    assert rounds[0] == (True, 1) and rounds[-1] == (False, 0)
