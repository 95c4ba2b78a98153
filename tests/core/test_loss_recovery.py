"""§3.4 sample-loss recovery: the engines degrade instead of dying.

Covers the three engines' ``report_loss`` APIs: rows lost mid-session
are dropped, the bootstrap is re-estimated from the survivors, bounds
stay valid, results are flagged ``degraded`` with their lost fraction,
and — crucially — a run that reports no loss is byte-identical to the
pre-fault-tolerance behavior.
"""

import numpy as np
import pytest

from repro.core import EarlConfig, EarlSession
from repro.core.grouped import GroupedEarlSession, Measure
from repro.scheduler import QueryScheduler
from repro.streaming import SessionManager


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(7).lognormal(0.0, 1.0, 200_000)


@pytest.fixture(scope="module")
def grouped_table():
    rng = np.random.default_rng(8)
    keys = rng.choice(["a", "b", "c"], size=120_000, p=[0.6, 0.3, 0.1])
    vals = rng.lognormal(3.0, 1.0, 120_000)
    return keys, vals


#: The solo runs start at n = 1,000 (error ≈ 0.04 on this lognormal)
#: so that σ = 0.02 takes several rounds whatever (B, n) SSABE's pilot
#: would have picked — a loss after round 1 always meets a live query.
SOLO = dict(sigma=0.02, seed=1, n_override=1_000)


def _stream_with_loss(data, loss_at, fraction):
    session = EarlSession(data, "mean", config=EarlConfig(**SOLO))
    snaps = []
    for i, snap in enumerate(session.stream()):
        snaps.append(snap)
        if loss_at is not None and i == loss_at:
            session.report_loss(fraction)
    return session, snaps


def _solo(data, cfg):
    session = EarlSession(data, "sum", config=cfg)
    return session.stream(), session.report_loss


def _manager(extra):
    def build(data, cfg):
        manager = SessionManager(data, config=cfg)
        manager.submit("sum")
        for statistic in extra:
            manager.submit(statistic)
        return ((snap for query, snap in manager.stream()
                 if query.name == "sum"), manager.report_loss)
    return build


def _scheduled_single(data, cfg):
    # The scheduler hands out no engine; the loss goes to the one
    # manager it built for the lone query.
    sched = QueryScheduler()
    sched.submit_statistic(data, "sum", config=cfg, table="t")

    def report_loss(fraction):
        (engine,) = sched._engines
        engine.report_loss(fraction)
    return (snap for _, snap in sched.stream()), report_loss


class TestOneLossModel:
    """Every uniform entry point degrades the same way: a loss masks
    the materialised sample, the population stays ``N``, so extensive
    statistics still estimate the *full-population* value (regression:
    the solo session used to shrink ``N`` to the survivors and report
    ~0.6x the true sum as achieved)."""

    @pytest.mark.parametrize("entry", [
        pytest.param(_solo, id="earl_session"),
        pytest.param(_manager(()), id="one_query_manager"),
        pytest.param(_manager(("mean",)), id="two_query_manager"),
        pytest.param(_scheduled_single, id="scheduled_single"),
    ])
    def test_degraded_sum_estimates_the_full_population(self, data, entry):
        # B/n pinned so the query is still expanding when the loss hits
        stream, report_loss = entry(data, EarlConfig(
            sigma=0.01, seed=3, B_override=30, n_override=2_000))
        final = None
        for i, final in enumerate(stream):
            if i == 0:
                report_loss(0.4)
        result = final.result
        assert result.degraded and 0.3 < result.lost_fraction < 0.5
        assert result.population_size == len(data)
        truth = float(np.sum(data))
        assert result.achieved
        # within the reported bound of the true sum (3 sigma: cv is a
        # one-sigma relative error)
        assert abs(result.estimate - truth) <= 3 * result.error * truth


class TestEarlSession:
    def test_loss_marks_result_degraded(self, data):
        _, snaps = _stream_with_loss(data, 0, 0.4)
        result = snaps[-1].result
        assert result.degraded
        assert 0.3 < result.lost_fraction < 0.5
        # the loss masks the sample; the population it speaks for stays
        assert result.population_size == len(data)
        assert np.isfinite(result.estimate)
        assert result.accuracy.ci_low <= result.accuracy.ci_high

    def test_snapshots_carry_degraded_flag(self, data):
        _, snaps = _stream_with_loss(data, 0, 0.3)
        assert not snaps[0].degraded
        assert snaps[-1].degraded
        payload = snaps[-1].to_dict()
        assert payload["degraded"] is True
        assert 0.0 < payload["lost_fraction"] < 1.0

    def test_faulted_run_is_deterministic(self, data):
        _, a = _stream_with_loss(data, 0, 0.4)
        _, b = _stream_with_loss(data, 0, 0.4)
        ra, rb = a[-1].result, b[-1].result
        assert ra.estimate == rb.estimate
        assert ra.n == rb.n
        assert ra.lost_fraction == rb.lost_fraction

    def test_no_loss_is_byte_identical(self, data):
        _, clean = _stream_with_loss(data, None, 0.0)
        _, faulted = _stream_with_loss(data, 0, 0.4)
        reference = EarlSession(data, "mean",
                                config=EarlConfig(**SOLO)).run()
        result = clean[-1].result
        assert result.estimate == reference.estimate
        assert result.n == reference.n
        assert not result.degraded and result.lost_fraction == 0.0
        # the faulted run diverged, proving the comparison is not vacuous
        assert faulted[-1].result.degraded
        assert faulted[-1].result.lost_fraction > 0.0

    def test_explicit_seed_pins_loss_pattern(self, data):
        session = EarlSession(data, "mean", config=EarlConfig(**SOLO))
        snaps = []
        for i, snap in enumerate(session.stream()):
            snaps.append(snap)
            if i == 0:
                session.report_loss(0.4, seed=123)
        other = EarlSession(data, "mean", config=EarlConfig(**SOLO))
        snaps2 = []
        for i, snap in enumerate(other.stream()):
            snaps2.append(snap)
            if i == 0:
                other.report_loss(0.4, seed=123)
        assert snaps[-1].result.estimate == snaps2[-1].result.estimate

    def test_total_loss_before_first_estimate_raises(self, data):
        # A two-row materialised sample and a loss that takes both
        # rows: the query is withdrawn, and run() says so instead of
        # tripping an assert.
        cfg = EarlConfig(sigma=0.01, seed=3, B_override=10, n_override=2,
                         max_iterations=1)
        session = EarlSession(data, "mean", config=cfg)
        session.report_loss(0.9, seed=0)
        assert list(session.stream()) == []
        assert session.degraded and session.lost_fraction == 1.0
        again = EarlSession(data, "mean", config=cfg)
        again.report_loss(0.9, seed=0)
        with pytest.raises(RuntimeError, match="lost before the first"):
            again.run()

    def test_invalid_fraction_rejected(self, data):
        session = EarlSession(data, "mean", config=EarlConfig(seed=1))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                session.report_loss(bad)


class TestSessionManager:
    def _run(self, data, loss_at=None, fraction=0.5, sigma=0.015):
        # The first round is pinned to 2,000 rows: "mean" (error ≈ 0.03
        # there) needs more rounds while "p90" (≈ 0.04 against 0.06)
        # meets its bound in round 1 — a loss after round 1 hits only
        # the former.
        mgr = SessionManager(data, config=EarlConfig(sigma=sigma, seed=1,
                                                     n_override=2_000))
        mgr.submit("mean")
        mgr.submit("p90", sigma=0.06)
        seen = 0
        results = {}
        for query, snap in mgr.stream():
            seen += 1
            if loss_at is not None and seen == loss_at:
                mgr.report_loss(fraction)
            if snap.final:
                results[query.name] = snap
        return mgr, results

    def test_live_queries_degrade_finished_keep_results(self, data):
        clean_mgr, clean = self._run(data)
        mgr, results = self._run(data, loss_at=1, fraction=0.5)
        assert mgr.degraded and 0.4 < mgr.lost_fraction < 0.6
        # p90 terminated before the loss: its result stands untouched
        assert not results["p90"].result.degraded
        assert (results["p90"].result.estimate
                == clean["p90"].result.estimate)
        # mean was live: re-planned over survivors, flagged degraded
        res = results["mean"].result
        assert res.degraded and res.lost_fraction == mgr.lost_fraction
        assert res.accuracy.ci_low <= res.accuracy.ci_high
        assert results["mean"].to_dict()["degraded"] is True

    def test_no_loss_is_byte_identical(self, data):
        _, a = self._run(data)
        _, b = self._run(data)
        for name in a:
            assert a[name].result.estimate == b[name].result.estimate
            assert not a[name].result.degraded

    def test_heavy_loss_finalizes_instead_of_hanging(self, data):
        mgr, results = self._run(data, loss_at=2, fraction=0.98)
        assert len(results) == 2  # every query produced a final snapshot
        assert mgr.degraded

    def test_faulted_run_is_deterministic(self, data):
        _, a = self._run(data, loss_at=1, fraction=0.5)
        _, b = self._run(data, loss_at=1, fraction=0.5)
        for name in a:
            assert a[name].result.estimate == b[name].result.estimate


class TestGroupedSession:
    def _run(self, table, loss_round=None, fraction=0.5, keys=None):
        group_keys, vals = table
        # (B, n) pinned: every group samples (B·n is under the smallest
        # stratum) and is still expanding after round 1.
        session = GroupedEarlSession(
            group_keys, [Measure("m", "mean", vals)],
            config=EarlConfig(sigma=0.02, seed=1, B_override=20,
                              n_override=500))
        final = None
        for snap in session.stream():
            final = snap
            if loss_round is not None and snap.round == loss_round:
                session.report_loss(fraction, keys=keys)
        return session, final

    def test_loss_degrades_live_groups_only(self, grouped_table):
        session, final = self._run(grouped_table, loss_round=1,
                                   fraction=0.5)
        assert session.degraded and final.degraded
        assert final.result is not None and final.result.degraded
        assert 0.0 < final.lost_fraction < 1.0
        entries = {key: by["m"] for key, by in final.groups.items()}
        degraded = [e for e in entries.values() if e.degraded]
        assert degraded  # the laggard group was live and took the hit
        for entry in degraded:
            assert 0.0 < entry.lost_fraction <= 1.0
            assert entry.ci_low <= entry.ci_high
        payload = final.to_dict()
        assert payload["degraded"] is True
        assert payload["lost_fraction"] > 0.0

    def test_dead_stratum_finalizes_best_so_far(self, grouped_table):
        # "a" is the laggard still expanding after round 1; killing it
        # outright must finalize with the estimate it already had.
        session, final = self._run(grouped_table, loss_round=1,
                                   fraction=1.0, keys=["a"])
        res = final.result.groups["a"]["m"]
        assert res.degraded and res.lost_fraction == 1.0
        assert np.isfinite(res.estimate)
        # the surviving strata keep answering normally
        others = [by["m"] for key, by in final.result.groups.items()
                  if key != "a"]
        assert others and all(r.achieved for r in others)

    def test_no_loss_is_byte_identical(self, grouped_table):
        _, a = self._run(grouped_table)
        _, b = self._run(grouped_table)
        assert a.to_dict() == b.to_dict()
        assert not a.degraded

    def test_faulted_run_is_deterministic(self, grouped_table):
        _, a = self._run(grouped_table, loss_round=1, fraction=0.5)
        _, b = self._run(grouped_table, loss_round=1, fraction=0.5)
        assert a.to_dict() == b.to_dict()

    def test_heavy_loss_terminates(self, grouped_table):
        _, final = self._run(grouped_table, loss_round=1, fraction=0.95)
        assert final.final and final.result is not None

    def test_invalid_fraction_rejected(self, grouped_table):
        group_keys, vals = grouped_table
        session = GroupedEarlSession(group_keys,
                                     [Measure("m", "mean", vals)],
                                     config=EarlConfig(seed=1))
        with pytest.raises(ValueError):
            session.report_loss(0.0)
        with pytest.raises(ValueError):
            session.report_loss(1.2)
