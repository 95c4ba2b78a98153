"""GroupedEarlSession: per-group early stopping, snapshots, streaming
integration, the stepping protocol under a scheduler's row budget,
executor backends."""

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.core.grouped import GroupedEarlSession, Measure
from repro.query import Query, agg
from repro.scheduler import QueryScheduler
from repro.streaming import StreamConsumer


def skewed_table(n=60_000, seed=0, p=(0.5, 0.3, 0.2),
                 sigmas=(0.3, 1.0, 1.6)):
    """Three groups with very different dispersion: 'calm' converges in
    one round, 'wild' is the laggard."""
    rng = np.random.default_rng(seed)
    names = np.array(["calm", "mid", "wild"], dtype=object)
    ranks = rng.choice(3, size=n, p=list(p))
    values = rng.lognormal(3.0, 1.0, n)
    for i, s in enumerate(sigmas):
        idx = ranks == i
        values[idx] = rng.lognormal(3.0, s, int(idx.sum()))
    return names[ranks], values


#: Pin (B, n) so every group genuinely samples (B*n well below each
#: group's population) instead of tripping the exact fallback — the
#: behavioural tests below are about the expansion loop.
SAMPLING_CFG = dict(B_override=15, n_override=300)


class TestStreamingContract:
    def test_snapshot_stream_shape(self):
        keys, values = skewed_table()
        session = GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=0.05, seed=1))
        snaps = list(session.stream())
        assert snaps, "stream yielded nothing"
        assert all(not s.final for s in snaps[:-1])
        final = snaps[-1]
        assert final.final and final.result is not None
        assert [s.round for s in snaps] == list(range(1, len(snaps) + 1))
        # cumulative board covers every group from the first full round
        assert set(final.groups) == {"calm", "mid", "wild"}
        assert final.result.rows_processed == final.rows_processed
        assert final.active_groups == 0

    def test_session_streams_once(self):
        keys, values = skewed_table(n=5_000)
        session = GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=0.05, seed=1))
        session.run()
        with pytest.raises(RuntimeError):
            next(session.stream())

    def test_stream_consumer_integration(self):
        keys, values = skewed_table()
        q = Query([agg("mean", "value")], group_by="key").on(
            {"key": keys, "value": values},
            config=EarlConfig(sigma=0.05, seed=1))
        consumer = StreamConsumer()
        result = consumer.consume(q)
        assert result is not None and result.achieved
        assert consumer.snapshots[-1].final
        assert not consumer.stopped_early

    def test_stream_consumer_early_stop(self):
        keys, values = skewed_table()
        q = Query([agg("mean", "value")], group_by="key").on(
            {"key": keys, "value": values},
            # unreachable bound, pinned (B, n): the stream would run
            # many rounds if the consumer did not walk away
            config=EarlConfig(sigma=0.001, seed=1, **SAMPLING_CFG))
        consumer = StreamConsumer(max_snapshots=1)
        result = consumer.consume(q)
        assert result is None
        assert consumer.stopped_early
        assert len(consumer.snapshots) == 1


class TestPerGroupEarlyStop:
    def test_laggard_keeps_sampling_after_others_stop(self):
        keys, values = skewed_table()
        session = GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=0.05, seed=3, **SAMPLING_CFG))
        result = session.run()
        assert result.achieved
        calm = result.groups["calm"]["m"]
        wild = result.groups["wild"]["m"]
        assert not calm.used_fallback and not wild.used_fallback
        # the calm group stopped in fewer expansion rounds than the
        # dispersed one, and consumed a smaller fraction of its rows
        assert calm.num_iterations < wild.num_iterations
        assert calm.sample_fraction < wild.sample_fraction

    def test_done_group_sample_frozen_in_snapshots(self):
        keys, values = skewed_table()
        session = GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=0.05, seed=3, **SAMPLING_CFG))
        seen_done_n = {}
        for snap in session.stream():
            for key, by_agg in snap.groups.items():
                entry = by_agg.get("m")
                if entry is None:
                    continue
                if key in seen_done_n:
                    assert entry.sample_size == seen_done_n[key]
                elif entry.done:
                    seen_done_n[key] = entry.sample_size
        assert seen_done_n, "no group ever finished"

    def test_tiny_group_exact_fallback(self):
        rng = np.random.default_rng(7)
        keys = np.array(["big"] * 20_000 + ["tiny"] * 40, dtype=object)
        values = np.concatenate([
            rng.lognormal(3.0, 1.0, 20_000), rng.normal(5.0, 1.0, 40)])
        session = GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=0.05, seed=5))
        result = session.run()
        tiny = result.groups["tiny"]["m"]
        assert tiny.used_fallback and tiny.achieved
        assert tiny.estimate == pytest.approx(float(np.mean(values[-40:])))

    def test_unmet_bound_reported_not_achieved(self):
        keys, values = skewed_table(n=20_000)
        session = GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=0.0005, seed=5, max_iterations=2,
                              B_override=10, n_override=50))
        result = session.run()
        assert not result.achieved
        assert any(not res.achieved
                   for by in result.groups.values()
                   for res in by.values())


class TestMultiAggregate:
    def test_per_aggregate_sigma_and_independent_stop(self):
        keys, values = skewed_table()
        session = GroupedEarlSession(
            keys,
            [Measure("mean", "mean", values, sigma=0.03),
             Measure("p90", "p90", values, sigma=0.15)],
            config=EarlConfig(seed=9))
        result = session.run()
        for by_agg in result.groups.values():
            assert set(by_agg) == {"mean", "p90"}
            assert by_agg["mean"].sigma == 0.03
            assert by_agg["p90"].sigma == 0.15
        assert result.achieved

    def test_mixed_fallback_rows_not_double_counted(self):
        # regression: a group where one measure answers exactly and
        # another samples touches its rows once, not size + consumed
        rng = np.random.default_rng(3)
        keys = np.array(["g"] * 4_300, dtype=object)
        values = rng.lognormal(3.0, 1.0, 4_300)
        session = GroupedEarlSession(
            keys,
            [Measure("loose", "mean", values, sigma=0.2),
             Measure("tight", "mean", values, sigma=0.01)],
            config=EarlConfig(seed=5))
        result = session.run()
        assert result.rows_processed <= result.population_size
        states = {m.used_fallback for m in result.groups["g"].values()}
        assert states == {True, False}, \
            "scenario must mix exact and sampled measures"

    def test_duplicate_measure_names_rejected(self):
        keys, values = skewed_table(n=1_000)
        with pytest.raises(ValueError):
            GroupedEarlSession(
                keys, [Measure("m", "mean", values),
                       Measure("m", "sum", values)])

    def test_misaligned_measure_rejected(self):
        keys, values = skewed_table(n=1_000)
        with pytest.raises(ValueError):
            GroupedEarlSession(keys, [Measure("m", "mean", values[:-1])])


class TestSchedulerBudget:
    """A grouped session's one way onto a row budget: the scheduler
    reads its ``live_demands`` and steps it with ``run_round(grants)``."""

    @staticmethod
    def _session(sigma=0.05, **table):
        keys, values = skewed_table(n=30_000, **table)
        return GroupedEarlSession(
            keys, [Measure("m", "mean", values)],
            config=EarlConfig(sigma=sigma, seed=11, **SAMPLING_CFG))

    @staticmethod
    def _consumed(session):
        return {unit.key: unit.consumed for unit in session._units}

    def test_demands_before_the_first_round_use_the_pilot_spread(self):
        session = self._session()
        assert session.live_demands() == []        # not prepared yet
        session.prepare()
        demands = {d["key"]: d for d in session.live_demands()}
        assert set(demands) == {"calm", "mid", "wild"}
        for d in demands.values():
            assert d["error"] == float("inf") and d["consumed"] == 0
            assert d["scheduled"] == SAMPLING_CFG["n_override"]
            assert d["remaining"] == d["size"]
        # No estimate yet: the pilot's std ranks the groups' spread.
        assert demands["calm"]["scale"] < demands["mid"]["scale"]
        assert demands["calm"]["scale"] < demands["wild"]["scale"]

    def test_demands_after_a_round_rescale_from_the_live_error(self):
        session = self._session()
        session.prepare()
        session.run_round()
        demands = session.live_demands()
        assert demands, "scenario needs a group still sampling"
        for d in demands:
            assert d["scale"] == d["error"] * np.sqrt(d["consumed"])
            assert d["scheduled"] > 0

    def test_first_draw_follows_the_schedule_whatever_the_grant(self):
        session = self._session()
        session.prepare()
        session.run_round({"calm": 1, "mid": 1, "wild": 1})
        n = SAMPLING_CFG["n_override"]
        assert self._consumed(session) == {"calm": n, "mid": n, "wild": n}

    def test_grants_draw_exactly_what_is_granted(self):
        session = self._session()
        session.prepare()
        session.run_round()
        active = [d["key"] for d in session.live_demands()]
        assert "wild" in active and len(active) >= 2
        before = self._consumed(session)
        session.run_round({"wild": 500})
        after = self._consumed(session)
        assert after["wild"] == before["wild"] + 500
        # a group the grants leave out draws nothing this round
        assert {k: v for k, v in after.items() if k != "wild"} \
            == {k: v for k, v in before.items() if k != "wild"}

    def test_unbudgeted_round_draws_each_groups_schedule(self):
        session = self._session()
        session.prepare()
        session.run_round()
        targets = {unit.key: unit.target for unit in session._units
                   if unit.active}
        assert targets
        session.run_round()
        consumed = self._consumed(session)
        assert {key: consumed[key] for key in targets} == targets

    @pytest.mark.parametrize("budget", [1_000, 4_000])
    def test_budgeted_run_reaches_the_bounds(self, budget):
        # milder dispersion than the laggard scenario: every group's
        # bound is comfortably reachable from its own rows
        session = self._session(sigma=0.03, sigmas=(0.3, 0.8, 1.1))
        scheduler = QueryScheduler(round_budget=budget)
        query = scheduler.submit_grouped(session, name="g")
        result = scheduler.run()["g"]
        assert result.achieved
        assert result.rows_processed <= result.population_size
        rows = [0] + [snap.rows_processed for snap in query.snapshots]
        assert len(rows) >= 4                      # several rounds
        assert all(b - a <= budget for a, b in zip(rows, rows[1:]))


def _fingerprint(result):
    return {
        (key, name): (res.estimate, res.error, res.n, res.B,
                      res.achieved, res.num_iterations)
        for key, by_agg in result.groups.items()
        for name, res in by_agg.items()}


class TestBackends:
    @staticmethod
    def _run(backend):
        keys, values = skewed_table(n=20_000)
        cfg = EarlConfig(sigma=0.04, seed=13, executor=backend,
                         max_workers=2)
        return GroupedEarlSession(
            keys,
            [Measure("mean", "mean", values),
             Measure("p90", "p90", values, sigma=0.1)],
            config=cfg).run()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_results_byte_identical_across_backends(self, backend):
        assert _fingerprint(self._run(backend)) \
            == _fingerprint(self._run("serial"))
