"""Cross-query scheduler: the equivalence matrix (scheduled ≡ solo,
byte for byte), the budget-allocation policy, cancellation accounting,
and executor-pool release."""

import gc

import numpy as np
import pytest

from repro.core import EarlConfig, EarlSession
from repro.exec import live_pool_executors
from repro.query import Query, agg
from repro.scheduler import QueryScheduler, allocate_budget, rows_to_bound
from repro.streaming import SessionManager
from repro.workloads import skewed_keyed_values

BACKENDS = ["serial", "threads", "processes"]


@pytest.fixture
def population():
    return np.random.default_rng(8).lognormal(0.5, 1.0, 250_000)


def skewed_table(seed=5, heavy=24_000, light=900):
    """Two groups with very different sizes and spreads — the regime
    where per-group budget reallocation pays."""
    rng = np.random.default_rng(seed)
    key = np.concatenate([np.repeat("heavy", heavy),
                          np.repeat("light", light)])
    value = np.concatenate([rng.lognormal(2.0, 1.0, heavy),
                            rng.exponential(3.0, light)])
    perm = rng.permutation(key.size)
    return {"key": key[perm], "value": value[perm]}


def grouped_query(table, cfg):
    return Query([agg("mean", "value")], group_by="key").on(table,
                                                            config=cfg)


class TestBudgetPolicy:
    """Unit tests for the expected-error-reduction allocation."""

    def test_rows_to_bound_met_arm_needs_nothing(self):
        assert rows_to_bound(0.01, 0.05, 1000, 500, 9000) == 0

    def test_rows_to_bound_error_inverse_sqrt_n(self):
        # error = 2σ at n=100: needs n·((e/σ)² − 1) = 300 more rows.
        assert rows_to_bound(0.10, 0.05, 100, 500, 9000) == 300

    def test_rows_to_bound_clamped_to_remaining(self):
        assert rows_to_bound(0.10, 0.05, 100, 500, 120) == 120
        assert rows_to_bound(0.10, 0.05, 100, 500, 0) == 0

    def test_rows_to_bound_pilot_round_asks_its_schedule(self):
        # No live estimate yet: the SSABE-sized draw is the only ask.
        assert rows_to_bound(float("nan"), 0.05, 0, 400, 9000) == 400

    def test_grants_capped_at_need_and_redistributed(self):
        met = {"key": "a", "error": 0.01, "sigma": 0.05, "consumed": 1000,
               "size": 10_000, "scheduled": 500, "remaining": 9000,
               "scale": 0.01 * np.sqrt(1000), "shared": False}
        lagging = {"key": "b", "error": 0.25, "sigma": 0.05,
                   "consumed": 1000, "size": 10_000, "scheduled": 500,
                   "remaining": 9000, "scale": 0.25 * np.sqrt(1000),
                   "shared": False}
        grants = allocate_budget([met, lagging])
        assert sum(grants) == 1000          # global throughput preserved
        assert grants[0] == 0               # met arm donates everything
        assert grants[1] == 1000

    def test_one_row_floor_keeps_starving_arms_live(self):
        tiny = {"key": "t", "error": 0.06, "sigma": 0.05, "consumed": 100,
                "size": 10, "scheduled": 1, "remaining": 1000,
                "scale": 0.001, "shared": False}
        huge = {"key": "h", "error": 1.0, "sigma": 0.05, "consumed": 100,
                "size": 1_000_000, "scheduled": 999, "remaining": 10**6,
                "scale": 50.0, "shared": False}
        grants = allocate_budget([tiny, huge], total=1000)
        assert grants[0] >= 1               # never starved to zero
        assert sum(grants) == 1000

    def test_no_live_scale_falls_back_to_size_weights(self):
        arms = [{"key": k, "error": float("nan"), "sigma": 0.05,
                 "consumed": 0, "size": size, "scheduled": 300,
                 "remaining": 10_000, "scale": float("nan"),
                 "shared": False}
                for k, size in (("a", 3000), ("b", 1000))]
        grants = allocate_budget(arms, total=400)
        assert grants == [300, 100]         # 3:1 sizes, cap at schedule


class TestSoloEquivalence:
    """A scheduled single query IS the solo session, byte for byte —
    the scheduler adds nothing (and no budget) when nothing is shared."""

    @pytest.mark.parametrize("executor", BACKENDS)
    def test_scheduled_single_matches_solo_session(self, population,
                                                   executor):
        cfg = EarlConfig(sigma=0.04, seed=33, executor=executor,
                         max_workers=2)
        solo = list(EarlSession(population, "mean", config=cfg).stream())
        sched = QueryScheduler()
        query = sched.submit_statistic(population, "mean", config=cfg,
                                       table="pop")
        results = sched.run()
        assert query.snapshots == solo
        assert results["mean"] == solo[-1].result

    def test_scheduled_group_matches_session_manager(self, population):
        cfg = EarlConfig(sigma=0.04, seed=33)
        manager = SessionManager(population, config=cfg)
        manager.submit("mean")
        manager.submit("median")
        manager.submit("p90", sigma=0.08)
        reference = manager.run()

        sched = QueryScheduler()
        for stat, sigma in (("mean", None), ("median", None),
                            ("p90", 0.08)):
            sched.submit_statistic(population, stat, config=cfg,
                                   table="pop", sigma=sigma)
        assert sched.run() == reference

    def test_scheduled_grouped_matches_direct_query(self):
        table = skewed_table()
        cfg = EarlConfig(sigma=0.05, seed=17)
        reference = grouped_query(table, cfg).run()
        sched = QueryScheduler()
        query = sched.submit_grouped(grouped_query(table, cfg).plan(),
                                     name="g")
        results = sched.run()
        assert results["g"] == reference
        assert query.snapshots[-1].final


class TestDeterminism:
    @staticmethod
    def _mixed_run(population, order="forward", executor="serial"):
        cfg = EarlConfig(sigma=0.05, seed=21, executor=executor,
                         max_workers=2)
        table = skewed_table()
        sched = QueryScheduler()
        submissions = [
            lambda: sched.submit_statistic(population, "mean", config=cfg,
                                           table="pop", name="mean"),
            lambda: sched.submit_statistic(population, "p90", config=cfg,
                                           table="pop", sigma=0.08,
                                           name="p90"),
            lambda: sched.submit_grouped(
                grouped_query(table, EarlConfig(sigma=0.06, seed=9,
                                                executor=executor,
                                                max_workers=2)).plan(),
                name="by-key"),
        ]
        if order == "reversed":
            submissions = submissions[::-1]
        for submit in submissions:
            submit()
        results = sched.run()
        snapshots = {q.name: q.snapshots for q in sched.queries}
        return results, snapshots

    def test_submission_interleaving_is_irrelevant(self, population):
        forward = self._mixed_run(population, "forward")
        backward = self._mixed_run(population, "reversed")
        assert forward == backward

    @pytest.mark.parametrize("executor", BACKENDS[1:])
    def test_byte_identical_across_backends(self, population, executor):
        assert (self._mixed_run(population, executor=executor)
                == self._mixed_run(population, executor="serial"))

    def test_rerun_is_byte_identical(self, population):
        assert self._mixed_run(population) == self._mixed_run(population)


class TestBudgetedRuns:
    def test_skewed_grouped_queries_meet_bounds_with_fewer_rows(self):
        """Two grouped queries over the same skewed table: scheduled
        together (one global budget, grants capped at what an arm still
        needs, finished groups donating rows to laggards across
        queries) they reach every per-group target with fewer total
        rows than two independent runs, whose arms double past it."""
        # The regime where that is structural, not a seed's luck: groups
        # large enough that none is answered by an exact scan, bounds
        # tight enough (from a small pinned first draw) that every arm
        # samples for 6-9 rounds, values tame enough (lognormal 0.6)
        # that an arm's need estimate is not noise.  On a 24k-row
        # heavy-tailed table the two totals differ by +-3 % either way.
        keys, values = skewed_keyed_values(240_000, 6, skew=1.4,
                                           value_sigma=0.6, seed=5)
        table = {"key": keys, "value": values}
        cfgs = [EarlConfig(sigma=0.02, seed=17, B_override=30,
                           n_override=75),
                EarlConfig(sigma=0.03, seed=23, B_override=30,
                           n_override=75)]

        independent = [grouped_query(table, cfg).run() for cfg in cfgs]
        rows_independent = sum(r.rows_processed for r in independent)
        assert all(r.achieved for r in independent)

        sched = QueryScheduler()
        for i, cfg in enumerate(cfgs):
            sched.submit_grouped(grouped_query(table, cfg).plan(),
                                 name=f"q{i}")
        results = sched.run()
        assert all(res is not None and res.achieved
                   for res in results.values())
        assert all(len(query.snapshots) >= 5 for query in sched.queries)
        assert sched.rows_processed < rows_independent

    def test_explicit_round_budget_engages_for_single_engine(self,
                                                             population):
        # With round_budget set, even a lone manager is budget-stepped;
        # it must still terminate and meet its bounds.
        cfg = EarlConfig(sigma=0.05, seed=3)
        sched = QueryScheduler(round_budget=2000)
        sched.submit_statistic(population, "mean", config=cfg, table="pop")
        sched.submit_statistic(population, "std", config=cfg, table="pop")
        results = sched.run()
        assert results["mean"].achieved and results["std"].achieved

    def test_round_budget_splits_a_lone_grouped_query(self):
        """One grouped query under a fixed per-round budget: the live
        allocator grows each group to its need instead of doubling it
        past the bound, so every bound is met with fewer rows than the
        query's own schedule draws.  Summed over four session seeds,
        since on a single seed the schedule can land just past a bound
        by luck (28 of 30 seeds favour the budget here)."""
        keys, values = skewed_keyed_values(40_000, 4, skew=1.4, seed=11)
        table = {"key": keys, "value": values}
        rows = {"schedule": 0, "budget": 0}
        for seed in range(4):
            cfg = EarlConfig(sigma=0.04, seed=seed, B_override=20,
                             n_override=150)
            solo = grouped_query(table, cfg).run()
            sched = QueryScheduler(round_budget=1_000)
            sched.submit_grouped(grouped_query(table, cfg).plan(),
                                 name="g")
            budgeted = sched.run()["g"]
            assert solo.achieved and budgeted.achieved
            rows["schedule"] += solo.rows_processed
            rows["budget"] += budgeted.rows_processed
        assert rows["budget"] < 0.8 * rows["schedule"]

    def test_starved_grouped_query_still_gets_its_final_event(self):
        # A round budget below the group count: the one-row floor
        # cannot cover every arm, so the session uses up its
        # round-count bound with groups still live.  It must finalize
        # best-effort rather than drop out of the window silently.
        rng = np.random.default_rng(2)
        key = np.repeat(np.arange(16), 3000)
        table = {"key": key, "value": rng.lognormal(1.0, 1.0, key.size)}
        cfg = EarlConfig(sigma=0.001, seed=5, B_override=10, n_override=50,
                         max_iterations=3)
        sched = QueryScheduler(round_budget=1)
        query = sched.submit_grouped(grouped_query(table, cfg).plan(),
                                     name="g")
        result = sched.run()["g"]
        assert query.snapshots[-1].final
        assert result is not None and not result.achieved
        assert len(result.groups) == 16
        assert result.rounds == 8 * cfg.max_iterations + 1
        # every group took its SSABE-sized first draw despite the budget
        assert all(res.n >= 50 for by_agg in result.groups.values()
                   for res in by_agg.values())

    def test_round_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryScheduler(round_budget=0)


class TestCancellation:
    def test_cancel_before_stream_leaves_siblings_byte_identical(
            self, population):
        """A query withdrawn before the run starts is never admitted:
        the surviving queries' snapshots are byte-identical to a
        scheduler that never saw it (satellite regression: a withdrawn
        query must not count toward shared expansion decisions)."""
        cfg = EarlConfig(sigma=0.04, seed=33)

        def run(include_withdrawn):
            sched = QueryScheduler()
            sched.submit_statistic(population, "mean", config=cfg,
                                   table="pop")
            sched.submit_statistic(population, "median", config=cfg,
                                   table="pop")
            if include_withdrawn:
                doomed = sched.submit_statistic(
                    population, "p99", config=cfg, table="pop",
                    sigma=0.0001, n_override=50_000, B_override=100)
                doomed.cancel()
            results = sched.run()
            if include_withdrawn:
                assert results.pop("p99") is None   # withdrawn: no result
            return results, {q.name: q.snapshots for q in sched.queries
                             if not q.cancelled}

        with_cancel = run(include_withdrawn=True)
        without = run(include_withdrawn=False)
        assert with_cancel == without

    def test_cancel_mid_run_stops_driving_expansion(self, population):
        """A tight-σ query cancelled mid-run stops pulling the shared
        sample: the run consumes fewer rows than letting it finish."""
        cfg = EarlConfig(sigma=0.05, seed=11, B_override=20,
                         n_override=400, expansion_factor=1.5,
                         max_iterations=8)

        def run(cancel_tight):
            sched = QueryScheduler()
            sched.submit_statistic(population, "mean", config=cfg,
                                   table="pop")
            tight = sched.submit_statistic(population, "median",
                                           config=cfg, table="pop",
                                           sigma=0.0001, name="tight")
            for query, _snap in sched.stream():
                if cancel_tight and query is tight:
                    tight.cancel()
            return sched

        cancelled = run(cancel_tight=True)
        full = run(cancel_tight=False)
        tight = next(q for q in cancelled.queries if q.name == "tight")
        assert tight.cancelled and tight.result is None
        mean = next(q for q in cancelled.queries if q.name == "mean")
        assert mean.result is not None and mean.result.achieved
        assert cancelled.rows_processed < full.rows_processed

    def test_scheduler_cancel_withdraws_everything(self, population):
        cfg = EarlConfig(sigma=0.0001, seed=7, B_override=10,
                         n_override=100, max_iterations=10)
        sched = QueryScheduler()
        sched.submit_statistic(population, "mean", config=cfg, table="pop")
        gen = sched.stream()
        next(gen)
        sched.cancel()
        assert list(gen) == []
        assert all(q.result is None for q in sched.queries)

    def test_streams_only_once_and_rejects_empty(self, population):
        sched = QueryScheduler()
        with pytest.raises(RuntimeError):
            sched.run()
        sched.submit_statistic(population, "mean",
                               config=EarlConfig(sigma=0.2, seed=1),
                               table="pop")
        sched.run()
        with pytest.raises(RuntimeError):
            sched.run()
        with pytest.raises(RuntimeError):
            sched.submit_statistic(population, "std",
                                   config=EarlConfig(sigma=0.2, seed=1),
                                   table="pop")

    def test_duplicate_names_rejected(self, population):
        sched = QueryScheduler()
        sched.submit_statistic(population, "mean",
                               config=EarlConfig(seed=1), name="q")
        with pytest.raises(ValueError):
            sched.submit_statistic(population, "std",
                                   config=EarlConfig(seed=1), name="q")


class TestPoolRelease:
    """Walking away from a scheduled run must release every engine's
    worker pool — the same invariant the engines pin solo, extended to
    scheduler-driven (and service-scheduled) sessions."""

    @pytest.fixture(autouse=True)
    def baseline(self):
        gc.collect()
        before = set(id(ex) for ex in live_pool_executors())
        yield
        gc.collect()
        leaked = [ex for ex in live_pool_executors()
                  if id(ex) not in before]
        assert leaked == []

    def test_closing_scheduled_manager_stream_releases_pool(self,
                                                            population):
        cfg = EarlConfig(sigma=0.0001, seed=5, B_override=10,
                         n_override=100, expansion_factor=1.5,
                         max_iterations=10, executor="threads",
                         max_workers=2)
        sched = QueryScheduler()
        sched.submit_statistic(population, "mean", config=cfg, table="pop")
        sched.submit_statistic(population, "median", config=cfg,
                               table="pop")
        gen = sched.stream()
        next(gen)
        assert len(live_pool_executors()) >= 1   # pool live mid-stream
        gen.close()                              # teardown closes engines
        assert live_pool_executors() == []

    def test_closing_scheduled_grouped_stream_releases_pool(self):
        table = skewed_table()
        cfg = EarlConfig(sigma=0.0001, seed=31, B_override=10,
                         n_override=60, expansion_factor=1.5,
                         max_iterations=8, executor="threads",
                         max_workers=2)
        sched = QueryScheduler()
        sched.submit_grouped(grouped_query(table, cfg).plan(), name="g")
        gen = sched.stream()
        next(gen)
        assert len(live_pool_executors()) >= 1
        gen.close()
        assert live_pool_executors() == []

    def test_abandoned_scheduler_stream_released_by_gc(self, population):
        cfg = EarlConfig(sigma=0.0001, seed=5, B_override=10,
                         n_override=100, max_iterations=10,
                         executor="threads", max_workers=2)
        sched = QueryScheduler()
        sched.submit_statistic(population, "mean", config=cfg, table="pop")
        sched.submit_statistic(population, "median", config=cfg,
                               table="pop")
        gen = sched.stream()
        next(gen)
        assert len(live_pool_executors()) >= 1
        del gen       # no explicit close: the finalizer must tear down
        gc.collect()
        assert live_pool_executors() == []
