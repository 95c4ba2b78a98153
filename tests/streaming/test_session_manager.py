"""SessionManager: concurrent EARL queries over one shared sample."""

import numpy as np
import pytest

from repro.core import EarlConfig, EarlSession
from repro.streaming import SessionManager

BACKENDS = ["serial", "threads", "processes"]


@pytest.fixture
def population():
    return np.random.default_rng(8).lognormal(0.5, 1.0, 250_000)


class TestConcurrentQueries:
    def test_three_queries_share_one_sample(self, population):
        manager = SessionManager(population,
                                 config=EarlConfig(sigma=0.03, seed=21))
        manager.submit("mean")
        manager.submit("median", sigma=0.02)
        manager.submit("p90", sigma=0.05)
        results = manager.run()
        assert sorted(results) == ["mean", "median", "p90"]
        truths = {"mean": float(np.mean(population)),
                  "median": float(np.median(population)),
                  "p90": float(np.quantile(population, 0.9))}
        for name, result in results.items():
            assert result is not None and result.achieved
            rel_err = abs(result.estimate - truths[name]) / truths[name]
            assert rel_err < 0.15, f"{name}: {rel_err}"
        # One shared growing sample: every query's per-iteration sample
        # sizes are a prefix of the longest query's size sequence.
        sizes = {name: [rec.sample_size for rec in result.iterations]
                 for name, result in results.items()}
        longest = max(sizes.values(), key=len)
        for seq in sizes.values():
            assert seq == longest[:len(seq)]

    def test_deterministic_across_backends(self, population):
        def run(executor):
            manager = SessionManager(
                population, config=EarlConfig(sigma=0.04, seed=33,
                                              executor=executor,
                                              max_workers=2))
            manager.submit("mean")
            manager.submit("median")
            manager.submit("p90", sigma=0.08)
            return manager.run()

        reference = run("serial")
        for executor in BACKENDS[1:]:
            assert run(executor) == reference

    def test_correlation_queries_over_pairs(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=120_000)
        pairs = np.column_stack([x, 0.7 * x
                                 + 0.7 * rng.normal(size=120_000)])
        truth = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
        manager = SessionManager(pairs,
                                 config=EarlConfig(sigma=0.05, seed=13))
        manager.submit("correlation")
        manager.submit("correlation", sigma=0.02, name="tight")
        results = manager.run()
        for result in results.values():
            assert abs(result.estimate - truth) < 0.12
        # the tighter bound cannot use fewer samples than the looser one
        assert results["tight"].n >= results["correlation"].n

    def test_exact_fallback_query(self, population):
        # sigma so strict SSABE concludes B*n >= N for this query
        manager = SessionManager(population[:2000],
                                 config=EarlConfig(sigma=0.05, seed=3))
        query = manager.submit("mean", sigma=0.001)
        results = manager.run()
        assert results["mean"].used_fallback
        assert results["mean"].estimate == pytest.approx(
            float(np.mean(population[:2000])))
        assert query.snapshots[0].final


class TestOneQueryIsTheSoloSession:
    """A manager holding one query and an ``EarlSession`` are the same
    engine with the same RNG discipline (one pipeline continues the
    unit's generator; only k >= 2 pre-spawn streams), so they agree
    snapshot for snapshot — nested accuracy, SSABE trail and result
    included — on every backend."""

    @pytest.mark.parametrize("executor", BACKENDS)
    @pytest.mark.parametrize("statistic, sigma", [("mean", 0.02),
                                                  ("p90", 0.03)])
    def test_snapshot_for_snapshot(self, population, statistic, sigma,
                                   executor):
        # SSABE still picks B; the first sample is pinned small enough
        # that both statistics take several rounds to reach sigma.
        cfg = EarlConfig(sigma=sigma, seed=19, n_override=1_000,
                         executor=executor, max_workers=2)
        solo = list(EarlSession(population, statistic, config=cfg).stream())
        manager = SessionManager(population, config=cfg)
        query = manager.submit(statistic)
        assert [snap for _, snap in manager.stream()] == solo
        assert len(solo) >= 2 and query.result == solo[-1].result


class TestLifecycle:
    def test_cancel_one_query_mid_stream(self, population):
        cfg = EarlConfig(sigma=0.001, seed=11, B_override=20,
                         n_override=200, expansion_factor=1.5,
                         max_iterations=6)
        manager = SessionManager(population, config=cfg)
        q_mean = manager.submit("mean")
        q_median = manager.submit("median")
        for query, snapshot in manager.stream():
            if query is q_mean and len(q_mean.snapshots) == 1:
                q_mean.cancel()
        assert q_mean.cancelled and q_mean.result is None
        assert len(q_mean.snapshots) == 1
        assert q_median.result is not None
        assert len(q_median.snapshots) == 6

    def test_cancel_before_start_excluded_from_shared_sample(
            self, population):
        """A query withdrawn before streaming gets no pilot and must
        not count toward the broadcast bound or any round's target: the
        siblings' snapshots and the rows consumed are byte-identical to
        a manager that never saw it (regression: a cancelled query with
        a huge SSABE ask used to inflate every shared draw)."""
        cfg = EarlConfig(sigma=0.04, seed=33)

        def run(include_withdrawn):
            manager = SessionManager(population, config=cfg)
            manager.submit("mean")
            manager.submit("median")
            doomed = None
            if include_withdrawn:
                # Never-met σ and a deliberately huge pilot ask: if its
                # withdrawal leaked into the shared schedule, the first
                # round would draw 50k rows instead of the siblings'.
                doomed = manager.submit("p99", sigma=0.0001,
                                        B_override=100,
                                        n_override=50_000)
                doomed.cancel()
            results = manager.run()
            return manager, doomed, results

        manager_3q, doomed, results_3q = run(include_withdrawn=True)
        manager_2q, _, results_2q = run(include_withdrawn=False)

        # The withdrawn query never piloted: no SSABE, no snapshots.
        assert doomed.ssabe is None and doomed.B is None
        assert doomed.snapshots == [] and doomed.result is None
        assert results_3q.pop("p99") is None
        # Siblings byte-identical, and the shared sample drew the same
        # rows — the withdrawn ask bought nothing.
        assert results_3q == results_2q
        for q3, q2 in zip(manager_3q.queries, manager_2q.queries):
            assert q3.snapshots == q2.snapshots
        assert manager_3q.consumed == manager_2q.consumed

    def test_closing_stream_cancels_session(self, population):
        cfg = EarlConfig(sigma=0.001, seed=11, B_override=20,
                         n_override=200, max_iterations=6)
        manager = SessionManager(population, config=cfg)
        manager.submit("mean")
        manager.submit("median")
        gen = manager.stream()
        next(gen)
        gen.close()
        assert all(q.result is None for q in manager.queries)

    def test_streams_only_once(self, population):
        manager = SessionManager(population,
                                 config=EarlConfig(sigma=0.05, seed=1))
        manager.submit("mean")
        manager.run()
        with pytest.raises(RuntimeError):
            manager.run()

    def test_submit_after_start_rejected(self, population):
        manager = SessionManager(population,
                                 config=EarlConfig(sigma=0.05, seed=1))
        manager.submit("mean")
        manager.run()
        with pytest.raises(RuntimeError):
            manager.submit("median")

    def test_no_queries_rejected(self, population):
        manager = SessionManager(population)
        with pytest.raises(RuntimeError):
            manager.run()

    def test_scalar_statistic_rejected_over_pair_data(self):
        pairs = np.zeros((5000, 2))
        manager = SessionManager(pairs)
        manager.submit("correlation")  # row-wise: fine
        with pytest.raises(ValueError, match="scalar items"):
            manager.submit("mean")

    def test_duplicate_names(self, population):
        manager = SessionManager(population)
        first = manager.submit("mean")
        second = manager.submit("mean")  # auto-suffixed
        assert first.name == "mean" and second.name == "mean#2"
        with pytest.raises(ValueError):
            manager.submit("median", name="mean")


class TestSubmitChecksOverrides:
    """A per-query override is held to ``EarlConfig``'s rule for the
    same field when it is submitted: a bad one is refused there, never
    failing the whole run later (nor silently replaced by SSABE's
    pick), and the sibling already submitted still gets its answer."""

    @pytest.mark.parametrize("field, value", [
        ("B_override", -3), ("sigma", 0.0), ("error_metric", "bogus"),
        ("B_override", 2.5), ("B_override", 0), ("n_override", 0),
        ("n_override", -5),
    ])
    def test_rejected_at_submit(self, population, field, value):
        manager = SessionManager(population,
                                 config=EarlConfig(sigma=0.05, seed=4))
        sibling = manager.submit("median")
        with pytest.raises((ValueError, TypeError)):
            EarlConfig(**{field: value})
        with pytest.raises((ValueError, TypeError)):
            manager.submit("mean", **{field: value})
        assert [q.name for q in manager.queries] == ["median"]
        assert manager.run()["median"] is sibling.result is not None
