"""Tests for inter-iteration delta maintenance (§4.1)."""

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.cluster.costmodel import CostLedger
from repro.core.bootstrap import bootstrap
from repro.core.delta import (
    MAINTENANCE_NAIVE,
    MAINTENANCE_NONE,
    MAINTENANCE_OPTIMIZED,
    NaiveMaintainer,
    Resample,
    ResampleSet,
    SketchMaintainer,
    _DenseRows,
)
from repro.core.estimators import Statistic, get_statistic

from delta_reference import ReferenceResampleSet


@pytest.fixture
def population():
    return np.random.default_rng(1).lognormal(3.0, 1.0, 12_000)


class TestResample:
    def test_add_and_size(self):
        r = Resample(get_statistic("mean").make_state())
        r.new_segment()
        r.add_many(np.array([1.0, 2.0, 3.0]), 0)
        assert r.size == 3
        assert r.estimate() == pytest.approx(2.0)

    def test_remove_random_keeps_state_consistent(self):
        rng = np.random.default_rng(2)
        r = Resample(get_statistic("mean").make_state())
        r.new_segment()
        values = [float(i) for i in range(20)]
        r.add_many(np.array(values), 0)
        (removed,) = r.remove_random_many(rng, 1)
        assert removed in values
        remaining = sum(values) - removed
        assert r.estimate() == pytest.approx(remaining / 19)

    def test_remove_from_empty_raises(self):
        r = Resample(get_statistic("mean").make_state())
        r.new_segment()
        with pytest.raises(ValueError):
            r.remove_random_many(np.random.default_rng(3), 1)

    def test_multi_segment_removal_spans_segments(self):
        rng = np.random.default_rng(4)
        r = Resample(get_statistic("sum").make_state())
        r.new_segment()
        r.add_many(np.array([1.0]), 0)
        r.new_segment()
        r.add_many(np.array([2.0]), 1)
        seen = set()
        for _ in range(50):
            clone = Resample(get_statistic("sum").make_state())
            clone.new_segment()
            clone.add_many(np.array([1.0]), 0)
            clone.new_segment()
            clone.add_many(np.array([2.0]), 1)
            (removed,) = clone.remove_random_many(rng, 1)
            seen.add(float(removed))
        assert seen == {1.0, 2.0}


class TestResampleSetLifecycle:
    @pytest.mark.parametrize("mode", [MAINTENANCE_NAIVE,
                                      MAINTENANCE_OPTIMIZED,
                                      MAINTENANCE_NONE])
    def test_sizes_always_match_sample(self, population, mode):
        rs = ResampleSet("mean", 20, maintenance=mode, seed=5)
        rs.initialize(population[:500])
        assert set(rs.resample_sizes()) == {500}
        rs.expand(population[500:1500])
        assert set(rs.resample_sizes()) == {1500}
        rs.expand(population[1500:2000])
        assert set(rs.resample_sizes()) == {2000}
        assert rs.sample_size == 2000

    def test_double_initialize_rejected(self, population):
        rs = ResampleSet("mean", 5, seed=6)
        rs.initialize(population[:100])
        with pytest.raises(RuntimeError):
            rs.initialize(population[:100])

    def test_expand_before_initialize_rejected(self, population):
        rs = ResampleSet("mean", 5, seed=7)
        with pytest.raises(RuntimeError):
            rs.expand(population[:100])

    def test_empty_initialize_rejected(self):
        rs = ResampleSet("mean", 5, seed=8)
        with pytest.raises(ValueError):
            rs.initialize([])

    def test_empty_expand_is_noop(self, population):
        rs = ResampleSet("mean", 5, seed=9)
        rs.initialize(population[:100])
        before = rs.estimates()
        rs.expand([])
        np.testing.assert_array_equal(before, rs.estimates())

    def test_estimates_before_initialize_rejected(self):
        with pytest.raises(RuntimeError):
            ResampleSet("mean", 5, seed=10).estimates()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ResampleSet("mean", 5, maintenance="turbo")

    def test_invalid_B(self):
        with pytest.raises(ValueError):
            ResampleSet("mean", 0)


class TestStatisticalValidity:
    """Maintained resamples must be distributed like fresh bootstraps."""

    @pytest.mark.parametrize("mode", [MAINTENANCE_NAIVE,
                                      MAINTENANCE_OPTIMIZED])
    def test_mean_and_spread_match_fresh_bootstrap(self, population, mode):
        B = 120
        rs = ResampleSet("mean", B, maintenance=mode, seed=11)
        rs.initialize(population[:1000])
        rs.expand(population[1000:2000])
        rs.expand(population[2000:4000])
        maintained = rs.estimates()

        fresh = bootstrap(population[:4000], "mean", B=B, seed=12)
        # Same centre...
        assert maintained.mean() == pytest.approx(fresh.mean, rel=0.02)
        # ...and same dispersion (within Monte-Carlo noise).
        assert maintained.std(ddof=1) == pytest.approx(fresh.std, rel=0.5)

    @pytest.mark.parametrize("mode", [MAINTENANCE_NAIVE,
                                      MAINTENANCE_OPTIMIZED])
    def test_median_statistic_maintained(self, population, mode):
        rs = ResampleSet("median", 60, maintenance=mode, seed=13)
        rs.initialize(population[:800])
        rs.expand(population[800:1600])
        maintained = rs.estimates()
        true_median = np.median(population[:1600])
        assert maintained.mean() == pytest.approx(true_median, rel=0.1)

    @pytest.mark.parametrize("mode", [MAINTENANCE_NAIVE,
                                      MAINTENANCE_OPTIMIZED])
    def test_ks_delta_updates_distributed_like_fresh_bootstrap(
            self, population, mode):
        """§4.1 regression (KS): delta-updated resample estimates are
        distributed like *fresh* bootstrap estimates of the enlarged
        sample — the multinomial-thinning equivalence the maintenance
        algorithms rest on.  Seeded and tolerance-bounded: with both
        sides drawing B estimates of the same target distribution, a
        two-sample KS p-value below 1e-3 would flag a real divergence,
        not Monte-Carlo noise."""
        B = 200
        rs = ResampleSet("mean", B, maintenance=mode, seed=104)
        rs.initialize(population[:400])
        rs.expand(population[400:800])        # two delta rounds: the
        rs.expand(population[800:1600])       # general multi-segment case
        maintained = np.asarray(rs.estimates())

        enlarged = population[:1600]
        rng = np.random.default_rng(105)
        fresh = np.array([
            enlarged[rng.integers(0, enlarged.size,
                                  size=enlarged.size)].mean()
            for _ in range(B)])
        _, p_value = sp_stats.ks_2samp(maintained, fresh)
        assert p_value > 1e-3

    @pytest.mark.parametrize("statistic", ["mean", "median", "p90", "std",
                                           "correlation"])
    def test_ks_dense_scalar_naive_and_fresh_agree(self, population,
                                                   statistic,
                                                   resample_items):
        """The contract for a kernel that draws differently (DESIGN.md
        §5): the dense memory-resident rows, their item-at-a-time scalar
        reference (``tests/delta_reference.py``), the naive path and a fresh
        bootstrap of the enlarged sample give the same estimate
        *distribution* — over three expansions in which resamples both
        shed items and regain old-sample ones (the data is
        distinct-valued, so an item's value tells which Δs it came
        from).  Seeded; a two-sample KS p-value under 1e-3 is a
        divergence, not noise."""
        B, bounds = 200, [400, 800, 1600, 2400]
        if statistic == "correlation":
            rng = np.random.default_rng(7)
            x = rng.normal(size=bounds[-1])
            data = np.column_stack(
                [x, 0.6 * x + rng.normal(size=bounds[-1])])
        else:
            data = population[:bounds[-1]]
        keys = data[:, 0] if data.ndim == 2 else data
        assert len(np.unique(keys)) == len(keys)
        kinds = {"dense": (ResampleSet, dict(seed=204), "dense"),
                 "scalar": (ReferenceResampleSet, dict(seed=207),
                            "resident"),
                 "naive": (ResampleSet,
                           dict(seed=205, maintenance=MAINTENANCE_NAIVE),
                           "naive")}
        estimates = {}
        for kind, (make, kwargs, layout) in kinds.items():
            rs = make(statistic, B, **kwargs)
            deleted = added_old = lo = 0
            for hi in bounds:
                (rs.expand if lo else rs.initialize)(data[lo:hi])
                if lo:
                    shares = [int(np.isin(row[..., 0] if data.ndim == 2
                                          else row, keys[:lo]).sum())
                              for row in resample_items(rs)]
                    deleted += sum(share < lo for share in shares)
                    added_old += sum(share > lo for share in shares)
                lo = hi
            assert deleted >= B and added_old >= B, kind
            assert _layout(rs) == layout
            estimates[kind] = np.asarray(rs.estimates())
        stat = get_statistic(statistic)
        rng = np.random.default_rng(206)
        n = len(data)
        estimates["fresh"] = np.array(
            [stat(data[rng.integers(0, n, size=n)]) for _ in range(B)])
        for a, b in [("dense", "fresh"), ("scalar", "fresh"),
                     ("naive", "fresh"), ("dense", "scalar"),
                     ("dense", "naive")]:
            _, p_value = sp_stats.ks_2samp(estimates[a], estimates[b])
            assert p_value > 1e-3, f"{statistic}: {a} vs {b} p={p_value}"

    def test_old_sample_share_is_binomial_like(self, population):
        """After one expansion n→2n, each resample should keep ≈ n/2 of
        its items from the old sample on average (Eq. 2)."""
        B = 200
        rs = ResampleSet("mean", B, maintenance=MAINTENANCE_NAIVE, seed=14)
        rs.initialize(population[:500])
        rs.expand(population[500:1000])
        old_shares = [sum(len(seg) for seg in r.segments[:-1])
                      for r in rs._resamples]
        mean_share = np.mean(old_shares)
        # E[k] = n' * (n/n') = 500; std ~ sqrt(500*0.5) ≈ 16
        assert mean_share == pytest.approx(500, abs=10)


class TestVectorizedKernelEquivalence:
    """The batched kernel must be a pure speed-up: same random stream,
    same drawn items, same counters as the item-at-a-time reference."""

    @pytest.mark.parametrize("mode", [MAINTENANCE_NAIVE, MAINTENANCE_NONE])
    @pytest.mark.parametrize("statistic", ["mean", "median"])
    def test_scalar_and_vectorized_draw_identical_items(
            self, population, mode, statistic):
        """Byte-identical stream: resample contents and counters match
        exactly; estimates agree up to floating-point reassociation of
        the state arithmetic.  (Ledger-less ``"optimized"`` is dense
        rows, law-equal to its scalar reference — the KS gate above;
        over a ledger it is covered, sketches and all, by
        ``TestBatchedDeletionsAndOldSampleAdditions``.)"""
        sets = {}
        for make in (ReferenceResampleSet, ResampleSet):
            rs = make(statistic, 12, maintenance=mode, seed=33)
            rs.initialize(population[:600])
            rs.expand(population[600:1400])
            rs.expand(population[1400:2600])
            sets[make] = rs
        scalar, vector = sets[ReferenceResampleSet], sets[ResampleSet]
        assert scalar.counters == vector.counters
        for r_scalar, r_vector in zip(scalar._resamples, vector._resamples):
            assert len(r_scalar.segments) == len(r_vector.segments)
            for seg_scalar, seg_vector in zip(r_scalar.segments,
                                              r_vector.segments):
                np.testing.assert_array_equal(
                    np.asarray(seg_scalar, dtype=float),
                    np.asarray(seg_vector, dtype=float))
        np.testing.assert_allclose(scalar.estimates(), vector.estimates(),
                                   rtol=1e-9)

    def test_fig10_scenario_counters_pinned(self):
        """The seeded Fig. 10 benchmark scenario must keep reporting
        exactly these counters — they were captured from the scalar
        item-at-a-time implementation, and the batched kernel's
        stream-preserving design reproduces them bit for bit.  A change
        here means the maintenance accounting (and therefore the
        Fig. 6/Fig. 10 work comparisons) silently shifted."""
        from repro.workloads import numeric_dataset

        expected = {
            MAINTENANCE_NONE: (7_200_000, 0, 0, 120),
            MAINTENANCE_NAIVE: (1_928_176, 964_088, 0, 0),
            MAINTENANCE_OPTIMIZED: (1_928_284, 2_683, 961_459, 0),
        }
        # Simulated seconds the same runs charged at the parent of the
        # residency change (the benchmark binds a ledger, and so must
        # this: ledger-less, the optimized set indexes the sample
        # directly and builds no sketch).
        seconds = {MAINTENANCE_NONE: 500.40000000000003,
                   MAINTENANCE_NAIVE: 9718.007039999999,
                   MAINTENANCE_OPTIMIZED: 103.7570400000022}
        data = numeric_dataset(64_000, "lognormal", seed=1050)
        for mode, want in expected.items():
            ledger = CostLedger()
            rs = ResampleSet("mean", 30, maintenance=mode, seed=1051,
                             io_scale=1000.0, ledger=ledger)
            rs.initialize(data[:32000])
            for lo, hi in [(32000, 40000), (40000, 48000),
                           (48000, 56000), (56000, 64000)]:
                rs.expand(data[lo:hi])
            got = (rs.counters.state_ops, rs.counters.disk_accesses,
                   rs.counters.sketch_draws, rs.counters.full_rebuilds)
            assert got == want, f"{mode}: {got} != pinned {want}"
            assert ledger.total_seconds == pytest.approx(seconds[mode],
                                                         rel=1e-12)


class TestResidency:
    """Sketches exist to save disk round trips, so a set with no cost
    ledger bound at ``initialize()`` — a memory-resident sample —
    builds none and indexes the sample directly (as one dense array of
    rows, or item by item in the scalar reference); a ledger-bound set
    is §4.1 as written (pinned by the Fig. 10 counters above)."""

    @staticmethod
    def _grown(population, make=ResampleSet, **kwargs):
        rs = make("mean", 20, seed=5, **kwargs)
        rs.initialize(population[:500])
        rs.expand(population[500:1500])
        rs.expand(population[1500:4000])
        return rs

    @pytest.mark.parametrize("batched", [False, True])
    def test_resident_set_has_no_sketch_and_no_disk(self, population,
                                                    batched):
        if batched:
            rs = self._grown(population)
            assert rs._maintainer is None and not rs._resamples
            assert rs._dense.live().shape == (20, 4000)
        else:
            rs = self._grown(population, make=ReferenceResampleSet)
            assert rs.access == "resident" and len(rs._resamples) == 20
        assert not rs._sketches()
        assert rs.counters.disk_accesses == 0
        assert rs.counters.sketch_draws == 0
        assert rs.counters.state_ops > 20 * 4000
        assert set(rs.resample_sizes()) == {4000}

    def test_ledger_bound_set_goes_through_sketches(self, population):
        ledger = CostLedger()
        rs = self._grown(population, ledger=ledger)
        assert type(rs._maintainer) is SketchMaintainer
        assert len(rs._maintainer._delta_sketches) == 3
        assert rs.counters.sketch_draws > 0
        assert rs.counters.disk_accesses > 0
        assert ledger.seconds("disk_seek") > 0

    def test_decided_at_initialize_not_by_a_later_set_ledger(self,
                                                             population):
        # Resident stays resident: a ledger bound later is charged
        # nothing, because nothing is ever reloaded.
        late = CostLedger()
        rs = ResampleSet("mean", 20, seed=5)
        rs.initialize(population[:500])
        rs.set_ledger(late)
        rs.expand(population[500:1500])
        assert rs._dense is not None and rs._maintainer is None
        assert late.total_seconds == 0.0
        assert rs.counters.disk_accesses == rs.counters.sketch_draws == 0
        # Bound before the first offer (how a reducer does it): sketched,
        # and un-binding later keeps the sketches.
        rs = ResampleSet("mean", 20, seed=5)
        rs.set_ledger(CostLedger())
        rs.initialize(population[:500])
        rs.set_ledger(None)
        rs.expand(population[500:1500])
        assert type(rs._maintainer) is SketchMaintainer and rs._dense is None
        assert rs.counters.sketch_draws > 0

    def test_naive_counts_accesses_with_or_without_a_ledger(self,
                                                            population):
        free = self._grown(population, maintenance=MAINTENANCE_NAIVE)
        charged = self._grown(population, maintenance=MAINTENANCE_NAIVE,
                              ledger=CostLedger())
        assert free.counters == charged.counters
        assert free.counters.disk_accesses > 0
        np.testing.assert_array_equal(free.estimates(), charged.estimates())

    def test_resident_stage_pickles_smaller_than_the_sketched_one(
            self, population):
        import pickle

        sizes = {}
        for name, ledger in [("resident", None), ("sketched", CostLedger())]:
            rs = ResampleSet("mean", 20, seed=5, ledger=ledger)
            rs.initialize(population[:400])
            rs.expand(population[400:1600])
            rs.set_ledger(None)     # compare the sets, not the ledgers
            sizes[name] = len(pickle.dumps(rs))
        assert sizes["resident"] < sizes["sketched"]


class TestWorkAccounting:
    def test_maintenance_does_less_work_than_rebuild(self, population):
        n0, n1 = 2000, 4000
        B = 30
        maintained = ResampleSet("mean", B,
                                 maintenance=MAINTENANCE_OPTIMIZED, seed=15)
        maintained.initialize(population[:n0])
        ops_before = maintained.counters.state_ops
        maintained.expand(population[n0:n1])
        maintained_ops = maintained.counters.state_ops - ops_before

        rebuilt = ResampleSet("mean", B, maintenance=MAINTENANCE_NONE,
                              seed=16)
        rebuilt.initialize(population[:n0])
        ops_before = rebuilt.counters.state_ops
        rebuilt.expand(population[n0:n1])
        rebuild_ops = rebuilt.counters.state_ops - ops_before

        assert maintained_ops < rebuild_ops * 0.75

    def test_optimized_touches_disk_less_than_naive(self, population):
        def run(mode):
            ledger = CostLedger()
            rs = ResampleSet("mean", 20, maintenance=mode, seed=17,
                             ledger=ledger)
            rs.initialize(population[:1000])
            rs.expand(population[1000:2000])
            rs.expand(population[2000:3000])
            return rs.counters, ledger

        naive_counters, naive_ledger = run(MAINTENANCE_NAIVE)
        opt_counters, opt_ledger = run(MAINTENANCE_OPTIMIZED)
        assert opt_counters.disk_accesses < naive_counters.disk_accesses
        assert opt_ledger.seconds("disk_seek") < \
            naive_ledger.seconds("disk_seek")
        assert opt_counters.sketch_draws > 0

    def test_rebuild_mode_counts_full_rebuilds(self, population):
        rs = ResampleSet("mean", 10, maintenance=MAINTENANCE_NONE, seed=18)
        rs.initialize(population[:100])
        rs.expand(population[100:200])
        assert rs.counters.full_rebuilds == 10

    def test_set_ledger_rebinds(self, population):
        rs = ResampleSet("mean", 10, maintenance=MAINTENANCE_NAIVE, seed=19)
        rs.initialize(population[:200])
        fresh_ledger = CostLedger()
        rs.set_ledger(fresh_ledger)
        rs.expand(population[200:400])
        assert fresh_ledger.seconds("disk_seek") > 0


def _layout(rs):
    """The access path a production or reference set took: "dense",
    "naive", "sketched", "resident" (reference only) or None ("none")."""
    if isinstance(rs, ReferenceResampleSet):
        return rs.access
    if rs._dense is not None:
        return "dense"
    return {NaiveMaintainer: "naive", SketchMaintainer: "sketched",
            type(None): None}[type(rs._maintainer)]


def _segment_contents(rs):
    return [[np.asarray(seg, dtype=float) for seg in r.segments]
            for r in rs._resamples]


#: (maintenance, where the stored sample lives): on simulated storage
#: (a bound ledger — the optimized algorithm goes through sketches) or,
#: for the naive one, also in memory (no ledger).  Memory-resident
#: optimized sets are dense rows: law-equal to their scalar reference
#: (the KS gate, ``TestDenseRows``), not byte-equal.  The same schedules
#: are pinned across commits in ``tests/fixtures/delta_streams.json``.
MODE_STORAGE = [(MAINTENANCE_NAIVE, "resident"), (MAINTENANCE_NAIVE, "ledger"),
                (MAINTENANCE_OPTIMIZED, "ledger")]


def _run_both_kernels(statistic, mode, data, bounds, *, B=10, seed=77,
                      storage="resident", **kwargs):
    """The same seeded schedule on the item-at-a-time reference
    (``tests/delta_reference.py``) and on the batched kernel; also
    returns, per expansion, how many resamples shed items and how many
    gained old-sample items (measured on the reference, so the test
    knows which paths really ran)."""
    sets = {batched: make(statistic, B, maintenance=mode, seed=seed,
                          ledger=(CostLedger() if storage == "ledger"
                                  else None), **kwargs)
            for batched, make in ((False, ReferenceResampleSet),
                                  (True, ResampleSet))}
    deleted = added_old = 0
    lo = 0
    for hi in bounds:
        for rs in sets.values():
            if rs.sample_size == 0:
                rs.initialize(data[lo:hi])
            else:
                rs.expand(data[lo:hi])
        if lo:
            for r in sets[False]._resamples:
                old_share = sum(len(seg) for seg in r.segments[:-1])
                deleted += old_share < lo
                added_old += old_share > lo
        lo = hi
    return sets[False], sets[True], deleted, added_old


def _assert_kernels_identical(scalar, vector):
    assert scalar.counters == vector.counters
    assert _layout(scalar) == _layout(vector)
    if scalar._ledger is not None:
        # Same charges; the naive reference adds them one access at
        # a time, so only the float summation order differs.
        assert scalar._ledger.total_seconds == pytest.approx(
            vector._ledger.total_seconds, rel=1e-9)
    assert scalar._rng.bit_generator.state == vector._rng.bit_generator.state
    for segs_scalar, segs_vector in zip(_segment_contents(scalar),
                                        _segment_contents(vector)):
        assert len(segs_scalar) == len(segs_vector)
        for seg_scalar, seg_vector in zip(segs_scalar, segs_vector):
            np.testing.assert_array_equal(seg_scalar, seg_vector)
    np.testing.assert_array_equal(
        np.asarray(scalar.sample_array(), dtype=float),
        np.asarray(vector.sample_array(), dtype=float))
    np.testing.assert_allclose(scalar.estimates(), vector.estimates(),
                               rtol=1e-9)


class TestBatchedDeletionsAndOldSampleAdditions:
    """The two runs batched in PR 13 — random deletions (one
    descending-bounds ``integers`` call) and the optimized maintainer's
    old-sample additions (cdf search instead of ``choice(p=)``) — stay
    reference ≡ batched: contents, counters, generator end state."""

    #: Five deltas, so the last expansions choose among >= 3 stored ones.
    BOUNDS = [300, 700, 1500, 2600, 4200]

    @pytest.mark.parametrize("mode,storage", MODE_STORAGE)
    @pytest.mark.parametrize("statistic", ["mean", "median", "p90", "std"])
    def test_deletions_and_multi_delta_additions(self, population, mode,
                                                 statistic, storage):
        scalar, vector, deleted, added_old = _run_both_kernels(
            statistic, mode, population, self.BOUNDS, storage=storage)
        # Both reconcile branches ran, many times each.
        assert deleted >= 10 and added_old >= 10
        _assert_kernels_identical(scalar, vector)

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds_optimized(self, population, seed):
        scalar, vector, deleted, added_old = _run_both_kernels(
            "mean", MAINTENANCE_OPTIMIZED, population, self.BOUNDS,
            B=6, seed=seed, storage="ledger")
        assert deleted and added_old
        _assert_kernels_identical(scalar, vector)

    @pytest.mark.parametrize("mode,storage", MODE_STORAGE)
    def test_row_items_contents_identical(self, mode, storage):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4200)
        pairs = np.column_stack([x, 0.6 * x + rng.normal(size=4200)])
        scalar, vector, deleted, added_old = _run_both_kernels(
            "correlation", mode, pairs, self.BOUNDS, storage=storage)
        assert deleted >= 10 and added_old >= 10
        assert vector.sample_array().shape == (4200, 2)
        _assert_kernels_identical(scalar, vector)

    def test_tiny_sketches_force_reloads_between_old_draws(self, population):
        """c = 0.05 leaves 1–3 items per sketch, so nearly every
        old-sample draw reloads — the interleaving of segment choice
        and ``choice(replace=False)`` on the shared stream."""
        scalar, vector, _, _ = _run_both_kernels(
            "mean", MAINTENANCE_OPTIMIZED, population, self.BOUNDS,
            B=8, seed=91, storage="ledger", sketch_c=0.05)
        assert scalar.counters.disk_accesses > 1000
        _assert_kernels_identical(scalar, vector)

    @pytest.mark.parametrize("reject,message", [
        (lambda r: r.remove_random_many(np.random.default_rng(0), 6),
         "cannot remove 6 items from a resample of 5"),
        (lambda r: r.remove_random_many(np.random.default_rng(0), -2),
         "negative"),
        (lambda r: ResampleSet("mean", 5, sketch_c=0), "sketch_c"),
    ], ids=["more-than-held", "negative-count", "zero-sketch_c"])
    def test_remove_more_than_held_rejected(self, reject, message):
        """Bad inputs are refused with the real reason, and nothing is
        removed."""
        r = Resample(get_statistic("mean").make_state())
        r.new_segment()
        r.add_many(np.arange(5.0), 0)
        with pytest.raises(ValueError, match=message):
            reject(r)
        assert r.size == 5

    def test_list_input_equals_array_input(self, population):
        """A list delta (the cluster job hands lists) is the same
        sample as the equal array."""
        as_array = ResampleSet("median", 8, seed=3)
        as_list = ResampleSet("median", 8, seed=3)
        as_array.initialize(population[:300])
        as_list.initialize(population[:300].tolist())
        as_array.expand(population[300:900])
        as_list.expand(population[300:900].tolist())
        np.testing.assert_array_equal(as_array.estimates(),
                                      as_list.estimates())
        np.testing.assert_array_equal(as_array.sample_array(),
                                      as_list.sample_array())
        assert as_list.sample == list(population[:900])


def _pearson(rows):
    return float(np.corrcoef(rows[:, 0], rows[:, 1])[0, 1])


class TestRowItemUserStatistic:
    """A user statistic over (x, y) rows with no state of its own falls
    back to the recompute state, which must keep every row whole — in
    the dense rows and in the naive and rebuild modes alike."""

    STAT = Statistic("pearson", pointwise=_pearson, row_items=True)

    @staticmethod
    def _pairs(n, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        return np.column_stack([x, 0.6 * x + rng.normal(size=n)])

    @pytest.mark.parametrize("mode", [MAINTENANCE_OPTIMIZED,
                                      MAINTENANCE_NAIVE, MAINTENANCE_NONE])
    def test_resample_estimates_read_whole_rows(self, mode, resample_items):
        pairs = self._pairs(1200)
        rs = ResampleSet(self.STAT, 10, maintenance=mode, seed=2)
        rs.initialize(pairs[:500])
        rs.expand(pairs[500:700])
        rs.expand(pairs[700:])
        rows = resample_items(rs)
        assert all(row.shape == (1200, 2) for row in rows)
        np.testing.assert_allclose(rs.estimates(),
                                   [_pearson(row) for row in rows],
                                   rtol=1e-12)

    @pytest.mark.parametrize("mode", [MAINTENANCE_OPTIMIZED,
                                      MAINTENANCE_NAIVE, MAINTENANCE_NONE])
    def test_session_answers_in_every_mode(self, mode):
        from repro.core import EarlConfig, EarlSession

        pairs = self._pairs(60_000)
        result = EarlSession(pairs, self.STAT, config=EarlConfig(
            maintenance=mode, B_override=20, n_override=2000,
            seed=1)).run()
        assert result.estimate == pytest.approx(_pearson(pairs), abs=0.05)


class TestStagePickling:
    """A grown stage pickles to the items it holds, not to the spare
    capacity of dense rows or segment buffers — what a by-value fan-out
    would move each round (``benchmarks/bench_exec.py`` counts it)."""

    @staticmethod
    def _stage(population, bounds, storage):
        from repro.core.accuracy import AccuracyEstimationStage
        stage = AccuracyEstimationStage(
            "mean", 20, seed=23,
            ledger=CostLedger() if storage == "ledger" else None)
        lo = 0
        for hi in bounds:
            stage.offer(population[lo:hi])
            lo = hi
        return stage

    @pytest.mark.parametrize("storage", ["resident", "ledger"])
    @pytest.mark.parametrize("bounds", [[400], [50, 120, 250, 400]])
    def test_round_trip_equal_compact_and_still_growing(
            self, population, bounds, storage, resample_items):
        import pickle

        stage = self._stage(population, bounds, storage)
        blob = pickle.dumps(stage)
        clone = pickle.loads(blob)

        original, copy = stage.resample_set, clone.resample_set
        assert (original._dense is not None) == (storage == "resident")
        assert bool(original._sketches()) == (storage == "ledger")
        for row, row_copy in zip(resample_items(original),
                                 resample_items(copy)):
            np.testing.assert_array_equal(row, row_copy)
        np.testing.assert_array_equal(original.estimates(), copy.estimates())

        items_held = (sum(original.resample_sizes()) + original.sample_size
                      + sum(len(s._items) for s in original._sketches()))
        assert items_held >= 20 * 400
        assert len(blob) <= 1.25 * 8 * items_held + 8192
        if storage == "resident":
            # 20 rows x 400 live items + the 400-item sample, 8 bytes
            # each: no spare capacity on the pipe.
            if len(bounds) > 1:
                assert original._dense.rows.shape[1] > 400
            assert copy._dense.rows.shape == (20, 400)
            assert len(blob) <= 72 * 1024

        # The clone holds exactly its items: growing must work and must
        # track the original draw for draw.
        for lo, hi in [(400, 1000), (1000, 2200)]:
            assert stage.offer(population[lo:hi]) == \
                clone.offer(population[lo:hi])
        assert set(copy.resample_sizes()) == {2200}
        for row, row_copy in zip(resample_items(original),
                                 resample_items(copy)):
            np.testing.assert_array_equal(row, row_copy)

    def test_empty_and_row_buffers_round_trip(self):
        import pickle

        from repro.core.delta import _ItemBuffer

        empty = pickle.loads(pickle.dumps(_ItemBuffer()))
        assert len(empty) == 0
        empty.extend_array(np.arange(6.0).reshape(3, 2))  # shape still free
        assert empty.as_array().shape == (3, 2)

        rows = _ItemBuffer()
        rows.extend_array(np.arange(10.0).reshape(5, 2))
        rows.swap_pop(len(rows) - 1)
        clone = pickle.loads(pickle.dumps(rows))
        np.testing.assert_array_equal(clone.as_array(), rows.as_array())
        clone.extend_array(np.ones((40, 2)))
        assert len(clone) == 44 and clone.as_array()[:4].tolist() == \
            rows.as_array().tolist()


class TestDenseRows:
    """The dense kernel's deletion step, observed slot by slot: every
    live item is its own slot number, the old sample is all -1 and Δs
    all -2, so after one ``expand`` the numbers missing from a row are
    exactly the slots it lost."""

    @staticmethod
    def _lost_slots(n, delta, B, seed):
        rng = np.random.default_rng(seed)
        dense = _DenseRows(np.arange(n), B, rng)
        dense.rows[:, :n] = np.arange(n)
        ops = dense.expand(np.full(n, -1), np.full(delta, -2), rng)
        lost, moved = [], 0
        for row in dense.live():
            assert len(row) == n + delta
            k = int((row != -2).sum())
            assert (row[:k] != -2).all() and (row[k:] == -2).all()
            kept = row[row >= 0]
            # Never the same slot twice: exactly n - k distinct losses.
            assert len(kept) == len(set(kept.tolist())) == min(k, n)
            assert int((row == -1).sum()) == max(k - n, 0)
            lost.append(np.setdiff1d(np.arange(n), kept))
            moved += abs(n - k) + n + delta - k
        assert ops == moved
        return lost

    @pytest.mark.parametrize("n,delta,B,seeds", [(16, 8000, 40, 60),
                                                 (400, 400, 200, 8)])
    def test_deleted_positions_are_uniform(self, n, delta, B, seeds):
        """Seeded chi-square over which slots were lost — over all rows
        and, separately, over the rows that shed more than half their
        items (a 16-row sample growing to 8k does that)."""
        lost = [slots for seed in range(seeds)
                for slots in self._lost_slots(n, delta, B, 300 + seed)]
        groups = {"all": lost}
        if n == 16:
            groups["heavy"] = [slots for slots in lost if len(slots) > n // 2]
            assert len(groups["heavy"]) >= 20
        for name, rows in groups.items():
            counts = np.bincount(np.concatenate(rows), minlength=n)
            assert counts.sum() >= 10 * n, name
            assert sp_stats.chisquare(counts).pvalue > 1e-3, name

    def test_deleted_sets_are_uniform(self):
        """Beyond slot marginals: a 4-item row that sheds two loses each
        of the six possible pairs equally often."""
        pairs = [tuple(slots) for seed in range(40)
                 for slots in self._lost_slots(4, 4, 200, 700 + seed)
                 if len(slots) == 2]
        counts = np.array([pairs.count(pair) for pair in sorted(set(pairs))])
        assert len(counts) == 6 and counts.sum() >= 300
        assert sp_stats.chisquare(counts).pvalue > 1e-3

    def test_a_wider_delta_dtype_widens_the_rows(self):
        rs = ResampleSet("mean", 6, seed=3)
        rs.initialize(np.arange(1, 41))
        assert rs._dense.rows.dtype == np.arange(1).dtype
        rs.expand(np.full(40, 0.5))
        rows = rs._dense.live()
        assert rows.dtype == np.float64 and (rows == 0.5).any()
        assert set(np.unique(rows)) <= set(range(1, 41)) | {0.5}
