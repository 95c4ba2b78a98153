"""Cross-module property-based tests (hypothesis).

These exercise whole pipelines with randomized inputs and assert
invariants that must hold regardless of data, keys, split geometry or
seeds — the contracts the unit tests can only spot-check.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.bootstrap import bootstrap
from repro.core.delta import ResampleSet
from repro.mapreduce import (
    JobClient,
    JobConf,
    MeanReducer,
    ProjectionMapper,
    SumReducer,
)
from repro.sampling import PreMapSampler

from delta_reference import ReferenceResampleSet

values_strategy = st.lists(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    min_size=5, max_size=120)


class TestEngineCorrectness:
    @given(values=values_strategy,
           n_keys=st.integers(min_value=1, max_value=5),
           n_reducers=st.integers(min_value=1, max_value=4),
           block_size=st.sampled_from([64, 256, 4096]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_grouped_sum_matches_numpy(self, values, n_keys, n_reducers,
                                       block_size):
        """Any data × any key count × any reducer count × any block
        geometry: the engine's per-key sums equal a direct computation."""
        cluster = Cluster(n_nodes=3, block_size=block_size, seed=1)
        lines = [f"k{i % n_keys}\t{v!r}" for i, v in enumerate(values)]
        cluster.hdfs.write_lines("/p", lines)
        conf = JobConf(name="sum", input_path="/p",
                       mapper=ProjectionMapper(), reducer=SumReducer(),
                       n_reducers=n_reducers, seed=2)
        result = JobClient(cluster).run(conf)
        got = {k: v[0] for k, v in result.grouped().items()}
        for key_idx in range(min(n_keys, len(values))):
            expected = sum(v for i, v in enumerate(values)
                           if i % n_keys == key_idx)
            assert got[f"k{key_idx}"] == pytest.approx(expected, rel=1e-9)

    @given(values=values_strategy)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_local_and_cluster_mode_agree(self, values):
        """Execution mode changes costs, never results."""
        cluster = Cluster(n_nodes=3, block_size=512, seed=3)
        cluster.hdfs.write_lines("/p", [f"{v!r}" for v in values])

        def run(local):
            conf = JobConf(name="mean", input_path="/p",
                           mapper=ProjectionMapper(),
                           reducer=MeanReducer(), local_mode=local, seed=4)
            return JobClient(cluster).run(conf).single_value()

        assert run(True) == pytest.approx(run(False), rel=1e-12)


class TestSamplingProperties:
    @given(n_lines=st.integers(min_value=20, max_value=300),
           target=st.integers(min_value=1, max_value=60),
           block_size=st.sampled_from([128, 1024]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_premap_invariants(self, n_lines, target, block_size):
        """Sampled lines are real, unique, and within the target count."""
        target = min(target, n_lines)
        cluster = Cluster(n_nodes=3, block_size=block_size, seed=5)
        lines = [f"{i:08d}" for i in range(n_lines)]
        cluster.hdfs.write_lines("/f", lines)
        sampler = PreMapSampler(cluster.hdfs, "/f")
        sampler.set_total_target(target)
        rng = np.random.default_rng(6)
        got = []
        ledger = cluster.new_ledger()
        for split in sampler.splits:
            got.extend(sampler.read(cluster.hdfs, split, ledger, rng))
        line_set = set(lines)
        assert all(line in line_set for _, line in got)
        offsets = [o for o, _ in got]
        assert len(offsets) == len(set(offsets))
        assert len(got) <= target
        assert sampler.sampled_count == len(got)


class TestDeltaMaintenanceProperties:
    @given(n0=st.integers(min_value=20, max_value=150),
           delta=st.integers(min_value=1, max_value=150),
           mode=st.sampled_from(["naive", "optimized"]),
           reference=st.booleans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_sizes_and_membership(self, n0, delta, mode, reference,
                                  resample_items):
        """After any expansion: every resample has exactly n' items, all
        drawn from the accumulated sample — for the batched kernel and
        for the item-at-a-time reference."""
        rng = np.random.default_rng(7)
        data = rng.lognormal(1.0, 0.5, n0 + delta)
        make = ReferenceResampleSet if reference else ResampleSet
        rs = make("mean", 10, maintenance=mode, seed=8)
        rs.initialize(data[:n0])
        rs.expand(data[n0:])
        assert set(rs.resample_sizes()) == {n0 + delta}
        rows = resample_items(rs)
        assert len(rows) == 10
        for row in rows:
            assert len(row) == n0 + delta and np.isin(row, data).all()

    @given(B=st.integers(min_value=1, max_value=12),
           n0=st.integers(min_value=1, max_value=60),
           deltas=st.lists(st.integers(min_value=1, max_value=150),
                           min_size=1, max_size=4),
           items=st.sampled_from(["float", "int", "pairs"]),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dense_rows_invariants(self, B, n0, deltas, items, seed):
        """A memory-resident set over distinct-valued data, so that an
        item's value names the Δs it came from: every row has exactly n
        items of the sample's dtype, all drawn from the sample, (x, y)
        pairs intact; the part of a row older than the current Δs is
        what the row was before, minus ``n - k`` items or plus ``k - n``
        old-sample draws; and ``state_ops`` counts exactly the items
        moved."""
        rng = np.random.default_rng(seed)
        total = n0 + sum(deltas)
        keys = rng.permutation(10 * total)[:total]      # distinct
        if items == "int":
            data = keys
        elif items == "float":
            data = keys + 0.25
        else:
            data = np.column_stack([keys + 0.25, rng.normal(size=total)])
        partner = dict(zip(data[:, 0], data[:, 1])) if items == "pairs" \
            else None

        def key_of(rows):
            return rows[..., 0] if items == "pairs" else rows

        rs = ResampleSet("correlation" if items == "pairs" else "mean", B,
                         seed=seed + 1)
        rs.initialize(data[:n0])
        expected_ops, n = B * n0, n0
        for size in deltas:
            before = [Counter(key_of(row).tolist())
                      for row in rs._dense.live()]
            rs.expand(data[n:n + size])
            rows = rs._dense.live()
            assert rows.shape == (B, n + size) + data.shape[1:]
            assert rows.dtype == data.dtype
            assert np.isin(key_of(rows), key_of(data[:n + size])).all()
            if partner is not None:
                assert all(partner[x] == y for x, y in rows.reshape(-1, 2))
            for row, was in zip(key_of(rows), before):
                old_part = Counter(
                    row[np.isin(row, key_of(data[:n]))].tolist())
                k = sum(old_part.values())
                if k <= n:
                    assert not old_part - was
                if k >= n:
                    assert not was - old_part
                expected_ops += abs(n - k) + n + size - k
            n += size
        assert rs.resample_sizes() == [n] * B
        assert rs.counters.state_ops == expected_ops
        assert rs.counters.disk_accesses == rs.counters.sketch_draws == 0
        assert np.isfinite(rs.estimates()).all() or n < 2

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_estimates_are_finite_and_plausible(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(2.0, 1.0, 600)
        rs = ResampleSet("mean", 15, maintenance="optimized", seed=seed)
        rs.initialize(data[:200])
        rs.expand(data[200:600])
        estimates = rs.estimates()
        assert np.isfinite(estimates).all()
        assert data.min() <= estimates.min()
        assert estimates.max() <= data.max()


class TestBootstrapProperties:
    @given(shift=st.floats(min_value=1.0, max_value=1e4, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_estimates_bounded_by_sample_range(self, shift):
        data = np.random.default_rng(9).uniform(shift, shift * 2, 200)
        res = bootstrap(data, "mean", B=20, seed=10)
        assert data.min() <= res.estimates.min()
        assert res.estimates.max() <= data.max()

    @given(B=st.integers(min_value=2, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_B_respected(self, B):
        data = np.random.default_rng(11).normal(size=50)
        res = bootstrap(data, "median", B=B, seed=12)
        assert res.estimates.shape == (B,)
