"""Keyed columnar ingest + Query.from_hdfs + the grouped MR reference."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import EarlConfig, run_grouped_stock_job
from repro.hdfs import BARE_LINE_KEY, read_keyed_column
from repro.mapreduce import GroupStateCombiner
from repro.query import Query, agg
from repro.workloads import keyed_value_lines, skewed_keyed_values


def keyed_cluster(n=6_000, n_keys=4, seed=3):
    cluster = Cluster(n_nodes=4, block_size=1 << 16, seed=seed)
    keys, values = skewed_keyed_values(n, n_keys, seed=seed)
    cluster.hdfs.write_lines("/keyed", keyed_value_lines(keys, values))
    return cluster, keys, values


class TestReadKeyedColumn:
    def test_roundtrip(self):
        cluster, keys, values = keyed_cluster()
        got_keys, got_values = read_keyed_column(cluster.hdfs, "/keyed")
        assert list(got_keys) == list(keys)
        np.testing.assert_allclose(got_values, values, rtol=0, atol=1e-6)

    def test_second_read_replays_cache(self):
        cluster, _, _ = keyed_cluster()
        first = read_keyed_column(cluster.hdfs, "/keyed")
        second = read_keyed_column(cluster.hdfs, "/keyed")
        # cache hit: the same read-only arrays, by reference
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        assert not first[1].flags.writeable

    def test_cached_charges_match_scalar(self, cacheless):
        cluster, _, _ = keyed_cluster()
        cached_ledger = cluster.new_ledger()
        cached = read_keyed_column(cluster.hdfs, "/keyed",
                                   ledger=cached_ledger)
        ref, _, _ = keyed_cluster()
        scalar_ledger = ref.new_ledger()
        scalar = read_keyed_column(cacheless(ref.hdfs), "/keyed",
                                   ledger=scalar_ledger)
        assert list(cached[0]) == list(scalar[0])
        assert np.array_equal(cached[1], scalar[1])
        assert cached_ledger.total_seconds == scalar_ledger.total_seconds
        # replayed (hit) scan charges identically as well
        replay_ledger = cluster.new_ledger()
        read_keyed_column(cluster.hdfs, "/keyed", ledger=replay_ledger)
        assert replay_ledger.total_seconds == scalar_ledger.total_seconds

    def test_rewrite_invalidates(self):
        cluster, _, _ = keyed_cluster()
        first = read_keyed_column(cluster.hdfs, "/keyed")
        cluster.hdfs.delete("/keyed")
        cluster.hdfs.write_lines("/keyed", ["a\t1.0", "b\t2.0"])
        keys, values = read_keyed_column(cluster.hdfs, "/keyed")
        assert list(keys) == ["a", "b"]
        assert list(values) == [1.0, 2.0]
        assert keys is not first[0]

    def test_bare_lines_use_constant_key(self):
        cluster = Cluster(n_nodes=3, seed=1)
        cluster.hdfs.write_lines("/bare", ["1.5", "2.5", "k\t3.5"])
        keys, values = read_keyed_column(cluster.hdfs, "/bare")
        assert list(keys) == [BARE_LINE_KEY, BARE_LINE_KEY, "k"]
        assert list(values) == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("body", [
        "a\t1.0\n\nb\t2.0\na\t3.0\n\n",
        "\n1.5\n\nk\t3.5\n2.5\n",
        "".join(f"g{i % 3}\t{i}.5\n\n" for i in range(30)),
    ], ids=["keyed", "bare-and-keyed", "many-splits"])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_blank_lines_skipped_like_grouped_stock_job(self, body, scalar,
                                                        cacheless):
        """Empty lines are skipped as the exact grouped job's mapper
        skips them, on the cache-served and on the scalar path."""
        cluster = Cluster(n_nodes=3, block_size=64, seed=4)
        cluster.hdfs.write_text("/blank", body)
        if scalar:
            cacheless(cluster.hdfs)
        keys, values = read_keyed_column(cluster.hdfs, "/blank",
                                         split_logical_bytes=48)
        exact, _ = run_grouped_stock_job(cluster, "/blank", "mean",
                                         split_logical_bytes=48)
        assert sorted(set(keys)) == sorted(exact)
        for key, value in exact.items():
            assert float(np.mean(values[keys == key])) \
                == pytest.approx(value, rel=1e-12)

    def test_query_from_hdfs_accepts_blank_lines(self):
        cluster = Cluster(n_nodes=3, seed=4)
        cluster.hdfs.write_text("/blank", "a\t1.0\n\nb\t2.0\n\na\t3.0\n")
        q = Query([agg("mean", "value")], group_by="key").from_hdfs(
            cluster.hdfs, "/blank", config=EarlConfig(seed=1))
        assert sorted(q.run().groups) == ["a", "b"]


class TestQueryFromHdfs:
    def test_estimates_close_to_exact_groupby(self):
        cluster, keys, values = keyed_cluster(n=40_000, n_keys=3)
        q = Query([agg("mean", "value")], group_by="key").from_hdfs(
            cluster.hdfs, "/keyed",
            config=EarlConfig(sigma=0.05, seed=11))
        result = q.run()
        assert result.achieved
        for key in np.unique(list(keys)):
            true = float(np.mean(values[keys == key]))
            est = result.groups[key]["mean(value)"].estimate
            assert est == pytest.approx(true, rel=0.15)

    def test_from_hdfs_requires_group_by(self):
        cluster, _, _ = keyed_cluster()
        with pytest.raises(ValueError):
            Query([agg("mean", "value")]).from_hdfs(cluster.hdfs, "/keyed")

    def test_from_hdfs_charges_ledger(self):
        cluster, _, _ = keyed_cluster()
        ledger = cluster.new_ledger()
        Query([agg("mean", "value")], group_by="key").from_hdfs(
            cluster.hdfs, "/keyed", ledger=ledger,
            config=EarlConfig(seed=1))
        assert ledger.total_seconds > 0.0


class TestGroupedStockJob:
    def test_matches_numpy_groupby_exactly(self):
        cluster, keys, values = keyed_cluster()
        got, _ = run_grouped_stock_job(cluster, "/keyed", "mean")
        for key in np.unique(list(keys)):
            # values were rendered through the fixed-width line format,
            # so compare against the parsed column
            parsed = np.array([round(v, 6) for v in values[keys == key]])
            assert got[key] == pytest.approx(float(np.mean(parsed)),
                                             abs=1e-9)

    def test_combiner_output_equivalent_to_plain(self):
        cluster, _, _ = keyed_cluster()
        with_combiner, _ = run_grouped_stock_job(
            cluster, "/keyed", "mean", combine=True, n_reducers=2, seed=5)
        without, _ = run_grouped_stock_job(
            cluster, "/keyed", "mean", combine=False, n_reducers=2, seed=5)
        assert sorted(with_combiner) == sorted(without)
        for key, value in without.items():
            # map-side pre-aggregation reorders the float summation, so
            # equality holds to round-off, not bit-for-bit
            assert with_combiner[key] == pytest.approx(value, rel=1e-12)

    def test_combiner_rejects_holistic_statistics(self):
        with pytest.raises(ValueError):
            GroupStateCombiner("median")
