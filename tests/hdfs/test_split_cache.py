"""Tests for the columnar split cache (newline index + line column)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.costmodel import CostLedger
from repro.core import get_statistic, run_stock_job
from repro.hdfs import (
    HDFS,
    LineRecordReader,
    SplitIndexCache,
    build_split_index,
    compute_splits,
    read_numeric_column,
)


def make_fs(lines, block_size=64, trailing=True):
    fs = HDFS(n_datanodes=3, block_size=block_size, replication=2, seed=1)
    body = "\n".join(lines) + ("\n" if trailing and lines else "")
    fs.write_text("/f", body)
    return fs


class TestSplitIndex:
    def test_index_columns_match_scan(self):
        lines = [f"row-{i:03d}" for i in range(50)]
        fs = make_fs(lines)
        (split,) = fs.get_splits("/f", 10_000)
        index = build_split_index(fs, split)
        assert index.lines == lines
        text = "\n".join(lines) + "\n"
        starts = [0] + [i + 1 for i, c in enumerate(text[:-1]) if c == "\n"]
        assert index.starts.tolist() == starts

    def test_partial_first_entry_undecoded(self):
        lines = ["alpha", "beta", "gamma"]
        fs = make_fs(lines)
        meta = fs.namenode.get("/f")
        # split starting mid-"beta": entry 0 is the partial tail of it
        splits = compute_splits("/f", meta.size, meta.size, 8)
        split = splits[1]
        assert split.start not in (0, 6, 11)  # genuinely mid-line
        index = build_split_index(fs, split)
        assert index.lines[0] is None
        assert index.prefix_start < split.start
        assert not index.acceptable[0]

    def test_probe_charges_precomputed(self):
        lines = [f"{i:07d}" for i in range(200)]
        fs = make_fs(lines, block_size=128)
        (split,) = fs.get_splits("/f", 10**6)
        index = build_split_index(fs, split)
        # every entry's charge equals what the scalar line_at charges
        for entry in range(len(index.starts)):
            scalar = CostLedger()
            LineRecordReader(fs, split, ledger=scalar) \
                .line_at(int(index.starts[entry]))
            cached = CostLedger()
            cached.charge_probe_sequence([int(index.seek_counts[entry])],
                                         [float(index.scaled_bytes[entry])])
            assert cached.breakdown() == scalar.breakdown()


class TestSplitIndexCache:
    def test_materialize_once_then_hit(self):
        fs = make_fs([f"{i}" for i in range(100)])
        (split,) = fs.get_splits("/f", 10_000)
        cache = fs.split_cache
        assert cache.acquire(fs, split) is not None
        assert cache.stats.materializations == 1
        assert cache.acquire(fs, split) is not None
        assert cache.stats.materializations == 1
        assert cache.stats.hits == 1

    def test_write_invalidates(self):
        fs = make_fs(["a", "b"])
        (split,) = fs.get_splits("/f", 10_000)
        fs.split_cache.acquire(fs, split)
        assert len(fs.split_cache) == 1
        fs.write_lines("/f", ["x", "y", "z"], overwrite=True)
        assert len(fs.split_cache) == 0
        assert fs.split_cache.stats.invalidations == 1

    def test_delete_invalidates(self):
        fs = make_fs(["a", "b"])
        (split,) = fs.get_splits("/f", 10_000)
        fs.split_cache.acquire(fs, split)
        fs.delete("/f")
        assert len(fs.split_cache) == 0

    def test_lost_block_falls_back_to_scalar(self):
        fs = make_fs([f"{i:05d}" for i in range(100)], block_size=64)
        (split,) = fs.get_splits("/f", 10**6)
        cache = fs.split_cache
        assert cache.acquire(fs, split) is not None
        for node in list(fs.datanodes):
            fs.fail_datanode(node)
        # cached bytes exist, but the simulated blocks are gone: the
        # cache must refuse so failure semantics stay the scalar path's
        assert cache.acquire(fs, split) is None
        assert cache.stats.fallbacks >= 1

    def test_cache_not_pickled(self):
        fs = make_fs([f"{i}" for i in range(30)])
        (split,) = fs.get_splits("/f", 10_000)
        fs.split_cache.acquire(fs, split)
        clone = pickle.loads(pickle.dumps(fs))
        assert isinstance(clone.split_cache, SplitIndexCache)
        assert len(clone.split_cache) == 0
        # the clone still reads correctly and can build its own index
        got = [l for _, l in LineRecordReader(clone, split).read_records()]
        assert got == [f"{i}" for i in range(30)]
        assert len(clone.split_cache) == 1


class TestReadNumericColumn:
    def test_column_matches_file(self):
        values = [float(i) * 0.5 for i in range(500)]
        fs = make_fs([f"{v}" for v in values], block_size=256)
        col = read_numeric_column(fs, "/f", split_logical_bytes=512)
        assert np.array_equal(col, np.asarray(values))

    def test_cached_and_scalar_identical(self, cacheless):
        values = [f"{i * 3}" for i in range(300)]
        fs = make_fs(values, block_size=128)
        ref = cacheless(make_fs(values, block_size=128))
        l1, l2 = CostLedger(), CostLedger()
        a = read_numeric_column(fs, "/f", ledger=l1,
                                split_logical_bytes=256)
        b = read_numeric_column(ref, "/f", ledger=l2,
                                split_logical_bytes=256)
        assert np.array_equal(a, b)
        assert l1.breakdown() == l2.breakdown()

    def test_second_ingest_hits_cache(self):
        fs = make_fs([f"{i}" for i in range(200)], block_size=128)
        read_numeric_column(fs, "/f", split_logical_bytes=256)
        built = fs.split_cache.stats.materializations
        assert built >= 1
        read_numeric_column(fs, "/f", split_logical_bytes=256)
        assert fs.split_cache.stats.materializations == built

    def test_column_cache_replays_charges_and_is_read_only(self):
        fs = make_fs([f"{i}" for i in range(200)], block_size=128)
        l1, l2 = CostLedger(), CostLedger()
        first = read_numeric_column(fs, "/f", ledger=l1,
                                    split_logical_bytes=256)
        second = read_numeric_column(fs, "/f", ledger=l2,
                                     split_logical_bytes=256)
        assert np.array_equal(first, second)
        # a column-cache hit still charges the full simulated scan
        assert l1.breakdown() == l2.breakdown()
        assert l2.seconds("disk_read") > 0
        # the replayed array is shared, so it must be immutable
        with pytest.raises(ValueError):
            second[0] = 99.0

    def test_column_cache_invalidated_on_write(self):
        fs = make_fs([f"{i}" for i in range(50)])
        read_numeric_column(fs, "/f")
        fs.write_lines("/f", ["7", "8"], overwrite=True)
        col = read_numeric_column(fs, "/f")
        assert col.tolist() == [7.0, 8.0]

    def test_custom_parser(self):
        fs = make_fs([f"k\t{i}" for i in range(20)])
        col = read_numeric_column(
            fs, "/f", parser=lambda line: float(line.rsplit("\t", 1)[-1]))
        assert col.tolist() == [float(i) for i in range(20)]

    def test_empty_file(self):
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=3)
        fs.write_text("/e", "")
        assert read_numeric_column(fs, "/e").size == 0

    @pytest.mark.parametrize("body", [
        "1.0\n2.0\n\n3.0\n",
        "\n\n5.0\n\n",
        "4.0\n\n\n6.5\n\n0.5",
        "".join(f"{i}.25\n\n" for i in range(40)),
    ], ids=["middle", "edges", "no-final-newline", "many-splits"])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_blank_lines_skipped_like_stock_job(self, body, scalar,
                                                cacheless):
        """Empty lines are skipped as the exact job's mapper skips
        them, on the cache-served and on the scalar path."""
        cluster = Cluster(n_nodes=3, block_size=64, seed=2)
        cluster.hdfs.write_text("/b", body)
        if scalar:
            cacheless(cluster.hdfs)
        col = read_numeric_column(cluster.hdfs, "/b",
                                  split_logical_bytes=48)
        assert col.tolist() == [float(t) for t in body.split("\n") if t]
        for statistic in ("mean", "median", "max"):
            exact, _ = run_stock_job(cluster, "/b", statistic,
                                     split_logical_bytes=48)
            assert get_statistic(statistic)(col) \
                == pytest.approx(exact, rel=1e-12)

    def test_blank_lines_in_custom_parser_input_skipped(self):
        fs = make_fs(["k\t1", "", "k\t2"])
        col = read_numeric_column(
            fs, "/f", parser=lambda line: float(line.rsplit("\t", 1)[-1]))
        assert col.tolist() == [1.0, 2.0]


class TestCachedReaderEquivalence:
    """The cache-served scan is byte-identical to the scalar scan of a
    cacheless filesystem, and the index's per-entry probe columns
    reproduce the scalar ``line_at`` — records, probe results, and
    every ledger category."""

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=12),
                         min_size=1, max_size=30),
        split_size=st.integers(min_value=1, max_value=100),
        trailing=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_scan_and_probe_equivalence(self, lengths, split_size,
                                                 trailing, cacheless):
        lines = ["x" * ln for ln in lengths]
        fs = HDFS(n_datanodes=2, block_size=32, replication=1, seed=4)
        body = "\n".join(lines) + ("\n" if trailing else "")
        if not body:
            return
        fs.write_text("/f", body)
        ref = cacheless(pickle.loads(pickle.dumps(fs)))
        meta = fs.namenode.get("/f")
        splits = compute_splits("/f", meta.size, meta.size, split_size)
        for split in splits:
            l1, l2 = CostLedger(), CostLedger()
            scalar = list(LineRecordReader(ref, split, ledger=l1)
                          .read_records())
            cached = list(LineRecordReader(fs, split, ledger=l2)
                          .read_records())
            assert scalar == cached
            assert l1.breakdown() == l2.breakdown()
            # On an intact file the salvage read yields the full scan's
            # records, charged as one sequential read of the readable
            # prefix: the rest of the file.
            l4 = CostLedger()
            ref.read_range("/f", split.start, meta.size, ledger=l4)
            for source in (ref, fs):
                l3 = CostLedger()
                assert list(LineRecordReader(source, split, ledger=l3)
                            .read_records_salvage()) == scalar
                assert l3.breakdown() == l4.breakdown()
            index = fs.split_cache.acquire(fs, split)
            positions = np.arange(split.start, min(split.end, meta.size))
            for pos, entry in zip(positions.tolist(),
                                  index.entries_of(positions).tolist()):
                p1, p2 = CostLedger(), CostLedger()
                start, line = LineRecordReader(ref, split, ledger=p1) \
                    .line_at(pos)
                p2.charge_probe_sequence([int(index.seek_counts[entry])],
                                         [float(index.scaled_bytes[entry])])
                assert p1.breakdown() == p2.breakdown()
                if index.lines[entry] is None:  # partial entry 0
                    assert start == index.prefix_start
                else:
                    assert (start, line) \
                        == (int(index.starts[entry]), index.lines[entry])

    def test_multibyte_utf8_lines(self):
        lines = ["héllo", "wörld", "日本語テキスト", "plain"]
        fs = make_fs(lines, block_size=16)
        meta = fs.namenode.get("/f")
        for split_size in (3, 7, 10_000):
            splits = compute_splits("/f", meta.size, meta.size, split_size)
            got = []
            for split in splits:
                got.extend(l for _, l in
                           LineRecordReader(fs, split).read_records())
            assert got == lines
