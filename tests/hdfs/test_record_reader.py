"""Tests for LineRecordReader — the exactly-once and backtracking
behaviours that EARL's pre-map sampling builds on."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostLedger
from repro.hdfs import HDFS, LineRecordReader, compute_splits


def make_fs(lines, block_size=64):
    fs = HDFS(n_datanodes=3, block_size=block_size, replication=2, seed=1)
    fs.write_lines("/f", lines)
    return fs


class TestReadRecords:
    def test_single_split_reads_all(self):
        lines = [f"row-{i:03d}" for i in range(20)]
        fs = make_fs(lines)
        (split,) = fs.get_splits("/f", 10_000)
        got = [line for _, line in
               LineRecordReader(fs, split).read_records()]
        assert got == lines

    def test_offsets_are_line_starts(self):
        lines = ["aa", "bbb", "c"]
        fs = make_fs(lines)
        (split,) = fs.get_splits("/f", 10_000)
        got = list(LineRecordReader(fs, split).read_records())
        assert got == [(0, "aa"), (3, "bbb"), (7, "c")]

    @pytest.mark.parametrize("split_size", [1, 2, 3, 5, 7, 16, 64, 1000])
    def test_exactly_once_across_split_sizes(self, split_size):
        lines = [f"value-{i}" for i in range(57)]
        fs = make_fs(lines)
        meta = fs.namenode.get("/f")
        splits = compute_splits("/f", meta.size, meta.size, split_size)
        got = []
        for split in splits:
            got.extend(line for _, line in
                       LineRecordReader(fs, split).read_records())
        assert got == lines

    def test_boundary_line_belongs_to_earlier_split(self):
        # File "ab\ncd\n": a split boundary exactly at a line start.
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=2)
        fs.write_text("/f", "ab\ncd\n")
        from repro.hdfs.splits import InputSplit
        first = InputSplit(path="/f", index=0, start=0, length=3,
                           logical_length=3)
        second = InputSplit(path="/f", index=1, start=3, length=3,
                            logical_length=3)
        got_first = [l for _, l in LineRecordReader(fs, first).read_records()]
        got_second = [l for _, l in LineRecordReader(fs, second).read_records()]
        # Hadoop convention: inclusive end => "cd" read by the first split.
        assert got_first == ["ab", "cd"]
        assert got_second == []

    def test_file_without_trailing_newline(self):
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=3)
        fs.write_text("/f", "one\ntwo\nthree")
        (split,) = fs.get_splits("/f", 10_000)
        got = [l for _, l in LineRecordReader(fs, split).read_records()]
        assert got == ["one", "two", "three"]

    def test_charges_disk_costs(self):
        lines = [f"{i}" for i in range(100)]
        fs = make_fs(lines)
        (split,) = fs.get_splits("/f", 10_000)
        ledger = CostLedger()
        list(LineRecordReader(fs, split, ledger=ledger).read_records())
        assert ledger.seconds("disk_read") > 0

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=12),
                         min_size=1, max_size=30),
        split_size=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_exactly_once(self, lengths, split_size):
        """Arbitrary line lengths × arbitrary split sizes: every line is
        delivered exactly once, in order."""
        lines = ["x" * ln for ln in lengths]
        fs = HDFS(n_datanodes=2, block_size=32, replication=1, seed=4)
        fs.write_lines("/f", lines)
        meta = fs.namenode.get("/f")
        splits = compute_splits("/f", meta.size, meta.size, split_size)
        got = []
        for split in splits:
            got.extend(l for _, l in
                       LineRecordReader(fs, split).read_records())
        assert got == lines


class TestLineAt:
    def test_backtracks_to_line_start(self):
        lines = ["alpha", "beta", "gamma"]
        fs = make_fs(lines)
        (split,) = fs.get_splits("/f", 10_000)
        reader = LineRecordReader(fs, split)
        # positions inside "beta" (bytes 6..9) must all resolve to it
        for pos in range(6, 10):
            start, line = reader.line_at(pos)
            assert (start, line) == (6, "beta")

    def test_first_line(self):
        fs = make_fs(["first", "second"])
        (split,) = fs.get_splits("/f", 10_000)
        start, line = LineRecordReader(fs, split).line_at(2)
        assert (start, line) == (0, "first")

    def test_position_on_newline_resolves_to_its_line(self):
        fs = make_fs(["ab", "cd"])
        (split,) = fs.get_splits("/f", 10_000)
        start, line = LineRecordReader(fs, split).line_at(2)  # the "\n"
        assert (start, line) == (0, "ab")

    def test_every_position_maps_to_correct_line(self):
        lines = ["aa", "b", "cccc", "dd"]
        fs = make_fs(lines)
        (split,) = fs.get_splits("/f", 10_000)
        reader = LineRecordReader(fs, split)
        text = "\n".join(lines) + "\n"
        expected_starts = []
        pos = 0
        for ln in lines:
            expected_starts.append(pos)
            pos += len(ln) + 1
        for position in range(len(text)):
            # which line contains this byte?
            idx = max(i for i, s in enumerate(expected_starts)
                      if s <= position)
            start, line = reader.line_at(position)
            assert start == expected_starts[idx]
            assert line == lines[idx]

    def test_out_of_range_rejected(self):
        fs = make_fs(["x"])
        (split,) = fs.get_splits("/f", 10_000)
        reader = LineRecordReader(fs, split)
        with pytest.raises(ValueError):
            reader.line_at(-1)
        with pytest.raises(ValueError):
            reader.line_at(10_000)

    def test_charges_random_probe(self):
        fs = make_fs([f"{i}" for i in range(50)])
        (split,) = fs.get_splits("/f", 10_000)
        ledger = CostLedger()
        LineRecordReader(fs, split, ledger=ledger).line_at(40)
        assert ledger.seconds("disk_seek") > 0


def both_readers(fs, split, cacheless):
    """(records, ledger breakdown) for the scalar path — a cacheless
    copy of ``fs`` — and for the cache-served path over ``fs``."""
    out = []
    for target in (cacheless(pickle.loads(pickle.dumps(fs))), fs):
        ledger = CostLedger()
        reader = LineRecordReader(target, split, ledger=ledger)
        out.append((list(reader.read_records()), ledger.breakdown()))
    return out


class TestCachedEdgeCases:
    """The edge cases, each asserted identical between the cache-served
    and the scalar (cacheless) scan."""

    def test_no_trailing_newline(self, cacheless):
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=11)
        fs.write_text("/f", "one\ntwo\nthree")
        (split,) = fs.get_splits("/f", 10_000)
        (scalar, l1), (cached, l2) = both_readers(fs, split, cacheless)
        assert scalar == cached == [(0, "one"), (4, "two"), (8, "three")]
        assert l1 == l2

    def test_line_starting_exactly_at_split_boundary(self, cacheless):
        # File "ab\ncd\n" cut at byte 3 (the start of "cd"): the first
        # split over-reads "cd", the second skips it — on both paths.
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=12)
        fs.write_text("/f", "ab\ncd\n")
        from repro.hdfs.splits import InputSplit
        first = InputSplit(path="/f", index=0, start=0, length=3,
                           logical_length=3)
        second = InputSplit(path="/f", index=1, start=3, length=3,
                            logical_length=3)
        (s1, a1), (c1, b1) = both_readers(fs, first, cacheless)
        (s2, a2), (c2, b2) = both_readers(fs, second, cacheless)
        assert s1 == c1 == [(0, "ab"), (3, "cd")]
        assert s2 == c2 == []
        assert a1 == b1
        assert a2 == b2
        # probing the boundary line resolves to the line itself
        for pos in (3, 4, 5):
            assert LineRecordReader(fs, second).line_at(pos) == (3, "cd")

    def test_empty_split(self, cacheless):
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=13)
        fs.write_text("/f", "a\nb\n")
        from repro.hdfs.splits import InputSplit
        empty = InputSplit(path="/f", index=0, start=2, length=0,
                           logical_length=0)
        (scalar, l1), (cached, l2) = both_readers(fs, empty, cacheless)
        assert scalar == cached == []
        assert l1 == l2
        assert sum(l1.values()) == 0.0  # nothing read, nothing charged

    def test_split_past_eof(self, cacheless):
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=14)
        fs.write_text("/f", "a\nb\n")
        from repro.hdfs.splits import InputSplit
        past = InputSplit(path="/f", index=3, start=100, length=50,
                          logical_length=50)
        (scalar, l1), (cached, l2) = both_readers(fs, past, cacheless)
        assert scalar == cached == []
        assert l1 == l2
        assert sum(l1.values()) == 0.0

    def test_empty_lines_preserved(self, cacheless):
        fs = HDFS(n_datanodes=2, block_size=64, replication=1, seed=15)
        fs.write_text("/f", "a\n\n\nb\n")
        (split,) = fs.get_splits("/f", 10_000)
        (scalar, l1), (cached, l2) = both_readers(fs, split, cacheless)
        assert scalar == cached == [(0, "a"), (2, ""), (3, ""), (4, "b")]
        assert l1 == l2
