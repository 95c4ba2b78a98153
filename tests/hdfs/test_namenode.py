"""Tests for NameNode metadata management."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hdfs.errors import FileAlreadyExists, FileNotFoundInHdfs
from repro.hdfs.namenode import FileMeta, NameNode


@pytest.fixture
def nn() -> NameNode:
    return NameNode()


class TestNamespace:
    def test_create_and_get(self, nn):
        meta = nn.create_file("/x")
        assert nn.get("/x") is meta

    def test_normalize_collapses_slashes(self, nn):
        nn.create_file("/a//b/")
        assert nn.exists("/a/b")

    def test_relative_rejected(self, nn):
        with pytest.raises(ValueError):
            nn.create_file("x")

    def test_duplicate_rejected(self, nn):
        nn.create_file("/d")
        with pytest.raises(FileAlreadyExists):
            nn.create_file("/d")

    def test_overwrite_replaces(self, nn):
        first = nn.create_file("/o")
        second = nn.create_file("/o", overwrite=True)
        assert nn.get("/o") is second
        assert first is not second

    def test_get_missing_raises(self, nn):
        with pytest.raises(FileNotFoundInHdfs):
            nn.get("/missing")

    def test_delete(self, nn):
        nn.create_file("/del")
        nn.delete("/del")
        assert not nn.exists("/del")
        with pytest.raises(FileNotFoundInHdfs):
            nn.delete("/del")

    def test_list_files_sorted_prefix(self, nn):
        for path in ["/b/2", "/a/1", "/a/3", "/c"]:
            nn.create_file(path)
        assert nn.list_files("/a") == ["/a/1", "/a/3"]
        assert nn.list_files() == ["/a/1", "/a/3", "/b/2", "/c"]

    def test_len_and_iter(self, nn):
        nn.create_file("/p")
        nn.create_file("/q")
        assert len(nn) == 2
        assert list(nn) == ["/p", "/q"]

    def test_logical_scale_validation(self, nn):
        with pytest.raises(ValueError):
            nn.create_file("/bad", logical_scale=0.5)


class TestBlockAllocation:
    def test_allocation_advances_offsets(self, nn):
        meta = nn.create_file("/blk")
        b1 = nn.allocate_block(meta, 100)
        b2 = nn.allocate_block(meta, 50)
        assert (b1.offset, b1.length) == (0, 100)
        assert (b2.offset, b2.length) == (100, 50)
        assert meta.size == 150
        assert b1.block_id != b2.block_id

    def test_block_ids_globally_unique(self, nn):
        m1 = nn.create_file("/f1")
        m2 = nn.create_file("/f2")
        ids = {nn.allocate_block(m1, 10).block_id,
               nn.allocate_block(m2, 10).block_id,
               nn.allocate_block(m1, 10).block_id}
        assert len(ids) == 3

    def test_blocks_for_range(self, nn):
        meta = nn.create_file("/r")
        for _ in range(4):
            nn.allocate_block(meta, 10)
        hits = nn.blocks_for_range(meta, 5, 25)
        assert [b.offset for b in hits] == [0, 10, 20]

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(0, 40), max_size=12),
           a=st.integers(0, 500), b=st.integers(0, 500),
           whole=st.booleans())
    @example(lengths=[10, 10, 10], a=10, b=10, whole=False)  # empty, edge
    @example(lengths=[10, 10, 10], a=15, b=15, whole=False)  # empty, inside
    @example(lengths=[10, 0, 10], a=10, b=10, whole=False)   # empty block
    @example(lengths=[], a=0, b=0, whole=True)
    def test_blocks_for_range_is_the_overlap_filter(self, lengths, a, b,
                                                    whole):
        nn = NameNode()
        meta = nn.create_file("/p")
        for length in lengths:
            nn.allocate_block(meta, length)
        if whole:
            start, end = 0, meta.size
        else:
            start, end = sorted((min(a, meta.size), min(b, meta.size)))
        assert nn.blocks_for_range(meta, start, end) == [
            blk for blk in meta.blocks
            if blk.offset < end and blk.end > start]

    def test_blocks_for_range_bounds_checked(self, nn):
        meta = nn.create_file("/rb")
        nn.allocate_block(meta, 10)
        with pytest.raises(ValueError):
            nn.blocks_for_range(meta, 0, 11)


class TestFileMeta:
    def test_logical_size(self):
        meta = FileMeta(path="/m", size=100, logical_scale=2.5)
        assert meta.logical_size == 250

    def test_default_scale_identity(self):
        meta = FileMeta(path="/m", size=77)
        assert meta.logical_size == 77
