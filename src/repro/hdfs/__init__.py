"""Simulated HDFS substrate (NameNode, DataNodes, blocks, splits).

Reproduces the features of HDFS the paper's sampling layer relies on
(§2.1, §3.3): block partitioning, replication, logical input splits
and a line-oriented record reader with byte-offset backtracking.
"""

from repro.hdfs.blocks import DEFAULT_BLOCK_SIZE, Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.errors import (
    BlockUnavailableError,
    FileAlreadyExists,
    FileNotFoundInHdfs,
    HdfsError,
    ReplicationError,
)
from repro.hdfs.filesystem import HDFS
from repro.hdfs.namenode import FileMeta, NameNode
from repro.hdfs.record_reader import LineRecordReader
from repro.hdfs.split_cache import (
    BARE_LINE_KEY,
    CacheStats,
    SplitIndex,
    SplitIndexCache,
    build_split_index,
    read_keyed_column,
    read_numeric_column,
)
from repro.hdfs.splits import InputSplit, compute_splits

__all__ = [
    "HDFS",
    "CacheStats",
    "SplitIndex",
    "SplitIndexCache",
    "build_split_index",
    "read_numeric_column",
    "read_keyed_column",
    "BARE_LINE_KEY",
    "Block",
    "DataNode",
    "NameNode",
    "FileMeta",
    "InputSplit",
    "LineRecordReader",
    "DEFAULT_BLOCK_SIZE",
    "compute_splits",
    "HdfsError",
    "FileNotFoundInHdfs",
    "FileAlreadyExists",
    "BlockUnavailableError",
    "ReplicationError",
]
