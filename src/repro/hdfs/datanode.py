"""Simulated DataNode: stores block bytes and a health flag.

Application data in HDFS lives on DataNodes; the NameNode only keeps
metadata (paper §2.1).  A DataNode can be *failed* by the cluster's
failure injector, after which every block whose replicas are all on
failed nodes becomes unavailable — the condition EARL's fault-tolerance
mode (§3.4) must survive.
"""

from __future__ import annotations

from typing import Dict, Iterable


class DataNode:
    """In-memory container for block bytes on one simulated machine."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._blocks: Dict[int, bytes] = {}
        self._alive = True

    # -- health ------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> None:
        """Mark the node as failed.  Stored bytes become unreachable."""
        self._alive = False

    def recover(self) -> None:
        """Bring the node back (data intact, mirroring a rack power cycle)."""
        self._alive = True

    # -- block storage -------------------------------------------------------
    def store(self, block_id: int, data: bytes) -> None:
        if not self._alive:
            raise RuntimeError(f"cannot store on failed DataNode {self.node_id}")
        self._blocks[block_id] = data

    def has_block(self, block_id: int) -> bool:
        """Whether this node holds a *readable* copy of ``block_id``."""
        return self._alive and block_id in self._blocks

    def read(self, block_id: int) -> bytes:
        if not self._alive:
            raise RuntimeError(f"read from failed DataNode {self.node_id}")
        return self._blocks[block_id]

    def drop(self, block_id: int) -> None:
        """Remove a replica (idempotent)."""
        self._blocks.pop(block_id, None)

    def block_ids(self) -> Iterable[int]:
        return tuple(self._blocks.keys())

    @property
    def used_bytes(self) -> int:
        """Total bytes stored on this node."""
        return sum(len(b) for b in self._blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "FAILED"
        return f"DataNode({self.node_id}, {len(self._blocks)} blocks, {state})"
