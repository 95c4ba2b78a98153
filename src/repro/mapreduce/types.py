"""Core types shared across the MapReduce engine.

The MR model (paper §2.1)::

    map:    (k1, v1)        -> list((k2, v2))
    reduce: (k2, list(v2))  -> (k3, v3)

Keys and values are arbitrary Python objects; keys must be hashable so
the shuffle can group them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.cluster.costmodel import CostLedger
from repro.mapreduce.counters import Counters

#: A single intermediate record.
KeyValue = Tuple[Hashable, Any]


@dataclass
class TaskContext:
    """Per-task execution context handed to map/reduce functions.

    Attributes
    ----------
    ledger:
        Simulated-time account for this task; user functions may charge
        extra CPU for heavy computation.
    counters:
        Task-local counters (merged into the job at completion).
    rng:
        Task-private random generator (derived deterministically from the
        job seed and task index so scheduling cannot perturb results).
    record_scale:
        Logical-records-per-actual-record factor of the input file; the
        engine charges CPU as ``records × record_scale``.
    cpu_factor:
        Per-job multiplier of the baseline per-record CPU cost.
    config:
        Read-only job-level parameters (e.g. the sample percentage ``p``
        that ``correct()`` needs).
    attempt:
        0-based attempt number of this task execution; stays 0 unless a
        :class:`~repro.mapreduce.faults.FaultPolicy` retries the task.
    """

    ledger: CostLedger
    counters: Counters
    rng: np.random.Generator
    record_scale: float = 1.0
    cpu_factor: float = 1.0
    config: Dict[str, Any] = field(default_factory=dict)
    task_id: Optional[str] = None
    attempt: int = 0


#: Framing overhead :func:`estimate_pair_bytes` adds to a pair.
PAIR_FRAMING_BYTES = 2


def estimate_pair_bytes(key: Any, value: Any) -> int:
    """Rough serialized size of a ``(key, value)`` pair.

    Used to price shuffle traffic.  The estimate intentionally stays
    simple (textual length), since only relative magnitudes matter to the
    cost model.
    """
    return estimate_bytes(key) + estimate_bytes(value) + PAIR_FRAMING_BYTES


def estimate_bytes(obj: Any) -> int:
    """Rough serialized size of one key or value (see
    :func:`estimate_pair_bytes`)."""
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(estimate_bytes(x) for x in obj) + 2
    if isinstance(obj, dict):
        return sum(estimate_bytes(k) + estimate_bytes(v)
                   for k, v in obj.items()) + 2
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    return 16
