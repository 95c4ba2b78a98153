"""Approximate GROUP BY queries with per-group error bounds.

The user-facing surface of the grouped-query subsystem: a declarative
:class:`Query` (``select`` / ``group_by`` / ``where``) that plans onto
the stack built by the earlier PRs — stratified sampling
(:class:`~repro.sampling.StratifiedSampler`), per-group EARL sessions
with per-group bootstrap error bounds and early stopping
(:class:`~repro.core.GroupedEarlSession`), the pluggable executor
backends, and the columnar HDFS ingest plane
(:func:`~repro.hdfs.read_keyed_column`).

Quickstart::

    from repro.query import Query, agg
    from repro.core import EarlConfig

    q = Query([agg("mean", "value")], group_by="key") \\
        .on(table, config=EarlConfig(sigma=0.05, seed=1))
    for snapshot in q.stream():        # one GroupedSnapshot per round
        ...                            # per-group estimates + CIs
    result = Query([agg("mean", "value")], group_by="key") \\
        .on(table, config=EarlConfig(sigma=0.05, seed=1)).run()

See DESIGN.md §7 ("Approximate grouped queries") for the planner →
sampler → per-group sessions → snapshots pipeline.
"""

from repro.core.grouped import (
    GroupEstimate,
    GroupedEarlSession,
    GroupedResult,
    GroupedSnapshot,
    Measure,
)
from repro.query.model import WHERE_OPS, Aggregate, Query, agg
from repro.query.planner import ALL_ROWS_KEY, plan_query

__all__ = [
    "Query",
    "agg",
    "Aggregate",
    "WHERE_OPS",
    "plan_query",
    "ALL_ROWS_KEY",
    "GroupedEarlSession",
    "Measure",
    "GroupEstimate",
    "GroupedSnapshot",
    "GroupedResult",
]
