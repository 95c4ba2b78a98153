"""Planning: a bound :class:`~repro.query.Query` onto the grouped engine.

The planner is deliberately small — the query model is declarative and
the heavy lifting lives in the layers below — but it is where the
SQL-ish surface meets the stack:

1. **Materialize columns** from the bound source (any mapping of column
   name → array-like; all referenced columns must exist and agree on
   length).
2. **Apply ``where``** as a vectorized row mask *before* any sampling —
   filtered rows never enter a stratum, so per-group populations (and
   the ``1/p`` corrections built on them) refer to the filtered table.
3. **Form measures**: one :class:`~repro.core.Measure` per ``select``
   aggregate (a column pair becomes stacked 2-D row items for row-wise
   statistics such as ``"correlation"``).
4. **Build the grouped session** over the ``group_by`` column (or a
   single whole-table stratum when the query is ungrouped); every group
   follows its own expansion schedule, and a shared row budget is the
   cross-query scheduler's (:class:`~repro.scheduler.QueryScheduler`).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.config import EarlConfig
from repro.core.grouped import GroupedEarlSession, Measure
from repro.query.model import WHERE_OPS, Query
from repro.sampling.stratified import Factorization, factorizes_natively

#: Stratum key used for ungrouped (whole-table) queries.
ALL_ROWS_KEY = "all"


def factorize_column(values: Any, name: str) -> Factorization:
    """The strata of a ``group_by`` column, keyed by the Python objects
    ``np.asarray(values, dtype=object)`` holds.

    A NumPy column whose dtype
    :func:`~repro.sampling.stratified.factorizes_natively` is factorized
    as it is, with no object per row, and only its distinct keys are
    boxed (``.item()``: ``str``, ``int``, ``bool``, ``bytes``,
    ``float``); any other column is boxed whole and takes the dict pass.
    """
    column = np.asarray(values) if isinstance(values, np.ndarray) else None
    if column is None or not factorizes_natively(column):
        column = np.asarray(values, dtype=object)
    if column.ndim != 1:
        raise ValueError(f"column {name!r} must be 1-D")
    strata = Factorization.of(column)
    if column.dtype != object:
        strata.keys = [key.item() for key in strata.keys]
    return strata


class MemoTable(dict):
    """A column mapping that is bound to many queries (the service's
    registered tables) and therefore remembers what every grouped query
    over it would otherwise re-derive from a ``group_by`` column: its
    :func:`factorize_column` — computed on first use, kept until the
    table is replaced.  The columns must not be written to once handed
    over.
    """

    def __init__(self, columns: Mapping[str, Any]) -> None:
        super().__init__(columns)
        self._strata: Dict[str, Factorization] = {}

    def factorization(self, column: str) -> Factorization:
        strata = self._strata.get(column)
        if strata is None:
            strata = self._strata[column] = factorize_column(
                self[column], column)
        return strata


def _group_strata(query: Query) -> Optional[Factorization]:
    """The factorization of the whole ``group_by`` column — remembered
    by a :class:`MemoTable` source, derived afresh from any other."""
    source, column = query.source, query.group_by
    if column is None or column not in source:
        return None
    if isinstance(source, MemoTable):
        return source.factorization(column)
    return factorize_column(source[column], column)


def materialize_columns(query: Query,
                        strata: Optional[Factorization] = None
                        ) -> Dict[str, np.ndarray]:
    """Pull every referenced column out of the bound source as an array.

    The ``group_by`` column is pulled only when its ``strata`` are not
    given or something reads its values (``where``, an aggregate), and
    then verbatim (object dtype — keys may be strings, ints, …);
    aggregate and ``where`` columns stay in their natural numpy dtype
    for vectorized filtering.
    """
    source = query.source
    assert source is not None
    referenced = set()
    for aggregate in query.select:
        referenced.update(aggregate.columns)
    if query.where is not None and not callable(query.where):
        referenced.add(query.where[0])
    pull_keys = strata is None or callable(query.where) \
        or query.group_by in referenced
    if query.group_by is not None:
        referenced.add(query.group_by)
    columns: Dict[str, np.ndarray] = {}
    length = None
    for name in sorted(referenced):
        if name not in source:
            raise KeyError(
                f"column {name!r} is not in the bound source "
                f"(has: {sorted(source)})")
        if name == query.group_by and not pull_keys:
            rows = len(strata)      # factorized already (1-D): not pulled
        else:
            column = columns[name] = (
                np.asarray(source[name], dtype=object)
                if name == query.group_by else np.asarray(source[name]))
            if column.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            rows = len(column)
        if length is None:
            length = rows
        elif rows != length:
            raise ValueError(
                f"column {name!r} has {rows} rows; expected {length}")
    if length == 0:
        raise ValueError("the bound source has no rows")
    return columns


def where_mask(query: Query,
               columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vectorized boolean row mask for the query's ``where`` clause."""
    length = len(next(iter(columns.values())))
    if query.where is None:
        return np.ones(length, dtype=bool)
    if callable(query.where):
        mask = np.asarray(query.where(dict(columns)))
    else:
        column, op, literal = query.where
        mask = np.asarray(WHERE_OPS[op](columns[column], literal))
    if mask.dtype != bool or mask.shape != (length,):
        raise ValueError(
            "where must produce one boolean per row "
            f"(got dtype {mask.dtype}, shape {mask.shape})")
    return mask


def plan_query(query: Query) -> GroupedEarlSession:
    """Plan a bound query: columns → filter → measures → grouped session."""
    strata = _group_strata(query)
    columns = materialize_columns(query, strata)
    mask = where_mask(query, columns)
    if not mask.any():
        raise ValueError("where filtered out every row")
    if not mask.all():
        columns = {name: col[mask] for name, col in columns.items()}
        if strata is not None:
            strata = strata.filtered(mask)

    if strata is not None:
        keys: Any = strata
    else:
        keys = np.full(len(next(iter(columns.values()))), ALL_ROWS_KEY,
                       dtype=object)

    measures = []
    for aggregate in query.select:
        if isinstance(aggregate.column, str):
            values = columns[aggregate.column]
        else:
            x, y = aggregate.column
            values = np.column_stack((columns[x], columns[y]))
        measures.append(Measure(
            name=aggregate.name, statistic=aggregate.statistic,
            values=values, sigma=aggregate.sigma,
            correction=aggregate.correction))

    return GroupedEarlSession(
        keys, measures,
        config=query.config or EarlConfig())
