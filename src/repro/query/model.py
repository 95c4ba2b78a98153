"""The declarative grouped-query model.

A :class:`Query` is a tiny SQL-shaped description of an approximate
aggregation::

    Query(select=[agg("mean", "value"), agg("p90", "value", sigma=0.1)],
          group_by="key",
          where=("value", ">", 0.0))

``select`` lists the aggregates (:func:`agg`), ``group_by`` names the
grouping column (omit it for a whole-table query), and ``where`` filters
rows before any sampling happens — either a ``(column, op, literal)``
triple or a callable over the column mapping returning a boolean mask.

A query is *bound* to data with :meth:`Query.on` (any mapping of column
name → array-like) or :meth:`Query.from_hdfs` (a ``key<TAB>value`` file
in the simulated HDFS, ingested through the columnar split cache); the
bound query then plans onto :class:`~repro.core.GroupedEarlSession` —
see :mod:`repro.query.planner` — and exposes the familiar progressive
surface: :meth:`Query.stream` yields
:class:`~repro.core.GroupedSnapshot` per round (consumable by
:class:`~repro.streaming.StreamConsumer` unchanged) and
:meth:`Query.run` drains it into a :class:`~repro.core.GroupedResult`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import EarlConfig
from repro.core.correction import CorrectionLike
from repro.core.estimators import StatisticLike, get_statistic
from repro.core.grouped import GroupedResult, GroupedSnapshot

#: A ``where`` clause: ``(column, op, literal)`` or a mask callable.
WhereLike = Union[Tuple[str, str, Any],
                  Callable[[Mapping[str, np.ndarray]], np.ndarray]]

#: Comparison operators accepted in a ``where`` triple.
WHERE_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Aggregate:
    """One ``select`` entry: a statistic over a column.

    ``column`` is a column name, or a pair of names for row-item
    statistics (``agg("correlation", ("x", "y"))``).  ``sigma``
    overrides the config's error bound for this aggregate only.
    """

    statistic: str
    column: Union[str, Tuple[str, str]]
    sigma: Optional[float] = None
    correction: CorrectionLike = "auto"
    name: str = ""

    def __post_init__(self) -> None:
        if self.sigma is not None and not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must be in (0, 1], got {self.sigma}")
        if not self.name:
            col = (self.column if isinstance(self.column, str)
                   else ", ".join(self.column))
            object.__setattr__(self, "name", f"{self.statistic}({col})")

    @property
    def columns(self) -> Tuple[str, ...]:
        """The source columns this aggregate reads."""
        return ((self.column,) if isinstance(self.column, str)
                else tuple(self.column))


def agg(statistic: StatisticLike, column: Union[str, Sequence[str]], *,
        sigma: Optional[float] = None,
        correction: CorrectionLike = "auto",
        name: Optional[str] = None) -> Aggregate:
    """Build one ``select`` aggregate: ``agg("mean", "value")``.

    ``statistic`` is any registered statistic name (or
    :class:`~repro.core.Statistic`); row-item statistics take a pair of
    columns (``agg("correlation", ("x", "y"))``).  ``sigma`` sets this
    aggregate's own error bound; ``name`` its label in results (default
    ``"mean(value)"``-style).
    """
    stat = get_statistic(statistic)   # validates eagerly
    if not isinstance(column, str):
        column = tuple(column)
        if len(column) != 2 or not all(isinstance(c, str) for c in column):
            raise ValueError(
                "a column pair must be exactly two column names")
        if not getattr(stat, "row_items", False):
            raise ValueError(
                f"statistic {stat.name!r} consumes scalar items; a column "
                "pair requires a row-wise statistic such as 'correlation'")
    elif getattr(stat, "row_items", False):
        raise ValueError(
            f"statistic {stat.name!r} is row-wise; select it over a "
            "column pair, e.g. agg('correlation', ('x', 'y'))")
    return Aggregate(statistic=stat.name, column=column, sigma=sigma,
                     correction=correction, name=name or "")


class Query:
    """A declarative approximate GROUP BY query.

    Example
    -------
    >>> import numpy as np
    >>> from repro.query import Query, agg
    >>> from repro.core import EarlConfig
    >>> rng = np.random.default_rng(0)
    >>> table = {"key": rng.choice(["a", "b"], size=40_000, p=[0.9, 0.1]),
    ...          "value": rng.lognormal(3.0, 1.0, 40_000)}
    >>> q = Query([agg("mean", "value")], group_by="key") \\
    ...     .on(table, config=EarlConfig(sigma=0.05, seed=1))
    >>> result = q.run()
    >>> sorted(result.groups) == ["a", "b"] and result.achieved
    True

    Every group follows its own expansion schedule until its bound is
    met.  To split a fixed per-round row budget across the groups
    instead, submit :meth:`plan`'s session to a
    :class:`~repro.scheduler.QueryScheduler` built with that budget
    (:meth:`~repro.scheduler.QueryScheduler.submit_grouped`).
    """

    def __init__(self, select: Sequence[Aggregate], *,
                 group_by: Optional[str] = None,
                 where: Optional[WhereLike] = None,
                 source: Optional[Mapping[str, Any]] = None,
                 config: Optional[EarlConfig] = None) -> None:
        if not select:
            raise ValueError("select must name at least one aggregate")
        aggregates = []
        names = set()
        for entry in select:
            if not isinstance(entry, Aggregate):
                raise TypeError(
                    f"select entries must come from agg(...), got "
                    f"{type(entry).__name__}")
            if entry.name in names:
                raise ValueError(f"duplicate aggregate name {entry.name!r}")
            names.add(entry.name)
            aggregates.append(entry)
        if where is not None and not callable(where):
            if (not isinstance(where, tuple) or len(where) != 3
                    or not isinstance(where[0], str)):
                raise ValueError(
                    "where must be a (column, op, literal) triple or a "
                    "callable over the column mapping")
            if where[1] not in WHERE_OPS:
                raise ValueError(f"unknown where operator {where[1]!r}; "
                                 f"known: {sorted(WHERE_OPS)}")
        self.select: Tuple[Aggregate, ...] = tuple(aggregates)
        self.group_by = group_by
        self.where = where
        self.source = source
        self.config = config
        #: The most recently planned session (set by :meth:`stream` /
        #: :meth:`run`) — the handle a concurrent caller needs for
        #: :meth:`~repro.core.GroupedEarlSession.cancel`.
        self.last_session: Optional[Any] = None

    # ------------------------------------------------------------- binding
    def on(self, source: Mapping[str, Any], *,
           config: Optional[EarlConfig] = None) -> "Query":
        """A copy of this query bound to ``source`` (columnar mapping:
        column name → array-like, all the same length)."""
        return Query(self.select, group_by=self.group_by, where=self.where,
                     source=source, config=config or self.config)

    def from_hdfs(self, fs, path: str, *,
                  value_column: str = "value",
                  delimiter: str = "\t",
                  config: Optional[EarlConfig] = None,
                  ledger=None,
                  split_logical_bytes: Optional[int] = None) -> "Query":
        """Bind to a ``key<TAB>value`` file in the simulated HDFS.

        The file is ingested once through the columnar split cache
        (:func:`repro.hdfs.read_keyed_column`) into two columns: the
        query's ``group_by`` column (the key field; requires a grouped
        query) and ``value_column``.  Re-binding the same path replays
        the cached columns without re-parsing; the scan's simulated
        cost is charged to ``ledger`` on every call either way.
        """
        from repro.hdfs.split_cache import read_keyed_column

        if self.group_by is None:
            raise ValueError(
                "from_hdfs needs a grouped query: the file's key field "
                "binds to the group_by column")
        keys, values = read_keyed_column(
            fs, path, delimiter=delimiter, ledger=ledger,
            split_logical_bytes=split_logical_bytes)
        return self.on({self.group_by: keys, value_column: values},
                       config=config)

    # ------------------------------------------------------------ execution
    def plan(self):
        """Plan this bound query onto a fresh
        :class:`~repro.core.GroupedEarlSession` (one per execution —
        sessions stream once)."""
        from repro.query.planner import plan_query

        if self.source is None:
            raise RuntimeError(
                "query is unbound; bind data with .on(source) or "
                ".from_hdfs(fs, path) first")
        return plan_query(self)

    def stream(self) -> Iterator[GroupedSnapshot]:
        """Stream per-round :class:`~repro.core.GroupedSnapshot`s with
        per-group estimates, error bounds and early stopping.

        The planned session is exposed as :attr:`last_session`, so a
        caller driving this stream from one thread can cancel it from
        another (``query.last_session.cancel()``) — closing the
        generator cross-thread is not legal, the flag is.
        """
        session = self.plan()
        self.last_session = session
        return session.stream()

    def run(self) -> GroupedResult:
        """Execute to completion; returns the
        :class:`~repro.core.GroupedResult` (one
        :class:`~repro.core.EarlResult` per group and aggregate)."""
        session = self.plan()
        self.last_session = session
        return session.run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"select=[{', '.join(a.name for a in self.select)}]"]
        if self.group_by is not None:
            parts.append(f"group_by={self.group_by!r}")
        if self.where is not None:
            parts.append("where=...")
        parts.append("bound" if self.source is not None else "unbound")
        return f"Query({', '.join(parts)})"
