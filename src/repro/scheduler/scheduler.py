"""Cross-query admission and scheduling over the EARL engines.

:class:`QueryScheduler` sits between the service layer and the engines
(:class:`~repro.core.EarlSession`,
:class:`~repro.streaming.SessionManager`,
:class:`~repro.core.grouped.GroupedEarlSession`) and adds the two
things no single engine can do alone:

* **Shared scans.**  Admitted statistic queries are grouped by scan key
  — ``(table, config)``, the uniform permuted-sample design — and every
  group runs as **one** :class:`~repro.streaming.SessionManager`: one
  permutation, one pilot, one broadcast of the shared sample (extending
  the PR-3 broadcast-once and PR-4 split-cache reuse across *queries*,
  not just across rounds).  A manager of one query *is* the solo
  :class:`~repro.core.EarlSession` (same engine, same RNG discipline),
  so a scheduled single query is byte-identical to the solo session a
  client would have run directly.  Grouped queries keep their own stratified
  engines (their design is per-group, not uniform) but share the
  columnar scan through the split cache like any other reader.
* **Global sample-budget allocation.**  Each expansion round the
  scheduler gathers live demand records from every multi-query engine —
  per ``(query, group)`` arm: current bootstrap error, bound σ, rows
  consumed, rows reachable — and splits one global row budget across
  them by expected error reduction (:mod:`repro.scheduler.budget`):
  live ``N_h·S_h`` weights, needed-rows caps, one-row liveness floors.
  Grants ride the engines' one stepping protocol — ``run_round(grant)``
  takes a per-round row cap (:meth:`SessionManager.run_round`) or
  per-group quotas (:meth:`GroupedEarlSession.run_round`) — so finished or
  near-finished arms donate their rows to the laggards *across
  queries*.  With an explicit ``round_budget`` the same split runs over
  the groups of a lone grouped query: it is the only way to put a
  grouped query on a row budget.

Determinism contract: engines are built in canonical order (scan key,
then query name) regardless of submission interleaving, every engine
keeps its own seeded RNG streams, and rounds are driven in that same
canonical order — so a fixed set of (named, seeded) submissions yields
byte-identical snapshots across serial / thread / process backends and
across submission orders.  With a single admitted engine and no
explicit ``round_budget`` no budgeting is applied at all: the engine
runs its own schedule, preserving the solo-session byte-identity the
repo pins.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.core.config import EarlConfig
from repro.core.engine import RoundEngine
from repro.core.estimators import StatisticLike, get_statistic
from repro.core.grouped import GroupedEarlSession
from repro.obs.convergence import ConvergenceTrace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.scheduler.budget import allocate_budget
from repro.streaming.session import SessionManager

__all__ = ["ScheduledQuery", "QueryScheduler"]


class ScheduledQuery:
    """Handle for one query admitted to a :class:`QueryScheduler`.

    Carries the query's snapshots as rounds complete and — once it
    terminates — its result (:class:`~repro.core.EarlResult` for
    statistic queries, :class:`~repro.core.grouped.GroupedResult` for
    grouped ones).  :meth:`cancel` withdraws the query: before the run
    starts it is simply never admitted to an engine; mid-run the
    engine-level cancel hook stops its sampling at the next round
    boundary without disturbing any co-scheduled query's randomness.
    """

    def __init__(self, name: str, kind: str,
                 params: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.kind = kind                  # "statistic" | "grouped"
        self.params = params or {}
        self.snapshots: List[Any] = []
        self.result: Optional[Any] = None
        self.cancelled = False
        self._engine_cancel = None

    @property
    def done(self) -> bool:
        return self.result is not None or self.cancelled

    def attach_cancel(self, hook) -> None:
        self._engine_cancel = hook
        if self.cancelled:
            hook()

    def cancel(self) -> None:
        """Withdraw the query (safe from any thread: flag-based)."""
        self.cancelled = True
        if self._engine_cancel is not None:
            self._engine_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.result is not None
                 else "cancelled" if self.cancelled else "pending")
        return f"ScheduledQuery({self.name!r}, {self.kind}, {state})"


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------


def _config_token(config: EarlConfig) -> Hashable:
    """Hashable identity of a config for scan-key grouping (two
    statistic queries share an engine only when their whole config —
    seed, backend, expansion policy — agrees)."""
    try:
        token = dataclasses.astuple(config)
        hash(token)
        return token
    except TypeError:       # e.g. a Generator seed: identity is enough
        return id(config)


class QueryScheduler:
    """Admit concurrent queries, share scans, allocate sample budget.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core import EarlConfig
    >>> from repro.scheduler import QueryScheduler
    >>> data = np.random.default_rng(0).lognormal(0, 1, 200_000)
    >>> cfg = EarlConfig(sigma=0.05, seed=1)
    >>> sched = QueryScheduler()
    >>> q1 = sched.submit_statistic(data, "mean", config=cfg, table="t")
    >>> q2 = sched.submit_statistic(data, "std", config=cfg, table="t")
    >>> results = sched.run()          # ONE pilot, ONE shared sample
    >>> sorted(results) == ["mean", "std"]
    True

    ``round_budget`` optionally fixes the global rows-per-round spend;
    by default each round spends what the admitted engines would have
    drawn anyway and only the *split* across arms changes.  A scheduler
    streams once (:meth:`stream`, or :meth:`run` which drains it).
    """

    def __init__(self, *, round_budget: Optional[int] = None) -> None:
        if round_budget is not None and round_budget < 1:
            raise ValueError("round_budget must be positive")
        self._round_budget = round_budget
        self._queries: List[ScheduledQuery] = []
        self._stat_groups: Dict[Hashable, List[ScheduledQuery]] = {}
        self._scan_data: Dict[Hashable, Tuple[Any, EarlConfig]] = {}
        self._grouped: List[Tuple[ScheduledQuery, GroupedEarlSession]] = []
        self._engines: List[RoundEngine] = []
        #: Which admitted query an engine's event handle stands for
        #: (a manager's per-query handle, or a grouped session itself).
        self._owners: Dict[int, ScheduledQuery] = {}
        self._started = False
        self._cancelled = False
        #: Populated at :meth:`stream` start when telemetry is enabled:
        #: per-round convergence points, events and budget decisions.
        self.telemetry: Optional[ConvergenceTrace] = None
        self._round_no = 0
        self._t0: Optional[float] = None

    # ------------------------------------------------------------ admission
    @property
    def queries(self) -> List[ScheduledQuery]:
        return list(self._queries)

    def _claim_name(self, name: Optional[str], default: str) -> str:
        taken = {q.name for q in self._queries}
        if name is not None:
            if name in taken:
                raise ValueError(f"duplicate query name {name!r}")
            return name
        candidate, suffix = default, 2
        while candidate in taken:
            candidate = f"{default}#{suffix}"
            suffix += 1
        return candidate

    def submit_statistic(self, data: Any, statistic: StatisticLike, *,
                         config: Optional[EarlConfig] = None,
                         table: Optional[str] = None,
                         sigma: Optional[float] = None,
                         error_metric: Optional[str] = None,
                         correction: Any = "auto",
                         B_override: Optional[int] = None,
                         n_override: Optional[int] = None,
                         name: Optional[str] = None) -> ScheduledQuery:
        """Admit one uniform statistic query over ``data``.

        Queries submitted with the same ``table`` label and an equal
        ``config`` share one scan + sample engine; per-query σ / error
        metric / B / n ride on top exactly as with
        :meth:`SessionManager.submit`.  Unlabelled data groups by array
        identity.
        """
        if self._started:
            raise RuntimeError("cannot submit after streaming started")
        cfg = config or EarlConfig()
        stat = get_statistic(statistic)   # eager validation
        query = ScheduledQuery(
            self._claim_name(name, stat.name), "statistic",
            params={
                "statistic": statistic,
                "sigma": cfg.sigma if sigma is None else sigma,
                "error_metric": (cfg.error_metric if error_metric is None
                                 else error_metric),
                "correction": correction,
                "B_override": (cfg.B_override if B_override is None
                               else B_override),
                "n_override": (cfg.n_override if n_override is None
                               else n_override),
            })
        key = (table if table is not None else id(data),
               _config_token(cfg))
        self._stat_groups.setdefault(key, []).append(query)
        self._scan_data[key] = (data, cfg)
        self._queries.append(query)
        return query

    def submit_grouped(self, session: GroupedEarlSession, *,
                       name: Optional[str] = None) -> ScheduledQuery:
        """Admit one grouped query (an unstarted
        :class:`GroupedEarlSession`, e.g. from ``Query.plan()``)."""
        if self._started:
            raise RuntimeError("cannot submit after streaming started")
        query = ScheduledQuery(self._claim_name(name, "grouped"), "grouped")
        self._grouped.append((query, session))
        self._queries.append(query)
        return query

    def cancel(self) -> None:
        """Withdraw every query and stop at the next round boundary
        (safe from any thread: flag-based, like the engines)."""
        self._cancelled = True
        for query in self._queries:
            query.cancel()

    # ------------------------------------------------------------- running
    def stream(self) -> Iterator[Tuple[ScheduledQuery, Any]]:
        """Drive every admitted engine round-by-round, yielding
        ``(query, snapshot)`` events as rounds complete."""
        if self._started:
            raise RuntimeError("a QueryScheduler streams only once")
        if not self._queries:
            raise RuntimeError("no queries submitted")
        self._started = True
        if _METRICS.enabled or _TRACER.enabled:
            self.telemetry = ConvergenceTrace(name="scheduler")
            self._t0 = time.perf_counter()
            _METRICS.counter("repro_scheduler_streams_total",
                             help="scheduler dispatch windows driven").inc()
            _METRICS.counter("repro_scheduler_queries_total",
                             help="queries admitted to windows"
                             ).inc(len(self._queries))
        engines = self._build_engines()
        self._engines = engines
        try:
            with _TRACER.span("scheduler.prepare",
                              attrs={"engines": len(engines)}):
                for engine in engines:
                    if self._cancelled:
                        return
                    yield from self._deliver(0, engine.prepare())
            round_cap = 8 * max((engine.config.max_iterations
                                 for engine in engines), default=1)
            rounds = 0
            while not self._cancelled:
                live = [e for e in engines if e.pending]
                if not live:
                    return
                rounds += 1
                self._round_no = rounds
                if rounds > round_cap:
                    # Budget trickling exceeded the safety bound:
                    # best-effort finalize, mirroring the engines' own
                    # stalled-round behaviour.
                    for engine in live:
                        yield from self._deliver(rounds, engine.finalize())
                    return
                with _TRACER.span("scheduler.round",
                                  attrs={"round": rounds,
                                         "live": len(live)}):
                    grants = self._allocate(live)
                    for engine in live:
                        if self._cancelled:
                            return
                        if not engine.pending:
                            continue
                        grant = (grants.get(id(engine))
                                 if grants is not None else None)
                        yield from self._deliver(rounds,
                                                 engine.run_round(grant))
                if _METRICS.enabled:
                    _METRICS.counter("repro_scheduler_rounds_total",
                                     help="global scheduling rounds").inc()
        finally:
            for engine in engines:
                engine.finish()

    def run(self) -> Dict[str, Optional[Any]]:
        """Drain :meth:`stream`; returns ``{name: result}`` (``None``
        for queries cancelled before terminating)."""
        for _ in self.stream():
            pass
        return {query.name: query.result for query in self._queries}

    @property
    def rows_processed(self) -> int:
        """Total distinct rows drawn across every admitted engine."""
        return sum(engine.rows_processed for engine in self._engines)

    # ------------------------------------------------------------- internals
    def _deliver(self, round_no: int, events: List[Tuple[Any, Any]]
                 ) -> List[Tuple[ScheduledQuery, Any]]:
        """Book one stepping call's ``(handle, snapshot)`` events on
        the admitted queries they belong to (and on the convergence
        trace); returns them as ``(query, snapshot)`` pairs."""
        out: List[Tuple[ScheduledQuery, Any]] = []
        wall = (time.perf_counter() - self._t0
                if events and self._t0 is not None else None)
        for handle, snap in events:
            query = self._owners[id(handle)]
            query.snapshots.append(snap)
            if snap.final:
                query.result = snap.result
            out.append((query, snap))
            if self.telemetry is None:
                continue
            rows = int(getattr(snap, "sample_size", 0)
                       or getattr(snap, "rows_processed", 0))
            error = getattr(snap, "error", None)
            if error is None:
                worst = getattr(snap, "worst", None)
                error = worst.error if worst is not None else None
            self.telemetry.record_round(
                query.name, round=round_no, rows=rows, error=error,
                wall_seconds=wall,
                sim_seconds=getattr(snap, "cost_total_seconds", None))
            if getattr(snap, "degraded", False):
                self.telemetry.record_event(
                    "degraded", key=query.name, round=round_no,
                    lost_fraction=getattr(snap, "lost_fraction", 0.0))
        return out

    def _build_engines(self) -> List[RoundEngine]:
        """Materialize engines in canonical order — scan key, then
        query name — so a fixed submission *set* produces the same
        engines (and the same per-query RNG streams) no matter the
        submission interleaving."""
        engines: List[RoundEngine] = []
        for key in sorted(self._stat_groups,
                          key=lambda k: (str(k[0]), str(k[1]))):
            members = [q for q in self._stat_groups[key] if not q.cancelled]
            members.sort(key=lambda q: q.name)
            if not members:
                continue
            data, cfg = self._scan_data[key]
            manager = SessionManager(data, config=cfg)
            for query in members:
                p = query.params
                handle = manager.submit(
                    p["statistic"], sigma=p["sigma"],
                    error_metric=p["error_metric"],
                    correction=p["correction"],
                    B_override=p["B_override"], n_override=p["n_override"],
                    name=query.name)
                self._owners[id(handle)] = query
                query.attach_cancel(handle.cancel)
            engines.append(manager)
        for query, session in sorted(self._grouped,
                                     key=lambda pair: pair[0].name):
            if query.cancelled:
                continue
            self._owners[id(session)] = query
            query.attach_cancel(session.cancel)
            engines.append(session)
        return engines

    def _allocate(self, live: List[RoundEngine]) -> Optional[Dict[int, Any]]:
        """One round's global budget split, or ``None`` to let every
        engine follow its own schedule.

        Budgeting engages only when queries actually compete — at least
        two budgetable engines, or an explicit ``round_budget`` — so a
        lone scheduled engine stays byte-identical to its unscheduled
        run.  A manager of one query is never budgetable: its schedule
        is the solo session's, and with nothing sharing its sample
        there is nothing for a budget to improve.
        """
        budgetable = [e for e in live
                      if isinstance(e, GroupedEarlSession)
                      or len(e.queries) > 1]
        if self._round_budget is None and len(budgetable) < 2:
            return None
        arms: List[Tuple[Any, Dict[str, Any]]] = []
        for engine in budgetable:
            for record in engine.live_demands():
                arms.append((engine, record))
        if not arms:
            return None
        grants = allocate_budget([record for _, record in arms],
                                 self._round_budget)
        if self.telemetry is not None:
            self.telemetry.record_allocation(
                self._round_no,
                {str(record["key"]): grant
                 for (_, record), grant in zip(arms, grants)},
                total=self._round_budget)
        out: Dict[int, Any] = {}
        for (engine, record), grant in zip(arms, grants):
            if record.get("shared"):
                # Arms of a shared-sample engine read the same rows:
                # the engine's round cap is the largest arm grant, not
                # the sum.
                current = out.get(id(engine), 0)
                out[id(engine)] = max(int(current), int(grant))
            else:
                out.setdefault(id(engine), {})[record["key"]] = int(grant)
        return out
