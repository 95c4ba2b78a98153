"""The approximate-query service: async sessions over the EARL engines.

:class:`ApproxQueryService` is the network-facing front end over
:class:`~repro.streaming.SessionManager`,
:class:`~repro.query.Query` (grouped sessions) and
:class:`~repro.core.EarlJob`.  A client submits a spec
(:mod:`repro.service.protocol`) and gets a session id; it then polls —
or long-polls — a monotonically event-id'd stream of snapshot events,
can detach and resume from any event id at or above its ack floor, and
can cancel to stop paying for sampling.

Architecture
------------
* **Stateless handlers over a pluggable store.**  Every request handler
  reads all session state from the
  :class:`~repro.service.store.SessionStore`; the service object holds
  only configuration and runtime plumbing.
* **One scheduler per dispatch window.**  Statistic *and* GROUP BY
  specs submitted within one dispatch window are admitted to a single
  :class:`~repro.scheduler.QueryScheduler` run: statistic specs over
  the same dataset share one scan, one pilot and one growing
  permutation-prefix sample (a thousand concurrent sessions cost one
  engine loop — the M3R/Shark-style hot-state reuse the ROADMAP's
  service north star asks for), and each expansion round the window's
  global sample budget is split across every ``(query, group)`` arm by
  expected error reduction.  One runner thread drives the window;
  cluster-backed job specs keep their own engines.
* **Sync engines, async front end.**  The engines are synchronous
  generators, driven by plain runner threads; each produced snapshot
  hops onto the event loop via ``run_coroutine_threadsafe`` and blocks
  on the bounded :class:`~repro.service.events.EventLog` append — the
  log's capacity is therefore end-to-end backpressure on the engine
  itself.  Handlers never block the loop; a thousand long-polls are a
  thousand condition waiters.
* **Explicit lifecycle with a TTL sweeper.**  PENDING → RUNNING →
  DONE/CANCELLED/FAILED, plus EXPIRED for sessions idle past the TTL
  (no client touch); terminal records linger for late resumes, then
  are removed.  Cancellation raises the record's cross-thread flag and
  the engine's own cancel hook, so sampling stops at the next round
  boundary and the cost ledger holds only completed iterations —
  the ``FeedbackChannel`` stop semantics of ``EarlJob.stream()``'s
  teardown do the cluster-side work.

See DESIGN.md §8 for the lifecycle state machine and the resume
protocol.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import threading
import time
from dataclasses import replace
from typing import (Any, Awaitable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.config import EarlConfig
from repro.core.earl import EarlJob
from repro.core.grouped import GroupedSnapshot
from repro.obs.convergence import ConvergenceTrace
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import NULL_SPAN, TRACER as _TRACER
from repro.query.model import Query
from repro.query.planner import MemoTable
from repro.scheduler import QueryScheduler
from repro.service.events import EventLog
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_BAD_SPEC,
    ERR_INTERNAL,
    ERR_UNKNOWN_OP,
    ERR_UNKNOWN_SESSION,
    EVENT_DEGRADED,
    EVENT_ERROR,
    EVENT_FINAL,
    EVENT_RETRY,
    EVENT_SNAPSHOT,
    EVENT_STATE,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_EXPIRED,
    STATE_FAILED,
    STATE_PENDING,
    STATE_RUNNING,
    JobSpec,
    QuerySpec,
    ServiceError,
    StatisticSpec,
    parse_spec,
    spec_to_dict,
)
from repro.service.store import InMemorySessionStore, SessionRecord, SessionStore
from repro.util.rng import ensure_rng


def _digest_array(digest: Any, values: Any) -> None:
    arr = np.asarray(values)
    if arr.dtype.hasobject:
        digest.update(repr(arr.tolist()).encode())
    else:
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        # The C-order buffer itself: ``tobytes()``'s bytes without its
        # copy (a strided column is still copied, once, to lay it out).
        digest.update(np.ascontiguousarray(arr))


def _file_digest(fs: Any, path: str) -> Any:
    """A sha256 over the lines of an HDFS file (``<missing>`` when it
    cannot be read in full), derived once per file version: the hashed
    state is kept on the filesystem's split cache — dropped when the
    path is written or deleted, served only while every block is
    readable — and every caller continues from a copy of it."""
    digest = fs.split_cache.content_digest(fs, path)
    if digest is not None:
        return digest
    digest = hashlib.sha256()
    try:
        lines = fs.read_lines(path)
    except Exception:
        digest.update(b"<missing>")
        return digest
    digest.update("".join(f"{line}\n" for line in lines).encode())
    fs.split_cache.store_content_digest(path, digest)
    return digest


def _best_so_far(snapshot: Mapping[str, Any],
                 recovery: Optional[str] = None) -> Dict[str, Any]:
    """A session's last snapshot as its final answer: clipped by the
    deadline, or — with ``recovery``, the reason — degraded because
    replay could not resume it after a restart."""
    payload = dict(snapshot)
    payload["final"] = True
    if recovery is None:
        payload["deadline_exceeded"] = True
    else:
        payload["degraded"] = True
        payload["recovery"] = recovery
    return payload


class _Registered:
    """One registration: the data as the engines take it and, hashed on
    first use, its content digest.  Registering the name again replaces
    the holder, and with it everything derived from the old data."""

    def __init__(self, data: Any,
                 parts: Sequence[Tuple[bytes, Any]]) -> None:
        self.data = data
        self._parts = parts     # (label, array) in digest order
        self._digest: Optional[str] = None

    def digest(self) -> str:
        if self._digest is None:
            digest = hashlib.sha256()
            for label, values in self._parts:
                digest.update(label)
                _digest_array(digest, values)
            self._digest = digest.hexdigest()
        return self._digest


class ApproxQueryService:
    """Async approximate-query sessions over the EARL engines.

    Parameters
    ----------
    config:
        Base :class:`~repro.core.EarlConfig` for every session; specs
        override σ (and B/n for statistic specs) per query, and every
        session gets its own seed drawn from ``seed`` at submit time —
        so a fixed master seed and submission order reproduce every
        event byte.
    event_capacity:
        Per-session bound on retained (unacked) events; a full log
        backpressures the producing engine.
    batch_window:
        Seconds the dispatcher waits after a statistic submit for more
        submits to share the same pilot.  ``max_batch`` caps one batch.
    ttl_seconds / linger_seconds / sweep_interval:
        Idle-session reclamation: a session with no client activity for
        ``ttl_seconds`` is cancelled into EXPIRED; terminal sessions
        are dropped from the store ``linger_seconds`` after their last
        client touch.
    engine_retries / retry_backoff:
        Fault tolerance for cluster-backed job sessions: a stream that
        raises is retried up to ``engine_retries`` times (fresh engine,
        same seed) with capped exponential backoff starting at
        ``retry_backoff`` seconds, emitting a ``retry`` event per
        attempt, before the session fails.  The default of zero
        retries preserves fail-fast semantics.
    clock:
        Monotonic clock (injectable for TTL and deadline tests).
    """

    def __init__(self, *, config: Optional[EarlConfig] = None,
                 store: Optional[SessionStore] = None,
                 seed: int = 0,
                 event_capacity: int = 64,
                 batch_window: float = 0.02,
                 max_batch: int = 1024,
                 ttl_seconds: float = 300.0,
                 linger_seconds: float = 300.0,
                 sweep_interval: float = 1.0,
                 default_poll_timeout: float = 10.0,
                 engine_retries: int = 0,
                 retry_backoff: float = 0.05,
                 clock=time.monotonic) -> None:
        self._config = config or EarlConfig()
        # Not `store or ...`: stores define __len__, so an *empty*
        # store is falsy and would silently be swapped for a fresh one.
        self._store = store if store is not None else InMemorySessionStore()
        self._seed_rng = ensure_rng(seed)
        self._event_capacity = event_capacity
        self._batch_window = batch_window
        self._max_batch = max_batch
        self._ttl_seconds = ttl_seconds
        self._linger_seconds = linger_seconds
        self._sweep_interval = sweep_interval
        self._default_poll_timeout = default_poll_timeout
        self._engine_retries = max(0, int(engine_retries))
        self._retry_backoff = max(0.0, float(retry_backoff))
        self._clock = clock
        #: name → the registered array / :class:`MemoTable` (``.data``)
        self._datasets: Dict[str, _Registered] = {}
        self._tables: Dict[str, _Registered] = {}
        self._clusters: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._window_ids = itertools.count(1)
        self._pending: List[SessionRecord] = []
        self._threads: List[threading.Thread] = []
        self._tasks: List[asyncio.Task] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending_wakeup: Optional[asyncio.Event] = None
        self._started = False
        self._stopped = False
        self._crashed = False
        # Telemetry (repro.obs).  The convergence trace and the span
        # bookkeeping only ever *fill* while the registry / tracer are
        # enabled; disabled, every hot-path hook is one attribute check.
        self.telemetry = ConvergenceTrace(name="service")
        self._session_spans: Dict[str, Dict[str, Any]] = {}
        self._snapshot_counts: Dict[str, int] = {}
        self._wall0: Optional[float] = None

    # ----------------------------------------------------------- data plane
    @property
    def store(self) -> SessionStore:
        return self._store

    def register_dataset(self, name: str, values: Any) -> None:
        """Register a 1-D/2-D numeric array statistic specs can target.

        The array is held by reference and what is derived from it (its
        content fingerprint) is computed once, on first use: writing to
        a registered array in place was never supported, and is not
        seen until the name is registered again.
        """
        data = np.asarray(values, dtype=float)
        if data.ndim not in (1, 2) or len(data) == 0:
            raise ValueError("dataset must be a non-empty 1-D or 2-D array")
        self._datasets[name] = _Registered(data, [(b"", data)])

    def register_table(self, name: str, columns: Mapping[str, Any]) -> None:
        """Register a columnar table (column name → array) for query specs.

        Like a dataset's, the table's fingerprint — and each
        ``group_by`` column's factorization — are derived once, on
        first use, and kept until the name is registered again."""
        if not columns:
            raise ValueError("table must have at least one column")
        table = MemoTable(columns)
        self._tables[name] = _Registered(
            table, [(column.encode(), table[column])
                    for column in sorted(table)])

    def register_cluster(self, name: str, cluster: Any) -> None:
        """Register a simulated cluster job specs can target."""
        self._clusters[name] = cluster

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Start the dispatcher and TTL sweeper on the running loop.

        When the store is durable and holds persisted sessions from a
        previous process, recovery runs first: terminal sessions serve
        their persisted tails, pending sessions are re-admitted, and
        running sessions resume by deterministic replay (or finalize
        honestly when replay is impossible) — see :meth:`_recover`.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._pending_wakeup = asyncio.Event()
        if self._store.durable:
            await self._recover()
        self._tasks.append(asyncio.create_task(self._dispatch_loop()))
        self._tasks.append(asyncio.create_task(self._sweep_loop()))

    async def stop(self) -> None:
        """Cancel every live session and wind the runtime down.

        Sealing the logs releases backpressured producers; runner
        threads observe their cancel flags / sealed logs, close their
        generators (executor teardown, feedback-channel stop) and exit;
        they are joined off-loop.
        """
        await self._shut_down(crash=False)

    async def crash(self) -> None:
        """Simulate abrupt process death (the in-process SIGKILL).

        Unlike :meth:`stop`, nothing is cancelled, finalized or
        persisted: loop tasks are torn down, the event logs are sealed
        *in memory only* (releasing backpressured producers so runner
        threads exit), and the store is closed exactly as a killed
        process would have left it.  A new service opened on the same
        store sees precisely the crash-consistent WAL state.
        """
        await self._shut_down(crash=True)

    async def _shut_down(self, *, crash: bool) -> None:
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._crashed = crash
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for rec in self._store.records():
            if crash or rec.terminal:
                await rec.log.seal()
            else:
                self._stop_sampling(rec)
                await self._terminate(rec, STATE_CANCELLED)
        threads, self._threads = self._threads, []
        if threads:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, lambda: [t.join(timeout=30.0) for t in threads])
        self._store.close()

    # -------------------------------------------------------------- dispatch
    async def handle(self, request: Any) -> Dict[str, Any]:
        """Serve one protocol request; always returns a response dict.

        The stateless entry point the TCP server and
        :class:`~repro.service.client.LocalClient` share.
        """
        try:
            if not isinstance(request, Mapping):
                raise ServiceError(ERR_BAD_REQUEST,
                                   "request must be a JSON object")
            if not self._started or self._stopped:
                raise ServiceError(ERR_BAD_REQUEST,
                                   "service is not running")
            op = request.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise ServiceError(
                    ERR_UNKNOWN_OP,
                    f"unknown op {op!r}; known: {sorted(self._OPS)}")
            response = await handler(self, request)
            response["ok"] = True
            return response
        except ServiceError as exc:
            response = {"ok": False, "error": exc.code, "message": str(exc)}
            if exc.details:
                response["details"] = exc.details
            return response
        except Exception as exc:  # a handler bug must not kill the server
            return {"ok": False, "error": ERR_INTERNAL,
                    "message": f"{type(exc).__name__}: {exc}"}

    # -------------------------------------------------------------- handlers
    async def _op_submit(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        spec = parse_spec(request.get("spec"))
        now = self._clock()
        # Checked before the record draws its seed: a rejected submit
        # leaves every later session's seed and id as they were.
        kind, name, registry = self._source(spec)
        if name not in registry:
            raise ServiceError(
                ERR_BAD_SPEC, f"unknown {kind} {name!r}; "
                f"registered: {sorted(registry)}")
        if (isinstance(spec, JobSpec)
                and spec.on_unavailable not in (None, "skip", "fail")):
            raise ServiceError(
                ERR_BAD_SPEC,
                f"on_unavailable must be 'skip' or 'fail', "
                f"got {spec.on_unavailable!r}")
        rec = self._new_record(spec, now)
        try:
            # Eager validation (columns, where); the planned engine
            # rides the record into the dispatch window's scheduler.
            rec.engine = self._plan(spec, rec.seed)
        except (ValueError, TypeError, KeyError) as exc:
            self._store.remove(rec.session_id)
            self._session_spans.pop(rec.session_id, None)
            raise ServiceError(ERR_BAD_SPEC, str(exc)) from None
        await rec.log.append(EVENT_STATE, {"state": STATE_PENDING})
        await self._admit(rec)
        return {"session": rec.session_id, "state": rec.state}

    async def _admit(self, rec: SessionRecord) -> None:
        """A planned PENDING session: a job starts at once, the other
        kinds wait for the dispatch window's scheduler batch."""
        if isinstance(rec.spec, JobSpec):
            await self._mark_running(rec)
            self._spawn_job(rec)
            return
        self._pending.append(rec)
        assert self._pending_wakeup is not None
        self._pending_wakeup.set()

    async def _op_poll(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        rec = self._require_session(request)
        rec.touch(self._clock())
        after = request.get("after", 0)
        if not isinstance(after, int) or isinstance(after, bool):
            raise ServiceError(ERR_BAD_REQUEST,
                               "'after' must be an integer event id")
        wait = bool(request.get("wait", False))
        timeout = request.get("timeout", self._default_poll_timeout)
        if timeout is not None and (
                isinstance(timeout, bool)
                or not isinstance(timeout, (int, float))
                or not 0 <= timeout < math.inf):
            raise ServiceError(
                ERR_BAD_REQUEST,
                "'timeout' must be null or a finite number of seconds >= 0")
        events = await rec.log.read(
            after, wait=wait,
            timeout=None if timeout is None else float(timeout))
        rec.touch(self._clock())   # a long poll counts as activity too
        response: Dict[str, Any] = {
            "session": rec.session_id,
            "state": rec.state,            # read *after* the (long) poll
            "events": [event.raw for event in events],
            "last_event_id": rec.log.last_seq,
            "cost_seconds": rec.cost_seconds,
        }
        if rec.error is not None:
            response["error_detail"] = rec.error
        return response

    async def _op_cancel(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        rec = self._require_session(request)
        rec.touch(self._clock())
        if rec.terminal:
            return {"session": rec.session_id, "state": rec.state,
                    "already_terminal": True,
                    "cost_seconds": rec.cost_seconds}
        self._stop_sampling(rec)
        await self._terminate(rec, STATE_CANCELLED)
        return {"session": rec.session_id, "state": rec.state,
                "already_terminal": False, "cost_seconds": rec.cost_seconds}

    async def _op_status(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        rec = self._require_session(request)
        rec.touch(self._clock())
        return {
            "session": rec.session_id,
            "state": rec.state,
            "kind": rec.kind,
            "last_event_id": rec.log.last_seq,
            "acked": rec.log.acked,
            "retained_events": rec.log.retained,
            "cost_seconds": rec.cost_seconds,
            "error_detail": rec.error,
        }

    async def _op_stats(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        records = self._store.records()
        states: Dict[str, int] = {}
        for rec in records:
            states[rec.state] = states.get(rec.state, 0) + 1
        return {
            "sessions": len(records),
            "states": states,
            "pending_dispatch": len(self._pending),
            "runner_threads": sum(1 for t in self._threads if t.is_alive()),
            "max_retained_events": max(
                (rec.log.max_retained for rec in records), default=0),
            "datasets": sorted(self._datasets),
            "tables": sorted(self._tables),
            "clusters": sorted(self._clusters),
        }

    async def _op_ping(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    async def _op_metrics(self, request: Mapping[str, Any]) \
            -> Dict[str, Any]:
        """Telemetry snapshot: the process-wide metrics registry as
        JSON and/or Prometheus 0.0.4 text.  Read-only — does not touch
        any session, so a scraping dashboard never resets TTLs."""
        fmt = request.get("format", "both")
        if fmt not in ("json", "prometheus", "both"):
            raise ServiceError(
                ERR_BAD_REQUEST,
                "'format' must be 'json', 'prometheus' or 'both', "
                f"got {fmt!r}")
        response: Dict[str, Any] = {
            "metrics_enabled": _METRICS.enabled,
            "tracing_enabled": _TRACER.enabled,
        }
        if fmt in ("json", "both"):
            response["snapshot"] = _METRICS.snapshot()
        if fmt in ("prometheus", "both"):
            response["prometheus"] = _METRICS.render_prometheus()
        return response

    async def _op_trace(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """One session's telemetry: its Chrome trace-event export and
        its slice of the service convergence trace.  Read-only (no TTL
        touch), so introspection never perturbs session lifecycle."""
        rec = self._require_session(request)
        trace_id = rec.trace_id
        if trace_id is None:
            trace_id = rec.trace_id = f"t{rec.seed:016x}"
        conv = self.telemetry.to_dict()
        return {
            "session": rec.session_id,
            "trace_id": trace_id,
            "chrome": _TRACER.export_chrome(trace_id),
            "convergence": {
                "points": [p for p in conv["points"]
                           if p["key"] == rec.session_id],
                "events": [e for e in conv["events"]
                           if e["key"] in (None, rec.session_id)],
            },
        }

    _OPS = {
        "submit": _op_submit,
        "poll": _op_poll,
        "cancel": _op_cancel,
        "status": _op_status,
        "stats": _op_stats,
        "ping": _op_ping,
        "metrics": _op_metrics,
        "trace": _op_trace,
    }

    # -------------------------------------------------------- session set-up
    def _new_record(self, spec: Any, now: float) -> SessionRecord:
        seed = int(self._seed_rng.integers(0, 2**63 - 1))
        rec = SessionRecord(
            session_id=f"s{next(self._ids):06d}",
            kind=spec.kind, spec=spec,
            seed=seed,
            log=EventLog(capacity=self._event_capacity),
            created_at=now, last_activity=now,
            fingerprint=(self._fingerprint(spec)
                         if self._store.durable else None),
            # Derived from the seed, not drawn: deterministic, free, and
            # recomputable after a restart — the WAL carries it so a
            # replay-resumed session continues the *same* trace.
            trace_id=f"t{seed:016x}")
        self._store.add(rec)
        if _METRICS.enabled:
            _METRICS.counter(
                "repro_service_sessions_total",
                help="Sessions submitted, by spec kind.",
                labels={"kind": rec.kind}).inc()
        self._begin_session_trace(rec)
        return rec

    # ------------------------------------------------------------ telemetry
    def _begin_session_trace(self, rec: SessionRecord, *,
                             restart: bool = False) -> None:
        """Open the session's root span (plus its first child) on the
        session's deterministic trace id.  A restart opens a *new* root
        on the *same* trace id — the pre-crash root died unrecorded with
        the old process, so the resumed trace still has a single root.
        """
        if not _TRACER.enabled:
            return
        if rec.trace_id is None:   # WAL written before tracing existed
            rec.trace_id = f"t{rec.seed:016x}"
        root = _TRACER.span(
            "service.session", trace_id=rec.trace_id,
            attrs={"session": rec.session_id, "kind": rec.kind,
                   "restart": restart})
        if restart:
            # Spans recorded before the crash dangle (their parents
            # died unfinished); hang them off the resumed root so the
            # continued trace stays one connected tree.
            _TRACER.adopt_orphans(rec.trace_id, root)
        first = ("service.run" if rec.state == STATE_RUNNING
                 else "service.queued")
        child = _TRACER.span(first, trace_id=rec.trace_id, parent=root)
        self._session_spans[rec.session_id] = {"root": root,
                                               "child": child}

    def _roll_session_span(self, rec: SessionRecord, name: str) -> None:
        """Finish the session's current child span and open ``name`` —
        together the children tile the root, which is what makes the
        ≥95 % trace-coverage acceptance check structural."""
        spans = self._session_spans.get(rec.session_id)
        if spans is None:
            return
        spans["child"].finish()
        spans["child"] = _TRACER.span(name, trace_id=rec.trace_id,
                                      parent=spans["root"])

    def _finish_session_trace(self, rec: SessionRecord) -> None:
        spans = self._session_spans.pop(rec.session_id, None)
        if spans is None:
            return
        spans["child"].finish()
        spans["root"].set(state=rec.state).finish()

    def _observe_snapshot(self, rec: SessionRecord,
                          payload: Mapping[str, Any], *,
                          grouped: bool, expired: bool) -> None:
        """One published snapshot -> one convergence point.  Runner
        thread; only called with the registry enabled."""
        if self._wall0 is None:
            self._wall0 = time.perf_counter()
        wall = time.perf_counter() - self._wall0
        sid = rec.session_id
        n = self._snapshot_counts.get(sid, 0) + 1
        self._snapshot_counts[sid] = n
        if grouped:
            rows = payload.get("rows_processed", 0)
            errors = [entry.get("error")
                      for by_agg in payload.get("groups", {}).values()
                      for entry in by_agg.values()
                      if entry.get("error") is not None]
            error = max(errors) if errors else None
        else:
            rows = payload.get("sample_size", 0)
            error = payload.get("error")
        self.telemetry.record_round(
            sid, round=n, rows=int(rows or 0), error=error,
            target=getattr(rec.spec, "sigma", None),
            wall_seconds=wall,
            sim_seconds=float(payload.get("cost_total_seconds",
                                          rec.cost_seconds)))
        _METRICS.counter(
            "repro_service_snapshots_total",
            help="Engine snapshots published to session event logs.",
            labels={"kind": rec.kind}).inc()
        if expired:
            self.telemetry.record_event("deadline", key=sid, round=n)
            _METRICS.counter(
                "repro_service_deadline_total",
                help="Sessions finalized by a deadline breach.").inc()

    def _spec_config(self, spec: Any, seed: int) -> EarlConfig:
        cfg = replace(self._config, seed=seed)
        sigma = getattr(spec, "sigma", None)
        if sigma is not None:
            cfg = replace(cfg, sigma=sigma)
        return cfg

    # -------------------------------------------------- source fingerprints
    def _fingerprint(self, spec: Any) -> Optional[str]:
        """Content digest of the spec's source, taken at submit time by
        durable deployments.  Recovery replays a session only when the
        fingerprint still matches — replay against changed data would
        silently produce different bytes while claiming byte-identity.
        For job specs the digest covers the HDFS file *and* the set of
        live nodes, because §3.4 replans depend on both."""
        try:
            _, name, registry = self._source(spec)
            if not isinstance(spec, JobSpec):
                return registry[name].digest()
            cluster = registry[name]
            digest = _file_digest(cluster.hdfs, spec.path)
            alive = sorted(node.node_id for node in cluster.nodes
                           if node.alive)
            digest.update(repr(alive).encode())
        except Exception:
            return None
        return digest.hexdigest()

    # ------------------------------------------------- sources and plans
    def _source(self, spec: Any) -> Tuple[str, str, Mapping[str, Any]]:
        """``(kind, name, registry)`` of the dataset, table or cluster
        a spec reads; the name also labels its dispatch windows."""
        if isinstance(spec, StatisticSpec):
            return "dataset", spec.dataset, self._datasets
        if isinstance(spec, QuerySpec):
            return "table", spec.table, self._tables
        return "cluster", spec.cluster, self._clusters

    def _plan(self, spec: Any, seed: int) -> Any:
        """Check that the spec's source is registered and plan a GROUP
        BY spec's engine from it (statistic and job engines are built
        by their runners: ``None``).  Submit, re-admission and the
        window builder all plan here, so a session is planned the same
        way before and after a restart."""
        kind, name, registry = self._source(spec)
        if name not in registry:
            raise ValueError(f"{kind} {name!r} is not registered")
        if not isinstance(spec, QuerySpec):
            return None
        return Query(list(spec.select), group_by=spec.group_by,
                     where=spec.where).on(
            registry[name].data, config=self._spec_config(spec, seed)).plan()

    # ---------------------------------------------------- window dispatch
    async def flush(self) -> None:
        """Dispatch pending submissions right now.

        Deterministic batching for tests and embedders: everything
        submitted so far lands in this dispatch (one scheduler, one
        shared scan per dataset), regardless of ``batch_window``.
        """
        await self._dispatch_pending()

    async def _dispatch_loop(self) -> None:
        assert self._pending_wakeup is not None
        while True:
            await self._pending_wakeup.wait()
            self._pending_wakeup.clear()
            if self._batch_window > 0:
                await asyncio.sleep(self._batch_window)
            await self._dispatch_pending()

    async def _dispatch_pending(self) -> None:
        batch = self._pending[:self._max_batch]
        self._pending = self._pending[self._max_batch:]
        if self._pending and self._pending_wakeup is not None:
            self._pending_wakeup.set()
        batch = [rec for rec in batch
                 if rec.state == STATE_PENDING
                 and not rec.cancel_flag.is_set()]
        if batch:
            await self._launch_window(batch)

    async def _launch_window(self, batch: List[SessionRecord]) -> None:
        """One :class:`QueryScheduler` for everything in the window.

        The batch seed of a dataset is its first statistic member's.
        The window is journaled *before* any member is observably
        running: recovery rebuilds the exact shared scan from that one
        document (member order, per-dataset batch seeds) and replays.
        """
        seeds: Dict[str, int] = {}
        for rec in batch:
            if isinstance(rec.spec, StatisticSpec):
                seeds.setdefault(rec.spec.dataset, rec.seed)
        running = {rec.session_id: rec for rec in batch}
        sched, rejected = self._build_window(
            [(rec.session_id, rec.spec, rec.seed) for rec in batch],
            seeds, running)
        for sid, message in rejected.items():
            await self._fail(running.pop(sid), f"submit rejected: {message}")
        if not running:
            return
        if self._store.durable:
            self._store.record_window(
                f"w{next(self._window_ids):06d}",
                {"members": [{"session": rec.session_id,
                              "kind": rec.kind,
                              "spec": spec_to_dict(rec.spec),
                              "seed": int(rec.seed),
                              "fingerprint": rec.fingerprint}
                             for rec in running.values()],
                 "seeds": seeds})
        for rec in running.values():
            await self._mark_running(rec)
        self._spawn_window(sched, running)

    def _build_window(self, members: Sequence[Tuple[str, Any, int]],
                      seeds: Mapping[str, int],
                      records: Mapping[str, SessionRecord]) \
            -> Tuple[QueryScheduler, Dict[str, str]]:
        """The scheduler over ``(session, spec, seed)`` members, in
        order: statistic specs over one dataset share one scan/pilot/
        sample engine seeded with ``seeds[dataset]``; a GROUP BY member
        brings its record's planned engine, or is planned here.

        Members the scheduler rejects are left out and returned as
        session → reason; each admitted member with a record in
        ``records`` gets its handle as the engine's cancel hook.
        """
        sched = QueryScheduler()
        rejected: Dict[str, str] = {}
        for sid, spec, seed in members:
            rec = records.get(sid)
            try:
                if isinstance(spec, QuerySpec):
                    engine = None if rec is None else rec.engine
                    if engine is None:
                        engine = self._plan(spec, seed)
                    handle = sched.submit_grouped(engine, name=sid)
                else:
                    handle = sched.submit_statistic(
                        self._datasets[spec.dataset].data, spec.statistic,
                        config=replace(self._config,
                                       seed=int(seeds[spec.dataset])),
                        table=spec.dataset,
                        sigma=spec.sigma, error_metric=spec.error_metric,
                        B_override=spec.B, n_override=spec.n, name=sid)
            except (ValueError, TypeError, KeyError) as exc:
                rejected[sid] = str(exc)
                continue
            if rec is not None:
                rec.engine_cancel = handle.cancel
        return sched, rejected

    # -------------------------------------------------------- runner threads
    def _spawn_runner(self, name: str, target, *args: Any) -> None:
        self._threads = [t for t in self._threads if t.is_alive()]
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def _spawn_window(self, sched: QueryScheduler,
                      records: Dict[str, SessionRecord],
                      skip: Optional[Dict[str, int]] = None) -> None:
        """One runner thread drives the window, named after the
        datasets and tables it scans."""
        labels = sorted({self._source(rec.spec)[1]
                         for rec in records.values()})
        self._spawn_runner(f"svc-batch-{'+'.join(labels)}",
                           self._drive_window, sched, records, skip)

    def _spawn_job(self, rec: SessionRecord,
                   skip: Optional[Dict[str, int]] = None) -> None:
        """A job runs on its own thread and engine.  Retries after a
        transient cluster failure — and recovery replays after a crash
        — rebuild the engine with the same seed and config."""
        spec = rec.spec
        kwargs: Dict[str, Any] = {}
        if spec.on_unavailable is not None:
            kwargs["on_unavailable"] = spec.on_unavailable
        cluster = self._clusters[spec.cluster]
        config = self._spec_config(spec, rec.seed)

        def make_stream() -> Any:
            return EarlJob(cluster, spec.path, statistic=spec.statistic,
                           config=config, **kwargs).stream()

        self._spawn_runner(f"svc-job-{rec.session_id}", self._drive_job,
                           rec, make_stream, skip)

    def _drive_window(self, sched: QueryScheduler,
                      records: Dict[str, SessionRecord],
                      skip: Optional[Dict[str, int]]) -> None:
        """Drive one dispatch window's scheduler (runner thread)."""
        if _TRACER.enabled:
            # The window gets its own trace: scheduler rounds, engine
            # rounds, executor waves and map/reduce waves all nest under
            # it via the ambient context this thread now carries.
            wspan = _TRACER.span(
                "service.window",
                attrs={"sessions": sorted(records),
                       "replay": skip is not None})
        else:
            wspan = NULL_SPAN
        try:
            with wspan:
                self._pump(((handle.name, snap)
                            for handle, snap in sched.stream()),
                           records, skip)
        except BaseException as exc:  # noqa: BLE001 - must not die silently
            message = f"{type(exc).__name__}: {exc}"
            for rec in records.values():
                if not rec.terminal:
                    self._from_thread(self._fail(rec, message))

    def _drive_job(self, rec: SessionRecord, make_stream,
                   skip: Optional[Dict[str, int]]) -> None:
        """Drive one cluster job (runner thread).

        A live job opts into transient-failure retries: up to
        ``engine_retries`` fresh streams with capped exponential
        backoff, a ``retry`` event per attempt, then a terminal
        failure.  A replay is never retried: a retried run is not the
        run the client saw.
        """
        spans = self._session_spans.get(rec.session_id)
        if spans is not None and spans["child"] is not NULL_SPAN:
            # This thread drives exactly one session, so the engine /
            # mapreduce spans it opens nest under the session's own
            # "service.run" span.  The thread exits right after the
            # drive, so the activation needs no teardown.
            _TRACER.activate(spans["child"].context)
        attempts = 0
        while True:
            try:
                self._pump(((rec.session_id, snap) for snap in make_stream()),
                           {rec.session_id: rec}, skip)
                return
            except BaseException as exc:  # noqa: BLE001 - surface, don't hang
                message = f"{type(exc).__name__}: {exc}"
                if (skip is not None or rec.terminal
                        or rec.cancel_flag.is_set()
                        or attempts >= self._engine_retries):
                    if not rec.terminal:
                        self._from_thread(self._fail(rec, message))
                    return
                attempts += 1
                rec.retries = attempts
                if _METRICS.enabled:
                    self.telemetry.record_event(
                        "retry", key=rec.session_id, attempt=attempts,
                        error=message)
                    _METRICS.counter(
                        "repro_service_retries_total",
                        help="Transient engine failures retried.").inc()
                seq = self._append_from_thread(rec, EVENT_RETRY, {
                    "attempt": attempts,
                    "max_attempts": self._engine_retries,
                    "error": message})
                if seq is None:
                    return   # sealed while we were failing
                time.sleep(min(self._retry_backoff * (2 ** (attempts - 1)),
                               2.0))

    def _pump(self, pairs: Any, records: Mapping[str, SessionRecord],
              skip: Optional[Dict[str, int]]) -> None:
        """Publish an engine stream's ``(session, snapshot)`` pairs —
        a window's or a job's — and close it; only the driving thread
        may.  Closing tears down every engine behind the stream
        (executor pools included), so a window or job that is expired,
        cancelled or finalized early never leaks a pool.

        A session that is cancelled, sealed or finalized by its
        deadline mid-run stops sampling (its cancel hook) and its later
        snapshots are dropped; once every session has stopped, so does
        the stream.  Sessions not in ``records`` (terminal or swept
        window members, resubmitted only to reproduce the shared scan)
        are dropped *without* cancelling — a cancel would perturb the
        shared rounds.

        In recovery ``skip`` holds, per session, the snapshots already
        published before the crash: the rebuilt engines re-derive them
        deterministically and they are dropped, so clients see the
        stream continue byte-for-byte where it stopped.  If the stream
        ends before a live session reaches that point, the run diverged
        (source changed undetected) and the session is finalized
        honestly instead.
        """
        stopped: set = set()
        try:
            for sid, snap in pairs:
                rec = records.get(sid)
                if rec is None or sid in stopped:
                    continue
                if not rec.cancel_flag.is_set():
                    if skip and skip.get(sid, 0) > 0:
                        skip[sid] -= 1
                        continue
                    outcome = self._publish_snapshot(
                        rec, snap, grouped=isinstance(snap, GroupedSnapshot))
                    if outcome is not None and (snap.final or not outcome):
                        continue
                self._stop_sampling(rec)
                stopped.add(sid)
                if len(stopped) == len(records):
                    break
        finally:
            pairs.close()
        if skip is not None:
            for rec in records.values():
                if not rec.terminal and not rec.cancel_flag.is_set():
                    self._from_thread(self._finalize_best_so_far(
                        rec, "replay ended before the session's "
                             "recovery point"))

    def _publish_snapshot(self, rec: SessionRecord, snap: Any, *,
                          grouped: bool) -> Optional[bool]:
        """Append one engine snapshot with fault-tolerance bookkeeping.

        Emits the one-shot ``degraded`` event when the engine first
        reports sample loss, and finalizes with the best-so-far answer
        when the session's deadline has passed.  Returns ``None`` when
        the log is sealed, ``True`` when the event terminated the
        session (engine-final or deadline), ``False`` otherwise.
        """
        expired = (rec.deadline_at is not None
                   and self._clock() >= rec.deadline_at)
        final = bool(snap.final or expired)
        if grouped:
            payload = snap.to_dict(updated_only=not final)
        else:
            payload = snap.to_dict()
        if expired and not snap.final:
            payload = _best_so_far(payload)
        # Book the snapshot before the (backpressure-blocking) append: a
        # client that consumed event k must observe a ledger at least at
        # k's running total, even if it cancels while the producer is
        # still parked in the next append.
        rec.last_snapshot = payload
        if not grouped:
            rec.cost_seconds = snap.cost_total_seconds
        if _METRICS.enabled:
            self._observe_snapshot(rec, payload, grouped=grouped,
                                   expired=expired and not snap.final)
        if payload.get("degraded") and not rec.degraded_flagged:
            rec.degraded_flagged = True
            if _METRICS.enabled:
                self.telemetry.record_event(
                    "degraded", key=rec.session_id,
                    lost_fraction=float(payload.get("lost_fraction", 0.0)))
                _METRICS.counter(
                    "repro_service_degraded_total",
                    help="Sessions that first reported sample loss.").inc()
            if self._append_from_thread(
                    rec, EVENT_DEGRADED,
                    {"lost_fraction":
                     float(payload.get("lost_fraction", 0.0))}) is None:
                return None
        seq = self._append_from_thread(
            rec, EVENT_FINAL if final else EVENT_SNAPSHOT, payload)
        if seq is None:
            return None
        if final:
            self._from_thread(self._terminate(rec, STATE_DONE))
        return final

    def _append_from_thread(self, rec: SessionRecord, event_type: str,
                            payload: Mapping[str, Any]) -> Optional[int]:
        """Append from a runner thread; blocking on the future is what
        propagates the event log's backpressure into the engine."""
        assert self._loop is not None
        if self._crashed:
            return None   # the "process" is dead: nothing may land
        try:
            return asyncio.run_coroutine_threadsafe(
                rec.log.append(event_type, payload), self._loop).result()
        except (RuntimeError, asyncio.CancelledError):
            return None   # loop gone: behave like a sealed log

    def _from_thread(self, coro: Awaitable[Any]) -> None:
        assert self._loop is not None
        if self._crashed:
            coro.close()   # the "process" is dead: drop the transition
            return
        try:
            asyncio.run_coroutine_threadsafe(coro, self._loop).result()
        except (RuntimeError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------- state machine
    async def _mark_running(self, rec: SessionRecord) -> None:
        rec.state = STATE_RUNNING
        self._arm_deadline(rec)
        self._store.update(rec)
        self._roll_session_span(rec, "service.run")
        await rec.log.append(EVENT_STATE, {"state": STATE_RUNNING})

    async def _terminate(self, rec: SessionRecord, state: str,
                         error: Optional[str] = None) -> None:
        """Move to a terminal state: state event, then seal (first
        terminal transition wins; later ones only re-seal)."""
        if rec.terminal:
            await rec.log.seal()
            return
        rec.state = state
        if error is not None:
            rec.error = error
        self._store.update(rec)
        if _METRICS.enabled:
            self.telemetry.record_event("terminal", key=rec.session_id,
                                        state=state)
            _METRICS.counter(
                "repro_service_terminal_total",
                help="Sessions reaching a terminal state.",
                labels={"state": state}).inc()
        self._finish_session_trace(rec)
        payload: Dict[str, Any] = {"state": state}
        if error is not None:
            payload["error"] = error
        await rec.log.append(EVENT_STATE, payload, force=True)
        await rec.log.seal()

    async def _fail(self, rec: SessionRecord, message: str) -> None:
        await rec.log.append(EVENT_ERROR, {"message": message}, force=True)
        await self._terminate(rec, STATE_FAILED, error=message)

    async def _finalize_best_so_far(self, rec: SessionRecord,
                                    recovery: Optional[str] = None) -> None:
        """Seal with the best-so-far answer (§3.4 degrade-don't-die — a
        late answer with valid bounds beats no answer), or fail
        honestly if no snapshot ever arrived.  Called on a deadline
        breach, or with ``recovery`` — why replay cannot resume the
        session — after a restart, so a session never silently
        vanishes."""
        if rec.terminal:
            return
        if rec.last_snapshot is not None:
            await rec.log.append(
                EVENT_FINAL, _best_so_far(rec.last_snapshot, recovery),
                force=True)
            await self._terminate(rec, STATE_DONE)
        elif recovery is None:
            await self._fail(
                rec, "deadline exceeded before the first snapshot")
        else:
            await self._fail(
                rec, f"session is not recoverable: {recovery}")

    def _arm_deadline(self, rec: SessionRecord) -> None:
        deadline = getattr(rec.spec, "deadline_seconds", None)
        if deadline is not None:
            rec.deadline_at = self._clock() + deadline

    def _stop_sampling(self, rec: SessionRecord) -> None:
        """Raise the flag the runner checks between snapshots and the
        engine's own cancel hook (checked at round boundaries)."""
        rec.cancel_flag.set()
        if rec.engine_cancel is not None:
            try:
                rec.engine_cancel()
            except Exception:   # cancel must never fail a handler
                pass

    def _require_session(self, request: Mapping[str, Any]) -> SessionRecord:
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ServiceError(ERR_BAD_REQUEST,
                               "'session' must be a session id string")
        rec = self._store.get(session_id)
        if rec is None:
            raise ServiceError(ERR_UNKNOWN_SESSION,
                               f"unknown session {session_id!r}")
        return rec

    # ------------------------------------------------------------ TTL sweep
    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self._sweep_interval)
            await self.sweep()

    async def sweep(self) -> None:
        """One TTL pass (public so tests can trigger it with a fake
        clock): sessions past their deadline finalize with the best
        answer so far; idle live sessions expire; old terminal records
        drop."""
        now = self._clock()
        for rec in self._store.records():
            idle = now - rec.last_activity
            if rec.terminal:
                if idle >= self._linger_seconds:
                    self._store.remove(rec.session_id)
            elif rec.deadline_at is not None and now >= rec.deadline_at:
                # The runner also checks per snapshot; the sweeper
                # catches engines stalled between rounds.
                self._stop_sampling(rec)
                await self._finalize_best_so_far(rec)
            elif idle >= self._ttl_seconds:
                self._stop_sampling(rec)
                await self._terminate(
                    rec, STATE_EXPIRED,
                    error=f"idle for {idle:.1f}s (ttl "
                          f"{self._ttl_seconds:.1f}s)")

    # ------------------------------------------------------------- recovery
    async def _recover(self) -> None:
        """Rebuild every persisted session after a restart.

        Terminal sessions only need their event tails served — they
        are materialized and left alone.  Pending sessions re-enter
        the dispatch queue (their engines re-planned from spec+seed).
        Running sessions resume by deterministic replay: their dispatch
        window is rebuilt from the journaled composition, the engines
        re-derive every pre-crash snapshot, and the runner discards the
        first ``stream_pos`` of them so the client-visible stream
        continues byte-for-byte.  Sessions replay cannot reproduce —
        source fingerprints changed, a window member was cancelled or
        truncated mid-run, a job retried — finalize honestly with the
        best persisted answer marked ``degraded`` (never silently
        vanish).  Deadlines re-arm from restart time; nothing is
        double-charged because the cost ledger rides the snapshots.
        """
        store = self._store
        ids = store.persisted_ids()
        self._ids = itertools.count(store.last_session_ord + 1)
        self._window_ids = itertools.count(store.last_window_ord + 1)
        if not ids:
            return
        now = self._clock()
        live: Dict[str, SessionRecord] = {
            sid: store.materialize(sid, now=now) for sid in ids}
        for rec in live.values():
            if rec.trace_id is None:   # WAL predates trace ids
                rec.trace_id = f"t{rec.seed:016x}"
            # Finish interrupted terminations: the final snapshot
            # landed but the crash beat the state transition.
            if (not rec.terminal and rec.last_snapshot is not None
                    and rec.last_snapshot.get("final")):
                await self._terminate(rec, STATE_DONE)
        for rec in live.values():
            if rec.terminal:
                continue
            self._begin_session_trace(rec, restart=True)
            if _METRICS.enabled:
                self.telemetry.record_event("restart", key=rec.session_id,
                                            state=rec.state)
                _METRICS.counter(
                    "repro_service_restarts_total",
                    help="Live sessions carried across a service "
                         "restart.").inc()
        windows = store.windows()
        member_of: Dict[str, str] = {}
        for wid, doc in windows.items():
            for member in doc.get("members", ()):
                member_of[member["session"]] = wid
        handled: set = set()
        for sid in ids:
            rec = live[sid]
            if sid in handled or rec.terminal:
                continue
            if rec.state == STATE_PENDING:
                await self._readmit(rec)
            elif isinstance(rec.spec, JobSpec):
                await self._recover_job(rec)
            elif sid in member_of:
                await self._recover_window(
                    windows[member_of[sid]], live, handled)
            else:
                # Running with no journaled window: the crash beat the
                # window entry; no snapshot was ever published.
                await self._finalize_best_so_far(
                    rec, "no dispatch window was recorded before the "
                         "crash")

    async def _readmit(self, rec: SessionRecord) -> None:
        """A pending session lost nothing: re-validate its source,
        re-plan its engine and admit it again, as at submit."""
        try:
            rec.engine = self._plan(rec.spec, rec.seed)
        except (ValueError, TypeError, KeyError) as exc:
            await self._fail(rec, f"recovery re-admission failed: {exc}")
            return
        # A pending session never sampled, so a changed source is fine
        # — it simply runs against the data as it now stands.  Refresh
        # the fingerprint so a *later* crash replays against the right
        # baseline.
        fingerprint = self._fingerprint(rec.spec)
        if fingerprint != rec.fingerprint:
            rec.fingerprint = fingerprint
            self._store.update(rec)
        if rec.log.last_seq == 0:
            await rec.log.append(EVENT_STATE, {"state": STATE_PENDING})
        await self._admit(rec)

    async def _recover_job(self, rec: SessionRecord) -> None:
        """Resume one running cluster job by replay, or finalize."""
        kind, name, registry = self._source(rec.spec)
        reason: Optional[str] = None
        if name not in registry:
            reason = f"{kind} {name!r} is no longer registered"
        elif rec.retries or self._store.disturbed(rec.session_id):
            reason = ("the original run was perturbed (retried or "
                      "truncated) and cannot be replayed")
        elif self._fingerprint(rec.spec) != rec.fingerprint:
            reason = "the source file or cluster changed since submit"
        if reason is not None:
            await self._finalize_best_so_far(rec, reason)
            return
        self._arm_deadline(rec)
        self._spawn_job(
            rec, {rec.session_id: self._store.stream_pos(rec.session_id)})

    async def _recover_window(self, doc: Mapping[str, Any],
                              live: Dict[str, SessionRecord],
                              handled: set) -> None:
        """Resume one dispatch window by rebuilding, from its journaled
        document, the exact shared scheduler run it was launched with.

        *Every* original member is resubmitted in order — including
        terminal and swept ones, whose replayed snapshots are discarded
        — because the shared scan, the per-dataset batch seed and the
        global budget split all depend on the full composition.  Any
        member that perturbed the run mid-flight (cancel, expiry,
        deadline truncation, retry) or whose source changed makes the
        whole window non-replayable: its live members finalize honestly
        instead.
        """
        docs = doc.get("members", ())
        members = [(m["session"], parse_spec(m["spec"]), int(m["seed"]))
                   for m in docs]
        handled.update(sid for sid, _, _ in members)
        running = {sid: live[sid] for sid, _, _ in members
                   if sid in live and not live[sid].terminal}
        if not running:
            return
        reason: Optional[str] = None
        for (sid, spec, _), member in zip(members, docs):
            kind, name, registry = self._source(spec)
            if self._store.disturbed(sid):
                reason = (f"window member {sid} was cancelled, expired, "
                          "truncated or retried mid-run")
            elif name not in registry:
                reason = f"{kind} {name!r} is no longer registered"
            elif self._fingerprint(spec) != member.get("fingerprint"):
                reason = f"{kind} {name!r} changed since the original run"
            if reason is not None:
                break
        else:
            sched, rejected = self._build_window(
                members, doc.get("seeds", {}), running)
            if rejected:
                reason = ("window rebuild failed: "
                          f"{next(iter(rejected.values()))}")
        if reason is not None:
            for rec in running.values():
                await self._finalize_best_so_far(rec, reason)
            return
        for rec in running.values():
            self._arm_deadline(rec)
        self._spawn_window(sched, running, {
            sid: self._store.stream_pos(sid) for sid in running})
