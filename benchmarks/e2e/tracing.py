"""Timing wrappers around each layer's public entry points.

The traced lap of ``bench_e2e`` needs to know where a query's
wall-clock goes without touching ``src/``: :class:`Tracer` monkeypatches
the public functions listed in :func:`install` with wrappers that
record one :class:`Span` per call — name, layer, start, end, parent and
session id — into an in-memory list, and restores the originals on
exit.  ``repro.obs`` stays disabled throughout; deriving these numbers
from the spans production emits is a later issue.

A span's parent is the span that was open *in the same thread or
asyncio task* when it started (a ``ContextVar`` tracks it), so a
layer's self time is its spans' busy time minus their direct
children's.  A generator (``QueryScheduler.stream``, the engine
streams) gets one span for its whole life whose busy time is the time
spent inside ``next()``: while it is suspended at a ``yield`` the clock
belongs to its consumer.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = ("service", "scheduler", "streaming", "core", "sampling",
          "exec", "mapreduce", "hdfs", "cluster", "obs")

#: Spans that mostly *wait* (a long-poll parked on a condition, a
#: client blocked on the server) — recorded, but never counted busy.
WAIT = "wait"
BUSY = "busy"

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    layer: str
    kind: str
    start: float
    end: float = 0.0
    #: Seconds the call was actually running; ``end - start`` except
    #: for generators, which are suspended between ``next()`` calls.
    busy: float = 0.0
    parent: Optional[int] = None
    session: Optional[str] = None
    thread: int = 0
    args: Dict[str, Any] = field(default_factory=dict)


_CURRENT: contextvars.ContextVar[Optional[Span]] = \
    contextvars.ContextVar("bench_e2e_span", default=None)


def _session_of(name: str, args: tuple) -> Optional[str]:
    """Best-effort session id of a call, from its arguments."""
    if name == "ServiceClient.poll" and len(args) > 1:
        return args[1]
    if name == "ApproxQueryService.handle" and len(args) > 1 \
            and isinstance(args[1], dict):
        return args[1].get("session")
    if name == "QueryScheduler.stream":
        return ",".join(q.name for q in args[0].queries)
    return None


class Tracer:
    """Install/uninstall the wrappers and collect their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str, layer: str, kind: str,
              session: Optional[str]) -> Span:
        parent = _CURRENT.get()
        if session is None and parent is not None:
            session = parent.session
        with self._lock:
            span = Span(len(self.spans) + 1, name, layer, kind,
                        time.perf_counter(),
                        parent=parent.id if parent is not None else None,
                        session=session, thread=threading.get_ident())
            self.spans.append(span)
        return span

    def _wrap_sync(self, fn: Callable, name: str, layer: str, kind: str,
                   pre: Optional[Callable] = None,
                   post: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer, kind, _session_of(name, args))
            if pre is not None:
                args = pre(span, args)
            token = _CURRENT.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                _CURRENT.reset(token)
            if post is not None:
                post(span, args, result)
            return result
        return wrapper

    def _wrap_async(self, fn: Callable, name: str, layer: str,
                    kind: str) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = self._open(name, layer, kind, _session_of(name, args))
            token = _CURRENT.set(span)
            try:
                result = await fn(*args, **kwargs)
                if span.session is None:
                    if isinstance(result, str):      # submit -> session id
                        span.session = result
                    elif isinstance(result, dict):   # handle -> response
                        span.session = result.get("session")
                return result
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                _CURRENT.reset(token)
        return wrapper

    def _wrap_generator(self, fn: Callable, name: str, layer: str,
                        kind: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            session = _session_of(name, args)

            def stepping() -> Iterator[Any]:
                # Opened at the first next(): the parent is whoever
                # *drives* the generator, not whoever created it.
                span = self._open(name, layer, kind, session)
                span.end = span.start
                span.args["items"] = 0
                try:
                    while True:
                        token = _CURRENT.set(span)
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.end = time.perf_counter()
                            span.busy += span.end - t0
                            _CURRENT.reset(token)
                        span.args["items"] += 1
                        yield item
                finally:
                    close = getattr(inner, "close", None)
                    if close is not None:
                        close()
            return stepping()
        return wrapper

    def wrap(self, owner: Any, attr: str, layer: str, *,
             kind: str = BUSY, name: Optional[str] = None,
             generator: bool = False,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper (undone on exit).

        ``owner`` is a class or a module.  An inherited method is
        shadowed on ``owner`` itself, so sibling subclasses stay
        untouched.  For a synchronous call, ``pre(span, args) -> args``
        and ``post(span, args, result)`` may copy counts from its
        arguments and result into ``span.args``.
        """
        original = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr) if original is _MISSING else original
        is_static = isinstance(original, staticmethod)
        if is_static:
            fn = original.__func__
        label = name or (f"{owner.__name__}.{attr}"
                         if isinstance(owner, type) else attr)
        if generator:
            wrapped = self._wrap_generator(fn, label, layer, kind)
        elif inspect.iscoroutinefunction(fn):
            wrapped = self._wrap_async(fn, label, layer, kind)
        else:
            wrapped = self._wrap_sync(fn, label, layer, kind, pre, post)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)

    def wrap_callback(self, fn: Callable, name: str, layer: str) -> Callable:
        """Time a callable that is handed to the program rather than
        looked up on a class (nothing to undo)."""
        return self._wrap_sync(fn, name, layer, BUSY)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -------------------------------------------------------------- analysis
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        return sum(s.busy for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> Dict[int, float]:
        """Span id -> busy time minus its direct children's busy time."""
        own = {span.id: span.busy for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.busy
        return own

    def layer_self_seconds(self) -> Dict[str, float]:
        """Busy self time per layer.  ``WAIT`` spans contribute
        nothing themselves but still shield their parents from the
        time spent waiting."""
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.kind == BUSY:
                out[span.layer] += max(0.0, own[span.id])
        return out

    def chrome_trace(self, origin: float) -> Dict[str, Any]:
        """Chrome trace-event document (``chrome://tracing``, Perfetto)."""
        events = [{
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": round((span.start - origin) * 1e6, 1),
            "dur": round((span.end - span.start) * 1e6, 1),
            "pid": 1, "tid": span.thread,
            "args": {"id": span.id, "parent": span.parent,
                     "session": span.session, "kind": span.kind,
                     "busy_us": round(span.busy * 1e6, 1), **span.args},
        } for span in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of ``src/repro``."""
    import repro.core.earl as earl
    import repro.core.grouped as grouped
    import repro.exec.executor as executor
    import repro.hdfs.filesystem as filesystem
    import repro.hdfs.record_reader as record_reader
    import repro.hdfs.split_cache as split_cache
    import repro.mapreduce.runtime as runtime
    import repro.sampling.premap as premap
    import repro.sampling.stratified as stratified
    import repro.scheduler.scheduler as scheduler
    import repro.service.client as client
    import repro.service.durable as durable
    import repro.service.events as events
    import repro.service.service as service
    import repro.streaming.session as session

    w = tracer.wrap
    # service: the client's view, the handler, the event log, the WAL.
    w(client.ServiceClient, "submit", "service", kind=WAIT)
    w(client.ServiceClient, "poll", "service", kind=WAIT)
    for attr in ("handle", "flush", "start"):
        w(service.ApproxQueryService, attr, "service")
    # Dying is mostly waiting for the runner threads to notice.
    w(service.ApproxQueryService, "crash", "service", kind=WAIT)
    w(events.EventLog, "read", "service", kind=WAIT)
    w(events.EventLog, "append", "service")
    for attr in ("__init__", "add", "update", "record_window", "remove",
                 "compact", "materialize", "close"):
        w(durable.DurableSessionStore, attr, "service")
    # The WAL's journal hooks are closures the store hands to each
    # event log; wrap them on their way in.
    set_journal = events.EventLog.set_journal

    def traced_set_journal(log, on_append, on_ack):
        return set_journal(
            log, tracer.wrap_callback(on_append, "wal.on_append", "service"),
            tracer.wrap_callback(on_ack, "wal.on_ack", "service"))
    tracer._undo.append((events.EventLog, "set_journal", set_journal))
    events.EventLog.set_journal = traced_set_journal

    # scheduler (allocate_budget is imported by name into scheduler.py)
    w(scheduler.QueryScheduler, "stream", "scheduler", generator=True)
    def budget(span: Span, args: tuple, grants: Any) -> None:
        span.args["demanded"] = int(sum(d["scheduled"] for d in args[0]))
        span.args["granted"] = int(sum(grants))
    w(scheduler, "allocate_budget", "scheduler", post=budget)

    # streaming
    def consumed(span: Span, args: tuple, _events: Any) -> None:
        span.args["manager"] = id(args[0])
        span.args["consumed"] = int(args[0].consumed)
    w(session.SessionManager, "prepare", "streaming")
    w(session.SessionManager, "run_round", "streaming", post=consumed)
    w(session.SessionManager, "finalize", "streaming")
    # core: the solo, grouped and cluster-backed engine loops.
    w(earl.EarlSession, "stream", "core", generator=True)
    w(grouped.GroupedEarlSession, "stream", "core", generator=True)
    w(earl.EarlJob, "stream", "core", generator=True)
    # sampling
    w(stratified.StratifiedSampler, "__init__", "sampling")
    def taken(span: Span, args: tuple, rows: Any) -> None:
        span.args["rows"] = int(len(rows))
    w(stratified.StratifiedSampler, "take", "sampling", post=taken)
    w(premap.PreMapSampler, "read", "sampling", generator=True)
    # exec: every concrete map/broadcast in the class hierarchy.
    def count_tasks(span: Span, args: tuple) -> tuple:
        items = list(args[2])
        span.args["tasks"] = len(items)
        span.args["backend"] = args[0].name
        span.args["executor"] = id(args[0])
        return (args[0], args[1], items) + args[3:]
    for cls in (executor.SerialExecutor, executor._PoolExecutor):
        w(cls, "map", "exec", name="Executor.map", pre=count_tasks)
    for cls in (executor.Executor, executor.ProcessExecutor):
        w(cls, "broadcast", "exec", name="Executor.broadcast")
    # mapreduce
    def job_counts(span: Span, args: tuple, result: Any) -> None:
        span.args.update(
            map_tasks=int(result.map_tasks),
            reduce_tasks=int(result.reduce_tasks),
            task_retries=int(result.counters.get("TASK_RETRIES")),
            input_records=int(result.counters.get("MAP_INPUT_RECORDS")))
    w(runtime.JobClient, "run", "mapreduce", post=job_counts)
    # hdfs
    w(split_cache, "build_split_index", "hdfs")
    w(split_cache.SplitIndexCache, "acquire", "hdfs")
    w(split_cache, "read_numeric_column", "hdfs")
    w(record_reader.LineRecordReader, "read_records", "hdfs")
    w(filesystem.HDFS, "read_lines", "hdfs")
    w(filesystem.HDFS, "read_range", "hdfs")
