"""Pluggable execution backends for the repro engine's fan-out points.

Every hot path that consists of *independent work units* — map/reduce
task waves in :mod:`repro.mapreduce.runtime`, Monte-Carlo resample
batches in :mod:`repro.core.bootstrap`, result-distribution evaluation
in :mod:`repro.core.delta`, and whole figure sweeps in
:mod:`repro.evaluation.runners` — fans out through one strategy
interface, :class:`Executor`, instead of a hard-coded ``for`` loop.

Three backends are provided:

* :class:`SerialExecutor` — in-order, in-process execution.  The
  default, and the reference behavior every other backend must
  reproduce bit-for-bit.
* :class:`ThreadExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  pool.  Shares memory with the caller; best when the work releases the
  GIL (numpy batch kernels) or waits on simulated I/O.
* :class:`ProcessExecutor` — W forked workers the executor owns, one
  duplex pipe each.  True CPU parallelism; work units and their results
  must be picklable, and worker-side mutations of shared objects are
  *lost* to the caller (see ``shares_memory``; ``place`` finds them).

Broadcast-once data plane
-------------------------
Fan-out callers that ship one large read-only value (the sample) to
many work units wrap it in a :class:`BroadcastHandle` via
:meth:`Executor.broadcast`.  Serial and thread backends hand out a
zero-copy reference; on the process backend each worker inherits the
payload when it is forked, so every subsequent task pickles a short id
instead of the value.  Work functions unwrap with
:func:`broadcast_value`.  A column that is filled as it is read is
allocated by :meth:`Executor.broadcast_column` instead: an empty array
on the shared-memory backends, an anonymous shared mapping the workers
inherit on the process backend, so rows written after the fork reach
them too.  Handles are only ids plus local references — they never
change *what* is computed, so the determinism contract below is
unaffected.

Determinism contract
--------------------
Backends may only change *where* a unit runs, never *what* it computes:

1. work is decomposed identically for every backend (fixed chunk sizes,
   never "number of workers" chunks);
2. every unit carries its own RNG stream, pre-spawned by the caller via
   :func:`repro.util.rng.spawn_child`;
3. :meth:`Executor.map` returns results in submission order;
4. which process worker runs a unit is a function of ``place`` and the
   worker count, never of timing — and results never depend on it.

Under these rules ``serial``, ``threads`` and ``processes`` produce
byte-identical results for any seeded run, which is what the
cross-backend tests in ``tests/exec/`` assert.

Selection
---------
:func:`get_executor` builds a backend by name; :func:`resolve_executor`
reads the name from an :class:`~repro.core.config.EarlConfig` (fields
``executor`` and ``max_workers``), with the ``REPRO_EXECUTOR``
environment variable overriding the config — handy for flipping a whole
benchmark run to ``processes`` without touching code::

    REPRO_EXECUTOR=processes python -m repro.evaluation fig5

Nesting caveat: process-pool workers are daemonic and cannot fork their
own pools.  Keep inner configs on ``"serial"`` (the default) when an
outer sweep already runs on ``"processes"``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import multiprocessing
import os
import pickle
import threading
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.util.validation import check_positive_int


def _wave_span(backend: str, n_tasks: int):
    """Telemetry for one fan-out wave: counters + a span.

    Waves are coarse (a whole map wave, a whole resample batch), so the
    per-wave cost is negligible; when telemetry is disabled this is one
    attribute check and a shared null span.
    """
    if _METRICS.enabled:
        _METRICS.counter("repro_executor_waves_total",
                         labels={"backend": backend},
                         help="fan-out waves dispatched").inc()
        _METRICS.counter("repro_executor_tasks_total",
                         labels={"backend": backend},
                         help="work units executed in waves").inc(n_tasks)
    return _TRACER.span("executor.wave",
                        attrs={"backend": backend, "tasks": n_tasks})


#: Environment variable overriding the configured backend name.
EXECUTOR_ENV = "REPRO_EXECUTOR"
#: Environment variable overriding the configured worker count.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Canonical backend names.
EXECUTOR_SERIAL = "serial"
EXECUTOR_THREADS = "threads"
EXECUTOR_PROCESSES = "processes"


class BroadcastHandle:
    """Executor-scoped read-only shared data (the *broadcast-once* plane).

    A handle stands in for a large immutable value (typically the sample
    array) inside work-unit arguments.  On shared-memory backends
    (serial, threads) it is a zero-copy reference; on a process pool
    each worker inherits the value **once**, when it is forked, instead
    of it being pickled into every task.  Work functions read the
    payload back through :attr:`value` (or :func:`broadcast_value`,
    which also accepts raw values).

    Lifetime: a handle is valid until its executor is closed.  What a
    work unit has been handed must not change afterwards.  A
    :meth:`~Executor.broadcast` payload is never mutated at all —
    workers may hold a copy, so mutations would desynchronize backends;
    a :meth:`~Executor.broadcast_column` is shared, not copied, and its
    rows that no unit has been handed yet may still be written.
    """

    __slots__ = ("bid", "_value")

    def __init__(self, bid: str, value: Any) -> None:
        self.bid = bid
        self._value = value

    @property
    def value(self) -> Any:
        """The broadcast payload (zero-copy in this process)."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(bid={self.bid!r})"


def broadcast_value(obj: Any) -> Any:
    """``obj.value`` if ``obj`` is a :class:`BroadcastHandle`, else ``obj``.

    Lets a work function accept both broadcast and plain arguments.
    """
    return obj.value if isinstance(obj, BroadcastHandle) else obj


#: Per-process broadcast registry.  In the driver it holds what each
#: live :class:`ProcessExecutor` has broadcast (so in-process fallback
#: paths resolve); a pool worker has the copy it was forked with.
_BROADCASTS: Dict[str, Any] = {}

_BROADCAST_IDS = itertools.count()


def _next_broadcast_id() -> str:
    return f"bcast-{os.getpid()}-{next(_BROADCAST_IDS)}"


def _resolve_broadcast_handle(bid: str) -> "BroadcastHandle":
    """Unpickle hook of a process-pool broadcast handle: rebind to the
    payload this process was forked with."""
    try:
        return BroadcastHandle(bid, _BROADCASTS[bid])
    except KeyError:
        raise RuntimeError(
            f"broadcast {bid!r} is not installed in this process; "
            "was the handle used after its executor was closed?") from None


def _rebuild_broadcast_handle(bid: str, value: Any) -> "BroadcastHandle":
    """Unpickle hook for a handle whose payload travelled by value (a
    broadcast made after the pool already existed)."""
    return BroadcastHandle(bid, value)


class _ProcessBroadcastHandle(BroadcastHandle):
    """Handle whose payload workers inherit once, when they are forked.

    Pickles as a bare id when the executor's workers either do not
    exist yet (the fork will carry the payload) or were forked with
    this broadcast installed.  A broadcast made *after* the fork falls
    back to by-value pickling — per-task cost, exactly the
    pre-broadcast behavior, but no pool teardown.
    """

    __slots__ = ("_owner",)

    def __init__(self, bid: str, value: Any,
                 owner: "ProcessExecutor") -> None:
        super().__init__(bid, value)
        self._owner = owner

    def __reduce__(self):
        owner = self._owner
        if owner._pool is None or self.bid in owner._installed:
            return (_resolve_broadcast_handle, (self.bid,))
        return (_rebuild_broadcast_handle, (self.bid, self.value))


class Executor:
    """Strategy interface: run independent work units, keep their order.

    Attributes
    ----------
    name:
        Canonical backend name (``"serial"``, ``"threads"``,
        ``"processes"``).
    is_parallel:
        Whether units may run concurrently.  Callers use this to gate
        fan-out of work that is only safe sequentially.
    shares_memory:
        Whether a unit's mutations of objects shared with the caller are
        visible after :meth:`map` returns.  ``False`` for process pools:
        units there must communicate exclusively through their return
        value.
    """

    name: str = "abstract"
    is_parallel: bool = False
    shares_memory: bool = True

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            place: Optional[Sequence[int]] = None) -> List[Any]:
        """Apply ``fn`` to every item; return results in item order.

        Exceptions raised by a unit propagate to the caller (the first
        failing unit in submission order, matching serial semantics).
        Items with equal ``place`` (one integer each) run in the same
        worker process for the executor's whole life, where the next
        finds what ``fn`` left; shared-memory backends ignore it.
        """
        raise NotImplementedError

    def broadcast(self, value: Any) -> BroadcastHandle:
        """Share a read-only ``value`` with every work unit of this
        executor.

        Returns a :class:`BroadcastHandle` to embed in work-unit
        arguments instead of the value itself.  Shared-memory backends
        return a zero-copy reference; :class:`ProcessExecutor` workers
        inherit the payload once, when they are forked (a broadcast
        made after that falls back to by-value pickling per task).
        Call :meth:`release` when the handle is no
        longer needed — at the latest, :meth:`close` drops every
        payload.
        """
        return BroadcastHandle(_next_broadcast_id(), value)

    def broadcast_column(self, shape: Tuple[int, ...],
                         dtype: Any) -> BroadcastHandle:
        """A writable array of ``shape`` / ``dtype`` shared with every
        work unit of this executor: a sample column filled as it is
        read.

        Rows may be written after broadcasting — a unit reads what was
        written before its :meth:`map` was called — as long as no unit
        has been handed them yet.  The memory stays untouched until
        written: ``np.empty`` on shared-memory backends; on
        :class:`ProcessExecutor` an anonymous shared mapping its workers
        inherit, which must therefore be made before they are forked.
        """
        return self.broadcast(np.empty(shape, dtype))

    def release(self, handle: BroadcastHandle) -> None:
        """Drop a broadcast payload from this executor's registry.

        After release the handle must no longer be put into work units
        (in-process references already handed out stay valid).  No-op
        on shared-memory backends — the handle was only a reference.
        Callers that loop many broadcasts over one long-lived executor
        (e.g. repeated bootstraps) should release each handle when its
        fan-out returns, so payloads do not accumulate until
        :meth:`close`.
        """

    def close(self) -> None:
        """Release pool resources.  Idempotent; ``map`` after ``close``
        is undefined."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(Executor):
    """In-order, in-process execution — the deterministic reference.

    ``max_workers`` is accepted (and ignored) so the three backends are
    constructor-compatible.
    """

    name = EXECUTOR_SERIAL
    is_parallel = False
    shares_memory = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        _check_workers(max_workers)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            place: Optional[Sequence[int]] = None) -> List[Any]:
        """Plain ordered loop: ``[fn(item) for item in items]``."""
        items = list(items)
        with _wave_span(self.name, len(items)):
            return [fn(item) for item in items]


#: Every pool-backed executor that has actually materialized its (lazy)
#: worker pool.  Weak references only: an executor dropped without
#: ``close()`` disappears from here once collected, so the set tracks
#: *reachable* pool owners — exactly the leak a long-lived holder of an
#: abandoned stream generator causes.
_LIVE_POOL_EXECUTORS: "weakref.WeakSet[_PoolExecutor]" = weakref.WeakSet()


def live_pool_executors() -> List["Executor"]:
    """Pool-backed executors whose worker pool is alive right now.

    An executor registers when its lazy pool is first built and drops
    out on :meth:`Executor.close` (or garbage collection).  This is the
    leak detector the resource-release regression tests and the service
    layer use: after every consumer of a ``stream()`` generator has
    finished — normally, by ``close()``, or via cancellation — this
    list must be empty.
    """
    return [ex for ex in list(_LIVE_POOL_EXECUTORS) if ex._pool is not None]


class _PoolExecutor(Executor):
    """Shared lazy-pool plumbing for the two concurrent backends."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        _check_workers(max_workers)
        self._max_workers = max_workers or _default_workers()
        self._pool: Optional[Any] = None

    @property
    def max_workers(self) -> int:
        """Worker count the pool is (or will be) created with."""
        return self._max_workers

    def _make_pool(self) -> Any:
        raise NotImplementedError

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            self._pool = self._make_pool()
            _LIVE_POOL_EXECUTORS.add(self)
        return self._pool

    def _fan_out(self, fn, items, place, span) -> List[Any]:
        return list(self._ensure_pool().map(fn, items))

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            place: Optional[Sequence[int]] = None) -> List[Any]:
        """Fan items out over the pool; gather in submission order."""
        items = list(items)
        with _wave_span(self.name, len(items)) as span:
            # Nothing to overlap: skip pool dispatch — unless the unit
            # is placed, for then its state lives in a worker, not here.
            if len(items) <= 1 and place is None:
                return [fn(item) for item in items]
            return self._fan_out(fn, items, place, span)

    def close(self) -> None:
        """Shut the pool down (waits for in-flight units)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        _LIVE_POOL_EXECUTORS.discard(self)


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend: concurrent, shared-memory execution.

    Python threads interleave under the GIL, so pure-Python units gain
    little wall-clock — the win is for units that release the GIL
    (vectorized numpy work) or block.  The pool is created lazily on the
    first multi-item :meth:`map`.
    """

    name = EXECUTOR_THREADS
    is_parallel = True
    shares_memory = True

    def _make_pool(self) -> _ThreadPool:
        return _ThreadPool(max_workers=self._max_workers)


#: Workers are forked, not spawned: a child starts with the driver's
#: memory, which is how broadcast payloads get there unpickled.  (Safe
#: in a threaded driver: work functions take no driver locks.)
_FORK = multiprocessing.get_context("fork")


def _outcome(fn: Callable[[Any], Any], unit: Any) -> bytes:
    """Run one unit in a worker: its pickled ``(ok, result-or-exception)``
    — or, if that would not survive the trip back, an error saying so."""
    try:
        outcome = True, fn(unit)
    except Exception as exc:
        exc.add_note("in a process worker:\n" + traceback.format_exc())
        outcome = False, exc
    try:
        blob = pickle.dumps(outcome)
        if not outcome[0]:
            pickle.loads(blob)   # exceptions that dump may still not load
        return blob
    except Exception as exc:
        return pickle.dumps((False, RuntimeError(
            f"a work unit's outcome does not pickle: {outcome[1]!r} "
            f"({exc!r})")))


def _worker_main(conn: Any, inherited: List[Any]) -> None:
    """Loop of one forked worker: a message is a pickled ``(fn, units)``,
    the reply one :func:`_outcome` per unit; an empty message (or the
    driver going away) ends it.  A worker is daemonic and cannot fork a
    pool of its own, so the ``REPRO_*`` overrides are dropped (nested
    :func:`resolve_executor` calls fall back to the configured
    backend); so are ``inherited``, the driver's pipe ends the fork
    copied here — held open they would hide its death from siblings."""
    for end in inherited:
        end.close()
    os.environ.pop(EXECUTOR_ENV, None)
    os.environ.pop(MAX_WORKERS_ENV, None)
    with contextlib.suppress(EOFError, OSError):
        while message := conn.recv_bytes():
            fn, units = pickle.loads(message)
            conn.send_bytes(pickle.dumps([_outcome(fn, u) for u in units]))


class _Workers(list):
    """The ``(process, pipe)`` pairs of one :class:`ProcessExecutor`."""

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker and reap it (``terminate`` if it is stuck)."""
        for _, conn in self:
            with contextlib.suppress(OSError):
                conn.send_bytes(b"")
            conn.close()
        for process, _ in self:
            process.join(5.0)
            if process.is_alive():
                process.terminate()
                process.join()


class ProcessExecutor(_PoolExecutor):
    """Process backend: W forked workers, true CPU parallelism.

    Work functions must be module-level (picklable by reference) and
    arguments/results picklable by value.  Mutations of shared objects
    happen in the worker's copy and never reach the caller — units
    communicate through return values only, which is why the engine
    requires ``parallel_safe`` declarations before routing tasks here.

    Placement-stable workers: forked once, at the first fan-out, they
    live until :meth:`close`, each on its own duplex pipe.  A
    :meth:`map` deals item ``i`` to worker ``place[i] % W`` (``i % W``
    unplaced) — static, so what a placed unit leaves in its process is
    there for its successor — sends each worker at most one message and
    reads one reply; :attr:`pipe_bytes` / :attr:`pipe_messages` count
    what crossed.  A worker that died fails the map, by name.

    :meth:`broadcast` payloads made before the fork are inherited by
    each worker, so handles inside task arguments pickle as short ids.
    A broadcast made after it never tears the pool down — that handle
    simply pickles by value per task; a :meth:`broadcast_column` made
    after it raises instead (by value, its later rows would never
    arrive).  :meth:`release` of an inherited
    payload retires the workers (and what was placed in them: the
    engine, the one caller that places, never releases) and the next
    :meth:`map` forks fresh ones, so repeated broadcast/fan-out/release
    rounds ship each payload once per worker and accumulate none.
    """

    name = EXECUTOR_PROCESSES
    is_parallel = True
    shares_memory = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__(max_workers)
        self._broadcasts: Dict[str, Any] = {}
        self._installed: frozenset = frozenset()   # inherited at the fork
        self._lock = threading.Lock()   # one map at a time on the pipes
        #: Worker-pipe traffic so far: ``"out"``, and ``"back"`` (replies).
        self.pipe_bytes: Dict[str, int] = {"out": 0, "back": 0}
        self.pipe_messages: Dict[str, int] = {"out": 0, "back": 0}

    def broadcast(self, value: Any) -> BroadcastHandle:
        handle = _ProcessBroadcastHandle(_next_broadcast_id(), value, self)
        self._broadcasts[handle.bid] = value
        # The registry the workers are forked with; it also lets the
        # <= 1-item in-process fast path of ``map`` resolve the handle.
        _BROADCASTS[handle.bid] = value
        return handle

    def broadcast_column(self, shape: Tuple[int, ...],
                         dtype: Any) -> BroadcastHandle:
        if self._pool is not None:
            # By value, its rows would freeze at the first task that
            # carried it; only a fork shares the mapping.
            raise RuntimeError(
                "broadcast_column() after the workers were forked: rows "
                "written later could never reach them")
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        # mmap(-1, ...) is MAP_SHARED | MAP_ANONYMOUS: zero pages on
        # demand, the same physical pages in every forked worker.
        mapping = mmap.mmap(-1, max(count * dtype.itemsize, 1))
        column = np.frombuffer(mapping, dtype, count=count).reshape(shape)
        return self.broadcast(column)

    def release(self, handle: BroadcastHandle) -> None:
        self._broadcasts.pop(handle.bid, None)
        _BROADCASTS.pop(handle.bid, None)
        if self._pool is not None and handle.bid in self._installed:
            # The workers hold a now-dead copy: retire them, so the
            # next fork frees it and carries the next broadcast.
            _PoolExecutor.close(self)

    def _make_pool(self) -> _Workers:
        self._installed = frozenset(self._broadcasts)
        pool = _Workers()
        for _ in range(self._max_workers):
            ours, theirs = _FORK.Pipe()
            process = _FORK.Process(target=_worker_main, daemon=True, args=(
                theirs, [ours] + [conn for _, conn in pool]))
            process.start()   # (should it raise, the dropped pipes end
            theirs.close()    # the workers forked so far)
            pool.append((process, ours))
        return pool

    def _fan_out(self, fn, items, place, span) -> List[Any]:
        with self._lock:
            pool = self._ensure_pool()
            deal: Dict[int, List[int]] = {}
            for i, key in enumerate(
                    range(len(items)) if place is None else place):
                deal.setdefault(key % len(pool), []).append(i)
            # Pickled before anything is sent: an item that does not
            # pickle fails the map while no worker owes a reply yet.
            messages = [pickle.dumps((fn, [items[i] for i in units]))
                        for units in deal.values()]
            for k, message in zip(deal, messages):
                # A dead worker is reported when its reply is read.
                with contextlib.suppress(OSError):
                    pool[k][1].send_bytes(message)
            replies: Dict[int, bytes] = {}
            for k in deal:
                with contextlib.suppress(EOFError, OSError):
                    replies[k] = pool[k][1].recv_bytes()
            self._count(span, out=messages, back=list(replies.values()))
        # Every reply is off the pipes; only now may anything raise.
        if dead := [k for k in deal if k not in replies]:
            raise RuntimeError(
                f"process worker {dead[0]} (pid {pool[dead[0]][0].pid}) "
                f"died during a map of {fn!r}")
        outcomes: List[Any] = [None] * len(items)
        for k, units in deal.items():
            for i, blob in zip(units, pickle.loads(replies[k])):
                outcomes[i] = pickle.loads(blob)
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def _count(self, span: Any, **crossed: List[bytes]) -> None:
        for direction, blobs in crossed.items():
            size = sum(map(len, blobs))
            self.pipe_messages[direction] += len(blobs)
            self.pipe_bytes[direction] += size
            if _METRICS.enabled:
                for name, n in (("repro_executor_pipe_messages_total",
                                 len(blobs)),
                                ("repro_executor_pipe_bytes_total", size)):
                    _METRICS.counter(name, {"direction": direction},
                                     help="worker-pipe traffic").inc(n)
                span.set(**{f"pipe_messages_{direction}": len(blobs),
                            f"pipe_bytes_{direction}": size})

    def close(self) -> None:
        super().close()
        for bid in self._broadcasts:
            _BROADCASTS.pop(bid, None)
        self._broadcasts.clear()


#: Registry of selectable backends.
_EXECUTORS = {
    EXECUTOR_SERIAL: SerialExecutor,
    EXECUTOR_THREADS: ThreadExecutor,
    EXECUTOR_PROCESSES: ProcessExecutor,
}


def available_executors() -> List[str]:
    """Names accepted by :func:`get_executor` (and ``EarlConfig.executor``)."""
    return sorted(_EXECUTORS)


def get_executor(name: str, max_workers: Optional[int] = None) -> Executor:
    """Build the named backend (``"serial"``, ``"threads"``, ``"processes"``).

    ``max_workers`` bounds pool size for the concurrent backends
    (default: the machine's CPU count) and is ignored by ``serial``.
    """
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; known: {available_executors()}"
        ) from None
    return cls(max_workers=max_workers)


def resolve_executor(config: Optional[Any] = None, *,
                     name: Optional[str] = None,
                     max_workers: Optional[int] = None) -> Executor:
    """Build the backend a run should use, honoring the env override.

    Precedence for the backend name: ``REPRO_EXECUTOR`` environment
    variable > explicit ``name`` argument > ``config.executor`` >
    ``"serial"``.  Worker count: ``REPRO_MAX_WORKERS`` > ``max_workers``
    argument > ``config.max_workers`` > CPU count.  ``config`` is any
    object with ``executor``/``max_workers`` attributes (typically an
    :class:`~repro.core.config.EarlConfig`).

    The caller owns the returned executor and should ``close()`` it (or
    use it as a context manager).
    """
    env_name = os.environ.get(EXECUTOR_ENV)
    chosen = env_name or name or getattr(config, "executor", None) \
        or EXECUTOR_SERIAL
    env_workers = os.environ.get(MAX_WORKERS_ENV)
    if env_workers:
        try:
            workers: Optional[int] = int(env_workers)
        except ValueError:
            raise ValueError(
                f"{MAX_WORKERS_ENV} must be an integer, "
                f"got {env_workers!r}") from None
    else:
        workers = (max_workers if max_workers is not None
                   else getattr(config, "max_workers", None))
    return get_executor(chosen, max_workers=workers)


def as_executor(spec: Any) -> Tuple[Executor, bool]:
    """Normalize ``spec`` into ``(executor, owned)``.

    ``spec`` may be ``None`` (serial), a backend name, or an
    :class:`Executor` instance.  ``owned`` tells the caller whether it
    created the executor (and must therefore close it) or borrowed one
    whose lifecycle belongs to somebody else.
    """
    if spec is None:
        return SerialExecutor(), True
    if isinstance(spec, Executor):
        return spec, False
    if isinstance(spec, str):
        return get_executor(spec), True
    raise TypeError(
        f"executor must be None, a name, or an Executor; got {type(spec).__name__}")


def chunk_sizes(total: int, chunk: int) -> List[int]:
    """Deterministic decomposition of ``total`` units into fixed chunks.

    Returns ``[chunk, chunk, ..., remainder]``.  The decomposition
    depends only on ``total`` and ``chunk`` — never on worker count —
    which is what keeps chunked Monte-Carlo runs identical across
    backends and pool sizes.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def _check_workers(max_workers: Optional[int]) -> None:
    """Shared validation, same semantics as ``EarlConfig.max_workers``."""
    if max_workers is not None:
        check_positive_int("max_workers", max_workers)
