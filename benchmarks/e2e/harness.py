"""Lap machinery of ``bench_e2e``: one service generation per lap,
closed-loop clients that time what they see, and the small statistics
the report needs.

A *lap* is one pass over a workload's fixed query list against a fresh
``ApproxQueryService(seed=S)`` + ``ServiceServer`` + WAL directory, so
every lap draws the same per-session seeds and does byte-identical
work.  Everything a lap measures is taken at the client: a
:class:`Query` records when its submit was sent and when its first
snapshot and its final event arrived.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import EarlConfig
from repro.service import (
    ApproxQueryService,
    DurableSessionStore,
    InMemorySessionStore,
    LocalClient,
    ServiceClient,
    ServiceServer,
)

HERE = Path(__file__).resolve().parent
#: Everything a run writes (WAL directories, traces, reports) lands
#: here — inside the checkout, ignored by git.
RESULTS = HERE / "results"

#: The WAL flush policy of every lap: journal without fsync — restart
#: durability, the policy ``bench_durability.py`` gates.  fsync latency
#: is a property of the runner's disk, not of this code.
FSYNC = False
#: Long-poll budget; never reached on a healthy run.
POLL_TIMEOUT = 10.0


@dataclass
class Query:
    """One submitted session, as its client saw it."""

    tag: str
    spec: Dict[str, Any]
    #: What the answer is checked against (see ``Workload.check``).
    expect: Any = None
    sid: str = ""
    t_submit: float = 0.0
    t_ack: float = 0.0
    t_running: Optional[float] = None
    t_first: Optional[float] = None
    t_final: Optional[float] = None
    state: Optional[str] = None
    events: List[str] = field(default_factory=list)
    final: Optional[Dict[str, Any]] = None
    cursor: int = 0


class Lap:
    """One lap's service generation(s), clients and client-side log."""

    def __init__(self, workload: Any, inputs: Dict[str, Any], seed: int, *,
                 transport: str = "tcp", store: str = "wal",
                 config: Optional[Dict[str, Any]] = None,
                 script: Optional[Callable] = None) -> None:
        self.workload = workload
        self.script = script or workload.script
        self.inputs = inputs
        self.seed = seed
        self.transport = transport
        self.store_kind = store
        self.config = dict(workload.config if config is None else config)
        self.queries: List[Query] = []
        self.polls: List[float] = []
        self.empty_polls = 0
        #: Seconds each generation took to come up (WAL open, service
        #: start — recovery included — server start, client connect).
        self.startup: List[float] = []
        #: When the current generation delivered its first event.
        self.first_event_at: Optional[float] = None
        self.wall = 0.0
        #: Workload-specific per-lap measurements (crash_resume's
        #: resume times, the WAL size, ...).
        self.extra: Dict[str, float] = {}
        self.session_seeds: Dict[str, int] = {}
        self.max_retained = 0
        self.service: Optional[ApproxQueryService] = None
        self.server: Optional[ServiceServer] = None
        self.clients: List[Any] = []
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=RESULTS)

    # ---------------------------------------------------------- generations
    async def open(self) -> None:
        """Bring one service generation up on this lap's WAL directory
        (a non-empty directory makes ``start()`` run recovery)."""
        t0 = time.perf_counter()
        self.first_event_at = None
        if self.store_kind == "wal":
            store = DurableSessionStore(self.wal_dir, fsync=FSYNC)
        else:
            store = InMemorySessionStore()
        self.service = ApproxQueryService(
            config=EarlConfig(**self.config), seed=self.seed, store=store,
            **self.workload.service)
        self.workload.register(self.service, self.inputs)
        await self.service.start()
        if self.transport == "tcp":
            self.server = ServiceServer(self.service)
            await self.server.start()
            host, port = self.server.address
            self.clients = [await ServiceClient.connect(host, port)
                            for _ in range(self.workload.connections)]
        else:
            self.clients = [LocalClient(self.service)
                            for _ in range(self.workload.connections)]
        self.startup.append(time.perf_counter() - t0)

    async def _drop_transport(self) -> None:
        for client in self.clients:
            if isinstance(client, ServiceClient):
                await client.close()
        self.clients = []
        if self.server is not None:
            await self.server.stop()
            self.server = None
            # Let the connection handlers see EOF and finish: one still
            # closing when the loop ends is cancelled, noisily.
            for _ in range(3):
                await asyncio.sleep(0)

    async def crash(self) -> None:
        """Kill this generation the way SIGKILL would (in-process)."""
        await self.service.crash()
        self.service = None
        await self._drop_transport()

    async def close(self) -> None:
        if self.service is not None:
            stats = await self.clients[0].stats()
            self.max_retained = int(stats["max_retained_events"])
            self.session_seeds = {rec.session_id: int(rec.seed)
                                  for rec in self.service.store.records()}
            # Engines (and their worker pools, which hold copies of the
            # sockets) go first, so the connections really close.
            await self.service.stop()
            self.service = None
            await self._drop_transport()

    def cleanup(self) -> None:
        wal = Path(self.wal_dir) / "sessions.wal"
        if wal.exists():
            self.extra["wal_bytes"] = float(wal.stat().st_size)
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    # -------------------------------------------------------------- clients
    async def submit(self, tag: str, spec: Dict[str, Any],
                     expect: Any = None, *, client: int = 0) -> Query:
        query = Query(tag=tag, spec=spec, expect=expect)
        query.t_submit = time.perf_counter()
        query.sid = await self.clients[client].submit(spec)
        query.t_ack = time.perf_counter()
        self.queries.append(query)
        return query

    async def flush(self) -> None:
        """Close the dispatch window now (deterministic batching)."""
        await self.service.flush()

    async def follow(self, query: Query, *, client: int = 0,
                     stop_after: Optional[int] = None) -> None:
        """Long-poll ``query`` to its end, acking as it goes.

        With ``stop_after=k`` the client consumes exactly the first
        ``k`` events, acks them and stops polling — what a client that
        went away looks like to the service.
        """
        conn = self.clients[client]
        while True:
            t0 = time.perf_counter()
            page = await conn.poll(query.sid, after=query.cursor, wait=True,
                                   timeout=POLL_TIMEOUT)
            now = time.perf_counter()
            self.polls.append(now - t0)
            if not page.events:
                self.empty_polls += 1
                if page.terminal:
                    query.state = page.state
                    return
                continue
            if self.first_event_at is None:
                self.first_event_at = now
            for event in page.events:
                if stop_after is not None and event.seq > stop_after:
                    break
                query.events.append(event.raw)
                query.cursor = event.seq
                if event.type == "state":
                    if event.payload.get("state") == "running" \
                            and query.t_running is None:
                        query.t_running = now
                elif event.type in ("snapshot", "final"):
                    if query.t_first is None:
                        query.t_first = now
                    if event.type == "final":
                        query.t_final = now
                        query.final = event.payload
            if stop_after is not None and query.cursor >= stop_after:
                await conn.poll(query.sid, after=query.cursor)   # ack
                return

    async def follow_all(self, queries: Sequence[Query]) -> None:
        """Follow ``queries`` concurrently, one connection each."""
        await asyncio.gather(*[self.follow(q, client=i)
                               for i, q in enumerate(queries)])


async def _run_lap(lap: Lap) -> None:
    await lap.open()
    try:
        t0 = time.perf_counter()
        await lap.script(lap)
        lap.wall = time.perf_counter() - t0
    finally:
        await lap.close()


def run_lap(workload: Any, inputs: Dict[str, Any], seed: int,
            **variant: Any) -> Lap:
    """Run one lap to completion and clean its WAL directory up."""
    lap = Lap(workload, inputs, seed, **variant)
    # Every lap starts from the same collector state: the engines
    # leave cyclic garbage behind, and where in a lap the full
    # collections fall otherwise depends on the laps before it.
    gc.collect()
    try:
        asyncio.run(_run_lap(lap))
    finally:
        lap.cleanup()
    return lap


# ------------------------------------------------------------------ numbers

def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a per-lap series."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def high_percentile(samples: Sequence[float], wanted: float
                    ) -> Dict[str, float]:
    """The ``wanted`` percentile if at least ten samples lie beyond
    it, else the highest percentile that has ten beyond it; always
    reported with the percentile actually used and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "n": 0}
    supported = 100.0 * (n - 10) / n if n > 10 else 50.0
    used = min(wanted, max(50.0, supported))
    index = min(n - 1, int(used / 100.0 * n))
    return {"value": ordered[index], "percentile": used, "n": n}


def lap_mean(lap: Lap, pick: Callable[[Query], Optional[float]]) -> float:
    """Mean over a lap's queries of a per-query timing (the per-lap
    value of every timing metric: per-query times are multi-modal, so
    a per-query median would flip between modes)."""
    picked = [pick(q) for q in lap.queries]
    picked = [v for v in picked if v is not None]
    return sum(picked) / len(picked) if picked else 0.0


def first_snapshot_s(query: Query) -> Optional[float]:
    return None if query.t_first is None else query.t_first - query.t_submit


def to_sigma_s(query: Query) -> Optional[float]:
    return None if query.t_final is None else query.t_final - query.t_submit
