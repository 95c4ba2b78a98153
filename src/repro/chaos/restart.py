"""Kill-and-restart chaos: crash the service, recover from the store.

The schedule kinds handled by :class:`~repro.chaos.driver.ChaosDriver`
perturb an *engine*; :data:`~repro.chaos.schedule.KIND_KILL_RESTART`
events perturb the *service process*.  :func:`run_with_restarts`
drives a set of submitted sessions to completion while killing the
service (``ApproxQueryService.crash`` — the in-process SIGKILL) at
every scheduled snapshot boundary and restarting it against the same
:class:`~repro.service.durable.DurableSessionStore`.  Clients keep
their event-id cursors across restarts, exactly like a real resuming
client, so the harness's output is the full per-session event stream
as one detached observer would have seen it.

The invariant the chaos suite asserts on top: with a deterministic
service (fixed master seed, fixed submission order), the streams this
harness collects are **byte-identical** to an uninterrupted run — no
event lost, duplicated, or altered by any number of crashes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.chaos.schedule import KIND_KILL_RESTART, ChaosSchedule
from repro.service.client import LocalClient
from repro.service.durable import DurableSessionStore
from repro.service.protocol import EVENT_FINAL, EVENT_SNAPSHOT
from repro.service.service import ApproxQueryService

#: Consecutive all-idle poll sweeps tolerated before declaring a hang.
_MAX_IDLE_SWEEPS = 200


@dataclass
class RestartReport:
    """What a kill-and-restart run observed."""

    #: Per-session raw event bytes, in stream order, as one resuming
    #: client collected them across every restart.
    events: Dict[str, List[str]] = field(default_factory=dict)
    #: Service kills actually fired (scheduled kills past the end of
    #: the run never fire).
    restarts: int = 0
    #: Snapshot/final events observed in total (the boundary counter
    #: kill events are pinned to).
    snapshots: int = 0


async def run_with_restarts(
        build: Callable[[DurableSessionStore], ApproxQueryService],
        store_path: str,
        specs: Sequence[Mapping[str, Any]],
        schedule: ChaosSchedule, *,
        fsync: bool = False,
        poll_timeout: float = 1.0) -> RestartReport:
    """Run ``specs`` to completion under scheduled service kills.

    ``build`` constructs a service over a given store (registering
    datasets/tables/clusters); it is called once per service
    generation, so it must be deterministic.  ``schedule``'s
    ``kill-restart`` events are pinned to the global 0-based index of
    observed snapshot/final events: after snapshot ``at`` is consumed,
    the service is crashed and a fresh one is recovered from the same
    store directory.  All other event kinds in the schedule are
    ignored here (drive engine-level faults with
    :class:`~repro.chaos.driver.ChaosDriver`).
    """
    kills = deque(sorted(
        e.at for e in schedule.events if e.kind == KIND_KILL_RESTART))
    store = DurableSessionStore(store_path, fsync=fsync)
    service = build(store)
    await service.start()
    client = LocalClient(service)
    sids = [await client.submit(spec) for spec in specs]
    await service.flush()

    report = RestartReport(events={sid: [] for sid in sids})
    cursors = {sid: 0 for sid in sids}
    done: set = set()
    idle_sweeps = 0
    try:
        while len(done) < len(sids):
            progressed = False
            crash_now = False
            for sid in sids:
                if sid in done:
                    continue
                page = await client.poll(sid, after=cursors[sid],
                                         wait=True, timeout=poll_timeout)
                for event in page.events:
                    report.events[sid].append(event.raw)
                    cursors[sid] = event.seq
                    if event.type in (EVENT_SNAPSHOT, EVENT_FINAL):
                        while kills and kills[0] <= report.snapshots:
                            kills.popleft()
                            crash_now = True
                        report.snapshots += 1
                    if crash_now:
                        # The kill lands after *this* event: the rest
                        # of the page stays unconsumed (the cursor has
                        # not passed it) and is re-served after the
                        # restart — so a page that batches two
                        # snapshots cannot merge two scheduled kills.
                        break
                if page.events:
                    progressed = True
                elif page.terminal:
                    done.add(sid)   # sealed and drained
                if crash_now:
                    break
            if crash_now:
                await service.crash()
                report.restarts += 1
                store = DurableSessionStore(store_path, fsync=fsync)
                service = build(store)
                await service.start()
                client = LocalClient(service)
                continue
            idle_sweeps = 0 if progressed else idle_sweeps + 1
            if idle_sweeps > _MAX_IDLE_SWEEPS:
                raise RuntimeError(
                    f"no progress after {_MAX_IDLE_SWEEPS} poll sweeps; "
                    f"undrained: {sorted(set(sids) - done)}")
    finally:
        await service.stop()
    return report
