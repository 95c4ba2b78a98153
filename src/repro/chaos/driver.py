"""Replay a :class:`ChaosSchedule` against a live engine stream.

The driver wraps any snapshot stream — :class:`~repro.core.EarlSession`,
:class:`~repro.streaming.SessionManager`,
:class:`~repro.core.grouped.GroupedEarlSession` or
:class:`~repro.core.EarlJob` — and fires the schedule's events at
snapshot boundaries: after yielding snapshot ``i`` it applies every
event with ``at == i``, so the fault lands at the engine's next round
boundary exactly like a mid-run ``report_loss`` call would.

When no event fires the driver touches nothing and draws no random
numbers, so driving with :meth:`ChaosSchedule.none` is byte-identical
to iterating the bare stream — the zero-fault invariant the chaos
suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.chaos.schedule import (
    KIND_KILL_NODES,
    KIND_KILL_RESTART,
    KIND_LOSS,
    KIND_RECOVER,
    KIND_SLOW_NODE,
    ChaosEvent,
    ChaosSchedule,
)
from repro.cluster import FailureInjector
from repro.util.rng import ensure_rng


@dataclass
class ChaosReport:
    """What a chaotic run produced and which faults actually landed.

    ``fired`` can be shorter than the schedule: events pinned past the
    last snapshot boundary never fire (the run finished first).
    """

    snapshots: List[Any] = field(default_factory=list)
    fired: List[ChaosEvent] = field(default_factory=list)
    final: Any = None
    degraded: bool = False
    lost_fraction: float = 0.0
    #: Per-query final snapshots (:meth:`ChaosDriver.run_manager` only).
    results: Optional[Dict[str, Any]] = None


class ChaosDriver:
    """Drives an engine stream while injecting a fault schedule.

    ``cluster`` is only needed for node-level events (``kill-nodes``,
    ``slow-node``, ``recover``); pure sample-loss schedules work
    against any engine with a ``report_loss`` method.
    """

    def __init__(self, schedule: Optional[ChaosSchedule] = None, *,
                 cluster: Any = None) -> None:
        self.schedule = (schedule if schedule is not None
                         else ChaosSchedule.none())
        self.cluster = cluster
        #: Events that actually landed, in firing order.
        self.fired: List[ChaosEvent] = []

    # ------------------------------------------------------------ core
    def drive(self, stream: Iterable[Any], *,
              loss_target: Any = None) -> Iterator[Any]:
        """Yield the stream's items, firing events between them.

        ``loss_target`` is the object whose ``report_loss`` receives
        :data:`KIND_LOSS` events (usually the session the stream came
        from).  The wrapper is transparent when nothing fires.
        """
        for index, item in enumerate(stream):
            yield item
            for event in self.schedule.events_at(index):
                self._fire(event, loss_target)
                self.fired.append(event)

    def _fire(self, event: ChaosEvent, loss_target: Any) -> None:
        if event.kind == KIND_LOSS:
            if loss_target is None:
                raise ValueError(
                    "schedule contains a loss event but the driven "
                    "stream has no loss target (pass loss_target= or "
                    "use run/run_manager)")
            if event.keys is not None:
                loss_target.report_loss(event.fraction, keys=event.keys,
                                        seed=event.seed)
            else:
                loss_target.report_loss(event.fraction, seed=event.seed)
        elif event.kind == KIND_KILL_NODES:
            self._require_cluster(event)
            FailureInjector(self.cluster, seed=event.seed) \
                .fail_random_fraction(event.fraction)
        elif event.kind == KIND_SLOW_NODE:
            self._require_cluster(event)
            healthy = self.cluster.healthy_nodes
            if healthy:
                pick = int(ensure_rng(event.seed).integers(0, len(healthy)))
                self.cluster.set_slow_node(healthy[pick].node_id,
                                           event.factor)
        elif event.kind == KIND_RECOVER:
            self._require_cluster(event)
            for node in list(self.cluster.nodes):
                if not node.alive:
                    self.cluster.recover_node(node.node_id)
            self.cluster.clear_slow_nodes()
        elif event.kind == KIND_KILL_RESTART:
            raise ValueError(
                "kill-restart events target the service process, not an "
                "engine stream; drive them with "
                "repro.chaos.restart.run_with_restarts")

    def _require_cluster(self, event: ChaosEvent) -> None:
        if self.cluster is None:
            raise ValueError(
                f"schedule contains a {event.kind!r} event but the "
                f"driver was built without a cluster")

    # -------------------------------------------------------- wrappers
    def run(self, engine: Any) -> ChaosReport:
        """Drive one engine's snapshot stream: an :class:`EarlSession`,
        a :class:`GroupedEarlSession` (loss events honour their ``keys``
        strata filter) or an :class:`EarlJob` over the driver's
        cluster.  Loss events go to the engine's ``report_loss``; an
        engine without one (a job, which loses nodes, not rows) raises
        on them."""
        loss_target = engine if hasattr(engine, "report_loss") else None
        snapshots = list(self.drive(engine.stream(),
                                    loss_target=loss_target))
        final = snapshots[-1] if snapshots else None
        return ChaosReport(
            snapshots=snapshots, fired=list(self.fired), final=final,
            degraded=bool(getattr(final, "degraded", False)),
            lost_fraction=float(getattr(final, "lost_fraction", 0.0)))

    def run_manager(self, manager: Any) -> ChaosReport:
        """Drive a :class:`SessionManager`; ``results`` maps query name
        to its final snapshot (queries withdrawn by a total stratum
        loss never finalize and are absent)."""
        pairs: List[Any] = []
        results: Dict[str, Any] = {}
        for query, snap in self.drive(manager.stream(),
                                      loss_target=manager):
            pairs.append((query, snap))
            if snap.final:
                results[query.name] = snap
        return ChaosReport(
            snapshots=pairs, fired=list(self.fired),
            final=pairs[-1][1] if pairs else None,
            degraded=bool(getattr(manager, "degraded", False)),
            lost_fraction=float(getattr(manager, "lost_fraction", 0.0)),
            results=results)
