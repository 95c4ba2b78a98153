"""Global sample-budget allocation across concurrent queries' arms.

Each expansion round the cross-query scheduler holds one global row
budget and must split it across every still-unfinished ``(query,
group)`` pair — the *arms* — of every admitted engine.  The policy is
expected-error-reduction: treat each arm like a bandit arm whose payoff
is variance removed per row, weight it by the classical Neyman quantity
``N_h · S_h`` **re-estimated live** (``S_h ≈ error·√n`` from the arm's
current delta-maintained bootstrap error, not the stale pilot std), and
cap it at the rows it still *needs* — bootstrap error shrinks as
``1/√n``, so an arm at error ``e`` with ``n`` rows consumed needs about
``n·((e/σ)² − 1)`` more rows to reach its bound σ.  Rows past that cap
are wasted on an arm that will terminate anyway, so the largest-
remainder split (:func:`repro.sampling.stratified.allocate_with_caps`)
redistributes them to the laggards; a one-row floor keeps every
starving arm live.

Demand records are the plain dicts the engines produce
(:meth:`~repro.streaming.SessionManager.live_demands`,
:meth:`~repro.core.grouped.GroupedEarlSession.live_demands`):
``{key, error, sigma, consumed, size, scheduled, remaining, scale,
shared}``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import REGISTRY as _METRICS
from repro.sampling.stratified import allocate_with_caps

__all__ = ["rows_to_bound", "allocate_budget"]


def rows_to_bound(error: float, sigma: float, consumed: int,
                  scheduled: int, remaining: int) -> int:
    """Rows an arm still needs to reach its error bound, capped at what
    it can still draw.

    Before any estimate exists (``error`` not finite) the arm's own
    scheduled draw is the only honest ask (the SSABE-sized pilot round
    is mandatory).  An arm already at its bound needs nothing — it will
    terminate on its next evaluation.
    """
    if remaining <= 0:
        return 0
    if not math.isfinite(error):
        need = scheduled
    elif error <= sigma or consumed <= 0:
        need = 0
    else:
        need = math.ceil(consumed * ((error / sigma) ** 2 - 1.0))
        need = max(need, 1)
    return max(0, min(need, remaining))


def allocate_budget(demands: Sequence[Dict[str, Any]],
                    total: Optional[int] = None) -> List[int]:
    """Split one round's global row budget across demand records.

    Returns per-arm grants aligned with ``demands``.  ``total`` defaults
    to the sum of the arms' own scheduled draws — the rows the engines
    would collectively consume unscheduled, so global throughput is
    preserved and only the *split* changes.  Weights are live
    ``N_h · S_h`` (falling back to population when no arm has a live
    scale yet);
    caps are each arm's needed-rows estimate; a one-row floor keeps
    every arm live.
    """
    if not demands:
        return []
    if total is None:
        total = sum(int(d["scheduled"]) for d in demands)
    total = max(int(total), 0)
    caps: List[int] = []
    weights: List[float] = []
    any_scale = any(math.isfinite(float(d["scale"])) and d["scale"] > 0
                    for d in demands)
    for d in demands:
        cap = rows_to_bound(float(d["error"]), float(d["sigma"]),
                            int(d["consumed"]), int(d["scheduled"]),
                            int(d["remaining"]))
        caps.append(cap)
        scale = float(d["scale"])
        if any_scale:
            scale = scale if math.isfinite(scale) and scale > 0 else 1.0
            weights.append(float(d["size"]) * scale)
        else:
            weights.append(float(d["size"]))
    floors = [1 if cap > 0 else 0 for cap in caps]
    grants = allocate_with_caps(weights, total, caps, floors=floors)
    if _METRICS.enabled:
        _METRICS.counter("repro_budget_allocations_total",
                         help="global budget splits computed").inc()
        _METRICS.counter("repro_budget_rows_granted_total",
                         help="sample rows granted across all arms"
                         ).inc(sum(grants))
    return grants
