"""Approximate GROUP BY dashboard: per-group bounds refining live.

Two demos of the grouped query engine (``repro.query``):

1. **Streaming per-group error bounds** — a
   ``Query(select=[agg("mean", "value")], group_by="key")`` over a
   Zipf-skewed keyed table.  Each round prints every group's current
   estimate, CI and error; groups whose bound is met stop sampling
   (marked DONE) while the laggards keep expanding — the per-group
   counterpart of EARL's early termination.
2. **A shared row budget** — the same query submitted to
   ``QueryScheduler(round_budget=3_000)``: each round's budget is split
   across the still-active groups by live ``N_h x S_h`` and capped at
   the rows a group still needs, so finished groups donate their budget
   to the laggards instead of doubling past their bounds.

Run with ``PYTHONPATH=src python examples/group_by_dashboard.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core import EarlConfig
from repro.query import Query, agg
from repro.scheduler import QueryScheduler
from repro.workloads import skewed_keyed_values

ROWS = 150_000
KEYS = 6


def banner(title: str) -> None:
    print(f"\n=== {title} ===")


def print_round(snap) -> None:
    print(f"  round {snap.round}: {snap.rows_processed:,} rows processed "
          f"({snap.rows_processed / snap.population_size:.2%} of the "
          f"table), {snap.active_groups} group(s) still sampling")
    for key in sorted(snap.groups):
        for entry in snap.groups[key].values():
            state = "DONE " if entry.done else "  ..."
            extra = " (exact)" if entry.used_fallback else ""
            print(f"    [{state}] {str(key):<6s} "
                  f"mean {entry.estimate:9.3f}  "
                  f"CI [{entry.ci_low:8.3f}, {entry.ci_high:8.3f}]  "
                  f"error {entry.error:6.4f}  "
                  f"n={entry.sample_size:>7,d}/{entry.group_size:,d}"
                  f"{extra}")


def main() -> None:
    keys, values = skewed_keyed_values(ROWS, KEYS, skew=1.4, seed=11)
    table = {"key": keys, "value": values}

    banner("1. per-group bounds streaming (each group on its schedule)")
    config = EarlConfig(sigma=0.03, seed=5, B_override=25, n_override=150)
    query = Query([agg("mean", "value")], group_by="key").on(
        table, config=config)
    final = None
    for snap in query.stream():
        print_round(snap)
        final = snap
    result = final.result
    print(f"  -> all bounds met: {result.achieved} after "
          f"{result.rounds} round(s), {result.rows_processed:,} of "
          f"{result.population_size:,} rows")
    truth = {k: float(np.mean(values[keys == k])) for k in result.groups}
    worst = max(abs(res.estimate / truth[k] - 1.0)
                for k, by in result.groups.items()
                for res in by.values())
    print(f"  -> worst true relative deviation across groups: {worst:.3%}")

    banner("2. a shared row budget (laggards inherit the budget)")
    scheduler = QueryScheduler(round_budget=3_000)
    budgeted = scheduler.submit_grouped(
        Query([agg("mean", "value")], group_by="key").on(
            table, config=config).plan(), name="by-key")
    scheduler.run()
    snap = budgeted.snapshots[-1]
    print(f"  {len(snap.groups)} group(s) finished in {snap.round} "
          f"budgeted round(s); rows processed: "
          f"{snap.rows_processed:,} (vs {result.rows_processed:,} on "
          f"each group's own schedule)")
    print(f"  bounds met: {snap.result.achieved}")


if __name__ == "__main__":
    main()
