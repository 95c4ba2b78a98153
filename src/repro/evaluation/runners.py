"""Programmatic experiment runners for the paper's evaluation (§6).

Each ``figN_point`` function measures one x-axis point of the
corresponding figure on a fresh simulated cluster and returns a plain
dict of the series values; ``figN_sweep`` maps it over the default
x-axis.  The pytest benchmarks under ``benchmarks/`` and the
``python -m repro.evaluation`` CLI both drive these runners, so the
reproduced numbers come from exactly one implementation.

Every sweep accepts an ``executor`` (``None``, a backend name, or an
:class:`~repro.exec.Executor`): the sweep's points are independent —
each builds its own cluster and derives its seed from the point's
*index*, never from execution order — so a whole figure can run its
points concurrently (``executor="processes"``, or
``REPRO_EXECUTOR=processes`` with the CLI) and still produce exactly
the serial series.  Process-pool workers cannot nest pools, so their
initializer strips the env override and each point's inner engine runs
``"serial"``; under a *thread* backend, inner runs may legally build
nested thread pools (deterministic either way, just extra pool
overhead).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster, FailureInjector
from repro.exec.executor import as_executor
from repro.core import EarlConfig, EarlJob, ProgressSnapshot, run_stock_job
from repro.jobs import (
    EarlKMeans,
    centroid_relative_error,
    kmeans_inmemory,
    kmeans_mapreduce,
)
from repro.mapreduce import JobFailedError
from repro.workloads import (
    GB,
    gaussian_mixture_points,
    load_stand_in,
    point_lines,
)

#: Default x-axes of the reproduced figures.
FIG5_SIZES_GB = [0.5, 1.0, 2.0, 10.0, 50.0, 100.0, 200.0]
FIG6_SIZES_GB = [2.0, 10.0, 50.0, 100.0]
FIG7_SIZES_GB = [1.0, 5.0, 20.0, 50.0]
FIG9_SIZES_GB = [1.0, 5.0, 20.0, 50.0]
FAULT_SWEEP = [0, 1, 2, 3]

#: Default stand-in record counts (see DESIGN.md on logical scaling).
FIG5_RECORDS = 30_000
FIG6_RECORDS = 100_000
FIG7_POINTS = 40_000
FIG9_RECORDS = 30_000

FIG7_CENTERS = [[0.0, 0.0], [30.0, 30.0], [60.0, 0.0], [30.0, -25.0]]

#: One sweep point: (point function, positional args, keyword args).
_PointSpec = Tuple[Callable[..., Dict[str, object]], tuple, dict]


def _run_point(spec: _PointSpec) -> Dict[str, object]:
    """Execute one sweep point (module-level so process pools can pickle
    it by reference)."""
    fn, args, kwargs = spec
    return fn(*args, **kwargs)


def _run_sweep(specs: Sequence[_PointSpec],
               executor) -> List[Dict[str, object]]:
    """Map the sweep's point specs over the chosen backend, in order.

    Each spec carries its own seed (derived from the point's index), so
    the series is identical whether the points run serially or fan out
    over threads/processes.
    """
    ex, owned = as_executor(executor)
    try:
        return ex.map(_run_point, list(specs))
    finally:
        if owned:
            ex.close()


# ---------------------------------------------------------------------------
# Figure 5 — mean, EARL vs stock Hadoop
# ---------------------------------------------------------------------------


def fig5_point(gb: float, *, records: int = FIG5_RECORDS,
               seed: int = 500) -> Dict[str, object]:
    """One data-size point of Fig. 5 (mean: EARL vs stock Hadoop)."""
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed)
    ds = load_stand_in(cluster, "/data/sweep", logical_gb=gb,
                       records=records, seed=seed + 1)
    exact, stock = run_stock_job(cluster, ds.path, "mean", seed=seed + 2)
    earl = EarlJob(cluster, ds.path, statistic="mean",
                   config=EarlConfig(sigma=0.05, seed=seed + 3)).run()
    stock_load = stock.breakdown["disk_read"] + stock.breakdown["disk_seek"]
    return {
        "gb": gb,
        "stock_s": stock.simulated_seconds,
        "earl_s": earl.simulated_seconds,
        "speedup": stock.simulated_seconds / earl.simulated_seconds,
        "stock_load_s": stock_load,
        "rel_err": abs(earl.estimate - exact) / abs(exact),
        "fallback": earl.used_fallback,
        "sampled": earl.n,
    }


def fig5_sweep(sizes_gb: Sequence[float] = FIG5_SIZES_GB, *,
               records: int = FIG5_RECORDS,
               seed: int = 500, executor=None) -> List[Dict[str, object]]:
    """Fig. 5 series over the default (or given) data sizes."""
    return _run_sweep(
        [(fig5_point, (gb,), {"records": records, "seed": seed + 10 * i})
         for i, gb in enumerate(sizes_gb)], executor)


# ---------------------------------------------------------------------------
# Figure 6 — median: stock vs naive vs optimized resampling
# ---------------------------------------------------------------------------


def _fig6_config(seed: int, maintenance: str) -> EarlConfig:
    return EarlConfig(sigma=0.05, seed=seed, maintenance=maintenance,
                      B_override=30, n_override=64,
                      expansion_factor=2.0, max_iterations=8)


def fig6_point(gb: float, *, records: int = FIG6_RECORDS,
               seed: int = 600) -> Dict[str, object]:
    """One data-size point of Fig. 6 (median, three implementations)."""
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed)
    ds = load_stand_in(cluster, "/data/median", logical_gb=gb,
                       records=records, seed=seed + 1)
    exact, stock = run_stock_job(cluster, ds.path, "median", seed=seed + 2)
    naive = EarlJob(cluster, ds.path, statistic="median",
                    config=_fig6_config(seed + 3, "none"),
                    pipelined=False).run()
    optimized = EarlJob(cluster, ds.path, statistic="median",
                        config=_fig6_config(seed + 3, "optimized"),
                        pipelined=True).run()
    return {
        "gb": gb,
        "stock_s": stock.simulated_seconds,
        "naive_s": naive.simulated_seconds,
        "optimized_s": optimized.simulated_seconds,
        "stock_over_naive": stock.simulated_seconds / naive.simulated_seconds,
        "naive_over_opt": naive.simulated_seconds
        / optimized.simulated_seconds,
        "naive_err": abs(naive.estimate - exact) / abs(exact),
        "opt_err": abs(optimized.estimate - exact) / abs(exact),
    }


def fig6_sweep(sizes_gb: Sequence[float] = FIG6_SIZES_GB, *,
               records: int = FIG6_RECORDS,
               seed: int = 600, executor=None) -> List[Dict[str, object]]:
    """Fig. 6 series over the default (or given) data sizes."""
    return _run_sweep(
        [(fig6_point, (gb,), {"records": records, "seed": seed + 10 * i})
         for i, gb in enumerate(sizes_gb)], executor)


# ---------------------------------------------------------------------------
# Figure 7 — K-Means
# ---------------------------------------------------------------------------


def fig7_point(gb: float, *, points: int = FIG7_POINTS,
               centers: Optional[Sequence[Sequence[float]]] = None,
               seed: int = 700) -> Dict[str, object]:
    """One data-size point of Fig. 7 (K-Means, EARL vs stock)."""
    centers = centers or FIG7_CENTERS
    pts, _ = gaussian_mixture_points(points, centers, spread=2.5, seed=seed)
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed + 1)
    lines = point_lines(pts)
    actual = sum(len(l) + 1 for l in lines)
    cluster.hdfs.write_lines("/points", lines,
                             logical_scale=max(1.0, gb * GB / actual))
    reference, _, _ = kmeans_inmemory(pts, len(centers), seed=seed + 2)

    stock = kmeans_mapreduce(cluster, "/points", len(centers), seed=seed + 3)
    earl = EarlKMeans(cluster, "/points", len(centers),
                      config=EarlConfig(sigma=0.05, seed=seed + 4),
                      initial_sample_size=500).run()
    return {
        "gb": gb,
        "stock_s": stock.simulated_seconds,
        "earl_s": earl.simulated_seconds,
        "speedup": stock.simulated_seconds / earl.simulated_seconds,
        "stock_iters": stock.iterations,
        "earl_n": earl.sample_size,
        "stock_opt_err": centroid_relative_error(reference, stock.centroids),
        "earl_opt_err": centroid_relative_error(reference, earl.centroids),
    }


def fig7_sweep(sizes_gb: Sequence[float] = FIG7_SIZES_GB, *,
               points: int = FIG7_POINTS,
               seed: int = 700, executor=None) -> List[Dict[str, object]]:
    """Fig. 7 series over the default (or given) data sizes."""
    return _run_sweep(
        [(fig7_point, (gb,), {"points": points, "seed": seed + 10 * i})
         for i, gb in enumerate(sizes_gb)], executor)


# ---------------------------------------------------------------------------
# Figure 9 — pre-map vs post-map sampling
# ---------------------------------------------------------------------------


def fig9_point(gb: float, *, records: int = FIG9_RECORDS,
               seed: int = 900) -> Dict[str, object]:
    """One data-size point of Fig. 9 (sampler comparison)."""
    row: Dict[str, object] = {"gb": gb}
    for sampler in ("premap", "postmap"):
        cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed)
        ds = load_stand_in(cluster, "/data/s", logical_gb=gb,
                           records=records, seed=seed + 1)
        # SSABE picks B; the first draw is pinned to the pilot size and
        # the expansion loop grows it to σ.  Extrapolating n from a
        # 300-record pilot lands on the §3.1 cliff (B·n >= N: scan
        # everything) for some seeds, and such a point compares two full
        # loads instead of two samplers.
        res = EarlJob(cluster, ds.path, statistic="mean",
                      config=EarlConfig(sigma=0.05, seed=seed + 2,
                                        sampler=sampler,
                                        n_override=records // 100)).run()
        row[f"{sampler}_s"] = res.simulated_seconds
        row[f"{sampler}_err"] = abs(res.estimate - ds.truth["mean"]) \
            / ds.truth["mean"]
    row["post_over_pre"] = row["postmap_s"] / row["premap_s"]
    return row


def fig9_sweep(sizes_gb: Sequence[float] = FIG9_SIZES_GB, *,
               records: int = FIG9_RECORDS,
               seed: int = 900, executor=None) -> List[Dict[str, object]]:
    """Fig. 9 series over the default (or given) data sizes."""
    return _run_sweep(
        [(fig9_point, (gb,), {"records": records, "seed": seed + 10 * i})
         for i, gb in enumerate(sizes_gb)], executor)


# ---------------------------------------------------------------------------
# Progressive streaming trace (the CLI's --stream mode)
# ---------------------------------------------------------------------------

#: Default stand-in size for streaming traces.
STREAM_RECORDS = 30_000


def _snapshot_row(snap: ProgressSnapshot) -> Dict[str, object]:
    """One progress row of the --stream table."""
    return {
        "iteration": snap.iteration,
        "estimate": snap.estimate,
        "error": snap.error,
        "ci_low": snap.ci_low,
        "ci_high": snap.ci_high,
        "sampled": snap.sample_size,
        "fraction": snap.sample_fraction,
        "cost_delta_s": snap.cost_delta_seconds,
        "cost_total_s": snap.cost_total_seconds,
        "achieved": snap.achieved,
        "final": snap.final,
    }


def stream_trace(gb: float = 10.0, *, statistic: str = "mean",
                 records: int = STREAM_RECORDS, sampler: str = "premap",
                 sigma: float = 0.05, seed: int = 1500,
                 executor: Optional[str] = None,
                 max_workers: Optional[int] = None,
                 on_snapshot: Optional[Callable[[Dict[str, object]], None]]
                 = None) -> List[Dict[str, object]]:
    """Progressive rows of one streaming :class:`EarlJob` run.

    This is the engine behind ``python -m repro.evaluation <fig>
    --stream``: instead of one batch figure point, the EarlJob's
    snapshot stream is drained and every intermediate estimate becomes
    a row — the estimate/CI/cost a dashboard would have shown at that
    moment.  ``on_snapshot`` (row callback) lets the CLI print each row
    as the simulated cluster produces it.  ``executor`` (a backend
    *name* here, since the job owns its executor's lifecycle) and
    ``max_workers`` select the run's backend; rows are identical on
    every backend.
    """
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=seed)
    ds = load_stand_in(cluster, "/data/stream", logical_gb=gb,
                       records=records, seed=seed + 1)
    job = EarlJob(cluster, ds.path, statistic=statistic,
                  config=EarlConfig(sigma=sigma, seed=seed + 2,
                                    sampler=sampler,
                                    executor=executor or "serial",
                                    max_workers=max_workers))
    rows: List[Dict[str, object]] = []
    for snap in job.stream():
        row = _snapshot_row(snap)
        if on_snapshot is not None:
            on_snapshot(row)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# grouped approximate queries (repro.query)
# ---------------------------------------------------------------------------


def query_trace(records: int = 200_000, *, n_keys: int = 8,
                skew: float = 1.5, statistic: str = "mean",
                sigma: float = 0.05, seed: int = 1700,
                executor: Optional[str] = None,
                max_workers: Optional[int] = None,
                on_snapshot: Optional[Callable[[Dict[str, object]], None]]
                = None) -> List[Dict[str, object]]:
    """Progressive rows of one grouped approximate query.

    Streams ``Query(select=[agg(statistic, "value")], group_by="key")``
    over a Zipf-skewed keyed table
    (:func:`repro.workloads.skewed_keyed_values`) and turns every
    :class:`~repro.core.GroupedSnapshot` into a row: groups done so
    far, rows processed, and the current laggard (the unfinished group
    with the largest error — the group the next round keeps sampling).
    The final row carries the per-group achievement summary.
    """
    from repro.query import Query, agg
    from repro.workloads import skewed_keyed_values

    keys, values = skewed_keyed_values(records, n_keys, skew=skew,
                                       seed=seed)
    query = Query([agg(statistic, "value")], group_by="key").on(
        {"key": keys, "value": values},
        config=EarlConfig(sigma=sigma, seed=seed + 1,
                          executor=executor or "serial",
                          max_workers=max_workers))
    rows: List[Dict[str, object]] = []
    for snap in query.stream():
        done = sum(1 for by_agg in snap.groups.values()
                   for e in by_agg.values() if e.done)
        laggard = snap.worst
        row: Dict[str, object] = {
            "round": snap.round,
            "groups_done": done,
            "groups_active": snap.active_groups,
            "rows_processed": snap.rows_processed,
            "sample_fraction": snap.rows_processed / snap.population_size,
            "laggard": "-" if laggard is None else str(laggard.key),
            "laggard_error": 0.0 if laggard is None else laggard.error,
            "final": snap.final,
            "achieved": (snap.result.achieved
                         if snap.result is not None else "-"),
        }
        if on_snapshot is not None:
            on_snapshot(row)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# §3.4 — fault tolerance sweep
# ---------------------------------------------------------------------------


def fault_point(n_failed: int, *, records: int = 40_000,
                logical_gb: float = 20.0, seed: int = 1100
                ) -> Dict[str, object]:
    """Outcome of stock and EARL runs after ``n_failed`` node losses.

    Deterministically scans failure patterns until one leaves *some*
    data (a total loss is uninteresting — nobody can answer from zero
    records).
    """
    for attempt in range(8):
        cluster = Cluster(n_nodes=5, block_size=64 * 1024, replication=2,
                          seed=seed)
        ds = load_stand_in(cluster, "/data/ft", logical_gb=logical_gb,
                           records=records, seed=seed + 1)
        if n_failed:
            FailureInjector(cluster, seed=seed + 2 + attempt) \
                .fail_random_nodes(n_failed)
        available = cluster.hdfs.available_fraction(ds.path)
        if available > 0.0:
            break
    else:  # pragma: no cover - 8 misses is astronomically unlikely
        raise RuntimeError("no failure pattern left any data")

    stock_status = "ok"
    try:
        run_stock_job(cluster, ds.path, "mean", seed=seed + 3)
    except JobFailedError:
        stock_status = "FAILED"

    earl = EarlJob(cluster, ds.path, statistic="mean",
                   config=EarlConfig(sigma=0.05, seed=seed + 4)).run()
    truth = ds.truth["mean"]
    return {
        "failed": n_failed,
        "available": available,
        "stock": stock_status,
        "earl_estimate_err": abs(earl.estimate - truth) / truth,
        "earl_cv": earl.error,
        "earl_input": earl.input_fraction,
    }


def fault_sweep(failures: Sequence[int] = FAULT_SWEEP, *,
                seed: int = 1100, executor=None) -> List[Dict[str, object]]:
    """§3.4 series over the given failed-node counts."""
    return _run_sweep(
        [(fault_point, (k,), {"seed": seed + 10 * k}) for k in failures],
        executor)
