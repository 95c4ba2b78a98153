"""Per-layer metrics of ``bench_e2e``: one traced lap, measured from
outside.

After the untraced laps, one more lap runs with the wrappers of
:mod:`tracing` installed, and a few variant laps (in-process client,
in-memory store, engines called directly) supply the overhead ratios.
``*_s`` is seconds busy inside a layer's wrapped public calls (self
time: span minus child spans); ``*_share`` is that over the traced
lap's wall-clock.  End-to-end numbers never come from the traced lap.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import (
    Lap,
    high_percentile,
    quartiles,
    run_lap,
    to_sigma_s,
)
from tracing import Tracer

from repro.exec import get_executor, live_pool_executors


def _ratio(num: float, den: float) -> Dict[str, float]:
    """A ratio reported with both of its bases."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def _value(value: float) -> Dict[str, float]:
    return {"value": float(value)}


def _split_cache_counts(inputs: Dict[str, Any]) -> Tuple[int, int]:
    cluster = inputs.get("cluster")
    if cluster is None:
        return 0, 0
    stats = cluster.hdfs.split_cache.stats
    return stats.hits, stats.materializations


def _pool_start_s(workload: Any) -> float:
    """Seconds for the workload's worker pool to come up and run a
    no-op fan-out in this process (pools start lazily inside their
    first real fan-out, where the cost cannot be told apart)."""
    if workload.config.get("executor") != "processes":
        return 0.0
    executor = get_executor("processes", workload.config["max_workers"])
    try:
        t0 = time.perf_counter()
        executor.map(abs, range(workload.config["max_workers"]))
        return time.perf_counter() - t0
    finally:
        executor.close()


def _client_metrics(workload: Any, laps: Sequence[Lap]
                    ) -> Dict[str, Dict[str, float]]:
    """End-to-end metrics only some workloads have, from the untraced
    laps (percentiles pool the samples of all of them)."""
    queries = [q for lap in laps for q in lap.queries]
    polls_ms = [1e3 * p for lap in laps for p in lap.polls]
    exact = [to_sigma_s(q) for q in queries if q.tag.startswith("exact.")]
    out = {
        "client.time_to_sigma_p95_s": high_percentile(
            [to_sigma_s(q) for q in queries], 95.0),
        "client.poll_latency_p50_ms": high_percentile(polls_ms, 50.0),
        "client.poll_latency_p99_ms": high_percentile(polls_ms, 99.0),
        "client.exact_job_s": _value(statistics.mean(exact) if exact else 0),
        "client.sample_fraction": _value(workload.sample_fraction(laps[0])),
    }
    for name in ("resume_first_event_s", "resume_drain_s"):
        series = [lap.extra[name] for lap in laps if name in lap.extra]
        out[f"client.{name}"] = quartiles(series) if series else _value(0)
    # One workload per process, so peaks do not leak across workloads;
    # worker processes count with their largest member.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.config.get("executor") == "processes":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["client.peak_rss_mb"] = _value(peak_kb / 1024.0)
    return out


def measure(workload: Any, inputs: Dict[str, Any], seed: int,
            laps: Sequence[Lap], warm: Lap, twin_lap: Optional[Lap],
            trace_dir: Path) -> Tuple[Dict[str, Dict[str, float]], Lap]:
    """Run the traced lap and its variants; returns the per-layer
    metrics and the traced lap (so its answers get checked too)."""
    base_wall = statistics.median(lap.wall for lap in laps)

    hits0, builds0 = _split_cache_counts(inputs)
    origin = time.perf_counter()
    with Tracer() as tracer:
        traced = run_lap(workload, inputs, seed)
    hits1, builds1 = _split_cache_counts(inputs)

    local = run_lap(workload, inputs, seed, transport="local")
    # A lap that restarts the service cannot run on a store that
    # forgets: crash_resume reports no WAL overhead ratio.
    in_memory = None if hasattr(workload, "uninterrupted") else \
        run_lap(workload, inputs, seed, store="mem")
    t0 = time.perf_counter()
    direct = workload.direct(inputs, warm)
    direct_s = time.perf_counter() - t0

    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"trace_{workload.name}.json", "w",
              encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(origin), fh)

    wall = traced.wall
    own = tracer.layer_self_seconds()
    queries = traced.queries
    finals = [q.final for q in queries if q.final]
    n_queries = max(1, len(queries))
    events_total = sum(len(q.events) for q in queries)

    def spans(name: str) -> List[Any]:
        return tracer.named(name)

    def arg_sum(name: str, key: str) -> float:
        return float(sum(s.args.get(key, 0) for s in spans(name)))

    m: Dict[str, Dict[str, float]] = _client_metrics(workload, laps)

    # ------------------------------------------------------------- service
    journal = ("DurableSessionStore.add", "DurableSessionStore.update",
               "DurableSessionStore.record_window",
               "DurableSessionStore.remove", "wal.on_append", "wal.on_ack")
    wal_appends = sum(tracer.count(name) for name in journal)
    opens = spans("DurableSessionStore.__init__")
    starts = spans("ApproxQueryService.start")
    recovered = len(starts) > 1
    restart = starts[-1] if recovered else None
    replay_s = replay_rounds = 0.0
    if restart is not None:
        # Replay has caught up when the new generation appends its
        # first event; every round run before the crash is re-run.
        appended = [s.start for s in spans("EventLog.append")
                    if s.start > restart.end]
        replay_s = (min(appended) - restart.end) if appended else 0.0
        replay_rounds = sum(1 for s in spans("SessionManager.run_round")
                            if s.start < restart.start)
    queue_wait = [q.t_running - q.t_ack for q in queries
                  if q.t_running is not None]
    m.update({
        "service.submit_s": _value(tracer.busy("ServiceClient.submit")),
        "service.submit_calls": _value(tracer.count("ServiceClient.submit")),
        "service.queue_wait_s": _value(
            statistics.mean(queue_wait) if queue_wait else 0),
        "service.poll_calls": _value(len(traced.polls)),
        "service.poll_empty_share": _value(
            traced.empty_polls / max(1, len(traced.polls))),
        "service.events_total": _value(events_total),
        "service.events_per_query": _value(events_total / n_queries),
        "service.max_retained_events": _value(traced.max_retained),
        "service.transport_overhead_ratio": _ratio(base_wall, local.wall),
        "service.wal_overhead_ratio": _value(0) if in_memory is None
        else _ratio(base_wall, in_memory.wall),
        "service.wal_append_s": _value(
            sum(tracer.busy(name) for name in journal)),
        "service.wal_appends": _value(wal_appends),
        "service.wal_bytes": _value(traced.extra.get("wal_bytes", 0)),
        "service.wal_bytes_per_event": _value(
            traced.extra.get("wal_bytes", 0) / max(1, events_total)),
        "service.wal_load_s": _value(opens[-1].busy if recovered else 0),
        "service.recover_start_s": _value(restart.busy if recovered else 0),
        "service.replay_rounds": _value(replay_rounds),
        "service.replay_s": _value(replay_s),
    })

    # ----------------------------------------------------------- scheduler
    self_of = tracer.self_times()
    rounds = (tracer.count("SessionManager.run_round")
              + arg_sum("GroupedEarlSession.stream", "items")
              + arg_sum("EarlSession.stream", "items"))
    demanded = arg_sum("allocate_budget", "demanded")
    granted = arg_sum("allocate_budget", "granted")
    m.update({
        "scheduler.rounds": _value(rounds),
        "scheduler.self_s": _value(
            sum(self_of[s.id] for s in spans("QueryScheduler.stream"))),
        "scheduler.allocate_s": _value(tracer.busy("allocate_budget")),
        "scheduler.rows_demanded": _value(demanded),
        "scheduler.rows_granted": _value(granted),
        "scheduler.grant_ratio": _ratio(granted, demanded),
    })

    # ----------------------------------------------------------- streaming
    consumed: Dict[int, int] = {}
    for span in spans("SessionManager.run_round"):
        consumed[span.args["manager"]] = span.args["consumed"]
    m.update({
        "streaming.prepare_s": _value(tracer.busy("SessionManager.prepare")),
        "streaming.run_round_s": _value(
            tracer.busy("SessionManager.run_round")),
        "streaming.rounds": _value(tracer.count("SessionManager.run_round")),
        "streaming.rows_consumed": _value(sum(consumed.values())),
    })

    # ---------------------------------------------------------------- core
    depth = [f.get("iteration", f.get("round", 0)) for f in finals]
    sample = [f.get("sample_size", f.get("rows_processed", 0))
              for f in finals]
    fallbacks = sum(1 for f in finals if f.get("iteration") == 0) + sum(
        1 for f in finals for by_agg in f.get("groups", {}).values()
        for entry in by_agg.values() if entry["used_fallback"])
    m.update({
        "core.engine_direct_s": _value(direct_s),
        "core.grouped_stream_s": _value(
            tracer.busy("GroupedEarlSession.stream")),
        "core.job_stream_s": _value(tracer.busy("EarlJob.stream")),
        "core.rounds_to_sigma": _value(statistics.mean(depth)),
        "core.bootstraps_B": _value(
            statistics.mean([r.B for r in direct if not r.used_fallback]
                            or [0])),
        "core.final_sample_n": _value(statistics.mean(sample)),
        "core.exact_fallbacks": _value(fallbacks),
    })

    # ------------------------------------------------------------ sampling
    m.update({
        "sampling.stratified_build_s": _value(
            tracer.busy("StratifiedSampler.__init__")),
        "sampling.stratified_take_s": _value(
            tracer.busy("StratifiedSampler.take")),
        "sampling.premap_read_s": _value(tracer.busy("PreMapSampler.read")),
        "sampling.rows_drawn": _value(
            arg_sum("StratifiedSampler.take", "rows")
            + arg_sum("PreMapSampler.read", "items")),
    })

    # ---------------------------------------------------------------- exec
    maps = spans("Executor.map")
    map_tasks = arg_sum("Executor.map", "tasks")
    serial_sigma = None if twin_lap is None else quartiles(
        [to_sigma_s(q) for q in twin_lap.queries])["value"]
    procs_sigma = statistics.median(
        statistics.mean(to_sigma_s(q) for q in lap.queries) for lap in laps)
    m.update({
        "exec.map_calls": _value(len(maps)),
        "exec.map_tasks": _value(map_tasks),
        "exec.tasks_per_map": _value(map_tasks / max(1, len(maps))),
        "exec.map_busy_s": _value(tracer.busy("Executor.map")),
        "exec.broadcast_calls": _value(tracer.count("Executor.broadcast")),
        "exec.broadcast_s": _value(tracer.busy("Executor.broadcast")),
        "exec.pool_start_s": _value(_pool_start_s(workload)),
        "exec.procs_over_serial_ratio": _ratio(procs_sigma, serial_sigma)
        if serial_sigma else _value(0),
        "exec.live_pools_at_end": _value(len(live_pool_executors())),
    })

    # ----------------------------------------------------------- mapreduce
    m.update({
        "mapreduce.jobs": _value(tracer.count("JobClient.run")),
        "mapreduce.run_s": _value(tracer.busy("JobClient.run")),
        "mapreduce.map_tasks": _value(arg_sum("JobClient.run", "map_tasks")),
        "mapreduce.reduce_tasks": _value(
            arg_sum("JobClient.run", "reduce_tasks")),
        "mapreduce.task_retries": _value(
            arg_sum("JobClient.run", "task_retries")),
    })

    # ---------------------------------------------------------------- hdfs
    reads = ("LineRecordReader.read_records", "HDFS.read_lines",
             "HDFS.read_range", "read_numeric_column")
    hits, builds = hits1 - hits0, builds1 - builds0
    m.update({
        "hdfs.read_s": _value(sum(tracer.busy(name) for name in reads)),
        "hdfs.records_decoded": _value(
            arg_sum("JobClient.run", "input_records")),
        "hdfs.split_index_build_s": _value(tracer.busy("build_split_index")),
        "hdfs.split_cache_hits": _value(hits),
        "hdfs.split_cache_misses": _value(builds),
        "hdfs.split_cache_hit_rate": _ratio(hits, hits + builds),
    })

    # ------------------------------------------------------------- cluster
    by_tag = {q.tag: q for q in queries}
    early, exact = by_tag.get("early.mean"), by_tag.get("exact.mean")
    if early is not None and exact is not None:
        sim_early = early.final["cost_total_seconds"]
        sim_exact = exact.final["cost_total_seconds"]
        m.update({
            "cluster.sim_cost_s": _value(
                sum(f["cost_total_seconds"] for f in finals)),
            "cluster.sim_speedup_vs_exact": _ratio(sim_exact, sim_early),
            "cluster.speedup_vs_exact": _ratio(
                statistics.median(to_sigma_s(q) for lap in laps
                                  for q in lap.queries
                                  if q.tag == "exact.mean"),
                statistics.median(to_sigma_s(q) for lap in laps
                                  for q in lap.queries
                                  if q.tag == "early.mean")),
        })
    else:
        for name in ("sim_cost_s", "sim_speedup_vs_exact",
                     "speedup_vs_exact"):
            m[f"cluster.{name}"] = _value(0)

    # ------------------------------------------------- shares and overhead
    for layer in ("service", "scheduler", "streaming", "core", "sampling",
                  "mapreduce", "hdfs"):
        m[f"{layer}.self_share"] = _ratio(own[layer], wall)
    m["obs.tracing_overhead_ratio"] = _ratio(wall, base_wall)
    return m, traced
