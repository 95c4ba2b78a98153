"""One measurement of ``bench_e2e``: set-up, warm-up lap, timed laps,
checks — and, with tracing, the per-layer pass of :mod:`layers`.

Importing this module pins what has to be pinned before numpy loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

# One BLAS thread (set before numpy loads; pool workers inherit it).
# OpenBLAS's own thread pool spins next to the engine's runner thread
# on this 2-core box: laps of identical work then differ by ±30 % and
# run ~20 % slower than with the pool off.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402 (after the BLAS pin and the path set-up)

import harness  # noqa: E402
import layers  # noqa: E402
from harness import (  # noqa: E402
    first_snapshot_s,
    lap_mean,
    quartiles,
    run_lap,
    to_sigma_s,
)
from workloads import WORKLOADS  # noqa: E402

#: Never fewer timed laps than this, whatever ``--seconds`` says.
MIN_LAPS = 5
#: Untraced laps of a ``--trace 1`` run: the base of the overhead
#: ratios and the samples of the ``client.*`` metrics.
TRACE_BASE_LAPS = 3


def _pin_allocator() -> None:
    """Keep freed array memory inside the process (glibc only).

    On the sandbox VM freed pages are handed back to the host, and the
    next lap pays for faulting them in again — in phases that last
    seconds and double a lap's wall-clock.  Raising malloc's mmap and
    trim thresholds takes numpy's large arrays out of that lottery;
    what remains (pymalloc arenas) is absorbed by reporting medians.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    mallopt(m_mmap_threshold, 1 << 30)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_top_pad, 1 << 26)


def _pin_one_cpu() -> None:
    """Run this process, and the workers it forks, on one CPU.

    The service is one GIL-bound process: on the 2-vCPU box its loop
    and runner threads otherwise share a vCPU in some runs and not in
    others, and cross-vCPU wake-ups make a control-plane lap bimodal
    (99 vs 209 sessions/s at one seed).  ``grouped_procs`` is pinned
    with the rest: how much of a *second* vCPU the shared host grants
    drifts over tens of minutes (medians of ten runs: 0.57, 0.59, 0.63,
    0.69 s unpinned against 0.79, 0.82, 0.83 s pinned), and what the
    workload is there for — the executor's own cost: pickling,
    dispatch, many tiny tasks — shows on one CPU undiluted.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _check_laps(workload: Any, laps: Sequence[Any],
                reference: Dict[str, List[str]],
                twin: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run every correctness check; returns counts and the first few
    failure messages."""
    attempted, failures = 0, []
    for index, lap in enumerate(laps):
        for query in lap.queries:
            attempted += 1
            problem = workload.check(query)
            if problem is None and query.events != reference[query.tag]:
                problem = "event stream differs from the reference lap"
            if problem is None and twin is not None \
                    and query.final != twin[query.tag]:
                problem = "final differs from the serial executor's"
            if problem is not None:
                failures.append(f"lap {index} {query.tag}: {problem}")
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures[:10]}


def measure(name: str, seed: int, seconds: float, trace: bool,
            trace_dir: Path) -> Dict[str, Any]:
    """Measure one workload once; returns the report document."""
    workload = WORKLOADS[name]
    _pin_allocator()
    _pin_one_cpu()
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": workload.sizes,
        "config": workload.config, "fsync": harness.FSYNC,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": _commit(),
    }

    build_s: List[float] = []

    def build() -> Dict[str, Any]:
        t0 = time.perf_counter()
        built = workload.build(seed)
        build_s.append(time.perf_counter() - t0)
        return built

    inputs = build()
    workload.truths(inputs)

    # Lap 0 warms caches, imports and pools, and supplies the reference
    # streams (for crash_resume: the uninterrupted run).
    warm = run_lap(workload, inputs, seed,
                   script=getattr(workload, "uninterrupted", None))
    reference = {q.tag: q.events for q in warm.queries}
    # The serial twin grouped_procs must reproduce, byte for byte.
    twin_lap = None
    if hasattr(workload, "serial_config"):
        twin_lap = run_lap(workload, inputs, seed,
                           config=workload.serial_config)
    twin = None if twin_lap is None else \
        {q.tag: q.final for q in twin_lap.queries}

    laps = []
    budget = seconds * (0.4 if trace else 1.0)
    floor = TRACE_BASE_LAPS if trace else MIN_LAPS
    started = time.perf_counter()
    while len(laps) < floor or time.perf_counter() - started < budget:
        if not trace:
            # Set-up is repeated before every lap, not five times in
            # the run's first fraction of a second: the host's speed
            # changes by the second, and ``setup_s`` would report the
            # speed of that one moment.
            build()
        laps.append(run_lap(workload, inputs, seed))
    report["laps"] = len(laps)

    checked = [warm, *laps]
    if trace:
        metrics, traced = layers.measure(
            workload, inputs, seed, laps, warm, twin_lap, trace_dir)
        checked.append(traced)
    else:
        metrics = _end_to_end(laps, build_s)
    report.update(_check_laps(workload, checked, reference, twin))
    report["metrics"] = metrics
    return report


def _fast_quartile(values: Sequence[float], better: str) -> Dict[str, float]:
    """The quartile on a per-lap series' fast side, as its value.

    The sandbox host's noise has one sign: spells of 20-40 % *slower*
    that last from seconds to a minute.  A spell that covers half of
    a run's laps moves their median and leaves their fast quartile
    where it was (ten seeds of ``stats_shared_scan`` in such a
    quarter of an hour: 21 % between the quartiles of the medians,
    6 % of the fast quartiles); a change to the code moves every lap,
    and both.  The median stays in the report.
    """
    doc = quartiles(values)
    doc["median"] = doc["value"]
    doc["value"] = doc["q1" if better == "lower" else "q3"]
    return doc


def _end_to_end(laps: Sequence[Any], build_s: Sequence[float]
                ) -> Dict[str, Dict[str, float]]:
    startup = quartiles([lap.startup[0] for lap in laps])
    build = quartiles(build_s)
    return {
        "setup_s": {"value": build["value"] + startup["value"],
                    "build": build, "lap_startup": startup},
        "time_to_first_snapshot_s": _fast_quartile(
            [lap_mean(lap, first_snapshot_s) for lap in laps], "lower"),
        "time_to_sigma_s": _fast_quartile(
            [lap_mean(lap, to_sigma_s) for lap in laps], "lower"),
        "queries_per_s": _fast_quartile(
            [sum(q.state == "done" for q in lap.queries) / lap.wall
             for lap in laps], "higher"),
    }


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None
