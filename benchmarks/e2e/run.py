#!/usr/bin/env python3
"""bench_e2e: end-to-end latency of the approximate-query service, with
per-layer attribution.

Six fixed, seeded workloads are driven through ``ServiceClient`` over
TCP against a ``DurableSessionStore(fsync=False)``; every metric is
printed by name with its unit and every answer is checked.  README.md
(next to this file) defines the workloads and metrics.

One measurement (what the driver of ``BENCHMARK.json`` runs)::

    python3 benchmarks/e2e/run.py --workload stats_shared_scan \\
        --seed 1 --seconds 15 --trace 0

prints the end-to-end metrics (``--trace 1``: the per-layer metrics of
one extra traced lap) as one JSON object on the last line.  Without
``--trace`` every selected workload is measured both ways, each in a
process of its own, and the merged report goes to ``--out``::

    python3 benchmarks/e2e/run.py --seed 1 --out results/e2e.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = ROOT / "BENCHMARK.json"


def _load_manifest() -> Dict[str, Any]:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def _driver_line(report: Dict[str, Any], manifest: Dict[str, Any]) -> str:
    """The contract's last line: exactly the manifest's metrics."""
    wanted = manifest["per_layer" if report["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}
    return json.dumps({"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def _print_metrics(report: Dict[str, Any], manifest: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    print(f"# {report['workload']} seed={report['seed']} "
          f"laps={report['laps']} trace={int(report['trace'])} "
          f"fsync={report['fsync']}")
    for name, metric in report["metrics"].items():
        spread = ""
        if "q1" in metric:
            spread = (f"  [q1 {metric['q1']:.6g}, "
                      f"median {metric.get('median', metric['value']):.6g}, "
                      f"q3 {metric['q3']:.6g}, n={metric['n']}]")
        elif "percentile" in metric:
            spread = f"  [p{metric['percentile']:g}, n={metric['n']}]"
        print(f"{name:<36} {metric['value']:>14.6g} "
              f"{units.get(name, ''):<6}{spread}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


# ------------------------------------------------------------- full report

def _run_all(names: Sequence[str], seed: int, seconds: int, out: Path,
             trace_dir: Path) -> int:
    """Measure each workload twice (untraced, traced), one process per
    measurement so peak RSS does not leak across workloads."""
    merged: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                              "workloads": {}}
    status = 0
    tmp = out.with_suffix(".part.json")
    for name in names:
        entry: Dict[str, Any] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--trace-dir", str(trace_dir),
                 "--out", str(tmp)])
            if proc.returncode != 0:
                status = 1
            if not tmp.exists():
                continue
            report = json.loads(tmp.read_text())
            tmp.unlink()
            section = "per_layer" if trace else "end_to_end"
            entry[section] = report.pop("metrics")
            failed = entry.get("failed", 0) + report["failed"]
            attempted = entry.get("attempted", 0) + report["attempted"]
            entry.update(report, failed=failed, attempted=attempted)
            entry["failed_share"] = failed / attempted
        merged["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out}")
    return status


# ----------------------------------------------------------------- compare

#: Per-layer metrics that must repeat exactly between two sets of runs
#: of one commit at one seed.
EXACT_COUNTS = ("client.sample_fraction", "cluster.sim_cost_s",
                "cluster.sim_speedup_vs_exact", "service.replay_rounds")
#: ``client.*`` timings are end-to-end metrics that only some workloads
#: have; they are compared at this bound.
CLIENT_BOUND = 0.25


def compare(path_a: Path, path_b: Path) -> int:
    """Print both reported values, the relative difference and the
    bound for every workload × end-to-end metric; non-zero exit when a
    pair disagrees beyond its bound."""
    manifest = _load_manifest()
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    rules = [(m["name"], "end_to_end", m["better"], m["bound"])
             for m in manifest["end_to_end"]]
    for m in manifest["per_layer"]:
        if m["name"] in EXACT_COUNTS:
            rules.append((m["name"], "per_layer", m["better"], 0.0))
        elif m["name"].startswith("client."):
            rules.append((m["name"], "per_layer", m["better"], CLIENT_BOUND))
    worse = 0
    print(f"{'workload':<18} {'metric':<32} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>6}")
    for name in sorted(set(a) & set(b)):
        for failed in (a[name]["failed"], b[name]["failed"]):
            if failed:
                print(f"{name:<18} failed_share is not 0 ({failed} failed)")
                worse += 1
        for metric, section, better, bound in rules:
            va = a[name].get(section, {}).get(metric, {}).get("value")
            vb = b[name].get(section, {}).get(metric, {}).get("value")
            if va is None or vb is None or (va == 0 and vb == 0):
                continue
            diff = (vb - va) / abs(va) if va else float("inf")
            if better == "higher":
                diff = -diff
            bad = diff > bound if bound else va != vb
            worse += bad
            print(f"{name:<18} {metric:<32} {va:>12.6g} {vb:>12.6g} "
                  f"{diff:>+8.1%} {bound:>6.0%}{'  WORSE' if bad else ''}")
    print(f"{worse} pair(s) disagree beyond their bound")
    return 1 if worse else 0


# -------------------------------------------------------------------- main

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed seconds per measurement "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "of one traced lap (single workload)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON report")
    parser.add_argument("--trace-dir", type=Path, default=HERE / "results",
                        help="where trace_<workload>.json goes")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two reports instead of measuring")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_e2e: {ROOT / 'src' / 'repro'} not found — run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    manifest = _load_manifest()
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    known = {w["name"] for w in manifest["workloads"]}
    if set(names) - known:
        parser.error(f"unknown workload(s) {sorted(set(names) - known)}; "
                     f"known: {sorted(known)}")
    seconds = args.seconds or manifest["run_seconds"]

    if args.trace is None:
        out = args.out or HERE / "results" / "e2e.json"
        return _run_all(names, args.seed, seconds, out, args.trace_dir)
    if len(names) != 1:
        parser.error("--trace measures exactly one --workload")

    from measure import measure   # pins BLAS threads, then loads numpy
    report = measure(names[0], args.seed, seconds, bool(args.trace),
                     args.trace_dir)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    _print_metrics(report, manifest)
    print(_driver_line(report, manifest))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
