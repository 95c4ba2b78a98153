"""CI gate: fail when a benchmark's speedup ratio regresses vs baseline.

Usage::

    python tools/check_bench_regression.py FRESH.json BASELINE.json \
        [--tolerance 0.2] [--min-n 100000] [--stages expand,...]
    python tools/check_bench_regression.py --manifest benchmarks/bench_gates.json

Compares a fresh benchmark report against its committed baseline
(``benchmarks/BENCH_kernel.json``, ``benchmarks/BENCH_ingest.json``).
With ``--manifest`` (what ``make bench-json`` runs) it does that for
every gated benchmark: the manifest is a JSON list of ``{"name",
"script", "stages"}``; each script is run at its smoke size
(``--smoke --no-assert``) into ``benchmarks/results/BENCH_<name>.json``
and gated against ``benchmarks/BENCH_<name>.json``.  A failing gate
does not stop the ones after it; the exit status is non-zero if any
benchmark failed to run or regressed.
Raw items/sec is machine-dependent — CI runners are not the laptop that
produced the baseline — so the gated quantity is the fast/reference
*speedup* ratio, which largely divides the machine out.

Both report schemas share one shape: ``payload["results"]`` is a list
of rows keyed by ``(n, mode)``, where each stage of a row is a dict
containing a ``"speedup"`` entry (``initialize``/``expand`` for the
kernel benchmark, ``throughput`` for the ingest benchmark).  The gate
fails when, for any ``(n, mode, stage)`` present in both reports with
``n >= --min-n`` (default 100 000), the fresh speedup falls more than
``tolerance`` (default 20%) below the baseline's.  Smaller sizes are
reported but not gated: their ratios are dominated by fixed overheads
(sketch-reload RNG, cold index builds) that do not scale uniformly
across machines and carry no stable regression signal.

``--stages`` restricts gating to a comma-separated list of stage names
(default: every stage found); the kernel gate passes ``expand`` to keep
its historical single-stage contract.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_rows(path: Path) -> Dict[Tuple[int, str], dict]:
    payload = json.loads(path.read_text())
    return {(row["n"], row["mode"]): row for row in payload["results"]}


def stages_of(row: dict) -> List[str]:
    """Stage names of a result row: its dict-valued speedup entries."""
    return sorted(k for k, v in row.items()
                  if isinstance(v, dict) and "speedup" in v)


def check(fresh_path: Path, baseline_path: Path, tolerance: float,
          min_n: int, only_stages: Optional[str]) -> int:
    """Gate one fresh report against its baseline (0 ok, 1 regressed,
    2 nothing comparable)."""
    fresh = load_rows(fresh_path)
    baseline = load_rows(baseline_path)
    only = set(only_stages.split(",")) if only_stages else None
    shared = sorted(set(fresh) & set(baseline))
    gated_keys = [key for key in shared if key[0] >= min_n]
    if not gated_keys:
        print(f"error: no shared (n, mode) pairs with n >= {min_n}",
              file=sys.stderr)
        return 2

    failures = []
    checked = 0
    for key in shared:
        n, mode = key
        stages = [s for s in stages_of(fresh[key])
                  if s in stages_of(baseline[key])
                  and (only is None or s in only)]
        for stage in stages:
            got = fresh[key][stage]["speedup"]
            want = baseline[key][stage]["speedup"]
            floor = (1.0 - tolerance) * want
            if key not in gated_keys:
                status = "info (below --min-n, not gated)"
            elif got >= floor:
                status = "ok"
                checked += 1
            else:
                status = "REGRESSED"
                failures.append((n, mode, stage))
                checked += 1
            print(f"n={n:>9,}  {mode:<9}  {stage:<10} speedup {got:6.1f}x "
                  f"(baseline {want:.1f}x, floor {floor:.1f}x)  {status}")

    if not checked:
        print("error: no gated stages shared between the reports",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\nFAIL: speedup regressed >{tolerance:.0%} vs "
              f"baseline for {failures}", file=sys.stderr)
        return 1
    print(f"\nOK: no speedup regression beyond {tolerance:.0%} "
          f"on {checked} gated measurement(s)")
    return 0


def run_manifest(manifest: Path, tolerance: float, min_n: int,
                 root: Path = ROOT) -> int:
    """Run and gate every benchmark of ``manifest`` (paths relative to
    ``root``); report them all."""
    verdicts = {}
    for entry in json.loads(manifest.read_text()):
        name = entry["name"]
        fresh = root / "benchmarks" / "results" / f"BENCH_{name}.json"
        baseline = root / "benchmarks" / f"BENCH_{name}.json"
        print(f"== {name}: {entry['script']}", flush=True)
        ran = subprocess.run(
            [sys.executable, str(root / entry["script"]), "--smoke",
             "--no-assert", "--out", str(fresh)], cwd=root)
        if ran.returncode != 0:
            verdicts[name] = f"benchmark exited {ran.returncode}"
            continue
        status = check(fresh, baseline, tolerance, min_n, entry["stages"])
        verdicts[name] = "ok" if status == 0 else "gate failed"
    print()
    for name, verdict in verdicts.items():
        print(f"{name:<12} {verdict}")
    return 0 if all(v == "ok" for v in verdicts.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, nargs="?",
                        help="just-measured report")
    parser.add_argument("baseline", type=Path, nargs="?",
                        help="committed baseline")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="run and gate every benchmark listed in "
                             "this JSON file instead of one report pair")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional speedup drop (default 0.2)")
    parser.add_argument("--min-n", type=int, default=100_000,
                        help="gate only sizes >= this n (smaller sizes "
                             "are informational; default 100000)")
    parser.add_argument("--stages", type=str, default=None,
                        help="comma-separated stage names to gate "
                             "(default: every stage present in both "
                             "reports)")
    args = parser.parse_args(argv)
    if args.manifest is not None:
        if args.fresh is not None or args.stages is not None:
            parser.error("--manifest takes no report pair and no --stages")
        return run_manifest(args.manifest, args.tolerance, args.min_n)
    if args.fresh is None or args.baseline is None:
        parser.error("give FRESH.json BASELINE.json, or --manifest")
    return check(args.fresh, args.baseline, args.tolerance, args.min_n,
                 args.stages)


if __name__ == "__main__":
    sys.exit(main())
