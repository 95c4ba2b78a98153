"""Alternating parent/change pairs of the end-to-end benchmark.

Usage::

    python tools/bench_pairs.py --parent REV --workload NAME[,NAME...]|all
        [--pairs 10] [--seed-base N] [--seconds S] [--out pairs.json]
    make bench-pairs PARENT=<rev> WORKLOAD=<name>[,<name>...]|all N=10

The protocol every performance PR here has to follow (and PRs 13-15
each hand-rolled): the committed files of ``REV`` are exported into
``benchmarks/results/pairs/<sha>/`` (``git archive`` — a plain
directory, nothing to clean up in ``.git``), then the command of
``BENCHMARK.json`` is run on that export and on this checkout in
alternation — the side that goes first flips every pair, each pair
gets a seed of its own and both sides of a pair share it.  Per
end-to-end metric it prints each side's median and quartiles, the
pairs the change won (ties count for neither) and a verdict:

* ``gain`` — the change won at least nine tenths of the pairs *and* the
  medians are further apart than the parent's own inter-quartile
  distance;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the parent's quartiles are wider apart than that
  bound allows, and not every run of the change beat every run of the
  parent: the runs cannot tell;
* ``same`` — none of the above.

``--workload`` takes one name, a comma list or ``all`` (every workload
of ``BENCHMARK.json``, in its order): the parent is exported once, the
workloads run in turn with the same seeds, each prints its own verdict
table, and the run ends with one Markdown table over all of them —
the block a CHANGES.md entry quotes.

A run that was not ``correct`` or had ``failed`` operations is reported
and makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: One run's end-to-end metrics: name -> value.
Metrics = Mapping[str, float]


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: Sequence[Tuple[Metrics, Metrics]],
              metrics: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """One row per end-to-end metric from ``(parent, change)`` pairs.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries
    (``name``, ``better``: ``"lower"`` | ``"higher"``, ``bound``: the
    fraction by which the metric may worsen).  See the module docstring
    for the verdicts.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]

        def beats(a: float, b: float) -> bool:
            return a < b if lower else a > b

        p_q1, p_med, p_q3 = _quartiles(parent)
        c_q1, c_med, c_q3 = _quartiles(change)
        won = sum(beats(c, p) for p, c in zip(parent, change))
        better_by = p_med - c_med if lower else c_med - p_med
        spread = p_q3 - p_q1
        allowed = metric["bound"] * abs(p_med)
        if won >= 0.9 * len(pairs) and better_by > spread:
            verdict = "gain"
        elif -better_by > allowed:
            verdict = "worse"
        elif spread > allowed and not all(
                beats(c, p) for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append({
            "metric": name, "unit": metric.get("unit", ""),
            "better": metric["better"], "pairs": len(pairs),
            "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "change_over_parent": c_med / p_med if p_med else float("nan"),
            "won": won,
            "lost": sum(beats(p, c) for p, c in zip(parent, change)),
            "verdict": verdict,
        })
    return rows


def _side(row: Mapping[str, Any], prefix: str, dash: str = "-") -> str:
    return (f"{row[prefix + '_median']:.4g} "
            f"({row[prefix + '_q1']:.4g}{dash}{row[prefix + '_q3']:.4g})")


def render(rows: Sequence[Mapping[str, Any]]) -> str:
    lines = [f"{'metric':<26} {'parent med (q1-q3)':<30} "
             f"{'change med (q1-q3)':<30} {'c/p':>6} {'won':>7}  verdict"]
    for row in rows:
        lines.append(
            f"{row['metric']:<26} {_side(row, 'parent'):<30} "
            f"{_side(row, 'change'):<30} "
            f"{row['change_over_parent']:>6.3f} "
            f"{row['won']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return "\n".join(lines)


def markdown(tables: Mapping[str, Sequence[Mapping[str, Any]]]) -> str:
    """One Markdown table over the summaries of several workloads
    (``workload -> summarize() rows``), a row per workload and metric."""
    lines = ["| workload | metric | parent med (q1–q3) | change med (q1–q3) "
             "| c/p | won | verdict |",
             "|---|---|---|---|---|---|---|"]
    for workload, rows in tables.items():
        for row in rows:
            lines.append(
                f"| {workload} | {row['metric']} | "
                f"{_side(row, 'parent', '–')} | {_side(row, 'change', '–')} "
                f"| {row['change_over_parent']:.3f} | "
                f"{row['won']}/{row['pairs']} | {row['verdict']} |")
    return "\n".join(lines)


def resolve_workloads(spec: str, manifest: Mapping[str, Any]) -> List[str]:
    """``--workload``: one name, a comma list, or ``all``."""
    known = [w["name"] for w in manifest["workloads"]]
    if spec == "all":
        return known
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if unknown or not names:
        raise ValueError(f"unknown workload(s) {unknown or spec!r}; "
                         f"known: {known}")
    return names


def export_parent(rev: str, root: Path = ROOT) -> Path:
    """The committed files of ``rev`` under ``benchmarks/results/pairs/``
    (exported once per commit)."""
    sha = subprocess.run(["git", "rev-parse", "--short=12", rev], cwd=root,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    target = root / "benchmarks" / "results" / "pairs" / sha
    if not target.exists():
        target.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=root,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(target)],
                       stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return target


def run_once(checkout: Path, command: Sequence[str], workload: str,
             seed: int, seconds: int) -> Dict[str, Any]:
    """One untraced benchmark run in ``checkout``; its result line."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(sides: Mapping[str, Path], manifest: Mapping[str, Any],
              workload: str, n_pairs: int, base: int, seconds: int
              ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], int]:
    """``n_pairs`` alternating pairs of one workload: every run, the
    per-metric summary, and how many runs were incorrect or failed."""
    runs: List[Dict[str, Any]] = []
    pairs: List[Tuple[Metrics, Metrics]] = []
    bad = 0
    for i in range(n_pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            result[side] = run_once(sides[side], manifest["command"],
                                    workload, base + i, seconds)
            if not result[side]["correct"] or result[side]["failed"]:
                bad += 1
        values = {side: {name: m["value"]
                         for name, m in result[side]["metrics"].items()}
                  for side in order}
        pairs.append((values["parent"], values["change"]))
        runs.append({"seed": base + i, "first": order[0], **result})
        print(f"{workload} pair {i + 1}/{n_pairs} seed {base + i} "
              f"({order[0]} first): " + "  ".join(
                  f"{name} {values['parent'][name]:.4g}->"
                  f"{values['change'][name]:.4g}"
                  for name in values["parent"]), flush=True)
    rows = summarize(pairs, manifest["end_to_end"])
    print(f"\n{workload}: {n_pairs} pairs, seeds {base}.."
          f"{base + n_pairs - 1}, {seconds} s per run, "
          f"{bad} run(s) incorrect or with failures")
    print(render(rows) + "\n", flush=True)
    return runs, rows, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare this checkout with")
    parser.add_argument("--workload", required=True,
                        help="a BENCHMARK.json workload, a comma list of "
                             "them, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=None,
                        help="pair i runs with seed base+i on both sides "
                             "(default: from the clock, i.e. fresh)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run and the summaries as JSON")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        workloads = resolve_workloads(args.workload, manifest)
    except ValueError as exc:
        parser.error(str(exc))
    seconds = args.seconds or manifest["run_seconds"]
    base = (args.seed_base if args.seed_base is not None
            else int(time.time()) % 1_000_000)
    sides = {"parent": export_parent(args.parent), "change": ROOT}
    report: Dict[str, Dict[str, Any]] = {}
    bad = 0
    for workload in workloads:
        runs, rows, failed = run_pairs(sides, manifest, workload,
                                       args.pairs, base, seconds)
        report[workload] = {"runs": runs, "summary": rows}
        bad += failed
    print(f"{args.pairs} alternating pairs per workload against "
          f"{args.parent}, seeds {base}..{base + args.pairs - 1}:\n")
    print(markdown({name: entry["summary"]
                    for name, entry in report.items()}))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"parent": args.parent, "seconds": seconds, "seed_base": base,
             "workloads": report}, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
