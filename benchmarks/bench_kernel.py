"""Kernel throughput: vectorized vs scalar resampling/delta maintenance.

EARL's §4.1 argument is that maintaining resamples across sample
expansions costs O(|Δs|) per resample — but the constant matters.  This
benchmark measures ``initialize`` and ``expand`` throughput (items/sec)
of the NumPy batch kernel (``ResampleSet``) against the item-at-a-time
scalar reference (``ReferenceResampleSet`` from
``tests/delta_reference.py``, the test suite's oracle) at
n ∈ {10⁴, 10⁵, 10⁶}, for the naive and the optimized maintainer over
simulated storage (a bound ``CostLedger`` — the optimized one goes
through §4.1's sketches, what these two rows have always measured) and
for the optimized maintainer over a memory-resident sample (``resident``
— no ledger, direct index draws, no sketch; the path the in-memory
engines run), which is also measured at n ∈ {100, 1,000}: the stages the
service actually runs hold 16–32k rows.  On the ``naive`` and
``optimized`` rows both kernels consume the identical random stream
(same drawn items, same counters — see ``tests/core/test_delta.py``),
so the ratio is a pure constant-factor comparison.  The ``resident`` row
does not share a stream with its reference: the batch kernel there is
the dense ``(B × n)`` array, the reference an item-at-a-time resident
access (Gaussian ``k``, direct indexing) — two draws from one law (the
KS gate of ``tests/core/test_delta.py``), compared in throughput.
``expand`` is timed through the read of the ``B`` estimates that ends
every round: the dense rows keep no estimator state, so their statistic
is evaluated there, and a stage is not done before it is.

Outputs machine-readable ``BENCH_kernel.json``; the committed copy at
``benchmarks/BENCH_kernel.json`` is the baseline the CI regression gate
(``tools/check_bench_regression.py``) compares fresh runs against.
Because raw items/sec is machine-dependent, the stable quantity — and
the gated one — is the vectorized/scalar *speedup* ratio.

Run standalone::

    python benchmarks/bench_kernel.py --smoke --out benchmarks/results/BENCH_kernel.json

or through pytest (``make bench`` / ``make bench-json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.cluster.costmodel import CostLedger  # noqa: E402
from repro.core.delta import (  # noqa: E402 (path bootstrap above)
    MAINTENANCE_NAIVE,
    MAINTENANCE_OPTIMIZED,
    ResampleSet,
)
from delta_reference import ReferenceResampleSet  # noqa: E402

#: Full sweep (the committed baseline) and the CI smoke subset.
FULL_SIZES = (100, 1_000, 10_000, 100_000, 1_000_000)
SMOKE_SIZES = (100, 1_000, 10_000, 100_000)
#: Below this only the ``resident`` row is measured: the in-memory
#: engines are what runs stages that small.
RESIDENT_ONLY_BELOW = 10_000
#: Resamples per size — smaller B at large n keeps the scalar reference
#: runnable while items/sec (= B·n / seconds) stays comparable.
B_FOR_SIZE = {100: 20, 1_000: 20, 10_000: 20, 100_000: 10, 1_000_000: 5}
#: The acceptance gate: vectorized expand must be >= 10x scalar here.
ASSERT_AT_N = 100_000
MIN_EXPAND_SPEEDUP = 10.0
SEED = 7
#: Row label -> (maintenance mode, whether a cost ledger is bound).
MODES = {"naive": (MAINTENANCE_NAIVE, True),
         "optimized": (MAINTENANCE_OPTIMIZED, True),
         "resident": (MAINTENANCE_OPTIMIZED, False)}


def _time_once(mode: str, vectorized: bool, data: np.ndarray, n: int,
               B: int) -> Dict[str, float]:
    """One initialize(n) + expand(Δ = n) run (the latter through the
    read of its estimates); returns stage seconds."""
    maintenance, ledger_bound = MODES[mode]
    make = ResampleSet if vectorized else ReferenceResampleSet
    rs = make("mean", B, maintenance=maintenance, seed=SEED,
              ledger=CostLedger() if ledger_bound else None)
    t0 = time.perf_counter()
    rs.initialize(data[:n])
    t1 = time.perf_counter()
    rs.expand(data[n:])
    rs.estimates()
    t2 = time.perf_counter()
    return {"initialize": t1 - t0, "expand": t2 - t1}


def _best_of(mode: str, vectorized: bool, data: np.ndarray, n: int, B: int,
             repeats: int) -> Dict[str, float]:
    best = {"initialize": float("inf"), "expand": float("inf")}
    for _ in range(repeats):
        run = _time_once(mode, vectorized, data, n, B)
        for stage in best:
            best[stage] = min(best[stage], run[stage])
    return best


def run_kernel_bench(sizes: Sequence[int], *,
                     repeats: int = 3) -> List[Dict[str, object]]:
    """Measure every (n, maintainer) combination; returns result rows.

    Best of three by default: the reports feed the CI regression gate,
    and a process's first 10-100 MB arrays are timed on cold pages."""
    rows: List[Dict[str, object]] = []
    for n in sizes:
        B = B_FOR_SIZE.get(n, max(3, 1_000_000 // max(n, 1)))
        # delta == n: the sample doubles, the regime Fig. 10 measures.
        data = np.random.default_rng(0).lognormal(3.0, 1.0, 2 * n)
        # A sub-millisecond stage needs many runs for a stable best-of;
        # at 10⁶ two, because the first touch of ~100 MB of fresh pages
        # can cost seconds on a small VM and would be the whole reading.
        reps = 2 if n >= 1_000_000 else repeats * max(1, 10_000 // n)
        for mode in MODES:
            if n < RESIDENT_ONLY_BELOW and mode != "resident":
                continue
            # Identical best-of protocol for both kernels — the gated
            # ratio must not owe anything to asymmetric measurement.
            scalar = _best_of(mode, False, data, n, B, reps)
            vector = _best_of(mode, True, data, n, B, reps)
            row: Dict[str, object] = {"n": n, "B": B, "mode": mode}
            for stage in ("initialize", "expand"):
                items = B * n
                s_tp = items / scalar[stage]
                v_tp = items / vector[stage]
                row[stage] = {
                    "scalar_items_per_s": round(s_tp),
                    "vectorized_items_per_s": round(v_tp),
                    "speedup": round(v_tp / s_tp, 2),
                }
            rows.append(row)
    return rows


def check_speedups(rows: List[Dict[str, object]],
                   *, min_speedup: float = MIN_EXPAND_SPEEDUP,
                   at_n: int = ASSERT_AT_N) -> None:
    """The headline claim: >= ``min_speedup``x expand throughput for
    every vectorized maintainer at ``at_n``."""
    gated = [row for row in rows if row["n"] == at_n]
    assert gated, f"no measurements at n={at_n}"
    for row in gated:
        speedup = row["expand"]["speedup"]
        assert speedup >= min_speedup, (
            f"{row['mode']} maintainer: vectorized expand only "
            f"{speedup:.1f}x scalar at n={at_n} (need >= {min_speedup}x)")


def write_json(rows: List[Dict[str, object]], out: Path, *,
               smoke: bool) -> None:
    payload = {
        "benchmark": "kernel_throughput",
        "statistic": "mean",
        "seed": SEED,
        "smoke": smoke,
        "delta": "equal to n (sample doubles per expand)",
        "units": "items/sec where items = B * n state additions",
        "results": rows,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")


class TestKernelThroughput:
    """Pytest entry point (``make bench``): smoke sizes, same gate."""

    def test_vectorized_expand_speedup(self, benchmark, series_report):
        rows = benchmark.pedantic(
            lambda: run_kernel_bench(SMOKE_SIZES), rounds=1, iterations=1)
        series_report(
            "kernel_throughput",
            "Vectorized kernel: initialize/expand items per second",
            ["n", "B", "mode", "init_scalar", "init_vec", "init_x",
             "expand_scalar", "expand_vec", "expand_x"],
            [(r["n"], r["B"], r["mode"],
              r["initialize"]["scalar_items_per_s"],
              r["initialize"]["vectorized_items_per_s"],
              r["initialize"]["speedup"],
              r["expand"]["scalar_items_per_s"],
              r["expand"]["vectorized_items_per_s"],
              r["expand"]["speedup"]) for r in rows],
            notes="naive/optimized: same random stream both kernels; "
                  "resident: same law; speedup is the machine-"
                  "independent quantity (see BENCH_kernel.json)")
        write_json(rows, Path(__file__).parent / "results"
                   / "BENCH_kernel.json", smoke=True)
        check_speedups(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"sizes {SMOKE_SIZES} instead of {FULL_SIZES}")
    parser.add_argument("--sizes", type=int, nargs="*",
                        help="explicit n values (overrides --smoke)")
    parser.add_argument("--out", type=Path,
                        default=Path("benchmarks/results/BENCH_kernel.json"),
                        help="where to write the JSON report")
    parser.add_argument("--no-assert", action="store_true",
                        help="measure and report only; skip the >=10x gate")
    args = parser.parse_args(argv)

    sizes = tuple(args.sizes) if args.sizes \
        else (SMOKE_SIZES if args.smoke else FULL_SIZES)
    rows = run_kernel_bench(sizes)
    write_json(rows, args.out, smoke=sizes != FULL_SIZES)
    for row in rows:
        print(f"n={row['n']:>9,}  B={row['B']:>3}  {row['mode']:<9} "
              f"init {row['initialize']['speedup']:>6.1f}x  "
              f"expand {row['expand']['speedup']:>6.1f}x  "
              f"({row['expand']['vectorized_items_per_s'] / 1e6:.1f}M items/s)")
    print(f"wrote {args.out}")
    if not args.no_assert and any(r["n"] == ASSERT_AT_N for r in rows):
        check_speedups(rows)
        print(f"speedup gate OK (>= {MIN_EXPAND_SPEEDUP}x expand at "
              f"n={ASSERT_AT_N:,})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
