"""Telemetry overhead on the hot resample loop: enabled vs disabled.

The zero-perturbation contract (DESIGN.md §12) has a quantitative
half: with telemetry *enabled*, the per-round span + counter work must
stay within a fixed cost per engine round.  This benchmark drives the
most telemetry-dense path — an :class:`repro.core.EarlSession` pinned to
a fixed number of expansion rounds (an unreachable sigma with a hard
iteration cap), so each timing sample performs an identical, seed-
deterministic sequence of resample rounds — with telemetry off and on,
and gates what telemetry adds to one round, in microseconds.

The gate is absolute on purpose: telemetry's cost per round does not
scale with the loop around it, so a ratio to the loop's wall time moves
whenever the kernel gets faster (it read 1.06x once the loop had shrunk
from 0.72 s to 0.05 s per sample, against a 1.10x budget).  The two
sides are timed alternately (off, on, off, on, …) so a slow spell of
the host lands on both, and each side keeps its best of R samples.  The
benchmark re-asserts the byte-identity half of the contract on the way:
the enabled run must produce exactly the same estimate, sample size
and iteration count as the disabled run.

* ``telemetry`` (gated) — ``per_round_us`` is ``(enabled − disabled) /
  rounds`` in µs; the acceptance gate is ``per_round_us <=
  BUDGET_US``.  ``speedup`` is the budget over that cost, capped at 1
  (1.0 = within budget), which is what the CI regression gate compares.
  The ratio ``overhead`` is reported, not gated.

Outputs ``BENCH_telemetry.json``; the committed baseline at
``benchmarks/BENCH_telemetry.json`` is what the CI regression gate
(``tools/check_bench_regression.py --stages telemetry``) compares
fresh runs against.

Run standalone::

    python benchmarks/bench_telemetry.py \
        --out benchmarks/results/BENCH_telemetry.json

or through pytest (``make bench`` / ``make bench-json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import EarlConfig, EarlSession  # noqa: E402
from repro.obs import (  # noqa: E402
    REGISTRY,
    disable_telemetry,
    enable_telemetry,
    reset_telemetry,
)

import numpy as np  # noqa: E402

N = 200_000
SEED = 17
#: Unreachable bound + hard cap: every run performs exactly
#: ``ROUNDS`` expansion rounds, so enabled and disabled sides time an
#: identical instruction stream (modulo the telemetry under test).
ROUNDS = 15
CFG = dict(sigma=0.001, n_override=500, B_override=30,
           expansion_factor=1.3, max_iterations=ROUNDS)
#: Sessions per timing sample — amortises per-call noise.
SESSIONS_PER_SAMPLE = 4
#: Timing samples per side (``--smoke``: fewer).
REPEATS = 9
SMOKE_REPEATS = 5
#: The acceptance gate: what enabled telemetry may add to one round.
BUDGET_US = 150.0


def _data(n: int) -> np.ndarray:
    return np.random.default_rng(SEED).lognormal(1.0, 0.7, n)


def _run_sessions(data: np.ndarray):
    """One timing sample: a fixed batch of fixed-round sessions."""
    results = []
    for k in range(SESSIONS_PER_SAMPLE):
        cfg = EarlConfig(seed=SEED + 1 + k, **CFG)
        results.append(EarlSession(data, "mean", config=cfg).run())
    return results


def _timed(data: np.ndarray):
    """Wall time of one sample, and its results."""
    t0 = time.perf_counter()
    results = _run_sessions(data)
    return time.perf_counter() - t0, results


def telemetry_overhead(n: int, repeats: int) -> Dict[str, object]:
    data = _data(n)
    off_seconds = on_seconds = float("inf")
    try:
        disable_telemetry()
        reset_telemetry()
        _run_sessions(data)                       # warm-up (both paths)
        for _ in range(repeats):                  # off, on, off, on, …
            disable_telemetry()
            seconds, off_results = _timed(data)
            off_seconds = min(off_seconds, seconds)
            enable_telemetry()
            seconds, on_results = _timed(data)
            on_seconds = min(on_seconds, seconds)
        rounds_seen = REGISTRY.value("repro_engine_rounds_total",
                                     {"engine": "earl_session"})
    finally:
        disable_telemetry()
        reset_telemetry()

    # Zero perturbation, re-asserted where the overhead is measured:
    # telemetry may cost time, never bytes.
    for off, on in zip(off_results, on_results):
        assert off.estimate == on.estimate, "telemetry changed a result"
        assert off.n == on.n
        assert off.num_iterations == on.num_iterations == ROUNDS

    rounds = ROUNDS * SESSIONS_PER_SAMPLE
    per_round_us = (on_seconds - off_seconds) / rounds * 1e6
    return {
        "disabled_seconds": round(off_seconds, 6),
        "enabled_seconds": round(on_seconds, 6),
        "rounds_per_side": rounds,
        "instrumented_rounds_seen": int(rounds_seen),
        "overhead": round(on_seconds / off_seconds, 4),
        "per_round_us": round(per_round_us, 2),
        "budget_us": BUDGET_US,
        "speedup": round(BUDGET_US / max(per_round_us, BUDGET_US), 4),
    }


def run_telemetry_bench(sizes: Sequence[int],
                        repeats: int) -> List[Dict[str, object]]:
    return [{"n": n, "mode": "hot-loop",
             "telemetry": telemetry_overhead(n, repeats)}
            for n in sizes]


def check_overhead(rows: List[Dict[str, object]], *,
                   budget_us: float = BUDGET_US) -> None:
    """The gate: enabled telemetry adds <= ``budget_us`` µs to one round
    of the hot resample loop."""
    for row in rows:
        per_round = row["telemetry"]["per_round_us"]
        assert per_round <= budget_us, (
            f"telemetry adds {per_round:.1f} µs per round, over the "
            f"{budget_us:.0f} µs budget at n={row['n']}")


def write_json(rows: List[Dict[str, object]], out: Path) -> None:
    payload = {
        "benchmark": "telemetry_overhead",
        "seed": SEED,
        "rounds": ROUNDS,
        "sessions_per_sample": SESSIONS_PER_SAMPLE,
        "protocol": ("best-of-R wall time for a fixed batch of fixed-"
                     "round EarlSessions, telemetry disabled and enabled "
                     "timed alternately; per_round_us = (enabled - "
                     "disabled) / rounds; gate: per_round_us <= "
                     f"{BUDGET_US:.0f}; speedup = budget / per_round_us, "
                     "capped at 1 (1.0 = within budget)"),
        "units": "seconds (per_round_us, budget_us: microseconds)",
        "results": rows,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")


class TestTelemetryOverhead:
    """Pytest entry point (``make bench``): same sizes, same gate."""

    def test_enabled_overhead_within_budget(self, benchmark,
                                            series_report):
        rows = benchmark.pedantic(
            lambda: run_telemetry_bench([N], repeats=REPEATS),
            rounds=1, iterations=1)
        series_report(
            "telemetry_overhead",
            "Telemetry overhead on the hot resample loop",
            ["n", "mode", "disabled_s", "enabled_s", "per_round_us"],
            [(r["n"], r["mode"],
              r["telemetry"]["disabled_seconds"],
              r["telemetry"]["enabled_seconds"],
              r["telemetry"]["per_round_us"]) for r in rows],
            notes=f"best-of-{REPEATS} wall time per side, timed "
                  "alternately over identical fixed-round sessions; "
                  "results byte-identical on both sides "
                  "(see BENCH_telemetry.json)")
        write_json(rows, Path(__file__).parent / "results"
                   / "BENCH_telemetry.json")
        check_overhead(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*",
                        help=f"explicit n values (default {N})")
    parser.add_argument("--smoke", action="store_true",
                        help=f"fewer timing repeats ({SMOKE_REPEATS} "
                             f"instead of {REPEATS})")
    parser.add_argument("--out", type=Path,
                        default=Path("benchmarks/results/"
                                     "BENCH_telemetry.json"),
                        help="where to write the JSON report")
    parser.add_argument("--no-assert", action="store_true",
                        help="measure and report only; skip the "
                             f"<={BUDGET_US:.0f} µs per-round gate")
    args = parser.parse_args(argv)

    sizes = tuple(args.sizes) if args.sizes else (N,)
    rows = run_telemetry_bench(
        sizes, repeats=SMOKE_REPEATS if args.smoke else REPEATS)
    write_json(rows, args.out)
    for row in rows:
        t = row["telemetry"]
        print(f"n={row['n']:>9,}  {row['mode']:<9} "
              f"disabled {t['disabled_seconds']:.4f}s  "
              f"enabled {t['enabled_seconds']:.4f}s  "
              f"+{t['per_round_us']:.1f} µs/round "
              f"(overhead {t['overhead']:.3f}x)")
    if not args.no_assert:
        check_overhead(rows)
        print(f"OK: telemetry within {BUDGET_US:.0f} µs per round")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
