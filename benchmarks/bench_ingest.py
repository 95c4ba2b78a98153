"""Ingest throughput: columnar split cache + batched samplers vs scalar.

EARL re-touches its input on every expansion iteration: pre-map
sampling probes random offsets (backtracking to line starts) and the
record reader re-scans splits.  PR 4's columnar ingest plane
(:mod:`repro.hdfs.split_cache`) newline-indexes a split once and turns
both operations into array lookups; this benchmark measures the two
resulting hot paths against their scalar references at n ∈ {2·10⁴,
10⁵, 10⁶} lines:

* ``premap`` — lines/sec drawing a sample through
  :class:`~repro.sampling.premap.PreMapSampler` (batched probes against
  the index, incl. the cold index build, vs probe-at-a-time
  backtracking).  Both consume the identical RNG stream and charge
  identical simulated costs — the ratio is a pure constant-factor
  comparison, like ``bench_kernel``'s.
* ``reread`` — lines/sec re-scanning every split (three warm passes,
  the M3R regime an iterative driver lives in), cached vs scalar.

The scalar side runs the same code over a filesystem whose split cache
never serves (:class:`_NoSplitCache`), so every read takes the fallback
path the cache's availability check would choose after a failure.

Outputs machine-readable ``BENCH_ingest.json``; the committed copy at
``benchmarks/BENCH_ingest.json`` is the baseline the CI regression gate
(``tools/check_bench_regression.py``) compares fresh runs against.
Raw lines/sec is machine-dependent, so the gated quantity is the
cached/scalar *speedup* ratio.

Run standalone::

    python benchmarks/bench_ingest.py --smoke --out benchmarks/results/BENCH_ingest.json

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import Cluster  # noqa: E402 (path bootstrap above)
from repro.hdfs import SplitIndexCache  # noqa: E402
from repro.hdfs.record_reader import LineRecordReader  # noqa: E402
from repro.sampling.premap import PreMapSampler  # noqa: E402

#: Full sweep (the committed baseline) and the CI smoke subset.
FULL_SIZES = (20_000, 100_000, 1_000_000)
SMOKE_SIZES = (20_000, 100_000)
#: The acceptance gate: cached ingest must be >= 5x scalar here.
ASSERT_AT_N = 100_000
MIN_SPEEDUP = 5.0
SEED = 7
#: Splits per file — enough map tasks to exercise per-split state.
N_SPLITS = 8
#: Warm re-scan passes per measurement (the per-iteration regime).
REREAD_PASSES = 3


class _NoSplitCache(SplitIndexCache):
    """A split cache that never serves: the scalar reference."""

    def acquire(self, fs, split):
        return None


def _build_cluster(n: int, cached: bool) -> Cluster:
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=3)
    cluster.hdfs.write_lines("/bench", [f"{i:012d}" for i in range(n)])
    if not cached:
        cluster.hdfs.split_cache = _NoSplitCache()
    return cluster


def _splits(cluster: Cluster):
    size = cluster.hdfs.file_size("/bench")
    return cluster.hdfs.get_splits("/bench", max(1, size // N_SPLITS))


def _premap_target(n: int) -> int:
    return min(n // 2, 50_000)


def _time_premap(n: int, cached: bool) -> float:
    """Seconds to draw the target sample on a fresh cluster.

    The cached timing includes the cold newline-index build — the
    cache pays for itself within a single iteration's probes.
    """
    cluster = _build_cluster(n, cached)
    size = cluster.hdfs.file_size("/bench")
    sampler = PreMapSampler(cluster.hdfs, "/bench",
                            split_logical_bytes=max(1, size // N_SPLITS))
    sampler.set_total_target(_premap_target(n))
    rng = np.random.default_rng(SEED)
    ledger = cluster.new_ledger()
    t0 = time.perf_counter()
    for split in sampler.splits:
        for _ in sampler.read(cluster.hdfs, split, ledger, rng):
            pass
    elapsed = time.perf_counter() - t0
    assert sampler.sampled_count == _premap_target(n)
    return elapsed


def _time_reread(n: int, cached: bool) -> float:
    """Seconds for ``REREAD_PASSES`` warm re-scans of every split."""
    cluster = _build_cluster(n, cached)
    splits = _splits(cluster)
    # one untimed warm-up pass: the cached path materializes its index
    # here, the scalar path gets the same OS/alloc warm-up
    for split in splits:
        for _ in LineRecordReader(cluster.hdfs, split).read_records():
            pass
    t0 = time.perf_counter()
    for _ in range(REREAD_PASSES):
        for split in splits:
            for _ in LineRecordReader(cluster.hdfs, split).read_records():
                pass
    return time.perf_counter() - t0


def run_ingest_bench(sizes: Sequence[int], *,
                     repeats: int = 2) -> List[Dict[str, object]]:
    """Measure both modes at every size; returns result rows."""
    rows: List[Dict[str, object]] = []
    for n in sizes:
        reps = 1 if n >= 1_000_000 else repeats
        for mode, timer, items in (
                ("premap", _time_premap, _premap_target(n)),
                ("reread", _time_reread, n * REREAD_PASSES)):
            # identical best-of protocol for both implementations
            scalar = min(timer(n, False) for _ in range(reps))
            cached = min(timer(n, True) for _ in range(reps))
            s_tp = items / scalar
            c_tp = items / cached
            rows.append({
                "n": n, "mode": mode,
                "throughput": {
                    "scalar_lines_per_s": round(s_tp),
                    "cached_lines_per_s": round(c_tp),
                    "speedup": round(c_tp / s_tp, 2),
                },
            })
    return rows


def check_speedups(rows: List[Dict[str, object]], *,
                   min_speedup: float = MIN_SPEEDUP,
                   at_n: int = ASSERT_AT_N) -> None:
    """The headline claim: >= ``min_speedup``x pre-map sampling *and*
    record re-read throughput at ``at_n`` lines."""
    gated = [row for row in rows if row["n"] == at_n]
    assert gated, f"no measurements at n={at_n}"
    for row in gated:
        speedup = row["throughput"]["speedup"]
        assert speedup >= min_speedup, (
            f"{row['mode']}: cached ingest only {speedup:.1f}x scalar "
            f"at n={at_n} (need >= {min_speedup}x)")


def write_json(rows: List[Dict[str, object]], out: Path, *,
               smoke: bool) -> None:
    payload = {
        "benchmark": "ingest_throughput",
        "seed": SEED,
        "smoke": smoke,
        "premap_target": "min(n/2, 50000) sampled lines, cold cache",
        "reread_passes": REREAD_PASSES,
        "units": "lines/sec",
        "results": rows,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")


class TestIngestThroughput:
    """Pytest entry point (``make bench``): smoke sizes, same gate."""

    def test_cached_ingest_speedup(self, benchmark, series_report):
        rows = benchmark.pedantic(
            lambda: run_ingest_bench(SMOKE_SIZES), rounds=1, iterations=1)
        series_report(
            "ingest_throughput",
            "Columnar ingest: pre-map sampling / record re-read lines per second",
            ["n", "mode", "scalar", "cached", "speedup"],
            [(r["n"], r["mode"],
              r["throughput"]["scalar_lines_per_s"],
              r["throughput"]["cached_lines_per_s"],
              r["throughput"]["speedup"]) for r in rows],
            notes="identical RNG stream and simulated charges on both "
                  "paths; speedup is the machine-independent quantity "
                  "(see BENCH_ingest.json)")
        write_json(rows, Path(__file__).parent / "results"
                   / "BENCH_ingest.json", smoke=True)
        check_speedups(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"sizes {SMOKE_SIZES} instead of {FULL_SIZES}")
    parser.add_argument("--sizes", type=int, nargs="*",
                        help="explicit n values (overrides --smoke)")
    parser.add_argument("--out", type=Path,
                        default=Path("benchmarks/results/BENCH_ingest.json"),
                        help="where to write the JSON report")
    parser.add_argument("--no-assert", action="store_true",
                        help="measure and report only; skip the >=5x gate")
    args = parser.parse_args(argv)

    sizes = tuple(args.sizes) if args.sizes \
        else (SMOKE_SIZES if args.smoke else FULL_SIZES)
    # Smoke runs feed the CI regression gate: extra repeats tighten the
    # best-of timing so runner noise cannot masquerade as a regression.
    rows = run_ingest_bench(sizes, repeats=3 if args.smoke else 2)
    write_json(rows, args.out, smoke=sizes != FULL_SIZES)
    for row in rows:
        tp = row["throughput"]
        print(f"n={row['n']:>9,}  {row['mode']:<7} "
              f"scalar {tp['scalar_lines_per_s'] / 1e3:>8.0f}k/s  "
              f"cached {tp['cached_lines_per_s'] / 1e3:>8.0f}k/s  "
              f"{tp['speedup']:>6.1f}x")
    print(f"wrote {args.out}")
    if not args.no_assert and any(r["n"] == ASSERT_AT_N for r in rows):
        check_speedups(rows)
        print(f"speedup gate OK (>= {MIN_SPEEDUP}x at n={ASSERT_AT_N:,})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
