"""Web-log analytics on the simulated MapReduce cluster.

The motivating scenario of the paper's introduction: an analyst waiting
on an interactive answer over a large log file.  We simulate a 40 GB
access log (stand-in file, see DESIGN.md), then answer three questions
with EARL on the full cluster substrate and compare against the exact
(stock Hadoop) answers:

1. mean response size per endpoint      (grouped aggregate),
2. median response size overall         (non-trivial statistic),
3. HTTP error rate                      (categorical, Appendix A).

Run with:  python examples/web_log_analysis.py
"""

import numpy as np

from repro import EarlConfig, EarlJob, run_grouped_stock_job
from repro.cluster import Cluster
from repro.core.categorical import proportion_estimate
from repro.workloads import GB

ENDPOINTS = ["/home", "/search", "/checkout"]
#: Mean response size (bytes) per endpoint in the synthetic log.
SIZES = {"/home": 2_000.0, "/search": 8_000.0, "/checkout": 25_000.0}
ERROR_RATE = 0.021  # true fraction of 5xx responses


def generate_log(rng: np.random.Generator, records: int) -> list[str]:
    """``endpoint<TAB>bytes`` lines, with a known size mix per endpoint."""
    endpoints = rng.choice(len(ENDPOINTS), size=records)
    lines = []
    for endpoint_idx in endpoints:
        endpoint = ENDPOINTS[int(endpoint_idx)]
        size = rng.lognormal(np.log(SIZES[endpoint]), 0.8)
        lines.append(f"{endpoint}\t{size:015.4f}")
    return lines


def main() -> None:
    rng = np.random.default_rng(11)
    cluster = Cluster(n_nodes=5, block_size=1 << 20, seed=12)
    lines = generate_log(rng, records=60_000)
    actual_bytes = sum(len(l) + 1 for l in lines)
    scale = 40 * GB / actual_bytes
    cluster.hdfs.write_lines("/logs/access", lines, logical_scale=scale)
    print(f"simulated log: {len(lines):,} records standing in for "
          f"{40} GB\n")

    # --- 1. per-endpoint mean response size -----------------------------
    earl = EarlJob(cluster, "/logs/access", statistic="mean", n_reducers=3,
                   config=EarlConfig(sigma=0.05, seed=13)).run()
    exact, stock = run_grouped_stock_job(cluster, "/logs/access", "mean",
                                         combine=False, n_reducers=3,
                                         seed=14)
    print("mean response size per endpoint (EARL vs exact):")
    for endpoint in ENDPOINTS:
        approx = earl.key_estimates[endpoint]
        truth = exact[endpoint]
        print(f"  {endpoint:<10} earl={approx:>12,.1f}  "
              f"exact={truth:>12,.1f}  "
              f"err={abs(approx - truth) / truth:.2%}")
    speedup = stock.simulated_seconds / earl.simulated_seconds
    print(f"  simulated time: EARL {earl.simulated_seconds:,.1f}s vs "
          f"stock {stock.simulated_seconds:,.1f}s  ({speedup:.1f}x)\n")

    # --- 2. overall median response size ---------------------------------
    # GlobalValueMapper drops the endpoint column: one statistic over the
    # whole distribution instead of one per endpoint.
    from repro.mapreduce import GlobalValueMapper

    median_job = EarlJob(cluster, "/logs/access", statistic="median",
                         mapper=GlobalValueMapper(),
                         config=EarlConfig(sigma=0.05, seed=15)).run()
    sizes = np.array([float(l.split("\t")[1]) for l in lines])
    print(f"median response size: earl={median_job.estimate:,.1f}  "
          f"exact={np.median(sizes):,.1f}  "
          f"(cv={median_job.error:.3f}, n={median_job.n:,})")
    if median_job.used_fallback:
        ssabe = median_job.ssabe
        print(f"  note: SSABE estimated B×n = {ssabe.B}×{ssabe.n:,} ≥ "
              f"N = {median_job.population_size:,}; the density near this "
              "trimodal median is low, so sampling cannot beat the exact "
              "job — EARL fell back to the full computation (§3.1).")
    print()

    # --- 3. HTTP error rate (categorical, Appendix A) --------------------
    status_sample = rng.random(median_job.n) < ERROR_RATE
    est = proportion_estimate(int(status_sample.sum()), len(status_sample))
    print(f"5xx error rate      : {est.proportion:.3%} "
          f"(true {ERROR_RATE:.3%}), "
          f"95% CI [{est.ci_low:.3%}, {est.ci_high:.3%}], cv={est.cv:.3f}")


if __name__ == "__main__":
    main()
