"""Dependent data: why the block bootstrap matters (paper Appendix A).

Sensor readings are autocorrelated: a naive i.i.d. bootstrap destroys
the dependence and *underestimates* the error of the mean, so EARL would
stop sampling too early and return an over-confident answer.  The
moving-block bootstrap resamples whole blocks of consecutive readings,
preserving the dependence and producing an honest error estimate.

Run with:  python examples/sensor_time_series.py
"""

import numpy as np

from repro.core import bootstrap
from repro.core.dependent import (
    auto_block_length,
    block_bootstrap,
    lag1_autocorrelation,
)
from repro.workloads import ar1_series


def main() -> None:
    # Temperature sensor sampled at 1 Hz, strongly autocorrelated.
    series = ar1_series(20_000, phi=0.9, scale=0.5, loc=21.0, seed=31)
    print("=== sensor time-series analytics ===")
    print(f"readings            : {len(series):,}")
    print(f"lag-1 autocorrelation: {lag1_autocorrelation(series):.3f}")

    block_len = auto_block_length(series)
    print(f"auto block length   : {block_len} readings\n")

    sample = series[:2_000]  # EARL-style early sample (first 10%)
    naive = bootstrap(sample, "mean", B=200, seed=32)
    blocked = block_bootstrap(sample, "mean", B=200,
                              block_length=block_len, seed=33)

    print("error estimates for the mean of a 2,000-reading sample:")
    print(f"  naive bootstrap  : std={naive.std:.4f}  cv={naive.cv:.5f}")
    print(f"  block bootstrap  : std={blocked.std:.4f}  cv={blocked.cv:.5f}")
    print(f"  ratio            : {blocked.std / naive.std:.1f}x "
          "(the naive estimate is over-confident by this factor)\n")

    # Validate against the actual sampling distribution: means of many
    # independent windows of the same length.
    windows = series.reshape(10, 2_000)
    empirical_std = float(np.std(windows.mean(axis=1), ddof=1))
    print("validation against 10 independent windows:")
    print(f"  empirical std of window means: {empirical_std:.4f}")
    print(f"  block bootstrap said         : {blocked.std:.4f}")
    print(f"  naive bootstrap said         : {naive.std:.4f}")
    better = abs(blocked.std - empirical_std) < abs(naive.std - empirical_std)
    print(f"  block bootstrap closer       : {better}\n")

    # The full EARL loop for dependent data: block sampling + moving-
    # block bootstrap, expanding until the error bound holds.
    from repro.core import EarlConfig
    from repro.core.dependent_session import DependentEarlSession

    result = DependentEarlSession(
        series, "mean", config=EarlConfig(sigma=0.003, seed=34)).run()
    print("DependentEarlSession (σ = 0.3%):")
    print(f"  block length b   : {result.block_length}")
    print(f"  readings sampled : {result.n:,} "
          f"({result.sample_fraction:.1%} of the series)")
    print(f"  estimate         : {result.estimate:.4f} "
          f"(true {series.mean():.4f})")
    print(f"  error (cv)       : {result.error:.5f}  met: {result.achieved}")


if __name__ == "__main__":
    main()
