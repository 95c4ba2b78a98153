"""Synthetic dataset generators.

The paper's evaluation uses synthetic data throughout ("the synthetic
dataset allows us to easily validate the accuracy measure produced by
EARL", §6).  Generators here cover the shapes the experiments need:

* numeric value streams from several distributions (heavy-tailed ones
  make approximation interesting — a low-variance stream needs almost no
  sample);
* keyed records for multi-reducer jobs;
* *clustered* layouts (values sorted on disk) that break block sampling;
* Bernoulli streams for the categorical appendix;
* AR(1) series for the dependent-data appendix;
* Gaussian-mixture points for the K-Means experiment.

All values are rendered as fixed-width text lines so that pre-map
sampling's offset-probing is exactly uniform over records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_fraction, check_positive_int

#: Fixed-width numeric line format (15 chars + newline = 16 bytes/record).
NUMERIC_FORMAT = "{:015.6f}"
#: :data:`NUMERIC_FORMAT` for ``%``-formatting, which renders a whole
#: file in one pass: the reference render of :func:`numeric_text`.
_NUMERIC_PERCENT_FORMAT = "%015.6f"

#: The ASCII words of a 16-byte row ``DDDDDDDD.FFFFFF\n`` as
#: little-endian ``uint32``: four integer digits; the point and three
#: fraction digits; three fraction digits and the newline.
_DIGITS4 = np.array(["%04d" % i for i in range(10_000)], "S4").view("<u4")
_POINT_DIGITS3 = np.array([".%03d" % i for i in range(1000)],
                          "S4").view("<u4")
_DIGITS3_NEWLINE = np.array(["%03d\n" % i for i in range(1000)],
                            "S4").view("<u4")
#: Values below this render with 8 integer digits (``99999999.9999995``
#: and up round to ``100000000.000000``).
_FIXED_LIMIT = 99_999_999.999_999_5
#: Rows per pass of the kernel: small enough that its temporaries are
#: reused from the heap rather than freshly mapped on every call.
_CHUNK_ROWS = 1 << 14


def numeric_dataset(n: int, distribution: str = "lognormal", *,
                    seed: SeedLike = None, **params: float) -> np.ndarray:
    """Draw ``n`` values from a named distribution.

    Supported: ``normal(loc, scale)``, ``lognormal(mean, sigma)``,
    ``exponential(scale)``, ``uniform(low, high)``, ``pareto(alpha,
    scale)``.  Defaults give strictly positive, right-skewed data with a
    population cv around 1-2 — the regime where the paper's 1 % samples
    and 30 bootstraps arise.
    """
    check_positive_int("n", n)
    rng = ensure_rng(seed)
    if distribution == "normal":
        return rng.normal(params.get("loc", 100.0),
                          params.get("scale", 15.0), size=n)
    if distribution == "lognormal":
        return rng.lognormal(params.get("mean", 3.0),
                             params.get("sigma", 1.0), size=n)
    if distribution == "exponential":
        return rng.exponential(params.get("scale", 50.0), size=n)
    if distribution == "uniform":
        return rng.uniform(params.get("low", 0.0),
                           params.get("high", 1000.0), size=n)
    if distribution == "pareto":
        alpha = params.get("alpha", 2.5)
        scale = params.get("scale", 10.0)
        return (rng.pareto(alpha, size=n) + 1.0) * scale
    raise ValueError(f"unknown distribution {distribution!r}")


def numeric_lines(values: Sequence[float]) -> List[str]:
    """Fixed-width text lines for a numeric stream."""
    return numeric_text(values).splitlines()


def _percent_render(values: np.ndarray) -> str:
    floats = tuple(values.tolist())
    return (_NUMERIC_PERCENT_FORMAT + "\n") * len(floats) % floats


def _render_rows(values: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows`` (``n × 4`` ``uint32``) with the 16-byte lines of
    ``values``, all in ``[0, _FIXED_LIMIT)``."""
    scaled = values * 1e6
    units = np.rint(scaled)
    whole = (units / 1e6).astype(np.uint32)  # floor: units < 2^47
    frac = (units - whole * 1e6).astype(np.uint32)
    np.take(_DIGITS4, whole // 10_000, out=rows[:, 0])
    np.take(_DIGITS4, whole % 10_000, out=rows[:, 1])
    np.take(_POINT_DIGITS3, frac // 1000, out=rows[:, 2])
    np.take(_DIGITS3_NEWLINE, frac % 1000, out=rows[:, 3])
    # Only a product that lands on a half-way point can round apart
    # from its exact value, whose digits ``%`` reads.
    ties = np.flatnonzero(np.abs(scaled - units) == 0.5)
    if ties.size:
        text = _percent_render(values[ties]).encode()
        rows[ties] = np.frombuffer(text, dtype="<u4").reshape(-1, 4)


def numeric_text(values: Sequence[float]) -> str:
    r"""The file of :data:`NUMERIC_FORMAT` lines, each newline-terminated:
    ``"%015.6f\n" % v`` per value, byte for byte.

    Values in ``[0, 10⁸)`` are laid out as 16-byte rows from the digits
    of ``rint(v·10⁶)``; a row whose scaled value is a half-way point is
    rendered with ``%`` instead.  Any other value (negative, ``-0.0``,
    ``inf``, ``nan``, or ``10⁸`` and up after rounding) sends the whole
    file down the one-pass ``%`` render (DESIGN.md, "Rendering stand-in
    files").

    >>> numeric_text([1.5, 0.0000005, 12345678.25])
    '00000001.500000\n00000000.000000\n12345678.250000\n'
    """
    v = np.asarray(values, dtype=float)
    if np.signbit(v).any() or not np.max(v, initial=0.0) < _FIXED_LIMIT:
        return _percent_render(v)
    rows = np.empty((v.size, 4), dtype="<u4")
    for start in range(0, v.size, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        _render_rows(v[start:stop], rows[start:stop])
    return str(rows, "ascii")


def keyed_lines(values: Sequence[float], n_keys: int, *,
                seed: SeedLike = None) -> List[str]:
    """``key<TAB>value`` lines with keys assigned uniformly at random."""
    check_positive_int("n_keys", n_keys)
    rng = ensure_rng(seed)
    keys = rng.integers(0, n_keys, size=len(values))
    return [f"k{int(k):04d}\t{line}"
            for k, line in zip(keys, numeric_lines(values))]


def skewed_keyed_values(n: int, n_keys: int, *, skew: float = 1.5,
                        value_sigma: float = 1.0,
                        seed: SeedLike = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Zipf-skewed keyed records: the grouped-query stress workload.

    Key ``k`` (0-based popularity rank) receives a share of the ``n``
    rows proportional to ``1 / (k + 1)^skew`` — the head key dominates
    and the tail keys are rare, which is exactly where uniform table
    sampling starves per-group estimates.  Values are lognormal with a
    per-key location so groups have genuinely different answers.

    Returns ``(keys, values)``: an object array of ``"g000"``-style key
    strings plus an aligned float column.  Every key appears at least
    once.
    """
    check_positive_int("n", n)
    check_positive_int("n_keys", n_keys)
    if n < n_keys:
        raise ValueError(f"need n >= n_keys, got n={n}, n_keys={n_keys}")
    if skew < 0:
        raise ValueError("skew cannot be negative")
    rng = ensure_rng(seed)
    shares = 1.0 / np.arange(1, n_keys + 1, dtype=float) ** skew
    counts = np.maximum(
        1, np.floor(shares / shares.sum() * n).astype(int))
    # Settle rounding slack.  Shortfall goes to the head key; excess
    # (many tail keys floored to 0 then bumped to 1) is trimmed from
    # the largest strata, never below the one-row-per-key guarantee —
    # n >= n_keys makes that always feasible.
    slack = n - int(counts.sum())
    if slack >= 0:
        counts[0] += slack
    else:
        for idx in np.argsort(-counts, kind="stable"):
            if slack == 0:
                break
            trim = min(-slack, int(counts[idx]) - 1)
            counts[idx] -= trim
            slack += trim
    ranks = np.repeat(np.arange(n_keys), counts)
    rng.shuffle(ranks)
    keys = np.array([f"g{int(r):03d}" for r in ranks], dtype=object)
    # Per-key location spreads the group means apart (~10% steps).
    values = rng.lognormal(3.0 + 0.1 * ranks, value_sigma)
    return keys, values


def keyed_value_lines(keys: Sequence[object],
                      values: Sequence[float]) -> List[str]:
    """``key<TAB>value`` lines for explicit keyed columns (the inverse
    of :func:`repro.hdfs.read_keyed_column`'s parse)."""
    if len(keys) != len(values):
        raise ValueError("keys and values must align")
    return [f"{k}\t{line}" for k, line in zip(keys, numeric_lines(values))]


def clustered_lines(values: Sequence[float]) -> List[str]:
    """Values sorted ascending — the §7 layout that biases block sampling.

    "if the data is clustered on some attribute ... the resulting
    statistic will be inaccurate when compared to that constructed from
    a uniform-random sample."
    """
    return numeric_lines(sorted(float(v) for v in values))


def categorical_dataset(n: int, p_success: float, *,
                        seed: SeedLike = None) -> np.ndarray:
    """Bernoulli 0/1 stream for the Appendix A proportion experiments."""
    check_positive_int("n", n)
    check_fraction("p_success", p_success, inclusive_high=False)
    rng = ensure_rng(seed)
    return (rng.random(n) < p_success).astype(int)


def ar1_series(n: int, phi: float = 0.8, *, scale: float = 1.0,
               loc: float = 100.0, seed: SeedLike = None) -> np.ndarray:
    """AR(1) time series: b-dependent data for the block bootstrap.

    ``x_t = loc + phi·(x_{t-1} - loc) + ε_t`` with N(0, scale) noise;
    dependence length grows with ``|phi|``.
    """
    check_positive_int("n", n)
    if not -1.0 < phi < 1.0:
        raise ValueError("phi must be in (-1, 1) for stationarity")
    rng = ensure_rng(seed)
    noise = rng.normal(0.0, scale, size=n)
    series = np.empty(n)
    series[0] = loc + noise[0]
    for t in range(1, n):
        series[t] = loc + phi * (series[t - 1] - loc) + noise[t]
    return series


def gaussian_mixture_points(n: int, centers: Sequence[Sequence[float]], *,
                            spread: float = 1.0,
                            weights: Optional[Sequence[float]] = None,
                            seed: SeedLike = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """2-D (or d-D) points around given centers, for K-Means (Fig. 7).

    Returns ``(points, labels)`` where labels index the true component —
    handy for validating that EARL's sampled K-Means lands "within 5% of
    the optimal" centroids.
    """
    check_positive_int("n", n)
    centers_arr = np.asarray(centers, dtype=float)
    if centers_arr.ndim != 2:
        raise ValueError("centers must be a 2-D array-like (k × d)")
    k = centers_arr.shape[0]
    rng = ensure_rng(seed)
    if weights is None:
        probs = np.full(k, 1.0 / k)
    else:
        probs = np.asarray(weights, dtype=float)
        if probs.shape != (k,) or not np.isclose(probs.sum(), 1.0):
            raise ValueError("weights must be k probabilities summing to 1")
    labels = rng.choice(k, size=n, p=probs)
    points = centers_arr[labels] + rng.normal(
        0.0, spread, size=(n, centers_arr.shape[1]))
    return points, labels


def point_lines(points: np.ndarray) -> List[str]:
    """Comma-separated fixed-width coordinate lines for K-Means input."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be 2-D (n × d)")
    return [",".join(f"{c:013.6f}" for c in row) for row in pts]


def parse_point(line: str) -> np.ndarray:
    """Inverse of :func:`point_lines` for one line."""
    return np.array([float(part) for part in line.split(",")])


def population_summary(values: Sequence[float]) -> Dict[str, float]:
    """Ground-truth statistics used by benchmarks to validate estimates."""
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(np.mean(arr)),
        "median": float(np.median(arr)),
        "sum": float(np.sum(arr)),
        "std": float(np.std(arr, ddof=1)),
        "cv": float(np.std(arr, ddof=1) / abs(np.mean(arr)))
        if np.mean(arr) != 0 else float("inf"),
    }
