"""Numerically stable running statistics with *removal* support.

EARL's delta maintenance (paper §4) updates bootstrap resamples by adding
items drawn from the new delta sample and *deleting* items from the old
resample.  To re-evaluate a statistic on the updated resample without a
full recomputation, its state must support both ``add`` and ``remove``.
:class:`RunningStats` provides that for the moment statistics (mean,
variance, standard deviation) using the standard Welford/Chan update and
its algebraic inverse.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def repeated_sum(start: float, step: float, count: int) -> float:
    """``start + step + step + …`` over ``count`` steps, added strictly
    left to right — the bits of the loop ``for _ in range(count): start
    += step``, in one :func:`np.add.accumulate` (a sequential scan, not
    a pairwise reduction)."""
    if count <= 0:
        return start
    terms = np.full(count + 1, step)
    terms[0] = start
    with np.errstate(over="ignore", invalid="ignore"):  # as the loop: silent
        return float(np.add.accumulate(terms)[-1])


def _sum_sq_dev(values: "np.ndarray", mean: float) -> float:
    """``Σ (v - mean)²`` by NumPy's own pairwise reduction — not
    ``np.dot``: BLAS splits a long dot over its threads, so the last
    bit (and, on a busy host, the latency) would depend on how many
    it has; the bytes of a ``mean``/``std`` stream must not."""
    centred = values - mean
    centred *= centred
    return float(np.add.reduce(centred))


class RunningStats:
    """Mean/variance accumulator supporting add, remove, and merge.

    The implementation keeps ``(count, mean, M2)`` where ``M2`` is the sum
    of squared deviations from the mean.  All three operations are O(1):

    * :meth:`add` — Welford's update.
    * :meth:`remove` — exact inverse of Welford's update; valid only for
      values previously added (up to floating-point error).
    * :meth:`merge` — Chan et al.'s parallel combination, which is what a
      reducer uses to combine per-mapper partial states.
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "RunningStats":
        stats = cls()
        for v in values:
            stats.add(float(v))
        return stats

    # -- core updates -----------------------------------------------------
    def add(self, value: float) -> None:
        """Fold ``value`` into the accumulator (Welford's update)."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def add_floats(self, values: Iterable[float]) -> None:
        """Fold ``float`` values in, in order: :meth:`add`'s Welford
        update with the accumulator in locals, so the state is that of
        one :meth:`add` per value, bit for bit (unlike the Chan merge of
        :meth:`add_values`)."""
        count, mean, m2 = self._count, self._mean, self._m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self._count, self._mean, self._m2 = count, mean, m2

    def remove(self, value: float) -> None:
        """Remove a previously added ``value`` (inverse Welford update)."""
        if self._count <= 0:
            raise ValueError("cannot remove from an empty RunningStats")
        if self._count == 1:
            self._count = 0
            self._mean = 0.0
            self._m2 = 0.0
            return
        count_new = self._count - 1
        mean_new = (self._count * self._mean - value) / count_new
        self._m2 -= (value - self._mean) * (value - mean_new)
        # Guard against tiny negative M2 from floating-point cancellation.
        if self._m2 < 0.0:
            self._m2 = 0.0
        self._count = count_new
        self._mean = mean_new

    def add_values(self, values: "np.ndarray") -> None:
        """Fold a whole batch in at once (Chan et al. merge of the
        batch's moments).  Algebraically equal to adding the values one
        by one; the reassociated arithmetic may differ from the scalar
        loop in the last floating-point digits.
        """
        values = np.asarray(values, dtype=float).ravel()
        m = values.size
        if m == 0:
            return
        batch = RunningStats()
        batch._count = int(m)
        batch._mean = float(values.mean())
        batch._m2 = _sum_sq_dev(values, batch._mean)
        self.merge(batch)

    def remove_values(self, values: "np.ndarray") -> None:
        """Remove a whole batch of previously added values (inverse of
        the Chan merge, the batch analogue of :meth:`remove`)."""
        values = np.asarray(values, dtype=float).ravel()
        m = values.size
        if m == 0:
            return
        if m > self._count:
            raise ValueError(
                f"cannot remove {m} values from a RunningStats of "
                f"{self._count}")
        if m == self._count:
            self._count, self._mean, self._m2 = 0, 0.0, 0.0
            return
        mean_b = float(values.mean())
        m2_b = _sum_sq_dev(values, mean_b)
        count_r = self._count - m
        mean_r = (self._count * self._mean - m * mean_b) / count_r
        delta = mean_b - mean_r
        self._m2 -= m2_b + delta * delta * count_r * m / self._count
        if self._m2 < 0.0:  # floating-point cancellation guard
            self._m2 = 0.0
        self._count = count_r
        self._mean = mean_r

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (Chan et al.)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count, self._mean, self._m2 = other._count, other._mean, other._m2
            return
        total = self._count + other._count
        delta = other._mean - self._mean
        self._mean += delta * other._count / total
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._count = total

    def copy(self) -> "RunningStats":
        clone = RunningStats()
        clone._count, clone._mean, clone._m2 = self._count, self._mean, self._m2
        return clone

    # -- accessors ---------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("mean of an empty RunningStats is undefined")
        return self._mean

    @property
    def sum(self) -> float:
        return self._mean * self._count

    def variance(self, ddof: int = 1) -> float:
        """Variance with ``ddof`` delta degrees of freedom (default sample)."""
        if self._count - ddof <= 0:
            return 0.0
        return self._m2 / (self._count - ddof)

    def std(self, ddof: int = 1) -> float:
        return math.sqrt(self.variance(ddof=ddof))

    def cv(self, ddof: int = 1) -> float:
        """Coefficient of variation ``std/|mean|`` (paper's error measure)."""
        return coefficient_of_variation(self.mean, self.std(ddof=ddof))

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._count == 0:
            return "RunningStats(empty)"
        return f"RunningStats(count={self._count}, mean={self._mean:.6g}, std={self.std():.6g})"


def coefficient_of_variation(mean: float, std: float) -> float:
    """``std / |mean|``, the paper's accuracy measure (§3).

    A zero mean makes the ratio undefined; following common AQP practice we
    return ``inf`` when dispersion exists around a zero mean and ``0.0``
    for the degenerate all-zero case, so that termination checks
    (``cv <= sigma``) behave sensibly at the boundaries.
    """
    if std < 0:
        raise ValueError("standard deviation cannot be negative")
    if mean == 0.0:
        return 0.0 if std == 0.0 else math.inf
    return std / abs(mean)


def relative_half_width(mean: float, std: float, z: float = 1.96) -> float:
    """Relative half-width of a normal confidence interval.

    Alternative error measure mentioned in §3 ("our approach is independent
    of the error measure"): ``z * std / |mean|``.
    """
    return z * coefficient_of_variation(mean, std)
