"""Configuration of the EARL driver loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.accuracy import ERROR_METRICS
from repro.core.delta import (
    MAINTENANCE_NAIVE,
    MAINTENANCE_NONE,
    MAINTENANCE_OPTIMIZED,
)
from repro.exec.executor import EXECUTOR_SERIAL, available_executors
from repro.mapreduce.faults import FaultPolicy
from repro.util.rng import SeedLike
from repro.util.validation import check_fraction, check_positive, check_positive_int

#: Sampler selection for the MapReduce-backed driver.
SAMPLER_PREMAP = "premap"
SAMPLER_POSTMAP = "postmap"


@dataclass
class EarlConfig:
    """Knobs of the early-approximation loop (defaults follow the paper).

    Attributes
    ----------
    sigma:
        User-desired error bound σ; the loop stops when the estimated
        error is ≤ σ.  The paper's experiments use 0.05 ("results are
        accurate to within 5% of the true answer", §6).
    tau:
        Error-stability threshold τ = |cv_i − cv_{i-1}| used when
        estimating B, which also bounds the candidate set {2, …, 1/τ}
        (§3.2).
    B_min:
        Floor on the estimated number of bootstraps.  The paper's
        single-step stability test can fire after a lucky small step; a
        floor (plus the window below) keeps the error estimate reliable.
    stability_window:
        Number of consecutive |cv_i − cv_{i-1}| < τ steps required to
        declare the cv curve stable in SSABE phase 1.
    pilot_fraction:
        Pilot sample share ``p`` of N for SSABE; "in practice we found
        that p = 0.01 gives robust results" (§3.2).
    min_pilot_size:
        Floor on the pilot so tiny inputs still produce usable pilots.
    subsample_levels:
        Number ``l`` of nested pilot subsamples in SSABE phase 2; "we
        found it to be sufficient to set l = 5" (§3.2).
    expansion_factor:
        Sample growth factor when the error is still above σ (the naive
        doubling of §3.2; SSABE usually makes one iteration suffice).
    max_iterations:
        Safety bound on expansion rounds.
    error_metric:
        Name of the AES error measure (default cv, §3).
    maintenance:
        Resample maintenance mode: ``"optimized"`` (Gaussian ``k``;
        §4.1 sketches where the sample sits on simulated storage, plain
        indexing where it is memory-resident), ``"naive"`` (direct HDFS
        access), or ``"none"`` (full rebuild — the stock-bootstrap
        baseline).
    sketch_c:
        Sketch size constant ``c`` (sketch keeps c·√n items, §4.1);
        unused where no sketch is built (the in-memory engines).
    estimation:
        Error-estimation strategy: ``"bootstrap"`` (the paper's default)
        or ``"jackknife"`` (the §8 future-work alternative — cheaper for
        smooth statistics, refused for non-smooth ones).
    sampler:
        ``"premap"`` or ``"postmap"`` (§3.3) for the MapReduce driver.
    confidence:
        Confidence level of reported bootstrap intervals.
    seed:
        Master seed for the whole run (reproducibility).
    executor:
        Execution backend for the run's fan-out points (task waves,
        resample evaluation, sweeps): ``"serial"`` (default; in-order,
        bit-for-bit the reference), ``"threads"``
        (``ThreadPoolExecutor``; wins when the work releases the GIL),
        or ``"processes"`` (forked, placement-stable workers; true CPU
        parallelism, work must be picklable).  All three produce
        byte-identical results for a fixed ``seed`` — see
        :mod:`repro.exec`.  The ``REPRO_EXECUTOR`` environment variable
        overrides this field at run time.
    max_workers:
        Pool size for the parallel backends (default: the machine's CPU
        count; ignored by ``"serial"``).  ``REPRO_MAX_WORKERS``
        overrides it.
    """

    sigma: float = 0.05
    tau: float = 0.01
    B_min: int = 15
    stability_window: int = 3
    pilot_fraction: float = 0.01
    min_pilot_size: int = 64
    subsample_levels: int = 5
    expansion_factor: float = 2.0
    max_iterations: int = 15
    error_metric: str = "cv"
    maintenance: str = MAINTENANCE_OPTIMIZED
    sketch_c: float = 4.0
    estimation: str = "bootstrap"
    sampler: str = SAMPLER_PREMAP
    confidence: float = 0.95
    seed: SeedLike = None
    B_override: Optional[int] = None
    n_override: Optional[int] = None
    executor: str = EXECUTOR_SERIAL
    max_workers: Optional[int] = None
    #: Recovery behaviour for the MapReduce jobs an EARL driver runs
    #: (retries/blacklisting/speculation/salvage — see
    #: :class:`repro.mapreduce.faults.FaultPolicy`).  ``None`` keeps the
    #: engine byte-identical to the fault-oblivious path.
    fault_policy: Optional[FaultPolicy] = None

    def __post_init__(self) -> None:
        check_fraction("sigma", self.sigma, inclusive_high=True)
        check_fraction("tau", self.tau, inclusive_high=True)
        check_fraction("pilot_fraction", self.pilot_fraction,
                       inclusive_high=True)
        check_positive_int("B_min", self.B_min)
        if self.B_min < 2:
            raise ValueError("B_min must be at least 2")
        check_positive_int("stability_window", self.stability_window)
        check_positive_int("min_pilot_size", self.min_pilot_size)
        check_positive_int("subsample_levels", self.subsample_levels)
        check_positive("expansion_factor", self.expansion_factor)
        if self.expansion_factor <= 1.0:
            raise ValueError("expansion_factor must exceed 1.0")
        check_positive_int("max_iterations", self.max_iterations)
        if self.error_metric not in ERROR_METRICS:
            raise ValueError(f"unknown error metric {self.error_metric!r}")
        if self.maintenance not in (MAINTENANCE_OPTIMIZED, MAINTENANCE_NAIVE,
                                    MAINTENANCE_NONE):
            raise ValueError(f"unknown maintenance mode {self.maintenance!r}")
        check_positive("sketch_c", self.sketch_c)
        if self.estimation not in ("bootstrap", "jackknife"):
            raise ValueError(
                f"unknown estimation strategy {self.estimation!r}")
        if self.sampler not in (SAMPLER_PREMAP, SAMPLER_POSTMAP):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        check_fraction("confidence", self.confidence, inclusive_high=False)
        if self.B_override is not None:
            check_positive_int("B_override", self.B_override)
        if self.n_override is not None:
            check_positive_int("n_override", self.n_override)
        if self.executor not in available_executors():
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"known: {available_executors()}")
        if self.max_workers is not None:
            check_positive_int("max_workers", self.max_workers)
