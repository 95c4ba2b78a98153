"""Simulated-time cost model for the cluster substrate.

The paper's evaluation (Figures 5, 6, 7, 9, 10) reports *processing time*
on a 5-node Hadoop cluster.  Running a Python in-process MapReduce engine
and reporting its wall-clock time would say nothing about that cluster, so
this module provides a deterministic cost model instead: every simulated
component (HDFS reads, shuffles, user functions, task start-up) charges
simulated seconds to a :class:`CostLedger`.  The scheduler then combines
per-task ledgers into a job makespan.

The default constants approximate the paper's testbed (commodity disks at
~100 MB/s, 1 GbE network, ~1 s JVM task start-up, a few seconds of job
set-up).  Only *ratios* matter for reproducing the paper's curves — e.g.
full-scan I/O versus a 1 % sample, or job-restart overhead versus reuse of
a running mapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, TypeVar

from repro.obs.metrics import REGISTRY as _METRICS
from repro.util.stats import repeated_sum
from repro.util.validation import check_positive

_T = TypeVar("_T")


@dataclass(frozen=True)
class CostParameters:
    """Constants of the simulated cluster hardware.

    Attributes
    ----------
    disk_bandwidth:
        Sequential read/write bandwidth of one DataNode disk, bytes/second.
    disk_seek_seconds:
        Cost of one random seek (pre-map sampling pays one per sampled
        line, a full scan pays one per block).
    network_bandwidth:
        Point-to-point bandwidth between nodes, bytes/second (shuffle and
        replication traffic).
    cpu_seconds_per_record:
        Baseline cost of pushing one record through a map or reduce
        function.  Jobs can scale this with a per-job ``cpu_factor``.
    task_startup_seconds:
        Cost of launching one task attempt (JVM start in Hadoop).  EARL
        avoids re-paying this by keeping mappers alive across iterations.
    job_setup_seconds:
        Fixed per-job scheduling/submission overhead.
    """

    disk_bandwidth: float = 100e6
    disk_seek_seconds: float = 0.01
    network_bandwidth: float = 125e6
    cpu_seconds_per_record: float = 2e-7
    task_startup_seconds: float = 1.0
    job_setup_seconds: float = 3.0

    def __post_init__(self) -> None:
        check_positive("disk_bandwidth", self.disk_bandwidth)
        check_positive("network_bandwidth", self.network_bandwidth)
        check_positive("cpu_seconds_per_record", self.cpu_seconds_per_record)
        if self.disk_seek_seconds < 0 or self.task_startup_seconds < 0 \
                or self.job_setup_seconds < 0:
            raise ValueError("overhead constants cannot be negative")


#: Ledger categories, used for breakdown reporting in the benchmarks.
CATEGORIES = ("disk_read", "disk_write", "disk_seek", "network", "cpu", "startup")


@dataclass
class CostLedger:
    """Accumulator of simulated seconds, broken down by category.

    One ledger per simulated task; the scheduler sums a task's ledger into
    its duration, and a job-level ledger tracks driver-side costs.
    """

    params: CostParameters = field(default_factory=CostParameters)
    _seconds: Dict[str, float] = field(default_factory=dict)
    _published: Dict[str, float] = field(default_factory=dict, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        for cat in CATEGORIES:
            self._seconds.setdefault(cat, 0.0)

    # -- charging ----------------------------------------------------------
    def charge_disk_read(self, nbytes: float) -> None:
        """Charge a sequential read of ``nbytes`` (logical) bytes."""
        self._charge("disk_read", nbytes / self.params.disk_bandwidth)

    def charge_disk_write(self, nbytes: float) -> None:
        self._charge("disk_write", nbytes / self.params.disk_bandwidth)

    def charge_seeks(self, count: int = 1) -> None:
        """Charge ``count`` random disk seeks."""
        if count < 0:
            raise ValueError("seek count cannot be negative")
        self._charge("disk_seek", count * self.params.disk_seek_seconds)

    def charge_probe_sequence(self, seek_counts, nbytes_seq) -> None:
        """Charge a sequence of random probes: per probe, ``seek_counts[i]``
        seeks then ``nbytes_seq[i]`` read bytes.

        Exactly equivalent to calling :meth:`charge_seeks` /
        :meth:`charge_disk_read` once per probe — the accumulation is
        the same left-to-right float addition, so totals are
        bit-identical — but without per-probe method dispatch (the
        batched samplers charge tens of thousands of probes per round).
        """
        seek_cost = self.params.disk_seek_seconds
        bandwidth = self.params.disk_bandwidth
        seconds = self._seconds
        seeks = seconds["disk_seek"]
        reads = seconds["disk_read"]
        for count, nbytes in zip(seek_counts, nbytes_seq):
            if count < 0 or nbytes < 0:
                raise ValueError("cannot charge negative time")
            seeks += count * seek_cost
            reads += nbytes / bandwidth
        seconds["disk_seek"] = seeks
        seconds["disk_read"] = reads

    def charge_network(self, nbytes: float) -> None:
        """Charge a transfer of ``nbytes`` between two nodes."""
        self._charge("network", nbytes / self.params.network_bandwidth)

    def charge_cpu_records(self, records: float, cpu_factor: float = 1.0) -> None:
        """Charge CPU for processing ``records`` records.

        ``cpu_factor`` scales the baseline per-record cost; heavy analytics
        (K-Means distance computations) use factors > 1.
        """
        if records < 0:
            raise ValueError("record count cannot be negative")
        self._charge("cpu", records * self.params.cpu_seconds_per_record * cpu_factor)

    def charge_cpu_per_record(self, records: Iterable[_T], scale: float,
                              cpu_factor: float = 1.0) -> Iterator[_T]:
        """Hand ``records`` on one by one, charging CPU for ``scale``
        records just before each is handed on.

        Exactly equivalent to calling :meth:`charge_cpu_records` ahead
        of every record: the same left-to-right float additions, and a
        charge the consumer makes on this ledger between two records
        keeps its place in the sum, so totals are bit-identical.  The
        cost is priced and checked once, not per record (a map task
        charges every record it reads).
        """
        if scale < 0:
            raise ValueError("record count cannot be negative")
        cost = scale * self.params.cpu_seconds_per_record * cpu_factor
        if cost < 0:
            raise ValueError("cannot charge negative time")
        seconds = self._seconds
        for record in records:
            seconds["cpu"] += cost
            yield record

    def charge_cpu_record_run(self, count: int, scale: float,
                              cpu_factor: float = 1.0) -> None:
        """:meth:`charge_cpu_per_record` over ``count`` records, without
        the records: the same ``count`` left-to-right additions of one
        record's cost (see :func:`~repro.util.stats.repeated_sum`), so
        the total is bit-identical."""
        if scale < 0:
            raise ValueError("record count cannot be negative")
        cost = scale * self.params.cpu_seconds_per_record * cpu_factor
        if cost < 0:
            raise ValueError("cannot charge negative time")
        self._seconds["cpu"] = repeated_sum(self._seconds["cpu"], cost, count)

    def charge_cpu_seconds(self, seconds: float) -> None:
        self._charge("cpu", seconds)

    def charge_task_startup(self, tasks: int = 1) -> None:
        self._charge("startup", tasks * self.params.task_startup_seconds)

    def charge_backoff(self, seconds: float) -> None:
        """Charge a simulated idle wait (task-retry backoff).

        Booked under ``startup`` — like a task launch, it is scheduling
        overhead during which the slot does no useful work."""
        self._charge("startup", seconds)

    def charge_job_setup(self) -> None:
        self._charge("startup", self.params.job_setup_seconds)

    def _charge(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._seconds[category] += seconds

    # -- reading -----------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Total simulated seconds across all categories."""
        return sum(self._seconds.values())

    def seconds(self, category: str) -> float:
        """Simulated seconds charged to one category."""
        if category not in self._seconds:
            raise KeyError(f"unknown cost category {category!r}")
        return self._seconds[category]

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-category accounting."""
        return dict(self._seconds)

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's charges into this one (serial composition)."""
        for cat, secs in other._seconds.items():
            self._seconds[cat] = self._seconds.get(cat, 0.0) + secs

    def spawn(self) -> "CostLedger":
        """New empty ledger sharing this ledger's cost parameters."""
        return CostLedger(params=self.params)

    def reset(self) -> None:
        for cat in self._seconds:
            self._seconds[cat] = 0.0
        self._published.clear()

    # -- telemetry ---------------------------------------------------------
    def publish(self, labels: Optional[Mapping[str, object]] = None) -> None:
        """Publish this ledger's charges into the metrics registry.

        Only the delta since the previous :meth:`publish` is pushed, so
        the registry's ``repro_sim_cost_seconds_total`` series reconcile
        exactly with ledger totals however often callers publish.  A
        single attribute check when telemetry is disabled.
        """
        if not _METRICS.enabled:
            return
        for cat, secs in self._seconds.items():
            delta = secs - self._published.get(cat, 0.0)
            if delta > 0:
                _publish_cost(cat, delta, labels)
                self._published[cat] = secs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self._seconds.items() if v)
        return f"CostLedger({parts or 'empty'})"


def _publish_cost(category: str, seconds: float,
                  labels: Optional[Mapping[str, object]] = None) -> None:
    series = {"category": category}
    if labels:
        series.update({str(k): v for k, v in labels.items()})
    _METRICS.counter(
        "repro_sim_cost_seconds_total", labels=series,
        help="simulated cluster seconds, by cost-model category").inc(seconds)


def publish_cost_breakdown(breakdown: Mapping[str, float],
                           labels: Optional[Mapping[str, object]] = None) \
        -> None:
    """Publish a merged per-category breakdown (e.g. a ``JobResult``'s)
    into the registry.  No-op when telemetry is disabled."""
    if not _METRICS.enabled:
        return
    for cat, secs in breakdown.items():
        if secs > 0:
            _publish_cost(cat, secs, labels)
