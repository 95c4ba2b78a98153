"""Execution engine: runs a :class:`JobConf` on a simulated cluster.

The engine actually executes the user's map and reduce functions over the
stored records (results are real), while charging simulated time for I/O,
CPU, shuffle and task start-up (durations are modelled).  Scheduling over
the cluster's slots turns per-task durations into a job makespan.

Two execution modes mirror the paper:

* **cluster mode** — tasks pay start-up costs and run in parallel waves
  over the cluster's map/reduce slots.
* **local mode** (§3.2) — "we run the user's MR job in a local mode
  without launching a separate JVM": no start-up or set-up charges, tasks
  run serially.  EARL uses this for its pilot-phase parameter estimation.

A third knob, ``warm_start``, models EARL's persistent mappers (§2.1
modification 2): when the sample is expanded, already-running tasks are
reused, so neither job set-up nor task start-up is charged again.

Real execution of a wave's tasks can fan out over an
:class:`~repro.exec.Executor` (threads or processes) when every
component of the wave declares itself ``parallel_safe`` — see
:func:`wave_parallelizable`.  Only *where* tasks run changes: each task
already owns a pre-spawned RNG stream and a private ledger, and results
are gathered in task order, so parallel backends are byte-identical to
serial execution.  The simulated :class:`CostLedger` accounting and the
slot-scheduled makespan are computed from the same per-task durations
regardless of backend.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Protocol, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostLedger
from repro.cluster.scheduler import schedule_tasks
from repro.exec.executor import BroadcastHandle, Executor, broadcast_value
from repro.hdfs.errors import BlockUnavailableError
from repro.hdfs.filesystem import HDFS
from repro.hdfs.record_reader import LineRecordReader
from repro.hdfs.splits import InputSplit
from repro.mapreduce import counters as C
from repro.mapreduce.combiner import run_combiner
from repro.mapreduce.counters import Counters
from repro.mapreduce.errors import JobFailedError, TaskFailedError
from repro.mapreduce.faults import FaultPolicy
from repro.mapreduce.job import (
    ON_UNAVAILABLE_FAIL,
    ON_UNAVAILABLE_SKIP,
    JobConf,
    JobResult,
)
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.types import (
    PAIR_FRAMING_BYTES,
    KeyValue,
    TaskContext,
    estimate_bytes,
)
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.util.rng import ensure_rng, spawn_child


class RecordSource(Protocol):
    """Strategy that turns an input split into a record stream.

    The default is a full scan; EARL's pre-map sampler substitutes a
    random-probe source.  ``scales_with_file`` tells the engine whether
    CPU/shuffle volumes should be multiplied by the file's logical scale.
    It is true for full scans *and* for samplers: in the stand-in world
    every actual record represents ``logical_scale`` records, so a
    sampled record is a proxy for a ``logical_scale``-sized slice of the
    real sample (the paper sizes samples as a fraction ``p`` of the
    data, so real sample volumes grow with the file).  Set it false only
    for sources whose records are literal, unscaled data.

    ``parallel_safe`` declares that concurrent ``read`` calls for
    different splits neither race on shared state nor need their
    mutations seen by the driver — the condition for the engine to fan
    the map wave out over a parallel :class:`~repro.exec.Executor`.
    Stateful samplers (which accumulate ``sampled_count`` across splits)
    must leave it false; the engine then runs their wave serially.
    """

    scales_with_file: bool
    parallel_safe: bool

    def read(self, fs: HDFS, split: InputSplit, ledger: CostLedger,
             rng: np.random.Generator) -> Iterator[KeyValue]:
        ...  # pragma: no cover - protocol


class FullScanSource:
    """Default record source: read every line of the split.

    Scans through the filesystem's columnar split cache whenever it can
    serve the split: a split's bytes are newline-indexed and decoded
    once, and every later scan of the same split — another job of an
    iterative driver, another wave on the same pool worker — is a list
    replay.  Simulated charges and records are byte-identical to the
    scalar scan the reader falls back to.
    """

    scales_with_file = True
    #: Pure function of (fs, split): safe on every backend.
    parallel_safe = True

    def read(self, fs: HDFS, split: InputSplit, ledger: CostLedger,
             rng: np.random.Generator) -> Iterator[KeyValue]:
        return iter(LineRecordReader(fs, split, ledger=ledger).read_records())


def wave_parallelizable(conf: JobConf, source: RecordSource,
                        executor: Optional[Executor], *,
                        reduce_side: bool) -> bool:
    """Whether a task wave may fan out over ``executor``.

    Requires a parallel backend, cluster (non-local) mode — the paper's
    local mode is *defined* as serial single-process execution (§3.2) —
    and a ``parallel_safe = True`` declaration from every user component
    involved in the wave (map side: record source, mapper, combiner;
    reduce side: reducer).  Components that don't declare themselves are
    treated as stateful and keep their wave serial, so correctness never
    depends on a user class anticipating this engine feature.
    """
    if executor is None or not executor.is_parallel or conf.local_mode:
        return False
    if reduce_side:
        return bool(getattr(conf.reducer, "parallel_safe", False))
    return (bool(getattr(source, "parallel_safe", False))
            and bool(getattr(conf.mapper, "parallel_safe", False))
            and (conf.combiner is None
                 or bool(getattr(conf.combiner, "parallel_safe", False))))


@dataclass
class _MapTaskResult:
    partitions: List[List[KeyValue]]
    partition_bytes: List[float]
    partition_records: List[float]
    duration: float
    counters: Counters
    ledger: CostLedger
    skipped: bool = False
    #: Failed attempts absorbed by the retry loop (0 without faults).
    failed_attempts: int = 0
    #: Logical bytes of the split's unread tail when the task salvaged a
    #: partial read after mid-task block loss.
    lost_logical: float = 0.0
    salvaged: bool = False


@dataclass
class _ReduceTaskResult:
    output: List[KeyValue]
    duration: float
    counters: Counters
    ledger: CostLedger
    failed_attempts: int = 0


@dataclass
class _MapTaskArgs:
    """Everything one map task needs, bundled so the task is a pure
    picklable function of its arguments (a process-pool requirement).

    ``fs`` may be the filesystem itself or a
    :class:`~repro.exec.BroadcastHandle` wrapping it: when a map wave
    fans out over a process pool, :class:`JobClient` broadcasts the fs
    once for the wave, so each worker receives it a single time (at
    pool construction) instead of unpickling the whole simulated HDFS
    per task — and the worker's copy keeps its own split cache warm
    across every task and wave it runs."""

    fs: Any  # HDFS | BroadcastHandle[HDFS]
    ledger: CostLedger
    conf: JobConf
    source: RecordSource
    split: InputSplit
    rng: np.random.Generator
    record_scale: float
    warm_start: bool
    #: Active fault policy (None when disabled — the byte-identical path).
    policy: Optional[FaultPolicy] = None
    #: Duration multiplier of the node this task was placed on.
    slow_factor: float = 1.0
    #: 0-based attempt number, bumped by the retry wrapper.
    attempt: int = 0


@dataclass
class _ReduceTaskArgs:
    """Argument bundle of one reduce task (see :class:`_MapTaskArgs`)."""

    ledger: CostLedger
    conf: JobConf
    partition: int
    pairs: List[KeyValue]
    in_bytes: float
    in_records: float
    rng: np.random.Generator
    record_scale: float
    warm_start: bool
    policy: Optional[FaultPolicy] = None
    slow_factor: float = 1.0
    attempt: int = 0


class JobClient:
    """Submits jobs to a simulated cluster (the ``JobClient.runJob`` of
    the paper's Figure 4).

    Parameters
    ----------
    cluster:
        The simulated cluster jobs run against.
    executor:
        Optional :class:`~repro.exec.Executor` that parallel-safe task
        waves fan out over (see :func:`wave_parallelizable`).  ``None``
        keeps the engine fully serial.  The caller owns the executor's
        lifecycle; the client never closes it.
    """

    def __init__(self, cluster: Cluster,
                 executor: Optional[Executor] = None) -> None:
        self.cluster = cluster
        self.executor = executor
        #: Nodes removed from scheduling after repeated task failures
        #: (populated only when a job's FaultPolicy enables blacklisting;
        #: persists across the runs of an iterative driver).
        self.blacklisted_nodes: set = set()
        self._node_failures: Dict[str, int] = {}
        #: Cached fs broadcast for the non-shared-memory backends,
        #: keyed by fs identity + mutation count — reused across waves
        #: and runs so a process pool ships (and forks around) the
        #: filesystem once, not once per wave.
        self._fs_broadcast: Optional[BroadcastHandle] = None
        self._fs_broadcast_key: Optional[tuple] = None

    def _broadcast_fs(self, fs: HDFS) -> BroadcastHandle:
        """The executor-resident copy of ``fs`` for parallel map waves.

        Broadcast once and reused while the filesystem is unchanged;
        any namespace/availability mutation (``fs.mutation_count``)
        retires the stale copy and ships a fresh one, so workers never
        read outdated state.  The handle lives until the executor is
        closed (one payload per client — nothing accumulates), which is
        what lets pool workers keep their split caches warm across
        waves and across the runs of an iterative driver.
        """
        version = getattr(fs, "mutation_count", None)
        # id(fs) is stable while the cached entry lives: the broadcast
        # handle itself keeps the old fs referenced, so its id cannot
        # be recycled before the entry is replaced.
        key = (id(fs), version)
        if self._fs_broadcast is None \
                or self._fs_broadcast_key != key \
                or version is None:
            if self._fs_broadcast is not None:
                self.executor.release(self._fs_broadcast)
            self._fs_broadcast = self.executor.broadcast(fs)
            self._fs_broadcast_key = key
        return self._fs_broadcast

    # ------------------------------------------------------------- placement
    def _placement_nodes(self) -> List[str]:
        """Node ids eligible for task placement: healthy and not
        blacklisted (falling back to all healthy nodes if the blacklist
        would otherwise empty the cluster)."""
        nodes = [n.node_id for n in self.cluster.healthy_nodes
                 if n.node_id not in self.blacklisted_nodes]
        if not nodes:
            nodes = [n.node_id for n in self.cluster.healthy_nodes]
        return nodes

    def _slots_excluding(self, blacklist: set, *, reduce_side: bool) -> int:
        """Slot count over healthy, non-blacklisted nodes (all healthy
        nodes if the blacklist would leave no slots)."""
        nodes = [n for n in self.cluster.healthy_nodes
                 if n.node_id not in blacklist]
        if not nodes:
            nodes = self.cluster.healthy_nodes
        if reduce_side:
            return sum(n.reduce_slots for n in nodes)
        return sum(n.map_slots for n in nodes)

    def _update_blacklist(self, nodes: List[Optional[str]], results,
                          policy: FaultPolicy,
                          job_counters: Counters) -> None:
        """Attribute a wave's failed attempts to the nodes the tasks ran
        on and blacklist repeat offenders."""
        for node_id, result in zip(nodes, results):
            if node_id is None or not result.failed_attempts:
                continue
            count = self._node_failures.get(node_id, 0) \
                + result.failed_attempts
            self._node_failures[node_id] = count
            if count >= policy.blacklist_after \
                    and node_id not in self.blacklisted_nodes:
                self.blacklisted_nodes.add(node_id)
                job_counters.increment(C.BLACKLISTED_NODES)

    # ------------------------------------------------------------------ run
    def run(self, conf: JobConf, *,
            record_source: Optional[RecordSource] = None,
            splits: Optional[List[InputSplit]] = None,
            warm_start: bool = False) -> JobResult:
        """Execute ``conf`` and return its :class:`JobResult`.

        Parameters
        ----------
        record_source:
            Override how splits become records (EARL's pre-map sampling).
        splits:
            Explicit split list (EARL feeds subsets when expanding the
            sample incrementally); default: all splits of the input.
        warm_start:
            Reuse already-running tasks — skip job set-up and task
            start-up charges (EARL's persistent-mapper modification).
        """
        fs = self.cluster.hdfs
        job_id = conf.new_job_id()
        source = record_source or FullScanSource()
        if splits is None:
            splits = fs.get_splits(conf.input_path, conf.split_logical_bytes)

        driver = self.cluster.new_ledger()
        if conf.output_path is not None and fs.exists(conf.output_path):
            raise JobFailedError(
                f"output path {conf.output_path} already exists "
                "(Hadoop semantics: refusing to overwrite)")
        if not conf.local_mode and not warm_start:
            driver.charge_job_setup()

        rng = ensure_rng(conf.seed)
        n_tasks = max(1, len(splits))
        task_rngs = spawn_child(rng, n_tasks + conf.n_reducers)

        meta_scale = 1.0
        if fs.exists(conf.input_path):
            meta = fs.namenode.get(conf.input_path)
            if meta.size:
                meta_scale = meta.logical_scale
        record_scale = meta_scale if source.scales_with_file else 1.0

        # ----------------------------------------------------------- map
        skipped_logical = 0.0
        total_logical = sum(s.logical_length for s in splits) or 1
        map_parallel = wave_parallelizable(conf, source, self.executor,
                                           reduce_side=False)
        # Fault mode: an enabled FaultPolicy and/or chaos-injected slow
        # nodes switch the waves to the attempt wrapper and give every
        # task a deterministic round-robin node placement.  With neither
        # active the wrapper is bypassed entirely — the byte-identical
        # legacy path.
        policy = conf.fault_policy
        if policy is not None and not policy.enabled:
            policy = None
        slow_factors: Dict[str, float] = \
            getattr(self.cluster, "slow_factors", {})
        fault_mode = policy is not None or bool(slow_factors)
        place_tasks = fault_mode and not conf.local_mode
        map_blacklist = set(self.blacklisted_nodes)
        map_eligible = self._placement_nodes() if place_tasks else []
        map_nodes: List[Optional[str]] = [
            map_eligible[i % len(map_eligible)] if map_eligible else None
            for i in range(len(splits))]
        # Broadcast-once data plane for the wave's one large shared
        # input: on a process pool the whole simulated HDFS ships to
        # each worker a single time (at pool construction) instead of
        # being pickled into every map task, and the worker-resident
        # copy keeps its split cache warm across tasks, waves and runs
        # (the handle is cached on the client while the fs is
        # unchanged).  Shared-memory backends resolve it to a zero-copy
        # reference.
        fs_arg: Any = fs
        if map_parallel and not self.executor.shares_memory:
            fs_arg = self._broadcast_fs(fs)
        map_args = [
            _MapTaskArgs(fs=fs_arg, ledger=self.cluster.new_ledger(),
                         conf=conf, source=source, split=split,
                         rng=task_rngs[i], record_scale=record_scale,
                         warm_start=warm_start, policy=policy,
                         slow_factor=slow_factors.get(map_nodes[i], 1.0)
                         if map_nodes[i] is not None else 1.0)
            for i, split in enumerate(splits)]
        map_task_fn = _run_map_task_attempts if fault_mode \
            else _execute_map_task
        with _TRACER.span("mapreduce.map_wave",
                          attrs={"job_id": job_id,
                                 "tasks": len(map_args)}):
            if map_parallel:
                map_results = self.executor.map(map_task_fn, map_args)
            else:
                map_results = [map_task_fn(args) for args in map_args]
        for split, result in zip(splits, map_results):
            if result.skipped:
                skipped_logical += split.logical_length
            elif result.lost_logical:
                skipped_logical += result.lost_logical

        job_counters = Counters()
        for r in map_results:
            job_counters.merge(r.counters)
        if policy is not None and policy.blacklist_after > 0:
            self._update_blacklist(map_nodes, map_results, policy,
                                   job_counters)

        # -------------------------------------------------------- shuffle
        # Assembled partition-major: each reducer's input is one run of
        # ``extend`` calls over the map outputs (same pair order as the
        # map-major nested loop — map results are visited in task order
        # within every partition — without re-touching all ``n_red``
        # partition lists once per map task).
        n_red = conf.n_reducers
        shuffle: List[List[KeyValue]] = []
        shuffle_bytes: List[float] = []
        shuffle_records: List[float] = []
        for p in range(n_red):
            bucket: List[KeyValue] = []
            for r in map_results:
                bucket.extend(r.partitions[p])
            shuffle.append(bucket)
            shuffle_bytes.append(
                sum(r.partition_bytes[p] for r in map_results))
            shuffle_records.append(
                sum(r.partition_records[p] for r in map_results))

        # --------------------------------------------------------- reduce
        red_eligible = self._placement_nodes() if place_tasks else []
        red_nodes: List[Optional[str]] = [
            red_eligible[(n_tasks + p) % len(red_eligible)]
            if red_eligible else None
            for p in range(n_red)]
        reduce_args = [
            _ReduceTaskArgs(ledger=self.cluster.new_ledger(), conf=conf,
                            partition=p, pairs=shuffle[p],
                            in_bytes=shuffle_bytes[p],
                            in_records=shuffle_records[p],
                            rng=task_rngs[n_tasks + p],
                            record_scale=record_scale,
                            warm_start=warm_start, policy=policy,
                            slow_factor=slow_factors.get(red_nodes[p], 1.0)
                            if red_nodes[p] is not None else 1.0)
            for p in range(n_red)]
        reduce_task_fn = _run_reduce_task_attempts if fault_mode \
            else _execute_reduce_task
        with _TRACER.span("mapreduce.reduce_wave",
                          attrs={"job_id": job_id, "tasks": n_red}):
            if wave_parallelizable(conf, source, self.executor,
                                   reduce_side=True):
                reduce_results = self.executor.map(reduce_task_fn,
                                                   reduce_args)
            else:
                reduce_results = [reduce_task_fn(args)
                                  for args in reduce_args]
        for out in reduce_results:
            job_counters.merge(out.counters)
        if policy is not None and policy.blacklist_after > 0:
            self._update_blacklist(red_nodes, reduce_results, policy,
                                   job_counters)

        # ------------------------------------------------------- makespan
        map_durations = [r.duration for r in map_results]
        red_durations = [r.duration for r in reduce_results]
        spec_ledger: Optional[CostLedger] = None
        if policy is not None and policy.speculative and not conf.local_mode:
            spec_ledger = self.cluster.new_ledger()
            map_durations, n_spec_map = _speculate(map_durations, policy,
                                                   spec_ledger)
            red_durations, n_spec_red = _speculate(red_durations, policy,
                                                   spec_ledger)
            if n_spec_map or n_spec_red:
                job_counters.increment(C.SPECULATIVE_TASKS,
                                       n_spec_map + n_spec_red)
        if conf.local_mode:
            simulated = driver.total_seconds + sum(map_durations) + sum(red_durations)
        else:
            if fault_mode:
                # Blacklisted machines stop contributing slots: the map
                # wave ran against the blacklist as of submission, the
                # reduce wave also excludes nodes blacklisted during it.
                map_slots = max(1, self._slots_excluding(
                    map_blacklist, reduce_side=False))
                red_slots = max(1, self._slots_excluding(
                    self.blacklisted_nodes, reduce_side=True))
            else:
                map_slots = max(1, self.cluster.total_map_slots)
                red_slots = max(1, self.cluster.total_reduce_slots)
            map_span = schedule_tasks(map_durations, map_slots).makespan
            red_span = schedule_tasks(red_durations, red_slots).makespan
            simulated = driver.total_seconds + map_span + red_span

        breakdown = driver.breakdown()
        for r in map_results:
            for cat, secs in r.ledger.breakdown().items():
                breakdown[cat] = breakdown.get(cat, 0.0) + secs
        for out in reduce_results:
            for cat, secs in out.ledger.breakdown().items():
                breakdown[cat] = breakdown.get(cat, 0.0) + secs
        if spec_ledger is not None:
            # Speculative copies burn cluster resources (accounted in
            # the breakdown) but run on spare slots, so they shorten the
            # makespan rather than extending the driver's critical path.
            for cat, secs in spec_ledger.breakdown().items():
                breakdown[cat] = breakdown.get(cat, 0.0) + secs

        output: List[KeyValue] = []
        for out in reduce_results:
            output.extend(out.output)

        if conf.output_path is not None:
            lines = [f"{key}\t{value}" for key, value in output]
            fs.write_lines(conf.output_path, lines, ledger=driver)

        if _METRICS.enabled:
            # One publish per finished job: the per-category simulated
            # cost (the exact JobResult breakdown, so registry totals
            # reconcile with CostLedger sums) plus the Hadoop counters.
            from repro.cluster.costmodel import publish_cost_breakdown
            publish_cost_breakdown(breakdown)
            job_counters.publish()
            _METRICS.counter("repro_mr_jobs_total",
                             help="MapReduce jobs completed").inc()
            _METRICS.counter("repro_mr_tasks_total",
                             labels={"wave": "map"},
                             help="tasks run, by wave").inc(len(splits))
            _METRICS.counter("repro_mr_tasks_total",
                             labels={"wave": "reduce"}).inc(n_red)

        return JobResult(
            job_id=job_id,
            output=output,
            counters=job_counters,
            simulated_seconds=simulated,
            map_tasks=len(splits),
            reduce_tasks=n_red,
            skipped_splits=job_counters.get(C.SKIPPED_SPLITS),
            input_fraction=1.0 - skipped_logical / total_logical,
            breakdown=breakdown,
            driver_ledger=driver,
        )

# --------------------------------------------------------------- map tasks
def _execute_map_task(args: _MapTaskArgs) -> _MapTaskResult:
    """Run one map task.

    Module-level (not a :class:`JobClient` method) so a process-pool
    backend can pickle it by reference; everything it touches arrives in
    ``args`` and everything it produces leaves in the result — there is
    no hidden driver state, which is what makes the fan-out safe.

    Per record the task pays one call of the user's ``map`` (plus the
    ledger's one float addition of CPU); counters are added once per
    task and routing once per key (see :func:`_partition_pairs`).
    """
    fs = broadcast_value(args.fs)
    conf = args.conf
    split = args.split
    ledger = args.ledger
    policy = args.policy
    counters = Counters()
    if not conf.local_mode and not args.warm_start:
        ledger.charge_task_startup()

    n_red = conf.n_reducers
    if not fs.split_available(split):
        if conf.on_unavailable == ON_UNAVAILABLE_FAIL:
            raise JobFailedError(
                f"split {split.index} of {split.path} is unavailable "
                "(all replicas lost)")
        return _skipped_map_task(n_red, ledger, counters)

    ctx = TaskContext(ledger=ledger, counters=counters, rng=args.rng,
                      record_scale=args.record_scale,
                      cpu_factor=conf.cpu_factor, config=dict(conf.params),
                      task_id=f"map-{split.index}", attempt=args.attempt)
    mapper = conf.mapper
    buffered: List[KeyValue] = []
    may_salvage = (policy is not None and policy.salvage_partial_splits
                   and conf.on_unavailable == ON_UNAVAILABLE_SKIP)
    salvaged = False
    lost_logical = 0.0
    # ``taken`` counts the records the loop took and ``key`` is the last
    # one's key (a byte offset for text input); both survive a read that
    # dies mid-split.
    taken = 0
    key: Any = None
    read = functools.partial(args.source.read, fs, split, ledger, args.rng)
    mapper.setup(ctx)
    while True:
        try:
            for taken, (key, value) in enumerate(
                    ledger.charge_cpu_per_record(read(), args.record_scale,
                                                 conf.cpu_factor),
                    taken + 1):
                buffered.extend(mapper.map(key, value, ctx))
            break
        except BlockUnavailableError as exc:
            # The availability pre-check covers the split's own blocks,
            # but a record reader legitimately over-reads past the split
            # end (to finish its last line) and can hit a lost block
            # mid-task.  With retries left, hand the read back to the
            # attempt wrapper (which refreshes the split cache and
            # retries against surviving replicas); otherwise apply the
            # job's unavailability policy — optionally salvaging the
            # records the task already took.
            if salvaged:
                break  # the re-scan lost a block too: keep what we have
            if policy is not None and args.attempt < policy.max_task_retries:
                raise
            if not may_salvage:
                if conf.on_unavailable == ON_UNAVAILABLE_FAIL:
                    raise JobFailedError(
                        f"map task {split.index} of {split.path} lost its "
                        f"input mid-read: {exc}") from exc
                if taken:
                    counters.increment(C.MAP_INPUT_RECORDS, taken)
                return _skipped_map_task(n_red, ledger, counters)
            # Degrade, don't die: keep the prefix read before the loss
            # and account the unread tail of the split as lost input.
            salvaged = True
            if taken or not isinstance(args.source, FullScanSource):
                break
            # The scalar scan reads its whole range up front, so a lost
            # tail block voided the entire read.  Re-scan just the
            # surviving prefix — served by intact replicas — through
            # the same loop.
            read = LineRecordReader(fs, split,
                                    ledger=ledger).read_records_salvage
    if salvaged:
        consumed = 0.0
        if taken and isinstance(key, (int, np.integer)) and split.length > 0:
            consumed = min(1.0, max(
                0.0, (int(key) - split.start) / split.length))
        lost_logical = (1.0 - consumed) * split.logical_length
        counters.increment(C.SALVAGED_SPLITS)
    buffered.extend(mapper.cleanup(ctx))
    if taken:
        counters.increment(C.MAP_INPUT_RECORDS, taken)
    counters.increment(C.MAP_OUTPUT_RECORDS, len(buffered))

    if conf.combiner is not None and buffered:
        ledger.charge_cpu_records(len(buffered) * args.record_scale,
                                  conf.cpu_factor)
        buffered = run_combiner(conf.combiner, buffered, ctx)
        # Combined output is O(#keys): it no longer scales with the file.
        pair_scale = 1.0
    else:
        pair_scale = args.record_scale

    partitions, partition_bytes, partition_records = _partition_pairs(
        buffered, HashPartitioner(n_red), pair_scale)
    return _MapTaskResult(partitions=partitions,
                          partition_bytes=partition_bytes,
                          partition_records=partition_records,
                          duration=ledger.total_seconds,
                          counters=counters, ledger=ledger,
                          lost_logical=lost_logical, salvaged=salvaged)


def _skipped_map_task(n_red: int, ledger: CostLedger,
                      counters: Counters) -> _MapTaskResult:
    """Result of a map task whose split was skipped as unavailable."""
    counters.increment(C.SKIPPED_SPLITS)
    counters.increment(C.FAILED_TASKS)
    return _MapTaskResult(partitions=[[] for _ in range(n_red)],
                          partition_bytes=[0.0] * n_red,
                          partition_records=[0.0] * n_red,
                          duration=ledger.total_seconds,
                          counters=counters, ledger=ledger, skipped=True)


#: Stands for "no previous key" in the per-key memos (``None`` is a key).
_NO_KEY = object()
#: What :func:`estimate_bytes` gives any exact ``float``.
_FLOAT_BYTES = estimate_bytes(0.0)


def _partition_pairs(pairs: List[KeyValue], partitioner: HashPartitioner,
                     pair_scale: float
                     ) -> Tuple[List[List[KeyValue]], List[float],
                                List[float]]:
    """Route map output to reducers and price each partition.

    Same integers and the same float sums, in pair order, as calling
    ``partitioner.partition`` and :func:`estimate_pair_bytes` on every
    pair; but a key is routed and sized once per run of one key object
    (once per distinct value for ``str`` keys), and per pair only the
    value is sized, a constant for an exact ``float``.  Keys are never
    memoized by bare equality: ``0.0`` and ``-0.0``, or ``1``, ``1.0``
    and ``True``, are equal keys that route by different reprs.  The
    shuffle carries fresh ``(key, value)`` tuples whatever the mapper
    yielded.
    """
    n_red = partitioner.num_partitions
    partitions: List[List[KeyValue]] = [[] for _ in range(n_red)]
    partition_bytes = [0.0] * n_red
    partition_records = [0.0] * n_red
    str_routes: Dict[str, Tuple[int, int]] = {}
    last_key: Any = _NO_KEY
    p = 0
    nbytes = nrecords = 0.0
    for key, value in pairs:
        if key is not last_key:
            # A partition's running sums live in locals between key
            # switches; storing and reloading them keeps every
            # partition's additions in pair order.
            partition_bytes[p], partition_records[p] = nbytes, nrecords
            last_key = key
            key_route = str_routes.get(key) if type(key) is str else None
            if key_route is None:
                key_route = (partitioner.partition(key),
                             estimate_bytes(key) + PAIR_FRAMING_BYTES)
                if type(key) is str:
                    str_routes[key] = key_route
            p, key_bytes = key_route
            float_pair_bytes = (key_bytes + _FLOAT_BYTES) * pair_scale
            bucket = partitions[p]
            nbytes, nrecords = partition_bytes[p], partition_records[p]
        bucket.append((key, value))
        if type(value) is float:
            nbytes += float_pair_bytes
        else:
            nbytes += (key_bytes + estimate_bytes(value)) * pair_scale
        nrecords += pair_scale
    partition_bytes[p], partition_records[p] = nbytes, nrecords
    return partitions, partition_bytes, partition_records


def _run_map_task_attempts(args: _MapTaskArgs) -> _MapTaskResult:
    """Fault-mode wrapper of :func:`_execute_map_task`: deterministic
    retry with capped backoff, replica-refreshing read retries, and
    slow-node duration scaling.

    Only installed when a :class:`FaultPolicy` is enabled or a chaos
    schedule slowed a node; with zero faults firing, the attempt-0 pass
    through :func:`_execute_map_task` is byte-identical to the direct
    call.
    """
    policy = args.policy
    retries = policy.max_task_retries if policy is not None else 0
    if retries == 0:
        result = _execute_map_task(args)
    else:
        base_state = args.rng.bit_generator.state
        wasted = args.ledger.spawn()
        failures = 0
        while True:
            try:
                result = _execute_map_task(args)
                break
            except (TaskFailedError, BlockUnavailableError) as exc:
                failures += 1
                wasted.merge(args.ledger)
                if failures > retries:
                    raise JobFailedError(
                        f"map task {args.split.index} of "
                        f"{args.split.path} failed after {failures} "
                        f"attempts: {exc}") from exc
                # Deterministic recovery: charge the capped backoff
                # wait, replay the task's private RNG stream from its
                # saved state, and charge the fresh attempt to a clean
                # ledger (the wasted one is folded in at completion).
                wasted.charge_backoff(policy.backoff(failures - 1))
                args.rng.bit_generator.state = base_state
                args.ledger = args.ledger.spawn()
                args.attempt = failures
                if isinstance(exc, BlockUnavailableError):
                    # Stale cached indexes may reference lost replicas;
                    # rebuild them from current availability so the
                    # retry reads from surviving copies.
                    cache = getattr(broadcast_value(args.fs),
                                    "split_cache", None)
                    if cache is not None:
                        cache.invalidate(args.split.path)
        if failures:
            result.ledger.merge(wasted)
            result.duration = result.ledger.total_seconds
            result.counters.increment(C.TASK_RETRIES, failures)
            result.counters.increment(C.FAILED_TASKS, failures)
            result.failed_attempts = failures
    if args.slow_factor > 1.0:
        result.ledger.charge_cpu_seconds(
            result.ledger.total_seconds * (args.slow_factor - 1.0))
        result.duration = result.ledger.total_seconds
    return result


def _speculate(durations: List[float], policy: FaultPolicy,
               ledger: CostLedger) -> Tuple[List[float], int]:
    """Speculative execution over one wave's task durations.

    Stragglers (duration above ``speculative_slowdown`` × the wave
    median) get a charged duplicate attempt costing one task start-up
    plus the median duration; the task finishes at whichever attempt is
    earlier.  Deterministic — a pure function of the duration list.
    """
    if len(durations) < 2:
        return durations, 0
    median = float(np.median(durations))
    if median <= 0.0:
        return durations, 0
    threshold = policy.speculative_slowdown * median
    copy_cost = ledger.params.task_startup_seconds + median
    out: List[float] = []
    launched = 0
    for duration in durations:
        if duration > threshold and copy_cost < duration:
            ledger.charge_task_startup()
            ledger.charge_cpu_seconds(median)
            out.append(copy_cost)
            launched += 1
        else:
            out.append(duration)
    return out, launched


# ------------------------------------------------------------ reduce tasks
def _group_sort_key(group: Tuple[Hashable, List[Any]]) -> str:
    """Sort key for reduce groups: the repr of the intermediate key
    (module-level so reduce tasks stay picklable by reference)."""
    return repr(group[0])


def _execute_reduce_task(args: _ReduceTaskArgs) -> _ReduceTaskResult:
    """Run one reduce task (module-level for the same reason as
    :func:`_execute_map_task`)."""
    conf = args.conf
    ledger = args.ledger
    counters = Counters()
    if not conf.local_mode and not args.warm_start:
        ledger.charge_task_startup()
    ledger.charge_network(args.in_bytes)
    ledger.charge_cpu_records(args.in_records, conf.cpu_factor)

    ctx = TaskContext(ledger=ledger, counters=counters, rng=args.rng,
                      record_scale=args.record_scale,
                      cpu_factor=conf.cpu_factor,
                      config=dict(conf.params),
                      task_id=f"reduce-{args.partition}",
                      attempt=args.attempt)

    # Group by key, then process groups in deterministic sorted order
    # (Hadoop sorts intermediate keys before reducing).  The key order
    # is materialized once per reduce task, up front, so the reduce
    # loop is a plain walk over pre-sorted (key, values) groups.  A run
    # of one key object looks its group up once (the map side's
    # last-key memo); grouping itself is by equality, as always.
    groups: Dict[Hashable, List[Any]] = {}
    last_key: Any = _NO_KEY
    for key, value in args.pairs:
        if key is not last_key:
            last_key = key
            values = groups.get(key)
            if values is None:
                values = groups[key] = []
        values.append(value)
    counters.increment(C.REDUCE_INPUT_GROUPS, len(groups))
    counters.increment(C.REDUCE_INPUT_RECORDS, len(args.pairs))
    ordered_groups = sorted(groups.items(), key=_group_sort_key)

    reducer = conf.reducer
    output: List[KeyValue] = []
    reducer.setup(ctx)
    for key, values in ordered_groups:
        output.extend(reducer.reduce(key, values, ctx))
    output.extend(reducer.cleanup(ctx))
    counters.increment(C.REDUCE_OUTPUT_RECORDS, len(output))
    return _ReduceTaskResult(output=output, duration=ledger.total_seconds,
                             counters=counters, ledger=ledger)


def _run_reduce_task_attempts(args: _ReduceTaskArgs) -> _ReduceTaskResult:
    """Fault-mode wrapper of :func:`_execute_reduce_task` (see
    :func:`_run_map_task_attempts`; reduce tasks have no block reads, so
    only :class:`TaskFailedError` is retryable)."""
    policy = args.policy
    retries = policy.max_task_retries if policy is not None else 0
    if retries == 0:
        result = _execute_reduce_task(args)
    else:
        base_state = args.rng.bit_generator.state
        wasted = args.ledger.spawn()
        failures = 0
        while True:
            try:
                result = _execute_reduce_task(args)
                break
            except TaskFailedError as exc:
                failures += 1
                wasted.merge(args.ledger)
                if failures > retries:
                    raise JobFailedError(
                        f"reduce task {args.partition} failed after "
                        f"{failures} attempts: {exc}") from exc
                wasted.charge_backoff(policy.backoff(failures - 1))
                args.rng.bit_generator.state = base_state
                args.ledger = args.ledger.spawn()
                args.attempt = failures
        if failures:
            result.ledger.merge(wasted)
            result.duration = result.ledger.total_seconds
            result.counters.increment(C.TASK_RETRIES, failures)
            result.counters.increment(C.FAILED_TASKS, failures)
            result.failed_attempts = failures
    if args.slow_factor > 1.0:
        result.ledger.charge_cpu_seconds(
            result.ledger.total_seconds * (args.slow_factor - 1.0))
        result.duration = result.ledger.total_seconds
    return result
