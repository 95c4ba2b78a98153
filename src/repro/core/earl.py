"""The EARL drivers: in-memory sessions and MapReduce-backed jobs.

Two entry points implement the paper's loop (Fig. 1: sampling stage →
user's task → accuracy estimation stage → expand or terminate):

* :class:`EarlSession` — pure in-memory pipeline over a numeric array.
  This is the algorithmic heart (SSABE pilot, delta-maintained bootstrap,
  expansion loop) without the cluster substrate; benchmarks for Figs. 2,
  3 and 8 use it directly.
* :class:`EarlJob` — the full system: a simulated Hadoop cluster, pre- or
  post-map sampling, persistent (warm-started) mappers, a
  :class:`BootstrapReducer` running the accuracy-estimation stage inside
  the reduce phase ("resampling is actually implemented within a reduce
  phase, to minimize any overhead due to job restarts", §5), and the
  reducer→mapper feedback channel carrying the current error.

:func:`run_stock_job` is the stock-Hadoop baseline the paper compares
against, and :class:`StatisticReducer` adapts any registered statistic to
the engine's incremental-reduce API.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.accuracy import AccuracyEstimate
from repro.core.config import (
    SAMPLER_POSTMAP,
    SAMPLER_PREMAP,
    EarlConfig,
)
from repro.core.correction import CorrectionLike, get_correction
from repro.core.engine import (
    LossRecovery,
    RoundLog,
    UniformEngine,
    as_items,
    check_row_compatibility,
    choose_parameters,
    first_target,
    grow_target,
    make_estimation_stage,
    pilot_size_for,
    result_snapshot,
)
from repro.core.estimators import Statistic, StatisticLike, get_statistic
from repro.core.result import EarlResult, IterationRecord, ProgressSnapshot
from repro.core.ssabe import SSABEResult
from repro.exec.executor import Executor, as_executor, resolve_executor
from repro.mapreduce.combiner import GroupStateCombiner, is_estimator_state
from repro.mapreduce.job import ON_UNAVAILABLE_SKIP, JobConf, JobResult
from repro.mapreduce.mapper import Mapper, ProjectionMapper
from repro.mapreduce.pipeline import FeedbackChannel
from repro.mapreduce.reducer import IncrementalReducer, Reducer
from repro.mapreduce.runtime import JobClient
from repro.mapreduce.types import KeyValue, TaskContext
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.sampling.postmap import PostMapSampler
from repro.sampling.premap import PreMapSampler
from repro.util.rng import ensure_rng, spawn_child
from repro.util.validation import check_positive_int

#: Monotonic id source for per-run feedback-channel namespaces.
_earl_run_ids = itertools.count()


# ---------------------------------------------------------------------------
# In-memory driver
# ---------------------------------------------------------------------------


class EarlSession(LossRecovery):
    """Early-approximation loop over an in-memory dataset.

    Example
    -------
    >>> import numpy as np
    >>> from repro import EarlSession, EarlConfig
    >>> data = np.random.default_rng(0).lognormal(0, 1, 200_000)
    >>> result = EarlSession(data, "mean",
    ...                      config=EarlConfig(sigma=0.05, seed=1)).run()
    >>> result.achieved
    True

    A solo session is a one-query
    :class:`~repro.core.engine.UniformEngine` (the engine behind
    :class:`~repro.streaming.SessionManager`), built afresh by every
    :meth:`stream` call — so the session is re-streamable, and a
    manager holding a single query is byte-identical to it.
    """

    _label = "earl_session"

    def __init__(self, data: Sequence[float],
                 statistic: StatisticLike = "mean", *,
                 config: Optional[EarlConfig] = None,
                 correction: CorrectionLike = "auto") -> None:
        self._data = as_items(data)
        self._stat = get_statistic(statistic)
        check_row_compatibility(self._stat, self._data)
        self._config = config or EarlConfig()
        self._correction = get_correction(correction, self._stat.name)
        # §3.4 loss reports and checkpoint provenance outlive any one
        # stream() call, so the session owns the log its engines write.
        self._log = RoundLog()
        self._engine: Optional[UniformEngine] = None

    @property
    def config(self) -> EarlConfig:
        return self._config

    @property
    def degraded(self) -> bool:
        """Whether the latest run lost sample rows to a failure."""
        return self._engine is not None and self._engine.degraded

    @property
    def lost_fraction(self) -> float:
        """Fraction of the latest run's materialised sample lost."""
        return self._engine.lost_fraction if self._engine else 0.0

    def run(self) -> EarlResult:
        """Execute the full loop: SSABE pilot, sampling, bootstrap error
        estimation, expansion until ``cv <= sigma`` (or the §3.1 exact
        fallback when ``B x n >= N``).

        This is a thin wrapper that drains :meth:`stream`; for a fixed
        seed the returned result is identical either way.
        """
        final: Optional[ProgressSnapshot] = None
        for final in self.stream():
            pass
        if final is None:
            # §3.4: a reported loss took every sampled row before the
            # first estimate; there is nothing honest to return.
            raise RuntimeError(
                "every sampled row was lost before the first estimate; "
                "the query was withdrawn without a result")
        assert final.result is not None
        return final.result

    def stream(self) -> Iterator[ProgressSnapshot]:
        """Progressive engine: yield a :class:`ProgressSnapshot` after
        every accuracy-estimation stage.

        The last snapshot has ``final=True`` and carries the complete
        :class:`EarlResult` — draining the stream is exactly
        :meth:`run`.  Closing the generator early (``break`` out of the
        loop, or call ``close()``) cancels the run: the bootstrap
        executor is torn down and no further iteration is computed, so
        only the completed iterations were ever charged.
        """
        self._engine = engine = self._new_engine()
        try:
            for _, snapshot in engine.stream():
                yield snapshot
        finally:
            engine.finish()

    def _new_engine(self) -> UniformEngine:
        """A fresh engine holding the session's one query."""
        engine = UniformEngine(self._data, config=self._config,
                               label=self._label, log=self._log)
        engine.submit(self._stat, correction=self._correction)
        return engine


# ---------------------------------------------------------------------------
# MapReduce building blocks
# ---------------------------------------------------------------------------


#: ``set(map(type, values))`` of a list of plain floats (or of none).
_FLOAT_TYPE = frozenset({float})


class StatisticReducer(IncrementalReducer):
    """Adapter: any registered statistic as an incremental reducer."""

    #: Per-call state only — safe to run reduce tasks concurrently.
    parallel_safe = True

    def __init__(self, statistic: StatisticLike, *,
                 correction: CorrectionLike = "auto") -> None:
        self._stat = get_statistic(statistic)
        self._correction = get_correction(correction, self._stat.name)

    def initialize(self, values: Sequence[Any]) -> Any:
        state = self._stat.make_state()
        add_floats = getattr(state, "add_floats", None)
        if add_floats is not None and type(values) is list \
                and set(map(type, values)) <= _FLOAT_TYPE:
            # A key's projected values: one in-order fold, the state of
            # one ``add`` per value.
            add_floats(values)
            return state
        add = state.add
        for v in values:
            if type(v) is float:  # a plain value: no duck-type probe
                add(v)
            else:
                self.update(state, v)
        return state

    def update(self, state: Any, new_input: Any) -> Any:
        # A map-side GroupStateCombiner pre-aggregates each key's values
        # into states; those fold in by merging, anything else is added.
        if is_estimator_state(new_input):
            if hasattr(state, "merge"):
                state.merge(new_input)
                return state
            raise TypeError(
                f"state of {self._stat.name!r} does not support merging")
        state.add(new_input)
        return state

    def finalize(self, state: Any) -> float:
        return float(state.result())

    def correct(self, result: float, p: float) -> float:
        return self._correction(result, p)


class BootstrapReducer(Reducer):
    """EARL's reduce phase: delta-maintained bootstrap per key.

    Keeps one estimation stage (:func:`make_estimation_stage` over
    ``config``) per intermediate key; each
    ``reduce`` call feeds the key's *new* values (the delta sample routed
    to it this iteration), refreshes the bootstrap estimate and emits
    ``(key, AccuracyEstimate)``.  On task cleanup the average error over
    the keys seen is published to the feedback channel together with the
    iteration timestamp, which is what the (persistent) mappers poll to
    decide on expansion versus termination (§3.3).
    """

    def __init__(self, statistic: StatisticLike, B: int, *,
                 config: Optional[EarlConfig] = None,
                 seed=None,
                 channel: Optional[FeedbackChannel] = None,
                 executor: Optional[Executor] = None) -> None:
        check_positive_int("B", B)
        self._stat = get_statistic(statistic)
        self._B = B
        self._config = config or EarlConfig()
        self._rng = ensure_rng(seed)
        self._channel = channel
        self._executor = executor  # borrowed; the driver owns it
        self._stages: Dict[Hashable, object] = {}
        self._task_errors: List[float] = []

    # -- engine API ---------------------------------------------------------
    def setup(self, ctx: TaskContext) -> None:
        self._task_errors = []

    def reduce(self, key: Hashable, values: Sequence[Any],
               ctx: TaskContext) -> Iterable[KeyValue]:
        stage = self._stages.get(key)
        if stage is None:
            stage = self._stages[key] = make_estimation_stage(
                self._stat, self._B, self._config, seed=self._rng,
                executor=self._executor)
        stage.set_ledger(ctx.ledger)
        if ctx.record_scale != 1.0:
            stage.set_io_scale(ctx.record_scale)
        ops_before = stage.work_ops
        estimate = stage.offer([float(v) for v in values])
        ops_delta = stage.work_ops - ops_before
        # Resampling work is real CPU the reduce phase pays for.  Each
        # sampled record stands for ``record_scale`` records of the real
        # sample (fraction-based sizing), so the work scales with it —
        # this is what keeps EARL's cost growing with the data size in
        # Fig. 5 and bounds the speed-up near the paper's ~4x.
        ctx.ledger.charge_cpu_records(ops_delta * ctx.record_scale,
                                      ctx.cpu_factor)
        self._task_errors.append(estimate.error)
        yield key, estimate

    def cleanup(self, ctx: TaskContext) -> Iterable[KeyValue]:
        if self._channel is not None and self._task_errors:
            reducer_id = 0
            if ctx.task_id and "-" in ctx.task_id:
                reducer_id = int(ctx.task_id.rsplit("-", 1)[1])
            timestamp = float(ctx.config.get("iteration", 0))
            mean_error = sum(self._task_errors) / len(self._task_errors)
            if math.isfinite(mean_error):
                self._channel.publish_error(reducer_id, timestamp, mean_error)
        return ()

    # -- driver-side accessors ----------------------------------------------
    def key_estimates(self) -> Dict[Hashable, AccuracyEstimate]:
        """Latest accuracy estimate per key."""
        return {key: stage.history[-1]
                for key, stage in self._stages.items() if stage.history}

    def sample_sizes(self) -> Dict[Hashable, int]:
        return {key: stage.sample_size for key, stage in self._stages.items()}


# ---------------------------------------------------------------------------
# MapReduce-backed driver
# ---------------------------------------------------------------------------


def estimate_record_count(cluster: Cluster, path: str, *,
                          probe_bytes: int = 8192) -> Tuple[int, float]:
    """Estimate a file's record count from a small probe.

    Returns ``(estimated_records, probe_simulated_seconds)``.  Counting
    exactly would require the full scan EARL is trying to avoid.  The
    probe targets the first *available* block, so node failures that
    lost the file's head do not kill the estimate (§3.4).
    """
    from repro.hdfs.errors import BlockUnavailableError

    fs = cluster.hdfs
    meta = fs.namenode.get(path)
    if meta.size == 0:
        return 0, 0.0
    ledger = cluster.new_ledger()
    probe = b""
    for block in meta.blocks:
        if not fs.block_available(block):
            continue
        end = min(block.offset + probe_bytes, block.end)
        try:
            probe = fs.read_range(path, block.offset, end, ledger=ledger,
                                  sequential=False)
        except BlockUnavailableError:  # pragma: no cover - raced failure
            continue
        break
    if not probe:
        raise BlockUnavailableError(
            f"no readable block left in {path}; cannot estimate its size")
    lines = probe.count(b"\n")
    if lines == 0:
        return 1, ledger.total_seconds
    avg_len = len(probe) / lines
    return max(1, int(round(meta.size / avg_len))), ledger.total_seconds


class EarlJob:
    """MapReduce-backed EARL run on a simulated cluster.

    Parameters
    ----------
    cluster:
        The simulated cluster holding the input file in its HDFS.
    input_path:
        Newline-delimited input file.
    statistic:
        Statistic of interest ``f`` (name, :class:`Statistic`, or
        callable).
    mapper:
        Map function; defaults to :class:`ProjectionMapper`, which parses
        ``key<TAB>value`` lines (or bare numbers under a constant key).
    config:
        The :class:`EarlConfig` driving σ, τ, sampler choice, maintenance
        mode, expansion policy, and seeding.
    correction:
        ``correct()`` policy; ``"auto"`` scales extensive statistics by
        ``1/p``.
    on_unavailable:
        ``"skip"`` (default) reproduces §3.4: lost splits reduce the
        available input instead of failing the job.
    pipelined:
        ``True`` (default) models EARL's Hadoop modifications: mappers
        stay alive across sample expansions, so only the first iteration
        pays job set-up and task start-up.  ``False`` restarts an MR job
        per iteration — the naive pre-EARL workflow the paper's Fig. 6
        baseline ("original resampling algorithm") corresponds to.
    """

    def __init__(self, cluster: Cluster, input_path: str, *,
                 statistic: StatisticLike = "mean",
                 mapper: Optional[Mapper] = None,
                 config: Optional[EarlConfig] = None,
                 correction: CorrectionLike = "auto",
                 n_reducers: int = 1,
                 cpu_factor: float = 1.0,
                 split_logical_bytes: Optional[int] = None,
                 on_unavailable: str = ON_UNAVAILABLE_SKIP,
                 pipelined: bool = True) -> None:
        self._cluster = cluster
        self._path = input_path
        self._stat = get_statistic(statistic)
        self._mapper = mapper or ProjectionMapper()
        self._config = config or EarlConfig()
        self._correction = get_correction(correction, self._stat.name)
        self._n_reducers = n_reducers
        self._cpu_factor = cpu_factor
        self._split_logical_bytes = split_logical_bytes
        self._on_unavailable = on_unavailable
        self._pipelined = pipelined
        self.last_channel: Optional[FeedbackChannel] = None
        self.last_sampler = None

    # ------------------------------------------------------------------ run
    def run(self) -> EarlResult:
        """Execute the MapReduce-backed loop on the simulated cluster:
        local-mode SSABE pilot, sampled (pre/post-map) iterations with
        persistent mappers and the reducer->mapper feedback channel,
        until the published average error meets sigma.

        This drains :meth:`stream`; for a fixed ``config.seed`` the
        result is identical either way.  The run's fan-out points go
        through the backend selected by ``config.executor`` (or the
        ``REPRO_EXECUTOR`` override); results and simulated times are
        byte-identical across backends.
        """
        final: Optional[ProgressSnapshot] = None
        for final in self.stream():
            pass
        assert final is not None and final.result is not None
        return final.result

    def stream(self) -> Iterator[ProgressSnapshot]:
        """Progressive engine: yield a :class:`ProgressSnapshot` after
        every cluster iteration's accuracy-estimation stage.

        The last snapshot has ``final=True`` and carries the run's
        :class:`EarlResult`.  Closing the generator early cancels the
        run *cleanly*: the stop flag is raised on the reducer→mapper
        :class:`~repro.mapreduce.pipeline.FeedbackChannel` (the §3.3
        protocol the persistent mappers poll for termination), the
        execution backend is shut down, and the cost ledger holds only
        the iterations that actually completed — no further cluster
        task runs after the consumer stops.
        """
        executor = resolve_executor(self._config)
        try:
            yield from self._stream(executor)
        finally:
            executor.close()

    def _stream(self, executor: Executor) -> Iterator[ProgressSnapshot]:
        cfg = self._config
        rng = ensure_rng(cfg.seed)
        pilot_rng, job_rng, reducer_rng = spawn_child(rng, 3)
        client = JobClient(self._cluster, executor=executor)

        N, seconds = estimate_record_count(self._cluster, self._path)
        if N == 0:
            raise ValueError(f"input {self._path} is empty")

        # ---------------------------------------------------- SSABE pilot
        pilot_values, pilot_seconds = self._run_pilot(client, N, pilot_rng)
        seconds += pilot_seconds
        B, n, ssabe = choose_parameters(
            self._stat, N, cfg, lambda: pilot_values, sigma=cfg.sigma,
            B=cfg.B_override, n=cfg.n_override, seed=pilot_rng)

        if B * n >= N:
            yield result_snapshot(
                self._run_exact(client, job_rng, seconds, N, ssabe))
            return

        # ------------------------------------------------- expansion loop
        sampler = self._make_sampler()
        # Each run gets its own channel namespace: stale error files from
        # an earlier job on the same cluster must not drive termination.
        channel = FeedbackChannel(self._cluster.hdfs,
                                  f"earl-run-{next(_earl_run_ids)}")
        reducer = BootstrapReducer(self._stat, B, config=cfg,
                                   seed=reducer_rng, channel=channel,
                                   executor=executor)
        self.last_channel = channel
        self.last_sampler = sampler
        conf = JobConf(
            name=f"earl-{self._stat.name}", input_path=self._path,
            mapper=self._mapper, reducer=reducer,
            n_reducers=self._n_reducers, cpu_factor=self._cpu_factor,
            split_logical_bytes=self._split_logical_bytes,
            on_unavailable=self._on_unavailable,
            params={"iteration": 0}, seed=job_rng,
            fault_policy=cfg.fault_policy)

        iterations: List[IterationRecord] = []
        input_fraction = 1.0
        target = first_target(n, N)
        try:
            for iteration in range(1, cfg.max_iterations + 1):
                sampler.set_total_target(target)
                conf.params["iteration"] = iteration
                with _TRACER.span("earl_job.iteration",
                                  attrs={"iteration": iteration,
                                         "target": target}):
                    job = client.run(conf, record_source=sampler,
                                     splits=sampler.splits,
                                     warm_start=self._pipelined
                                     and iteration > 1)
                if _METRICS.enabled:
                    _METRICS.counter("repro_engine_rounds_total",
                                     labels={"engine": "earl_job"},
                                     help="engine expansion rounds").inc()
                seconds += job.simulated_seconds
                input_fraction = min(input_fraction, job.input_fraction)
                summary = self._summarize(reducer, N, input_fraction)
                avg_error = channel.average_error()
                sampled = sampler.sampled_count
                # Stop at σ (§3.3: the reducers' published average
                # error), or when the sampler fell short of its target
                # or read everything: the data is exhausted.
                expand = (not (avg_error is not None
                               and avg_error <= cfg.sigma)
                          and target <= sampled < N
                          and iteration < cfg.max_iterations)
                iterations.append(IterationRecord(
                    iteration=iteration, sample_size=sampled,
                    accuracy=summary[1] if summary else None,
                    simulated_seconds=job.simulated_seconds,
                    expanded=expand))
                if not expand:
                    break
                yield self._snapshot(summary, N, iteration,
                                     job.simulated_seconds, seconds)
                target = grow_target(max(sampled, 1), N, cfg)
        finally:
            # Reached on normal termination AND on consumer-driven
            # cancellation (GeneratorExit): the persistent mappers poll
            # this flag and terminate, so no task keeps running after
            # the consumer walks away (§3.3's termination protocol).
            channel.signal_stop()

        if summary is None:
            raise RuntimeError("EARL produced no estimates; empty sample?")
        estimate, accuracy, corrected, p, sampled = summary
        result = EarlResult(
            estimate=estimate, uncorrected_estimate=accuracy.estimate,
            error=accuracy.error, achieved=accuracy.meets(cfg.sigma),
            sigma=cfg.sigma, statistic=self._stat.name, n=sampled, B=B,
            population_size=N, sample_fraction=p, used_fallback=False,
            simulated_seconds=seconds, iterations=iterations, ssabe=ssabe,
            accuracy=accuracy, input_fraction=input_fraction,
            key_estimates=corrected)
        yield result_snapshot(result, len(iterations), job.simulated_seconds)

    # ------------------------------------------------------------- helpers
    def _make_sampler(self):
        if self._config.sampler == SAMPLER_PREMAP:
            return PreMapSampler(self._cluster.hdfs, self._path,
                                 split_logical_bytes=self._split_logical_bytes)
        if self._config.sampler == SAMPLER_POSTMAP:
            return PostMapSampler(self._cluster.hdfs, self._path,
                                  split_logical_bytes=self._split_logical_bytes)
        raise ValueError(f"unknown sampler {self._config.sampler!r}")

    def _run_pilot(self, client: JobClient, N: int, rng
                   ) -> Tuple[np.ndarray, float]:
        """Draw the SSABE pilot and map it to values, all in local mode.

        "The initial n is picked to be small, therefore the sample size
        and the number of bootstraps estimation can be performed on a
        single machine prior to MR job start-up" (§3.2).
        """
        cfg = self._config
        sampler = self._make_sampler()
        sampler.set_total_target(pilot_size_for(cfg, N))
        from repro.mapreduce.reducer import IdentityReducer
        conf = JobConf(
            name="earl-pilot", input_path=self._path, mapper=self._mapper,
            reducer=IdentityReducer(), n_reducers=1, local_mode=True,
            cpu_factor=self._cpu_factor,
            split_logical_bytes=self._split_logical_bytes,
            on_unavailable=self._on_unavailable, seed=rng,
            fault_policy=self._config.fault_policy)
        result = client.run(conf, record_source=sampler,
                            splits=sampler.splits)
        values = np.array([float(v) for _, v in result.output])
        if values.size == 0:
            raise ValueError("pilot sample is empty; cannot run SSABE")
        return values, result.simulated_seconds

    def _run_exact(self, client: JobClient, rng, seconds: float, N: int,
                   ssabe: Optional[SSABEResult]) -> EarlResult:
        """§3.1 fallback: run the user's job over the full input."""
        values, job = _full_scan(
            client, self._stat, self._path, mapper=self._mapper,
            correction=self._correction, n_reducers=self._n_reducers,
            cpu_factor=self._cpu_factor,
            split_logical_bytes=self._split_logical_bytes,
            on_unavailable=self._on_unavailable, seed=rng,
            fault_policy=self._config.fault_policy)
        estimate = _one_value(values)
        return EarlResult(
            estimate=estimate, uncorrected_estimate=estimate, error=0.0,
            achieved=True, sigma=self._config.sigma,
            statistic=self._stat.name, n=N, B=1, population_size=N,
            sample_fraction=1.0, used_fallback=True,
            simulated_seconds=seconds + job.simulated_seconds,
            iterations=[], ssabe=ssabe, accuracy=None,
            input_fraction=job.input_fraction)

    def _summarize(self, reducer: BootstrapReducer, N: int,
                   input_fraction: float
                   ) -> Optional[Tuple[float, AccuracyEstimate,
                                       Dict[Any, float], float, int]]:
        """Corrected summary of the reducer's current per-key estimates:
        ``(estimate, accuracy, corrected_by_key, p, sampled)``, or
        ``None`` before any estimate exists.  A multi-key job reports
        its worst key's accuracy (conservative)."""
        key_estimates = reducer.key_estimates()
        if not key_estimates:
            return None
        sampled = sum(reducer.sample_sizes().values())
        # Under node failures only a fraction of the input was reachable;
        # the effective population shrinks accordingly (§3.4).
        effective_N = max(1, int(round(N * input_fraction)))
        p = min(1.0, max(sampled / effective_N, 1e-12))
        corrected = {key: self._correction(est.estimate, p)
                     for key, est in key_estimates.items()}
        accuracy = max(key_estimates.values(), key=lambda e: e.error)
        return _one_value(corrected), accuracy, corrected, p, sampled

    def _snapshot(self, summary, N: int, iteration: int,
                  delta_seconds: float,
                  total_seconds: float) -> ProgressSnapshot:
        """Intermediate snapshot after one iteration (the final one
        restates the result, see :func:`result_snapshot`)."""
        if summary is None:  # no estimate yet (e.g. empty iteration)
            nan = float("nan")
            return ProgressSnapshot(
                iteration=iteration, estimate=nan,
                uncorrected_estimate=nan, error=math.inf, cv=math.inf,
                ci_low=nan, ci_high=nan, sample_size=0,
                population_size=N, sample_fraction=0.0, achieved=False,
                final=False, statistic=self._stat.name,
                cost_delta_seconds=delta_seconds,
                cost_total_seconds=total_seconds,
                accuracy=None, result=None)
        estimate, accuracy, _, p, sampled = summary
        return ProgressSnapshot(
            iteration=iteration, estimate=estimate,
            uncorrected_estimate=accuracy.estimate, error=accuracy.error,
            cv=accuracy.cv, ci_low=accuracy.ci_low, ci_high=accuracy.ci_high,
            sample_size=sampled, population_size=N, sample_fraction=p,
            achieved=accuracy.meets(self._config.sigma), final=False,
            statistic=self._stat.name, cost_delta_seconds=delta_seconds,
            cost_total_seconds=total_seconds, accuracy=accuracy,
            result=None)


# ---------------------------------------------------------------------------
# Stock (full-scan) jobs
# ---------------------------------------------------------------------------


def _full_scan(client: JobClient, stat: Statistic, input_path: str, *,
               mapper: Optional[Mapper] = None,
               correction: CorrectionLike = "auto", combine: bool = False,
               **job: Any) -> Tuple[Dict[Hashable, float], JobResult]:
    """Run the user's job over every split — projection map (unless
    ``mapper``), the statistic's reducer, ``combine`` adding its
    map-side state combiner — and return ``({key: value}, JobResult)``.
    ``job`` holds the remaining :class:`JobConf` fields."""
    conf = JobConf(
        name=f"stock-{stat.name}", input_path=input_path,
        mapper=mapper or ProjectionMapper(),
        reducer=StatisticReducer(stat, correction=correction),
        combiner=GroupStateCombiner(stat) if combine else None, **job)
    result = client.run(conf)
    return ({key: float(vals[0]) for key, vals in result.grouped().items()},
            result)


def _one_value(values: Dict[Hashable, float]) -> float:
    """A whole-job answer: the single key's value, else the keys' mean."""
    if len(values) == 1:
        return next(iter(values.values()))
    return float(np.mean(list(values.values())))


@contextmanager
def _client(cluster: Cluster, executor: Any) -> Iterator[JobClient]:
    """A job client on ``executor`` (closed after if it was built here)."""
    ex, owned = as_executor(executor)
    try:
        yield JobClient(cluster, executor=ex)
    finally:
        if owned:
            ex.close()


def run_stock_job(cluster: Cluster, input_path: str,
                  statistic: StatisticLike = "mean", *,
                  mapper: Optional[Mapper] = None,
                  correction: CorrectionLike = "auto",
                  n_reducers: int = 1,
                  cpu_factor: float = 1.0,
                  split_logical_bytes: Optional[int] = None,
                  seed=None,
                  executor=None) -> Tuple[float, JobResult]:
    """Stock-Hadoop baseline: full scan, exact answer, no approximation.

    Returns ``(value, JobResult)`` — the benchmarks compare
    ``JobResult.simulated_seconds`` against the EARL run's total.

    ``executor`` (``None``, a backend name, or an
    :class:`~repro.exec.Executor`) fans the map/reduce task waves out
    over a parallel backend; the default mapper and reducer are both
    ``parallel_safe``, so this is the engine's genuinely parallel path.
    Results are identical on every backend.
    """
    with _client(cluster, executor) as client:
        values, result = _full_scan(
            client, get_statistic(statistic), input_path, mapper=mapper,
            correction=correction, n_reducers=n_reducers,
            cpu_factor=cpu_factor, split_logical_bytes=split_logical_bytes,
            seed=seed)
    return _one_value(values), result


def run_grouped_stock_job(cluster: Cluster, input_path: str,
                          statistic: StatisticLike = "mean", *,
                          mapper: Optional[Mapper] = None,
                          correction: CorrectionLike = "auto",
                          combine: bool = True,
                          n_reducers: int = 1,
                          cpu_factor: float = 1.0,
                          split_logical_bytes: Optional[int] = None,
                          seed=None,
                          executor=None
                          ) -> Tuple[Dict[Hashable, float], JobResult]:
    """Exact grouped aggregation: full scan, one value per group key.

    The stock-Hadoop reference a grouped approximate query
    (:class:`repro.query.Query`) is measured against.  The default
    mapper parses ``key<TAB>value`` lines; ``combine=True`` (the
    grouped pre-aggregation path) folds each key's map output into one
    mergeable estimator state per spill via
    :class:`~repro.mapreduce.GroupStateCombiner`, so the shuffle
    carries states instead of records — output is numerically
    equivalent with the combiner on or off (identical up to float
    summation order; the tests pin this), only the shuffled volume
    differs.  Returns ``({key: value}, JobResult)``.
    """
    with _client(cluster, executor) as client:
        return _full_scan(
            client, get_statistic(statistic), input_path, mapper=mapper,
            correction=correction, combine=combine, n_reducers=n_reducers,
            cpu_factor=cpu_factor, split_logical_bytes=split_logical_bytes,
            seed=seed)
