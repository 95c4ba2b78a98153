"""The one round core behind the in-memory engines.

The paper has one accuracy loop (§3): pilot → SSABE → expand the sample
by Δs → bootstrap check → stop at σ, with the §3.1 exact fallback and
the §3.4 loss recovery.  This module writes it once, from three pieces:

* a :class:`Pipeline` — one statistic driven towards its bound σ: its
  correction, ``(B, n)``, SSABE trail, delta-maintained estimation
  stage, iteration records and, once it stops, its result;
* a :class:`SampleUnit` — one lazily drawn permutation prefix of one
  population and the schedule walking it (``target / consumed / drawn /
  bound / iteration``), its loss accounting, and the pipelines that read
  its rows;
* a :class:`ColumnSet` — a unit's readers of one sample column and the
  resample set they share: a round's unit of work, grown once to its
  widest live reader's ``B`` and then read by each of them.

:class:`RoundEngine` steps any number of units through the protocol
``prepare / pending / live_demands / run_round(grant) / finalize /
finish`` (``stream()`` is a thin generator over it).  The three entry
points are the same engine in different shapes:

* :class:`UniformEngine` — one unit, k pipelines: the shared-sample
  engine behind :class:`~repro.streaming.SessionManager`, and — with a
  single query — the whole of :class:`~repro.core.EarlSession`;
* :class:`~repro.core.grouped.GroupedEarlSession` — G units (one per
  group, fed by a :class:`~repro.sampling.StratifiedSampler`) with one
  pipeline per measure.

What differs between a solo and a shared run is derived from the number
of *submitted* pipelines, never configured.  A unit's permutation draws
from a child stream spawned off the unit's generator first; one pipeline
then continues that generator (SSABE, stage — the solo order) and its
stage receives the executor for parallel resample evaluation;
k ≥ 2 pipelines get ``2k`` pre-spawned streams (so withdrawing one
before the run leaves its siblings' randomness untouched) and the round
fans out *across* sets (process pools) or their readers (threads)
instead.  An engine that can never fan out
keeps its sample driver-local (:class:`LocalColumn`) rather than
broadcasting it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.accuracy import (
    AccuracyEstimate,
    AccuracyEstimationStage,
    ClosedFormStage,
)
from repro.core.categorical import closed_form_sample_size
from repro.core.checkpoint import checkpoint_doc, loss_event, replay_stream
from repro.core.config import EarlConfig
from repro.core.correction import CorrectionLike, get_correction
from repro.core.delta import ResampleSet
from repro.core.estimators import Statistic, StatisticLike, get_statistic
from repro.core.jackknife_stage import JackknifeEstimationStage
from repro.core.result import EarlResult, IterationRecord, ProgressSnapshot
from repro.core.ssabe import SSABEResult, estimate_parameters
from repro.exec.executor import Executor, resolve_executor
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.sampling.permutation import PermutationPrefix
from repro.util.rng import ensure_rng, spawn_child


def make_estimation_stage(statistic: "Statistic", B: int, cfg: EarlConfig,
                          *, seed=None, executor: Optional[Executor] = None,
                          resamples: Optional[ResampleSet] = None):
    """Build the error-estimation stage of ``statistic``: its closed form
    where it has one (``proportion``, Appendix A: ``B = 1``), else the
    configured one (bootstrap default, jackknife as the §8 future-work
    alternative).  ``executor`` parallelizes the bootstrap stage's
    resample evaluation; results are identical with or without it;
    ``resamples`` shares a bootstrap set."""
    if statistic.closed_form is not None:
        return ClosedFormStage(statistic, metric=cfg.error_metric,
                               confidence=cfg.confidence)
    if cfg.estimation == "jackknife":
        return JackknifeEstimationStage(statistic,
                                        confidence=cfg.confidence)
    return AccuracyEstimationStage(
        statistic, B, metric=cfg.error_metric,
        maintenance=cfg.maintenance, sketch_c=cfg.sketch_c, seed=seed,
        executor=executor, resamples=resamples,
        confidence=cfg.confidence)


def as_items(data: Sequence[float]) -> np.ndarray:
    """``data`` as a float array of items.  1-D: plain numeric items.
    2-D: each ROW is one item (e.g. (x, y) pairs for the
    ``"correlation"`` statistic); resampling and delta maintenance
    treat rows atomically."""
    items = np.asarray(data, dtype=float)
    if items.ndim not in (1, 2) or len(items) == 0:
        raise ValueError("data must be a non-empty 1-D sequence "
                         "or a 2-D array of row items")
    return items


def check_row_compatibility(statistic: Statistic, data: np.ndarray) -> None:
    """Reject 2-D data for scalar-item statistics up front.

    Only statistics declaring ``row_items`` (e.g. ``"correlation"``)
    can ingest vector rows; letting a scalar state meet a row would
    fail deep inside delta maintenance with an opaque ``TypeError``.
    """
    if data.ndim == 2 and not getattr(statistic, "row_items", False):
        raise ValueError(
            f"statistic {statistic.name!r} consumes scalar items; 2-D "
            "row data requires a row-wise statistic such as "
            "'correlation'")


def pilot_size_for(cfg: EarlConfig, N: int) -> int:
    """§3.2 pilot sizing, shared by every driver: at least
    ``min_pilot_size``, the pilot fraction of ``N``, and enough items
    for the nested subsample halvings — capped at ``N``."""
    return min(N, max(cfg.min_pilot_size,
                      math.ceil(cfg.pilot_fraction * N),
                      2 ** cfg.subsample_levels))


def choose_parameters(statistic: Statistic, size: int, cfg: EarlConfig,
                      pilot: Callable[[], np.ndarray], *, sigma: float,
                      B: Optional[int], n: Optional[int], seed: Any
                      ) -> Tuple[int, int, Optional[SSABEResult]]:
    """§3.2's ``(B, n)`` for one statistic over a population of
    ``size``: SSABE on the pilot fills whichever of ``B`` and ``n`` is
    not pinned.  With both pinned SSABE does not run and ``pilot`` is
    never called (so a lazily drawn pilot costs nothing).  A statistic
    with a closed form never resamples (``B = 1``) and solves for its
    ``n`` off the pilot instead (Appendix A)."""
    if statistic.closed_form is not None:
        return 1, closed_form_sample_size(pilot(), sigma) if n is None \
            else n, None
    ssabe: Optional[SSABEResult] = None
    if B is None or n is None:
        ssabe = estimate_parameters(
            pilot(), size, statistic, sigma=sigma, tau=cfg.tau,
            levels=cfg.subsample_levels, B_min=cfg.B_min,
            stability_window=cfg.stability_window,
            maintenance=cfg.maintenance, seed=seed)
        B = ssabe.B if B is None else B
        n = ssabe.n if n is None else n
    return B, n, ssabe


def first_target(n: int, size: int) -> int:
    """The first round's sample size: SSABE's ``n``, at least two rows
    (a bootstrap needs them), at most the population."""
    return min(max(n, 2), size)


def grow_target(consumed: int, size: int, cfg: EarlConfig) -> int:
    """The expansion schedule, the one growth rule of every driver: the
    next round's sample size after ``consumed`` rows, capped at the
    population."""
    return min(size, math.ceil(consumed * cfg.expansion_factor))


def exact_fallback_result(statistic: Statistic, data, *, sigma: float,
                          ssabe: Optional[SSABEResult]) -> EarlResult:
    """§3.1 fallback: ``B x n >= N``, so the exact computation over all
    ``N`` in-memory items wins — shared by the in-memory drivers."""
    value = statistic(np.asarray(data))
    N = len(data)
    return EarlResult(
        estimate=value, uncorrected_estimate=value, error=0.0,
        achieved=True, sigma=sigma, statistic=statistic.name, n=N, B=1,
        population_size=N, sample_fraction=1.0, used_fallback=True,
        simulated_seconds=0.0, iterations=[], ssabe=ssabe, accuracy=None)


def result_snapshot(result: EarlResult, iteration: int = 0,
                    delta_seconds: Optional[float] = None
                    ) -> ProgressSnapshot:
    """A stream's final snapshot, restating a finished result.

    A §3.1 exact answer (no accuracy estimate) is the single snapshot of
    its stream: iteration 0, a zero-width interval, the whole run's cost
    as its delta.  A sampled result is restated as of ``iteration``,
    whose own cost was ``delta_seconds``."""
    accuracy = result.accuracy
    low, high = ((result.estimate, result.estimate) if accuracy is None
                 else (accuracy.ci_low, accuracy.ci_high))
    return ProgressSnapshot(
        iteration=iteration, estimate=result.estimate,
        uncorrected_estimate=result.uncorrected_estimate,
        error=result.error, cv=0.0 if accuracy is None else accuracy.cv,
        ci_low=low, ci_high=high,
        sample_size=result.n, population_size=result.population_size,
        sample_fraction=result.sample_fraction,
        achieved=result.achieved, final=True, statistic=result.statistic,
        cost_delta_seconds=(result.simulated_seconds
                            if delta_seconds is None else delta_seconds),
        cost_total_seconds=result.simulated_seconds,
        accuracy=accuracy, result=result,
        degraded=result.degraded, lost_fraction=result.lost_fraction)


# ---------------------------------------------------------------------------
# pipeline and sample unit
# ---------------------------------------------------------------------------


class Pipeline:
    """One estimation pipeline: a statistic driven towards its error
    bound σ over a sample unit's rows.

    To a :class:`~repro.streaming.SessionManager` client this is the
    ``QueryHandle`` returned by ``submit``: it carries the query's
    parameters, the snapshots observed so far, and — once the query
    terminated — its :class:`~repro.core.EarlResult`.  :meth:`cancel`
    withdraws it from subsequent expansion rounds: the other pipelines
    keep running on the shared sample, and the resample set it shared
    with the readers of its column drops the resamples only it read.
    """

    def __init__(self, name: str, statistic: Statistic, *, sigma: float,
                 error_metric: str, correction,
                 B_override: Optional[int] = None,
                 n_override: Optional[int] = None,
                 index: int = 0, column: int = 0) -> None:
        self.name = name
        self.statistic = statistic
        self.sigma = sigma
        self.error_metric = error_metric
        self.correction = correction
        self.B_override = B_override
        self.n_override = n_override
        self.index = index      # position among the unit's pipelines
        self.column = column    # which engine column its rows come from
        self.B: Optional[int] = None
        self.n: Optional[int] = None
        self.ssabe: Optional[SSABEResult] = None
        self.stage: Optional[AccuracyEstimationStage] = None
        self.iterations: List[IterationRecord] = []
        self.snapshots: List[ProgressSnapshot] = []
        self.estimate: Optional[AccuracyEstimate] = None
        self.result: Optional[EarlResult] = None
        self.used_fallback = False
        #: Withdrawn without a result: cancelled by its client, or its
        #: stratum died (§3.4) before it ever produced an estimate.
        self.cancelled = False

    @property
    def done(self) -> bool:
        """Whether the pipeline terminated (result ready) or was
        withdrawn."""
        return self.result is not None or self.cancelled

    def cancel(self) -> None:
        """Withdraw the pipeline from subsequent expansion rounds."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.result is not None
                 else "cancelled" if self.cancelled else "running")
        return (f"Pipeline({self.name!r}, {self.statistic.name}, "
                f"sigma={self.sigma}, {state})")


class LocalColumn:
    """A sample column held by the driver instead of a broadcast.

    Exposes the same ``.value`` the fan-out units read.  Used when the
    engine can never fan out (a lone pipeline), and for the compacted
    survivors of a unit after a §3.4 sample loss (on process pools
    those ride the next offer by value, once, with the rebuilt set).
    """

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray) -> None:
        self.value = value


class ColumnSet:
    """One unit's readers of one sample column and the resample set
    they share: the unit of a round's work.

    A round grows ``resamples`` once — to its widest live reader's
    ``B``, from the set's own generator — and then every live reader
    reads its statistic off it (:func:`_reads`).  Readers whose stages
    keep a sample of their own (the jackknife, a closed form, the
    moving-block bootstrap) share a set of their column with no
    resamples (``None``): each is offered the round's rows.
    ``source`` holds the sample column (``.value``) and ``base`` is the
    offset of the unit's segment in it.  On a process pool the set and
    its readers' stages travel to the worker of ``slot`` with their
    first round after a (re)build (``shipped``) and live there; the
    driver keeps the empty copies it sent.
    """

    __slots__ = ("column", "readers", "resamples", "source", "base",
                 "slot", "shipped")

    def __init__(self, column: int, readers: List[Pipeline]) -> None:
        self.column = column
        self.readers = readers
        self.resamples: Optional[ResampleSet] = None
        self.source: Any = None
        self.base = 0
        self.slot = 0
        self.shipped = False


class SampleUnit:
    """One lazily drawn permutation prefix of one population, the
    expansion schedule walking it, its §3.4 loss accounting, the
    pipelines reading its rows and the resample sets they read."""

    def __init__(self, key: Hashable, size: int,
                 pipelines: List[Pipeline], *,
                 rows: Optional[np.ndarray] = None) -> None:
        self.key = key
        self.size = size
        self.pipelines = pipelines
        self.rows = rows    # the unit's rows of the engine columns
        #                     (appearance order); None = every row
        self.rng: Optional[np.random.Generator] = None
        self.order: Optional[PermutationPrefix] = None   # the sample order
        self.consumed = 0
        self.target = 0
        self.iteration = 0
        self.bound = 0      # the most rows it can reach: its segment
        self.drawn = 0      # rows gathered into its segment so far
        self.lost = 0       # sample rows lost to failures so far
        self.degraded = False
        self.sets: List[ColumnSet] = []

    def live_sets(self) -> List[ColumnSet]:
        """Its resample sets, each narrowed to its live readers; a set
        no live pipeline reads any more is dropped."""
        for s in self.sets:
            s.readers = [p for p in s.readers if not p.done]
        self.sets = [s for s in self.sets if s.readers]
        return self.sets

    @property
    def lost_fraction(self) -> float:
        """Fraction of the unit's reachable sample lost so far."""
        total = self.lost + self.bound
        return self.lost / total if total else 0.0

    @property
    def active_pipelines(self) -> List[Pipeline]:
        return [p for p in self.pipelines if not p.done]

    @property
    def active(self) -> bool:
        return any(not p.done for p in self.pipelines)

    @property
    def rows_processed(self) -> int:
        """Distinct rows touched: a unit where any pipeline answered
        exactly was scanned whole (its sampled rows are a subset of that
        scan); otherwise only the consumed prefix."""
        if any(p.used_fallback for p in self.pipelines):
            return self.size
        return self.consumed


# ---------------------------------------------------------------------------
# executor fan-out units (module level so process pools pickle them by
# reference)
# ---------------------------------------------------------------------------


def _reads(resamples: Optional[ResampleSet], stages: Sequence[Any],
           delta: np.ndarray) -> List[Callable[[], AccuracyEstimate]]:
    """A set's round: grow it by ``delta`` to its widest reader's ``B``
    — its order-statistic reads all evaluated off one sort, before the
    reads can fan out — then its readers' reads (with no set, each
    reader's offer of ``delta`` to its own sample)."""
    if resamples is None:
        return [partial(stage.offer, delta) for stage in stages]
    resamples.grow(delta, max(stage.B for stage in stages),
                   [(stage.reader, stage.B) for stage in stages])
    return [stage.read for stage in stages]


#: In a pool worker: slot -> (set, stages by reader index, column
#: holder) of the sets :func:`_resident_round` keeps there.  Always
#: empty in the driver.
_RESIDENT: Dict[int, Tuple[Optional[ResampleSet], Dict[int, Any], Any]] = {}


def _resident_round(args: Tuple[int, Optional[Tuple[Any, Any, Any]], int,
                                int, Sequence[Tuple[int, float]]]
                    ) -> List[AccuracyEstimate]:
    """Fan-out unit for process backends, placed by resample set: the
    set arrives once — with its readers' stages and its column holder,
    on its first round after it was (re)built — stays in this worker,
    grows and is read here, and only the estimates of the round's live
    readers (``(reader index, σ)`` pairs, in reader order) go back.
    Once every one of them met its σ none will be offered to again, so
    the slot is freed.  Nor does the sample ride the task: workers
    hold the engine's one broadcast and slice locally."""
    slot, shipped, lo, hi, live = args
    if shipped is not None:
        _RESIDENT[slot] = shipped
    resamples, stages, source = _RESIDENT[slot]
    estimates = [read() for read in _reads(
        resamples, [stages[i] for i, _ in live], source.value[lo:hi])]
    if all(e.meets(sigma) for e, (_, sigma) in zip(estimates, live)):
        del _RESIDENT[slot]
    return estimates


# ---------------------------------------------------------------------------
# §3.4 loss queue + checkpoint provenance
# ---------------------------------------------------------------------------


class RoundLog:
    """What a run needs to be replayed: stream items emitted so far,
    loss reports queued for the next round boundary, and the losses
    already applied (each pinned to the boundary it landed on)."""

    __slots__ = ("emitted", "pending", "applied")

    def __init__(self) -> None:
        self.emitted = 0
        self.pending: List[Tuple[float, Optional[set], Any]] = []
        self.applied: List[Dict[str, Any]] = []


class LossRecovery:
    """``report_loss`` / ``checkpoint`` / ``restore`` for every
    in-memory entry point, over the owner's :class:`RoundLog`."""

    _label = "engine"
    #: Whether the design has strata that can be lost independently
    #: (``keys=`` filters, ``fraction == 1.0`` kills them outright).
    _strata = False
    _log: RoundLog

    def report_loss(self, fraction: float, *,
                    keys: Optional[Sequence[Hashable]] = None,
                    seed: Any = None) -> None:
        """Report that roughly ``fraction`` of the sampled rows were
        lost to a failure (§3.4 degrade-don't-die: lost splits, a dead
        node holding part of the sample).

        Applied at the next round boundary: each materialised sample
        row independently survives with probability ``1 - fraction``,
        every live pipeline's bootstrap stage is rebuilt from the
        survivors (bounds widen accordingly), and the expansion loop
        keeps running over what remains; the population the estimates
        speak for is unchanged.  Pipelines that already terminated keep
        their results — those stood on data that was alive when
        computed.  Results and snapshots carry ``degraded=True`` and the
        cumulative ``lost_fraction``.

        Grouped sessions may restrict the loss to specific strata with
        ``keys`` (default: every group — a whole-node loss), and accept
        ``fraction == 1.0``, which kills the strata outright: a dead
        stratum finalizes with its best-so-far estimate, or is
        withdrawn from the results if it never produced one.  Safe to
        call from any thread while another drives :meth:`stream`;
        ``seed`` pins which rows die (default: a deterministic child
        stream of the run's generator).
        """
        if not (0.0 < fraction < 1.0 or (self._strata and fraction == 1.0)):
            closing = "]" if self._strata else ")"
            raise ValueError(
                f"loss fraction must be in (0, 1{closing}, got {fraction}")
        if keys is not None and not self._strata:
            raise ValueError("keys= needs a grouped session: a uniform "
                             "sample has no strata to restrict a loss to")
        self._log.pending.append(
            (float(fraction), None if keys is None else set(keys), seed))
        if _METRICS.enabled:
            _METRICS.counter("repro_loss_reports_total",
                             labels={"engine": self._label},
                             help="§3.4 sample-loss reports").inc()

    def checkpoint(self) -> Dict[str, Any]:
        """Round-boundary checkpoint: how many stream items this run
        has produced and which losses were applied at which boundary
        (with their strata filters).

        Valid between rounds (i.e. while the consumer holds the
        generator at a yield).  Together with the construction arguments
        (data / keys and columns, statistics or submissions in order,
        config incl. seed) it is everything :meth:`restore` needs; no
        bootstrap state is serialized — recovery is deterministic
        replay.
        """
        return checkpoint_doc(self._log.emitted, self._log.applied)

    def restore(self, checkpoint: Mapping[str, Any]) -> Iterator[Any]:
        """Resume from a :meth:`checkpoint` taken on an identically-
        constructed engine: yields exactly the stream items an
        uninterrupted run would still produce, byte-identical.  Must be
        called on a fresh engine (never streamed); raises
        :class:`~repro.core.checkpoint.CheckpointReplayError` when the
        replay cannot reach the checkpointed round."""
        if self._log.emitted:
            raise RuntimeError(
                f"restore() needs a fresh {type(self).__name__}; this one "
                f"already produced {self._log.emitted} stream items")
        return replay_stream(self, checkpoint)


# ---------------------------------------------------------------------------
# the round core
# ---------------------------------------------------------------------------

#: One touched pipeline of a round: the unit it reads and the pipeline.
Touched = Tuple[SampleUnit, Pipeline]
#: One set's share of a round: its unit, the set and its ``[lo, hi)``
#: slice of the set's column.
Work = Tuple[SampleUnit, ColumnSet, int, int]


def _readers(work: List[Work]) -> List[Touched]:
    """The live readers of a round's sets, in (set, reader) order."""
    return [(unit, p) for unit, s, _, _ in work for p in s.readers]


class RoundEngine(LossRecovery):
    """Steps sample units through the accuracy loop, a round at a time.

    Subclasses decide the design (which units, which pipelines), each
    round's per-unit row quotas, and how touched pipelines are rendered
    into stream events; everything else — pilot / SSABE / §3.1 fallback,
    the expansion schedule and broadcast bound, the executor fan-out,
    expand-or-stop, result assembly, §3.4 loss application and
    checkpoint provenance — lives here.

    An engine streams **once**.  The stepping protocol, which
    ``stream()`` and the cross-query scheduler both drive:
    ``prepare()`` → while ``pending``: ``run_round(grant)`` →
    (``finalize()`` to force-stop) → ``finish()``; ``live_demands()``
    describes the next round's ask to an external budget allocator.
    Every call returns the ``(handle, snapshot)`` events it produced.
    """

    def __init__(self, columns: List[np.ndarray], config: EarlConfig,
                 label: str, log: Optional[RoundLog] = None) -> None:
        self._columns = columns
        self._config = config
        #: Owner-supplied name: the ``engine`` metric label and the
        #: span prefix of this engine's telemetry.
        self._label = label
        self._log = log if log is not None else RoundLog()
        self._units: List[SampleUnit] = []
        self._executor: Optional[Executor] = None
        self._started = False
        self._cancelled = False
        self._lone = False
        self._rng: Optional[np.random.Generator] = None
        self._loss_rng: Optional[np.random.Generator] = None
        #: Most expansions one unit may take; budgeted stepping of a
        #: shared sample raises it (rows can trickle in).
        self._iteration_cap = config.max_iterations

    # ------------------------------------------------------------ inventory
    @property
    def config(self) -> EarlConfig:
        return self._config

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was requested."""
        return self._cancelled

    def cancel(self) -> None:
        """Cancel the whole run: the round loop ends at the next round
        boundary without a final snapshot.

        Safe to call from any thread while another thread drives
        :meth:`stream` (plain flags checked between rounds).  Only the
        driving thread may ``close()`` the generator itself, so this is
        the cross-thread teardown path — the service layer's
        cancel/expire uses it, then the driving thread's own loop exit
        closes the executor.
        """
        self._cancelled = True

    @property
    def degraded(self) -> bool:
        """Whether any unit lost sample rows to a reported failure."""
        return any(unit.degraded for unit in self._units)

    @property
    def lost_fraction(self) -> float:
        """Fraction of the materialised sample lost to failures."""
        lost = sum(unit.lost for unit in self._units)
        total = lost + sum(unit.bound for unit in self._units)
        return lost / total if total else 0.0

    @property
    def rows_processed(self) -> int:
        """Distinct rows touched so far across every unit."""
        return sum(unit.rows_processed for unit in self._units)

    @property
    def _live(self) -> bool:
        return any(unit.active for unit in self._units)

    @property
    def pending(self) -> bool:
        """Whether another :meth:`run_round` could make progress."""
        return self._started and not self._cancelled and self._live

    # --------------------------------------------------- stepping protocol
    def prepare(self) -> List[Tuple[Any, Any]]:
        """Pilot phase: permutation prefixes, pilots, SSABE, §3.1 exact
        fallbacks, and the engine's one broadcast.  Returns the events
        of whatever resolved exactly."""
        raise NotImplementedError

    def run_round(self, grant: Any = None) -> List[Tuple[Any, Any]]:
        """Advance by one expansion round.  ``grant=None`` follows the
        engine's own schedule; otherwise it is the external budget
        allocator's row grant for this round."""
        raise NotImplementedError

    def finalize(self) -> List[Tuple[Any, Any]]:
        """Force-terminate every still-active pipeline with its latest
        estimate (best-effort, for a budget-starved run)."""
        raise NotImplementedError

    def live_demands(self) -> List[Dict[str, Any]]:
        """Demand records for an external budget allocator."""
        raise NotImplementedError

    def finish(self) -> None:
        """Tear the executor down (idempotent; :meth:`stream` calls it
        on exit, the scheduler calls it when the engine drains)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def stream(self) -> Iterator[Tuple[Any, Any]]:
        """Run to completion, yielding ``(handle, snapshot)`` events as
        each round's accuracy estimates arrive.

        A thin generator over the stepping protocol: driving the
        unbudgeted steps directly — as the cross-query scheduler does —
        produces byte-identical events in the same order.  Closing the
        generator cancels the run (executor teardown; no further round
        is computed).
        """
        events = self.prepare()
        try:
            yield from events
            while self.pending:
                yield from self.run_round()
        finally:
            self.finish()

    # ------------------------------------------------------ shared machinery
    def _begin(self) -> bool:
        """Start the engine's one run; ``False`` when it was cancelled
        before it began."""
        if self._started:
            raise RuntimeError(
                f"a {type(self).__name__} streams only once")
        self._started = True
        if self._cancelled:
            return False
        self._rng = ensure_rng(self._config.seed)
        return True

    def _emit(self, events: List[Tuple[Any, Any]]) -> List[Tuple[Any, Any]]:
        self._log.emitted += len(events)
        return events

    def _take(self, unit: SampleUnit, column: int,
              picks: Optional[np.ndarray] = None) -> np.ndarray:
        """The unit's rows of one engine column: all of them in
        appearance order, or those at the permuted positions ``picks``."""
        data = self._columns[column]
        if picks is None:
            return data if unit.rows is None else data[unit.rows]
        return data[picks if unit.rows is None else unit.rows[picks]]

    def _shares(self, pipeline: Pipeline) -> bool:
        """Whether the pipeline's stage (:func:`make_estimation_stage`)
        reads its column's shared resample set."""
        return (pipeline.statistic.closed_form is None
                and self._config.estimation != "jackknife")

    def _stage(self, pipeline: Pipeline, resamples: Optional[ResampleSet],
               seed: Any) -> Any:
        """The pipeline's stage: a reader of ``resamples``, or one over
        its own sample drawing on ``seed``."""
        return make_estimation_stage(
            pipeline.statistic, pipeline.B,
            replace(self._config, error_metric=pipeline.error_metric),
            seed=seed, executor=self._executor if self._lone else None,
            resamples=resamples)

    def _build(self, unit: SampleUnit,
               seed: Callable[[Pipeline], Any]) -> None:
        """(Re)build the unit's sets: a column's sharing readers get ONE
        resample set of their largest ``B``, drawn from the stream
        ``seed`` gives the first of them (a lone reader's: its own),
        and each reader a stage over it; a set of own-sample readers
        gets none, and each of them a stage seeded from its stream."""
        cfg = self._config
        for s in unit.live_sets():
            first = s.readers[0]
            s.resamples = ResampleSet(
                first.statistic, max(p.B for p in s.readers),
                maintenance=cfg.maintenance, sketch_c=cfg.sketch_c,
                seed=seed(first)) if self._shares(first) else None
            s.shipped = False
            for p in s.readers:
                p.stage = self._stage(p, s.resamples, seed(p))

    def _prepare(self, units: List[SampleUnit]) -> List[Touched]:
        """Pilot every unit (each with ``rng`` and ``order`` set by the
        caller), then allocate and broadcast the sample columns.
        Returns the pipelines resolved exactly at the pilot."""
        self._units = units
        submitted = sum(len(unit.pipelines) for unit in units)
        self._lone = submitted == 1
        span = _TRACER.span(f"{self._label}.prepare",
                            attrs={"pipelines": submitted})
        try:
            self._executor = resolve_executor(self._config)
            for unit in units:
                self._pilot(unit)
            self._materialise()
        except BaseException:
            self.finish()
            raise
        finally:
            span.finish()
        return [(unit, pipeline) for unit in units
                for pipeline in unit.pipelines if pipeline.used_fallback]

    def _pilot(self, unit: SampleUnit) -> None:
        """SSABE, §3.1 fallback or estimation stage for every submitted
        pipeline of one unit, and the unit's first target."""
        cfg = self._config
        rng, order = unit.rng, unit.order
        assert rng is not None and order is not None
        k = len(unit.pipelines)
        # One pipeline continues the unit's own generator; k >= 2 get
        # two pre-spawned streams each (SSABE, stage), counted over the
        # *submitted* pipelines so a withdrawn one leaves the others'
        # randomness untouched.
        streams = [rng, rng] if k == 1 else spawn_child(rng, 2 * k)
        pilot = pilot_size_for(cfg, unit.size)
        for i, pipeline in enumerate(unit.pipelines):
            if pipeline.cancelled:
                # Withdrawn before streaming: no pilot, nothing towards
                # the broadcast bound or any round's target.
                continue
            B, n, pipeline.ssabe = choose_parameters(
                pipeline.statistic, unit.size, cfg,
                lambda: self._take(unit, pipeline.column, order.head(pilot)),
                sigma=pipeline.sigma, B=pipeline.B_override,
                n=pipeline.n_override, seed=streams[2 * i])
            pipeline.B, pipeline.n = B, n
            if B * n >= unit.size:
                pipeline.used_fallback = True
                pipeline.result = exact_fallback_result(
                    pipeline.statistic, self._take(unit, pipeline.column),
                    sigma=pipeline.sigma, ssabe=pipeline.ssabe)
        # One set per column and kind of stage, in first-seen order (a
        # design of one kind keeps one set per column).
        live = {p: (p.column, self._shares(p)) for p in unit.active_pipelines}
        unit.sets = [ColumnSet(kind[0], [p for p in live if live[p] == kind])
                     for kind in dict.fromkeys(live.values())]
        self._build(unit, lambda first: streams[2 * first.index + 1])
        if unit.active:
            unit.target = first_target(
                max(p.n for p in unit.active_pipelines), unit.size)

    def _reach(self, unit: SampleUnit) -> int:
        """The most rows the unit's own schedule can ever consume: its
        first target grown by :func:`grow_target` for
        ``max_iterations - 1`` rounds — the size of its column
        segments."""
        cfg = self._config
        bound = unit.target
        for _ in range(cfg.max_iterations - 1):
            if bound >= unit.size:
                break
            bound = grow_target(bound, unit.size, cfg)
        return bound

    def _materialise(self) -> None:
        """One column buffer per engine column, a reach-sized segment
        per active unit, shipped ONCE for the whole run and filled as
        it is read (:meth:`_fill`): every delta is a ``[lo, hi)`` slice
        of it — zero-copy on shared-memory backends, a shared mapping
        the workers inherit at their fork on process pools.  Nothing is
        gathered here, and a buffer's pages stay untouched until rows
        land in them."""
        units = [unit for unit in self._units if unit.active]
        for unit in units:
            unit.bound = self._reach(unit)
        placed = [(unit, s) for unit in units for s in unit.sets]
        for slot, (_, s) in enumerate(placed):
            s.slot = slot
        assert self._executor is not None
        for column, data in enumerate(self._columns):
            mine = [(unit, s) for unit, s in placed if s.column == column]
            if not mine:
                continue
            shape = (sum(unit.bound for unit, _ in mine),) + data.shape[1:]
            source = (LocalColumn(np.empty(shape, data.dtype)) if self._lone
                      else self._executor.broadcast_column(shape, data.dtype))
            offset = 0
            for unit, s in mine:
                s.source, s.base = source, offset
                offset += unit.bound

    def _fill(self, unit: SampleUnit, upto: int) -> None:
        """Gather the unit's sample rows ``[drawn, upto)`` into its
        segment of every column a live pipeline of it reads — just
        before anything is handed them."""
        lo = unit.drawn
        if upto <= lo:
            return
        assert unit.order is not None
        picks = unit.order.head(upto)[lo:]
        for s in unit.live_sets():
            s.source.value[s.base + lo:s.base + upto] = \
                self._take(unit, s.column, picks)
        unit.drawn = upto

    def _apply_losses(self) -> List[Touched]:
        """Apply the queued loss reports (§3.4): mask the lost rows out
        of every hit unit's reachable sample, rebuild the survivors'
        resample sets, finalize dead units.

        Each hit active unit keeps every reachable row independently
        with probability ``1 - fraction`` (its segments are filled up to
        ``bound`` first); its columns become compacted
        driver-local survivors, its sets are rebuilt (seeded from a
        lazily-spawned loss stream, so clean runs draw nothing extra)
        and grown by the surviving consumed prefix, so the next round
        extends a consistent resample state.  The population the
        estimates speak for stays ``size``.  A unit losing every row
        finalizes best-so-far.  Returns the pipelines whose estimate or
        result changed.
        """
        events, self._log.pending = self._log.pending, []
        if not events:
            return []
        for fraction, keys, seed in events:
            self._log.applied.append(
                loss_event(self._log.emitted, fraction, seed, keys=keys))
        if self._loss_rng is None:
            assert self._rng is not None
            self._loss_rng = spawn_child(self._rng, 1)[0]
        touched: List[Touched] = []
        for unit in self._units:
            if not unit.active or unit.bound <= 0:
                continue
            keep = np.ones(unit.bound, dtype=bool)
            hit = False
            for fraction, keys, seed in events:
                if keys is not None and unit.key not in keys:
                    continue
                hit = True
                if fraction >= 1.0:
                    keep[:] = False
                    continue
                event_rng = (ensure_rng(seed) if seed is not None
                             else self._loss_rng)
                keep &= event_rng.random(unit.bound) >= fraction
            if not hit or keep.all():
                continue    # the failure missed this unit entirely
            unit.degraded = True
            survivors = int(np.count_nonzero(keep))
            unit.lost += unit.bound - survivors
            if survivors == 0:
                # Dead unit: finalize before touching consumed, so
                # best-so-far results stand on the pre-loss sample.
                unit.bound = 0
                touched.extend(self._finalize_unit(unit))
                continue
            self._fill(unit, unit.bound)
            consumed = int(np.count_nonzero(keep[:unit.consumed]))
            streams = spawn_child(self._loss_rng, len(unit.pipelines))
            for s in unit.live_sets():
                segment = s.source.value[s.base:s.base + unit.bound]
                s.source, s.base = LocalColumn(segment[keep]), 0
            self._build(unit, lambda first: streams[first.index])
            if consumed:
                work = [(unit, s, 0, consumed) for s in unit.sets]
                for pair, estimate in zip(_readers(work),
                                          self._offer_round(work)):
                    pair[1].estimate = estimate
                    touched.append(pair)
            unit.consumed = consumed
            unit.bound = unit.drawn = survivors
        return touched

    def _advance(self, quotas: Mapping[Hashable, int]) -> List[Touched]:
        """One expansion round: draw ``quotas[unit.key]`` more rows for
        every active unit (capped at what it can still reach), offer
        the deltas to its live pipelines through the executor, then
        expand-or-stop each.

        A unit whose reachable rows are all consumed cannot improve and
        finalizes best-so-far instead of spinning (degrade, don't die).
        Returns the touched pipelines.
        """
        touched: List[Touched] = []
        work: List[Work] = []
        drawn = 0
        for unit in self._units:
            if not unit.active:
                continue
            room = unit.bound - unit.consumed
            if room <= 0:
                touched.extend(self._finalize_unit(unit))
                continue
            quota = min(int(quotas.get(unit.key, 0)), room)
            if quota <= 0:
                continue
            lo, unit.consumed = unit.consumed, unit.consumed + quota
            self._fill(unit, unit.consumed)
            unit.iteration += 1
            drawn += quota
            work.extend((unit, s, s.base + lo, s.base + unit.consumed)
                        for s in unit.live_sets())
        if not work:
            return touched
        readers = _readers(work)
        with _TRACER.span(f"{self._label}.round",
                          attrs={"rows": drawn, "offers": len(readers)}):
            estimates = self._offer_round(work)
        if _METRICS.enabled:
            _METRICS.counter("repro_engine_rounds_total",
                             labels={"engine": self._label},
                             help="engine expansion rounds").inc()
            _METRICS.counter("repro_engine_rows_total",
                             labels={"engine": self._label},
                             help="sample rows consumed by rounds"
                             ).inc(drawn)
        for (unit, pipeline), estimate in zip(readers, estimates):
            pipeline.estimate = estimate
            expand = (not estimate.meets(pipeline.sigma)
                      and unit.consumed < unit.bound
                      and unit.iteration < self._iteration_cap)
            pipeline.iterations.append(IterationRecord(
                iteration=unit.iteration, sample_size=unit.consumed,
                accuracy=estimate, simulated_seconds=0.0,
                expanded=expand))
            if not expand:
                pipeline.result = self._sampled_result(unit, pipeline)
                pipeline.stage = None   # finished: nothing left to offer
            touched.append((unit, pipeline))
        for unit in self._units:
            if unit.active and unit.consumed >= unit.target:
                unit.target = grow_target(unit.consumed, unit.size,
                                          self._config)
        return touched

    def _offer_round(self, work: List[Work]) -> List[AccuracyEstimate]:
        """Grow every set of the round by its ``[lo, hi)`` slice of its
        column and read its live readers; returns their estimates in
        (set, reader) order.

        Tasks carry only slice bounds — the column was shipped once for
        the whole run (and filled before this round was).  On a process
        pool (an engine that broadcast its columns) each set is one task
        placed at its slot, where it lives from its first round: its
        worker grows it and reads its readers.  Otherwise the driver
        grows each set and, on a parallel backend, the reads fan out
        over the round's readers.  Per-set RNG streams and ordered
        gather keep results byte-identical across serial / threads /
        processes.
        """
        executor = self._executor
        assert executor is not None
        if not executor.shares_memory and not self._lone:
            items = []
            for _, s, lo, hi in work:
                shipped = None if s.shipped else (
                    s.resamples, {p.index: p.stage for p in s.readers},
                    s.source)
                s.shipped = True
                items.append((s.slot, shipped, lo, hi,
                              [(p.index, p.sigma) for p in s.readers]))
            return [estimate for estimates in executor.map(
                _resident_round, items, place=[s.slot for _, s, _, _ in work])
                for estimate in estimates]
        reads = [read for _, s, lo, hi in work for read in _reads(
            s.resamples, [p.stage for p in s.readers], s.source.value[lo:hi])]
        if executor.is_parallel and len(reads) > 1:
            return executor.map(operator.call, reads)
        return [read() for read in reads]

    def _sampled_result(self, unit: SampleUnit,
                        pipeline: Pipeline) -> EarlResult:
        """The result of a pipeline that stopped on a sampled estimate."""
        estimate = pipeline.estimate
        assert estimate is not None
        p = unit.consumed / unit.size
        return EarlResult(
            estimate=pipeline.correction(estimate.estimate, p),
            uncorrected_estimate=estimate.estimate,
            error=estimate.error,
            achieved=estimate.meets(pipeline.sigma),
            sigma=pipeline.sigma,
            statistic=pipeline.statistic.name,
            n=unit.consumed,
            B=pipeline.B or 0,
            population_size=unit.size,
            sample_fraction=p,
            used_fallback=False,
            simulated_seconds=0.0,
            iterations=list(pipeline.iterations),
            ssabe=pipeline.ssabe,
            accuracy=estimate,
            degraded=unit.degraded,
            lost_fraction=unit.lost_fraction)

    def _finalize_unit(self, unit: SampleUnit) -> List[Touched]:
        """Best-so-far results for a unit that can no longer improve.

        A pipeline that never produced an estimate is answered exactly
        — the only honest terminal choice left — unless the unit's rows
        were lost, in which case scanning them would read dead data and
        it is withdrawn instead (inventing a result with no estimate
        would not be honest)."""
        touched: List[Touched] = []
        for pipeline in unit.active_pipelines:
            if pipeline.estimate is not None:
                pipeline.result = self._sampled_result(unit, pipeline)
            elif unit.degraded:
                pipeline.cancelled = True
                continue
            else:
                pipeline.used_fallback = True
                pipeline.result = exact_fallback_result(
                    pipeline.statistic, self._take(unit, pipeline.column),
                    sigma=pipeline.sigma, ssabe=pipeline.ssabe)
            pipeline.stage = None
            touched.append((unit, pipeline))
        return touched

    def _finalize_all(self) -> List[Touched]:
        return [pair for unit in self._units if unit.active
                for pair in self._finalize_unit(unit)]


# ---------------------------------------------------------------------------
# one unit, k pipelines: the uniform shared-sample engine
# ---------------------------------------------------------------------------


class UniformEngine(RoundEngine):
    """k statistic queries over ONE pilot and ONE growing uniform sample
    of an in-memory dataset (a random permutation prefix, drawn as far
    as it is read).

    Each expansion round draws a single delta and grows ONE
    delta-maintained resample set (§4.1) of the widest active query's
    ``B``; each query reads its own statistic over the first ``B`` of
    those resamples.  Queries terminate independently, and the sample
    only keeps growing while some query still needs more data.  Events are
    ``(query, ProgressSnapshot)`` pairs.
    :class:`~repro.streaming.SessionManager` is this engine under its
    public name; :class:`~repro.core.EarlSession` runs one with a
    single query.
    """

    def __init__(self, data: Sequence[float], *,
                 config: Optional[EarlConfig] = None,
                 label: str, log: Optional[RoundLog] = None) -> None:
        items = as_items(data)
        super().__init__([items], config or EarlConfig(), label, log)
        self._queries: List[Pipeline] = []
        self._unit = SampleUnit(None, len(items), self._queries)
        self._units = [self._unit]

    @property
    def queries(self) -> List[Pipeline]:
        """The submitted query handles, in submission order."""
        return list(self._queries)

    @property
    def consumed(self) -> int:
        """Rows of the shared sample consumed so far."""
        return self._unit.consumed

    def cancel(self) -> None:
        """Cancel the whole session: every query is withdrawn and the
        round loop ends at the next round boundary (see
        :meth:`RoundEngine.cancel`); individual queries are cancelled
        one at a time via their handle's ``cancel()``."""
        super().cancel()
        for query in self._queries:
            query.cancel()

    def submit(self, statistic: StatisticLike, *,
               sigma: Optional[float] = None,
               error_metric: Optional[str] = None,
               correction: CorrectionLike = "auto",
               B_override: Optional[int] = None,
               n_override: Optional[int] = None,
               name: Optional[str] = None) -> Pipeline:
        """Register a query; returns its handle.

        Per-query overrides default to the shared config: ``sigma``
        (the error bound this query must meet), ``error_metric``, and
        the SSABE ``B_override``/``n_override`` escape hatch — checked
        here, by :class:`~repro.core.EarlConfig`'s rules.  ``name``
        keys the :meth:`run` result dict (default: the statistic's
        name, suffixed on collision).
        """
        if self._started:
            raise RuntimeError("cannot submit after streaming started")
        cfg = replace(self._config, **{k: v for k, v in dict(
            sigma=sigma, error_metric=error_metric, B_override=B_override,
            n_override=n_override).items() if v is not None})
        stat = get_statistic(statistic)
        check_row_compatibility(stat, self._columns[0])
        taken = {q.name for q in self._queries}
        if name is None:
            name = stat.name
            suffix = 2
            while name in taken:
                name = f"{stat.name}#{suffix}"
                suffix += 1
        elif name in taken:
            raise ValueError(f"duplicate query name {name!r}")
        handle = Pipeline(
            name, stat, sigma=cfg.sigma, error_metric=cfg.error_metric,
            correction=get_correction(correction, stat.name),
            B_override=cfg.B_override, n_override=cfg.n_override,
            index=len(self._queries))
        self._queries.append(handle)
        return handle

    # --------------------------------------------------- stepping protocol
    def prepare(self) -> List[Tuple[Pipeline, ProgressSnapshot]]:
        """Pilot phase of the run: permutation prefix, shared pilot,
        per-query SSABE, §3.1 exact fallbacks, and the session's one
        broadcast.

        Returns the ``(query, snapshot)`` events of queries resolved
        exactly during the pilot.  After this, :meth:`run_round`
        advances the remaining queries one expansion round at a time
        (the cross-query scheduler's entry point); :meth:`stream` is
        the equivalent single-consumer generator.
        """
        if not self._queries:
            raise RuntimeError("no queries submitted")
        if not self._begin():
            return []
        unit = self._unit
        unit.rng = self._rng
        unit.order = self._order(unit.size, self._rng)   # the ONE sample
        return self._events(self._prepare([unit]))

    def _order(self, size: int, rng: np.random.Generator) -> Any:
        """The sample's order: a uniform random permutation prefix."""
        return PermutationPrefix(size, rng)

    def live_demands(self) -> List[Dict[str, Any]]:
        """Per-active-query demand records for an external budget
        allocator.

        ``scale`` re-estimates the query's ``S`` from the live
        bootstrap error (``error ∝ S/√n`` ⇒ ``S ≈ error·√n``); before
        the first round it is unknown (``nan``) and the pilot-sized
        first draw is mandatory anyway.  All queries share one sample,
        so every record carries the same engine-level ``scheduled`` —
        the rows the next unbudgeted round would add — and
        ``remaining`` ask (``shared=True``).
        """
        if not self.pending:
            return []
        unit = self._unit
        remaining = max(0, unit.bound - unit.consumed)
        scheduled = min(max(unit.target - unit.consumed, 0), remaining)
        records: List[Dict[str, Any]] = []
        for query in unit.active_pipelines:
            known = query.estimate is not None and unit.consumed > 0
            error = (float(query.estimate.error)
                     if query.estimate is not None else float("nan"))
            records.append({
                "key": query.name, "error": error, "sigma": query.sigma,
                "consumed": unit.consumed, "size": unit.size,
                "scheduled": scheduled, "remaining": remaining,
                "scale": (error * math.sqrt(unit.consumed) if known
                          else float("nan")),
                "shared": True,
            })
        return records

    def run_round(self, budget: Optional[int] = None
                  ) -> List[Tuple[Pipeline, ProgressSnapshot]]:
        """Advance the shared sample by one expansion round; returns
        the round's ``(query, snapshot)`` events.

        Unbudgeted rounds follow the session's own expansion schedule
        (the :meth:`stream` path, byte-identical).  ``budget`` caps the
        round's *new* rows — the scheduler's global-allocation hook —
        except on the first round, whose SSABE-sized draw is mandatory.
        Budgeted stepping can trickle rows, so it raises the allowed
        round count the way a granted grouped session does; a round
        starved to zero new rows is a no-op (no iteration consumed).
        """
        if not self._started:
            raise RuntimeError("prepare() has not run")
        unit = self._unit
        if budget is not None:
            self._iteration_cap = max(self._iteration_cap,
                                      self._config.max_iterations * 8)
        # Only terminal outcomes of a loss are events here; a re-offered
        # estimate shows in the round's own snapshot.
        touched = [pair for pair in self._apply_losses() if pair[1].done]
        quota = unit.target - unit.consumed
        if budget is not None and unit.consumed > 0:
            quota = min(quota, max(int(budget), 0))
        return self._events(touched + self._advance({unit.key: quota}))

    def finalize(self) -> List[Tuple[Pipeline, ProgressSnapshot]]:
        """Force-terminate every still-active query with its latest
        estimate (best-effort, for a budget-starved scheduled run —
        mirrors the grouped engine's stalled finalize)."""
        return self._events(self._finalize_all())

    def run(self) -> Dict[str, Optional[EarlResult]]:
        """Drain :meth:`stream`; returns ``{name: result}`` (``None``
        for queries cancelled before terminating)."""
        for _ in self.stream():
            pass
        return {query.name: query.result for query in self._queries}

    # --------------------------------------------------------------- helpers
    def _events(self, touched: List[Touched]
                ) -> List[Tuple[Pipeline, ProgressSnapshot]]:
        events = []
        for unit, query in touched:
            snapshot = (result_snapshot(query.result) if query.used_fallback
                        else self._snapshot(unit, query))
            query.snapshots.append(snapshot)
            events.append((query, snapshot))
        return self._emit(events)

    def _snapshot(self, unit: SampleUnit,
                  query: Pipeline) -> ProgressSnapshot:
        accuracy = query.estimate
        assert accuracy is not None
        p = unit.consumed / unit.size
        return ProgressSnapshot(
            iteration=len(query.iterations),
            estimate=query.correction(accuracy.estimate, p),
            uncorrected_estimate=accuracy.estimate,
            error=accuracy.error, cv=accuracy.cv,
            ci_low=accuracy.ci_low, ci_high=accuracy.ci_high,
            sample_size=unit.consumed, population_size=unit.size,
            sample_fraction=p,
            achieved=accuracy.meets(query.sigma),
            final=query.result is not None,
            statistic=query.statistic.name,
            cost_delta_seconds=0.0, cost_total_seconds=0.0,
            accuracy=accuracy, result=query.result,
            degraded=unit.degraded, lost_fraction=unit.lost_fraction)
