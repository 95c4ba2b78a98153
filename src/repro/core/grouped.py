"""Grouped EARL sessions: per-group early answers with per-group bounds.

Grouped aggregation is where uniform sampling breaks down: a key holding
1 % of the table receives 1 % of every uniform sample, so its bootstrap
error converges two orders of magnitude slower than the head key's and
the *query* terminates only when its worst group does.
:class:`GroupedEarlSession` runs the paper's loop **per group** over a
stratified design instead (:class:`~repro.sampling.StratifiedSampler`):

* every group gets its own SSABE pilot (a prefix of the group's own
  lazily drawn permutation), its own ``(B, n)``, and one
  delta-maintained :class:`~repro.core.delta.ResampleSet` per measure
  (each measure reads its own column, so each set has one reader);
* a group stops sampling the moment *its* error bound is met (or its
  rows are exhausted / its §3.1 exact fallback fires), while laggard
  groups keep expanding — the per-group counterpart of the paper's
  termination protocol;
* each still-active ``(group, aggregate)`` pair's set is one unit of a
  round's work, run through the executor seam over the broadcast-once
  data plane (one stratified-ordered column shipped per measure per
  session), so serial / thread / process backends yield
  byte-identical snapshots.

The loop itself is the shared round core (:mod:`repro.core.engine`):
a group is a :class:`~repro.core.engine.SampleUnit`, a ``(group,
measure)`` pair is a :class:`~repro.core.engine.Pipeline`; this module
adds the stratified design, the external grants hook and the
cumulative grouped snapshots.

Determinism contract: each group draws an integer seed from the session
RNG (exposed as :attr:`GroupedEarlSession.group_seeds`), and a
**single-measure** session runs each group exactly as
``EarlSession(group_rows, stat, config=replace(cfg, seed=seed))`` would
— same permutation, same SSABE stream, same stage RNG, same expansion
schedule — so the per-group estimate, CI and iteration trail are
byte-identical to an independent solo session on that group's rows
(``tests/query/test_equivalence.py`` pins this).  Multi-measure
sessions share each group's sample and give every measure its own
spawned streams, SessionManager-style.

Budgeted allocation: run alone, every group follows its own expansion
schedule.  A shared per-round row budget is the cross-query scheduler's
job (:class:`~repro.scheduler.QueryScheduler`): it reads
:meth:`GroupedEarlSession.live_demands` and hands each round a
``grants`` split — live ``N_h·S_h`` weights, each group capped at the
rows it still needs — so finished groups donate their budget to the
laggards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.accuracy import AccuracyEstimate
from repro.core.config import EarlConfig
from repro.core.correction import CorrectionLike, get_correction
from repro.core.engine import (
    Pipeline,
    RoundEngine,
    SampleUnit,
    Touched,
    check_row_compatibility,
    pilot_size_for,
)
from repro.core.estimators import StatisticLike, get_statistic
from repro.core.result import EarlResult
from repro.sampling.stratified import Factorization, StratifiedSampler
from repro.util.rng import ensure_rng


@dataclass(frozen=True, eq=False)
class Measure:
    """One aggregate to estimate per group.

    ``values`` is the measure's column, aligned row-for-row with the
    session's ``keys`` (1-D numeric, or 2-D rows for row-item statistics
    such as ``"correlation"``).  ``sigma`` overrides the config's error
    bound for this measure only; ``name`` keys the per-group results.
    """

    name: str
    statistic: StatisticLike
    values: Any
    sigma: Optional[float] = None
    correction: CorrectionLike = "auto"


@dataclass(frozen=True)
class GroupEstimate:
    """Progressive answer for one ``(group, aggregate)`` pair."""

    key: Hashable
    aggregate: str
    statistic: str
    estimate: float           # corrected for the group's sample fraction
    uncorrected_estimate: float
    error: float
    cv: float
    ci_low: float
    ci_high: float
    sample_size: int          # group rows consumed so far
    group_size: int           # the group's population N_g
    sample_fraction: float
    achieved: bool            # error <= the measure's sigma
    done: bool                # this pair stopped (met / exhausted / exact)
    used_fallback: bool = False
    accuracy: Optional[AccuracyEstimate] = None
    result: Optional[EarlResult] = None   # populated once done
    #: §3.4 degraded-mode accounting: the group lost sample rows to a
    #: failure and its bootstrap was re-estimated from the survivors.
    degraded: bool = False
    lost_fraction: float = 0.0

    @property
    def ci(self) -> tuple:
        return (self.ci_low, self.ci_high)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the service wire form): plain scalars,
        stable keys, nested ``accuracy``/``result`` objects excluded —
        mirrors :meth:`repro.core.result.ProgressSnapshot.to_dict`."""
        return {
            "key": str(self.key),
            "aggregate": str(self.aggregate),
            "statistic": str(self.statistic),
            "estimate": float(self.estimate),
            "uncorrected_estimate": float(self.uncorrected_estimate),
            "error": float(self.error),
            "cv": float(self.cv),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "sample_size": int(self.sample_size),
            "group_size": int(self.group_size),
            "sample_fraction": float(self.sample_fraction),
            "achieved": bool(self.achieved),
            "done": bool(self.done),
            "used_fallback": bool(self.used_fallback),
            "degraded": bool(self.degraded),
            "lost_fraction": float(self.lost_fraction),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return (f"GroupEstimate({self.key!r}.{self.aggregate}="
                f"{self.estimate:.6g}, error={self.error:.4f} [{state}], "
                f"n={self.sample_size}/{self.group_size})")


@dataclass
class GroupedResult:
    """Outcome of a grouped run: one :class:`EarlResult` per
    ``(group, aggregate)`` pair, plus whole-query accounting."""

    groups: Dict[Hashable, Dict[str, EarlResult]]
    rounds: int
    rows_processed: int
    population_size: int
    #: §3.4 degraded-mode accounting (sample rows lost to failures).
    degraded: bool = False
    lost_fraction: float = 0.0

    @property
    def achieved(self) -> bool:
        """Whether every group met every aggregate's error bound."""
        return all(res.achieved
                   for by_agg in self.groups.values()
                   for res in by_agg.values())

    def group(self, key: Hashable) -> Dict[str, EarlResult]:
        return self.groups[key]

    def estimates(self, aggregate: Optional[str] = None
                  ) -> Dict[Hashable, float]:
        """``{group: estimate}`` for one aggregate (the only one when
        the query selected a single aggregate)."""
        out: Dict[Hashable, float] = {}
        for key, by_agg in self.groups.items():
            if aggregate is None:
                if len(by_agg) != 1:
                    raise ValueError(
                        "aggregate name required: query selected "
                        f"{sorted(by_agg)}")
                out[key] = next(iter(by_agg.values())).estimate
            else:
                out[key] = by_agg[aggregate].estimate
        return out

    def to_rows(self) -> List[Dict[str, Any]]:
        """Flat result-set rows (one per group) for printing."""
        rows = []
        for key, by_agg in self.groups.items():
            row: Dict[str, Any] = {"group": key}
            for name, res in by_agg.items():
                row[name] = res.estimate
                row[f"{name}.error"] = res.error
                row[f"{name}.n"] = res.n
            rows.append(row)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "met" if self.achieved else "NOT met"
        return (f"GroupedResult({len(self.groups)} group(s), "
                f"rounds={self.rounds}, rows={self.rows_processed}/"
                f"{self.population_size}, bounds {flag})")


@dataclass(frozen=True)
class GroupedSnapshot:
    """One round's progressively-refined grouped answer.

    ``groups`` is the *cumulative* latest :class:`GroupEstimate` per
    ``(group, aggregate)`` — finished pairs keep their terminal entry —
    and ``updated`` names the pairs refreshed this round.  The last
    snapshot has ``final=True`` and carries the :class:`GroupedResult`,
    which makes the stream consumable by the existing
    :class:`~repro.streaming.StreamConsumer` machinery unchanged.
    """

    round: int
    groups: Dict[Hashable, Dict[str, GroupEstimate]]
    updated: Tuple[Tuple[Hashable, str], ...]
    rows_processed: int
    population_size: int
    active_groups: int
    final: bool
    result: Optional[GroupedResult] = None
    #: §3.4 degraded-mode accounting: whether any group lost sample
    #: rows, and the fraction of the materialized sample lost overall.
    degraded: bool = False
    lost_fraction: float = 0.0

    @property
    def worst(self) -> Optional[GroupEstimate]:
        """The unfinished pair with the largest error (the laggard the
        next round will keep sampling), if any."""
        running = [e for by_agg in self.groups.values()
                   for e in by_agg.values() if not e.done]
        if not running:
            return None
        return max(running, key=lambda e: e.error)

    def to_dict(self, *, updated_only: bool = False) -> Dict[str, Any]:
        """JSON-serializable view of this round (the service wire form).

        Group keys are stringified to stay JSON-object keys.  With
        ``updated_only`` the ``groups`` payload carries just the pairs
        refreshed this round — the bounded per-round delta a resumable
        event stream wants, since the cumulative board is reconstructible
        from the deltas (and the final snapshot ships the full board).
        """
        wanted = set(self.updated) if updated_only else None
        groups: Dict[str, Dict[str, Any]] = {}
        for key, by_agg in self.groups.items():
            for name, entry in by_agg.items():
                if wanted is not None and (key, name) not in wanted:
                    continue
                groups.setdefault(str(key), {})[str(name)] = entry.to_dict()
        return {
            "round": int(self.round),
            "groups": groups,
            "updated": [[str(key), str(name)] for key, name in self.updated],
            "rows_processed": int(self.rows_processed),
            "population_size": int(self.population_size),
            "active_groups": int(self.active_groups),
            "final": bool(self.final),
            "achieved": (bool(self.result.achieved)
                         if self.result is not None else None),
            "degraded": bool(self.degraded),
            "lost_fraction": float(self.lost_fraction),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "final" if self.final else "partial"
        return (f"GroupedSnapshot(round={self.round} [{flag}], "
                f"{len(self.groups)} group(s), active={self.active_groups}, "
                f"rows={self.rows_processed}/{self.population_size})")


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------


class GroupedEarlSession(RoundEngine):
    """Approximate grouped aggregation with per-group error bounds.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.grouped import GroupedEarlSession, Measure
    >>> from repro.core import EarlConfig
    >>> rng = np.random.default_rng(0)
    >>> keys = rng.choice(["a", "b"], size=50_000, p=[0.9, 0.1])
    >>> vals = rng.lognormal(3.0, 1.0, 50_000)
    >>> session = GroupedEarlSession(
    ...     keys, [Measure("mean(value)", "mean", vals)],
    ...     config=EarlConfig(sigma=0.05, seed=1))
    >>> result = session.run()
    >>> sorted(result.groups) == ["a", "b"] and result.achieved
    True

    A session streams **once** (iterate :meth:`stream`, or call
    :meth:`run`, which drains it); closing the stream cancels the
    still-active groups and tears the executor down.  It is a
    :class:`~repro.core.engine.RoundEngine` with one sample unit per
    group and one pipeline per measure, so the cross-query scheduler
    can drive it through the stepping protocol directly; its events are
    ``(session, GroupedSnapshot)`` pairs.
    """

    _strata = True

    def __init__(self, keys: Sequence[Hashable],
                 measures: Sequence[Measure], *,
                 config: Optional[EarlConfig] = None) -> None:
        if len(keys) == 0:
            raise ValueError("keys must be non-empty")
        if not measures:
            raise ValueError("at least one measure is required")
        self._keys = keys if isinstance(keys, (np.ndarray, Factorization)) \
            else np.asarray(keys, dtype=object)
        N = len(self._keys)
        seen = set()
        self._measures: List[Measure] = []
        columns: List[np.ndarray] = []
        for measure in measures:
            if measure.name in seen:
                raise ValueError(f"duplicate measure name {measure.name!r}")
            seen.add(measure.name)
            column = np.asarray(measure.values, dtype=float)
            if column.ndim not in (1, 2) or len(column) != N:
                raise ValueError(
                    f"measure {measure.name!r} values must align with the "
                    f"{N} keys (got shape {column.shape})")
            check_row_compatibility(get_statistic(measure.statistic), column)
            self._measures.append(measure)
            columns.append(column)
        super().__init__(columns, config or EarlConfig(), "grouped")
        self._group_seeds: Dict[Hashable, int] = {}
        self._pilot_std: Dict[Hashable, float] = {}
        #: Cumulative latest entry per (group, aggregate) pair.
        self._board: Dict[Hashable, Dict[str, GroupEstimate]] = {}
        self._round = 0
        self._externally_budgeted = False

    @property
    def group_seeds(self) -> Dict[Hashable, int]:
        """Integer seed drawn per group (populated once streaming
        starts).  A single-measure group is byte-identical to
        ``EarlSession(group_rows, stat, config=replace(cfg,
        seed=group_seeds[key]))``."""
        return dict(self._group_seeds)

    def run(self) -> GroupedResult:
        """Drain :meth:`stream`; returns the final :class:`GroupedResult`."""
        final: Optional[GroupedSnapshot] = None
        for final in self.stream():
            pass
        assert final is not None and final.result is not None
        return final.result

    def stream(self) -> Iterator[GroupedSnapshot]:
        """Progressive engine: one :class:`GroupedSnapshot` per round.

        Rounds advance every still-active group by one expansion; the
        last snapshot has ``final=True`` and carries the
        :class:`GroupedResult`.  Closing the generator cancels the run
        (executor teardown; no further round is computed).
        """
        for _, snapshot in super().stream():
            yield snapshot

    # --------------------------------------------------- stepping protocol
    def prepare(self) -> List[Tuple["GroupedEarlSession", GroupedSnapshot]]:
        """Seed and pilot every group; resolve exact fallbacks;
        broadcast each measure's stratified-ordered column.

        Each group draws an integer seed from the session generator and
        then runs exactly as a solo session over its rows would: the
        group's permutation prefix spawns its stream off the group
        generator first, then (for a single measure) SSABE and the stage
        continue that generator.  Returns the one final event when every
        pair resolved exactly.
        """
        if not self._begin():
            return []
        cfg = self._config
        sampler = StratifiedSampler(self._keys)
        statistics = [get_statistic(m.statistic) for m in self._measures]
        group_keys = sampler.keys
        seeds = self._rng.integers(0, 2**63 - 1, size=len(group_keys),
                                   dtype=np.int64)
        units: List[SampleUnit] = []
        for key, seed in zip(group_keys, seeds):
            self._group_seeds[key] = int(seed)
            size = sampler.population(key)
            pilot_n = pilot_size_for(cfg, size)
            B_override, n_override = cfg.B_override, cfg.n_override
            if (B_override is None or n_override is None) \
                    and pilot_n < 2 ** cfg.subsample_levels:
                # The group is too small for SSABE's nested pilot
                # halvings (a solo session would refuse such an input
                # outright); a group this tiny is cheaper to answer
                # exactly, so force the §3.1 fallback.
                B_override, n_override = 1, size
            unit = SampleUnit(key, size, [
                Pipeline(measure.name, stat,
                         sigma=(cfg.sigma if measure.sigma is None
                                else measure.sigma),
                         error_metric=cfg.error_metric,
                         correction=get_correction(measure.correction,
                                                   stat.name),
                         B_override=B_override, n_override=n_override,
                         index=i, column=i)
                for i, (measure, stat) in enumerate(zip(self._measures,
                                                        statistics))],
                rows=sampler.rows(key))
            unit.rng = ensure_rng(int(seed))
            sampler.attach_rng(key, unit.rng)
            unit.order = sampler.order(key)
            pilot = self._take(unit, 0, unit.order.head(pilot_n))
            self._pilot_std[key] = float(np.std(
                pilot.reshape(pilot_n, -1)[:, 0], ddof=1)) \
                if pilot_n > 1 else 0.0
            units.append(unit)
        exact = self._prepare(units)
        self._board = {unit.key: {} for unit in units}
        for unit, pipeline in exact:
            self._board[unit.key][pipeline.name] = self._entry(unit, pipeline)
        return self._render([])

    def live_demands(self) -> List[Dict[str, Any]]:
        """Per-active-group demand records for an external budget
        allocator (empty before streaming starts).

        ``scale`` is the live Neyman weight ingredient: once a group
        has bootstrap estimates, its worst measure's ``error·√n``
        re-estimates ``S_h`` from the live resample sets (``error ∝
        S/√n``); before the first round the pilot std stands in.
        ``sigma``/``error`` describe the binding (worst error-to-bound
        ratio) measure; ``scheduled`` is what the group's own schedule
        would draw next, ``remaining`` the most any round can still
        reach (broadcast segment minus consumed).
        """
        records: List[Dict[str, Any]] = []
        for unit in self._units:
            binding = None
            ratio = -math.inf
            for pipeline in unit.active_pipelines:
                estimate = pipeline.estimate
                error = (float(estimate.error) if estimate is not None
                         else math.inf)
                if error / max(pipeline.sigma, 1e-12) > ratio:
                    ratio = error / max(pipeline.sigma, 1e-12)
                    binding = (pipeline, error)
            if binding is None:
                continue
            pipeline, error = binding
            if math.isfinite(error) and unit.consumed > 0:
                scale = error * math.sqrt(unit.consumed)
            else:
                scale = self._pilot_std[unit.key]
            records.append({
                "key": unit.key, "error": error, "sigma": pipeline.sigma,
                "consumed": unit.consumed, "size": unit.size,
                "scheduled": max(unit.target - unit.consumed, 0),
                "remaining": max(unit.bound - unit.consumed, 0),
                "scale": scale, "shared": False,
            })
        return records

    def run_round(self, grants: Optional[Dict[Hashable, int]] = None
                  ) -> List[Tuple["GroupedEarlSession", GroupedSnapshot]]:
        """Advance every still-active group by one expansion round;
        returns the round's event (none when nothing changed).

        Without ``grants`` every active group draws what its own
        expansion schedule asks for.  ``grants`` is the cross-query
        scheduler's injection point: the round samples ``grants[key]``
        rows from each listed group (capped at the group's broadcast
        segment; groups not listed draw nothing) instead — except a
        group's first draw, which always follows its schedule.  Granted
        rounds can trickle rows, so the round-count safety bound rises
        (:meth:`_max_rounds`); per-group iteration counts still cap at
        ``max_iterations``, so a scheduler that slices a group too thin
        forfeits rounds the schedule would have used.  A round the
        scheduler starved entirely is a non-terminal no-op.  Once the
        round-count safety bound is used up the call finalizes
        best-effort instead, so whoever steps the session gets its
        final event.
        """
        if grants is not None:
            self._externally_budgeted = True
        if self._round >= self._max_rounds():
            return self.finalize()
        self._round += 1
        touched = self._apply_losses()
        if grants is not None:
            # A group's first, SSABE-sized draw is mandatory, as the
            # uniform engine's is: a grant sliced thinner would
            # bootstrap a handful of rows and "meet" any bound.
            quotas = dict(grants)
            quotas.update((unit.key, unit.target) for unit in self._units
                          if unit.active and unit.consumed == 0)
        else:
            quotas = {unit.key: unit.target - unit.consumed
                      for unit in self._units if unit.active}
        touched += self._advance(quotas)
        return self._render(touched)

    def finalize(self) -> List[Tuple["GroupedEarlSession", GroupedSnapshot]]:
        """Best-effort results for every pair a budgeted run starved
        (the max-round safety net, only reachable when grants
        trickle); the event carries the final :class:`GroupedResult`."""
        self._round += 1
        return self._render(self._finalize_all())

    # ---------------------------------------------------------------- rounds
    def _max_rounds(self) -> int:
        """Round-count safety bound: a session on its own schedule
        terminates within ``max_iterations`` rounds; external grants
        may trickle rows, so allow proportionally more before
        best-effort finalize."""
        if not self._externally_budgeted:
            return self._config.max_iterations
        return self._config.max_iterations * 8

    # ------------------------------------------------------------- snapshots
    def _entry(self, unit: SampleUnit, pipeline: Pipeline) -> GroupEstimate:
        if pipeline.used_fallback:
            res = pipeline.result
            assert res is not None
            return GroupEstimate(
                key=unit.key, aggregate=pipeline.name,
                statistic=pipeline.statistic.name,
                estimate=res.estimate,
                uncorrected_estimate=res.uncorrected_estimate,
                error=0.0, cv=0.0,
                ci_low=res.estimate, ci_high=res.estimate,
                sample_size=unit.size, group_size=unit.size,
                sample_fraction=1.0, achieved=True, done=True,
                used_fallback=True, accuracy=None, result=res,
                degraded=unit.degraded,
                lost_fraction=unit.lost_fraction)
        estimate = pipeline.estimate
        assert estimate is not None
        p = unit.consumed / unit.size
        return GroupEstimate(
            key=unit.key, aggregate=pipeline.name,
            statistic=pipeline.statistic.name,
            estimate=pipeline.correction(estimate.estimate, p),
            uncorrected_estimate=estimate.estimate,
            error=estimate.error, cv=estimate.cv,
            ci_low=estimate.ci_low, ci_high=estimate.ci_high,
            sample_size=unit.consumed, group_size=unit.size,
            sample_fraction=p,
            achieved=estimate.meets(pipeline.sigma),
            done=pipeline.done, used_fallback=False,
            accuracy=estimate, result=pipeline.result,
            degraded=unit.degraded,
            lost_fraction=unit.lost_fraction)

    def _render(self, touched: List[Touched]
                ) -> List[Tuple["GroupedEarlSession", GroupedSnapshot]]:
        """Refresh the board entries of the touched pairs and wrap the
        round into its one event; the snapshot is final once no group
        is active.  A round that changed nothing and ended nothing (the
        scheduler starved it) produces no event."""
        for unit, pipeline in touched:
            self._board[unit.key][pipeline.name] = self._entry(unit, pipeline)
        final = not self._live
        if not touched and not final:
            return []
        rows = self.rows_processed
        result = None
        if final:
            result = GroupedResult(
                groups={u.key: {p.name: p.result for p in u.pipelines
                                if p.result is not None}
                        for u in self._units},
                rounds=self._round,
                rows_processed=rows,
                population_size=len(self._keys),
                degraded=self.degraded,
                lost_fraction=self.lost_fraction)
        return self._emit([(self, GroupedSnapshot(
            round=self._round,
            groups={key: dict(by_agg)
                    for key, by_agg in self._board.items()},
            updated=tuple((unit.key, pipeline.name)
                          for unit, pipeline in touched),
            rows_processed=rows,
            population_size=len(self._keys),
            active_groups=sum(1 for u in self._units if u.active),
            final=final,
            result=result,
            degraded=self.degraded,
            lost_fraction=self.lost_fraction))])
