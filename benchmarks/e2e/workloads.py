"""The six fixed, seeded workloads of ``bench_e2e``.

Each workload builds its inputs from the benchmark seed (the service
sees only the generated arrays, tables, files and specs), runs a fixed
list of queries — a *lap* — through the client, and knows how to check
every answer against the exact numpy result computed in set-up.

Sizes are what fits the driver's budget on a 2-core box (≥ 5 timed laps
inside ``run_seconds``); README.md records how they were cut down from
the issue's starting points.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster import Cluster
from repro.core import EarlConfig, EarlJob
from repro.query import Query as GroupByQuery, agg
from repro.service import TERMINAL_STATES
from repro.streaming import SessionManager
from repro.workloads import load_stand_in

from harness import Lap, Query

#: A correct approximate answer lies within this many σ of the exact
#: one.  The bound a query reports is one standard error, and a
#: session that stops on its first, smallest sample does so because a
#: noisy bootstrap (B=10..20) happened to read low: over 60 000
#: ``session_churn`` and 12 000 ``grouped_query`` estimates (300 and
#: 100 seeds) 0.9 % lay beyond 3σ, 0.1 % beyond 4σ, 0.015 % beyond 5σ,
#: the worst at 5.9σ — a tail that thins ~8× per σ.  A driver that
#: checks hundreds of estimates in each of 130+ runs, for every later
#: PR, must see none: at 10σ a false alarm is ~1 seed in a million,
#: and a wrong statistic, scale or sample still fails.
TOLERANCE_SIGMAS = 10.0
#: Exact-fallback answers must match numpy up to summation order.
EXACT_RTOL = 1e-9

EXACT = {
    "mean": np.mean,
    "sum": np.sum,
    "median": np.median,
    "std": lambda a: np.std(a, ddof=1),
    "p25": lambda a: np.quantile(a, 0.25),
    "p90": lambda a: np.quantile(a, 0.90),
}


def _relative_error(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / abs(truth) if truth else abs(estimate)


class Workload:
    """Base: one closed-loop query script over seeded inputs."""

    name = ""
    why = ""
    #: TCP connections a lap opens — one per session it follows at once.
    connections = 1
    #: ``EarlConfig`` fields shared by every session of the workload.
    config: Dict[str, Any] = {}
    #: ``ApproxQueryService`` keyword arguments.
    service: Dict[str, Any] = {"batch_window": 5.0}
    #: Final sizes, recorded in the report.
    sizes: Dict[str, Any] = {}
    def build(self, seed: int) -> Dict[str, Any]:
        """Generate the inputs (timed: part of ``setup_s``)."""
        raise NotImplementedError

    def truths(self, inputs: Dict[str, Any]) -> None:
        """Exact answers for the checks (not part of set-up time)."""

    def register(self, service: Any, inputs: Dict[str, Any]) -> None:
        raise NotImplementedError

    async def script(self, lap: Lap) -> None:
        raise NotImplementedError

    def direct(self, inputs: Dict[str, Any], lap: Lap) -> List[Any]:
        """Run the lap's queries straight on the engines, with the
        seeds ``lap`` drew and no service in between; returns their
        ``EarlResult``s."""
        raise NotImplementedError

    # ---------------------------------------------------------------- checks
    def check(self, query: Query) -> Optional[str]:
        """``None`` when ``query`` ended correctly, else what is wrong."""
        if query.state != "done":
            return f"ended {query.state!r}"
        if query.final is None:
            return "no final event"
        if not query.final.get("achieved"):
            return "final is not achieved"
        return self.check_answer(query)

    def check_answer(self, query: Query) -> Optional[str]:
        truth, sigma = query.expect
        final = query.final
        error = _relative_error(final["estimate"], truth)
        exact = final["iteration"] == 0     # the §3.1 exact fallback
        bound = EXACT_RTOL if exact else TOLERANCE_SIGMAS * sigma
        if error > bound:
            return (f"estimate {final['estimate']!r} is {error:.3g} from "
                    f"the exact {truth!r} (allowed {bound:.3g})")
        return None

    #: The field of a ``final`` payload that counts its sampled rows.
    rows_field = "sample_size"

    def sample_fraction(self, lap: Lap) -> float:
        """Rows sampled ÷ population rows over the lap's finals."""
        finals = [q.final for q in self.sampled(lap) if q.final]
        pop = sum(f["population_size"] for f in finals)
        return sum(f[self.rows_field] for f in finals) / pop if pop else 0.0

    def sampled(self, lap: Lap) -> List[Query]:
        """The queries ``sample_fraction`` is taken over."""
        return lap.queries

    def _session_config(self, seed: int, **overrides: Any) -> EarlConfig:
        return replace(EarlConfig(**self.config), seed=seed, **overrides)


# --------------------------------------------------------- shared-scan stats

class SharedScanWorkload(Workload):
    """Statistic sessions over one lognormal data set; the sessions of
    one dispatch window share a scan, a pilot and a growing sample."""

    rows = 0
    lognormal = (1.0, 0.5)
    #: statistic -> its σ.  Each σ sits mid-way (in log error) between
    #: the error the statistic has after the round it should stop in
    #: and after the round before, so the number of rounds — and with
    #: it the work of a lap — does not flip from seed to seed.
    sigmas: Dict[str, float] = {}

    @property
    def statistics(self) -> List[str]:
        return list(self.sigmas)

    def build(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        return {"pop": rng.lognormal(*self.lognormal, self.rows)}

    def truths(self, inputs: Dict[str, Any]) -> None:
        inputs["truth"] = {s: float(EXACT[s](inputs["pop"]))
                           for s in self.statistics}

    def register(self, service: Any, inputs: Dict[str, Any]) -> None:
        service.register_dataset("pop", inputs["pop"])

    async def submit_window(self, lap: Lap, tags: List[str],
                            stats: List[str]) -> List[Query]:
        """Submit one dispatch window's sessions (session ``i`` on
        connection ``i``) and close the window."""
        truth = lap.inputs["truth"]
        queries = [await lap.submit(
            tag, {"kind": "statistic", "dataset": "pop", "statistic": stat,
                  "sigma": self.sigmas[stat]},
            (truth[stat], self.sigmas[stat]), client=i)
            for i, (tag, stat) in enumerate(zip(tags, stats))]
        await lap.flush()
        return queries

    def windows(self, lap: Lap) -> List[List[Query]]:
        """The lap's queries grouped by dispatch window (tag prefix)."""
        grouped: Dict[str, List[Query]] = {}
        for query in lap.queries:
            grouped.setdefault(query.tag.split(".")[0], []).append(query)
        return list(grouped.values())

    def direct(self, inputs: Dict[str, Any], lap: Lap) -> List[Any]:
        results: List[Any] = []
        for members in self.windows(lap):
            # A window's shared scan runs on its first member's seed.
            manager = SessionManager(
                inputs["pop"], config=self._session_config(
                    lap.session_seeds[members[0].sid]))
            for query in members:
                manager.submit(query.spec["statistic"], name=query.sid,
                               sigma=query.spec["sigma"])
            results += manager.run().values()
        return results


class StatsSharedScan(SharedScanWorkload):
    name = "stats_shared_scan"
    why = ("headline path, engine-bound: waves of mean/median/p90/std "
           "share one scan, pilot and growing sample; service and WAL "
           "do little")
    rows = 1_000_000
    lognormal = (1.0, 0.5)
    waves = 2
    # Samples grow 500 -> 4k -> 32k (-> 256k); every σ is 8^¼ × the
    # statistic's bootstrap error at 32k rows (error·√n measured at
    # B=40 over 16 runs: 0.52, 0.63, 0.80, 1.38).
    sigmas = dict(mean=0.00489, median=0.00592, p90=0.00752, std=0.01297)
    connections = len(sigmas)
    config = dict(B_override=40, n_override=500, expansion_factor=8.0,
                  max_iterations=5)
    sizes = dict(rows=rows, waves=waves,
                 queries_per_lap=waves * len(sigmas), sigmas=sigmas)

    async def script(self, lap: Lap) -> None:
        for wave in range(self.waves):
            queries = await self.submit_window(
                lap, [f"w{wave}.{s}" for s in self.statistics],
                self.statistics)
            await lap.follow_all(queries)


# ------------------------------------------------------------ grouped query

class GroupedQuery(Workload):
    name = "grouped_query"
    why = ("the stratified GROUP BY engine (core/grouped, "
           "sampling/stratified, query/planner) on the serial executor: "
           "a separate loop from the shared scan, and the control for "
           "grouped_procs")
    rows = 500_000
    groups = 50
    queries = 2
    # Groups under B·n = 2000 rows (the 17 smallest) are answered
    # exactly; the others sample 100 -> 200 -> 400 (-> 800) rows, and
    # each σ is 2^¼ × the aggregate's error at 400 rows (c/√n with
    # c = 0.80 for mean(amount), 0.548 for sum(qty)).
    rows_field = "rows_processed"
    select = [{"statistic": "mean", "column": "amount", "sigma": 0.0476},
              {"statistic": "sum", "column": "qty", "sigma": 0.0326}]
    config = dict(B_override=20, n_override=100)
    sizes = dict(rows=rows, groups=groups, queries_per_lap=queries,
                 zipf=1.3, select=select)

    def build(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, self.groups + 1) ** 1.3
        codes = rng.choice(self.groups, size=self.rows,
                           p=weights / weights.sum())
        names = np.array([f"r{i:02d}" for i in range(self.groups)])
        return {"codes": codes, "orders": {
            "region": names[codes],
            "amount": rng.lognormal(3.0, 0.7, self.rows),
            "qty": rng.integers(1, 20, self.rows).astype(float)}}

    def truths(self, inputs: Dict[str, Any]) -> None:
        codes, table = inputs["codes"], inputs["orders"]
        counts = np.bincount(codes, minlength=self.groups)
        amount = np.bincount(codes, weights=table["amount"],
                             minlength=self.groups)
        qty = np.bincount(codes, weights=table["qty"],
                          minlength=self.groups)
        inputs["truth"] = {
            f"r{i:02d}": {"mean(amount)": amount[i] / counts[i],
                          "sum(qty)": qty[i]}
            for i in range(self.groups) if counts[i]}

    def register(self, service: Any, inputs: Dict[str, Any]) -> None:
        service.register_table("orders", inputs["orders"])

    def spec(self) -> Dict[str, Any]:
        return {"kind": "query", "table": "orders", "group_by": "region",
                "select": self.select}

    async def script(self, lap: Lap) -> None:
        for i in range(self.queries):
            query = await lap.submit(f"q{i}", self.spec(),
                                     lap.inputs["truth"])
            await lap.flush()
            await lap.follow(query)

    def check_answer(self, query: Query) -> Optional[str]:
        groups = query.final["groups"]
        if set(groups) != set(query.expect):
            return "final does not cover every group"
        sigmas = {f"{s['statistic']}({s['column']})": s["sigma"]
                  for s in self.select}
        for key, truths in query.expect.items():
            for name, truth in truths.items():
                entry = groups[key][name]
                error = _relative_error(entry["estimate"], truth)
                bound = EXACT_RTOL if entry["used_fallback"] \
                    else TOLERANCE_SIGMAS * sigmas[name]
                if error > bound:
                    return (f"{key}.{name} = {entry['estimate']!r} is "
                            f"{error:.3g} from the exact {truth!r} "
                            f"(allowed {bound:.3g})")
        return None

    def direct(self, inputs: Dict[str, Any], lap: Lap) -> List[Any]:
        results: List[Any] = []
        for query in lap.queries:
            grouped = GroupByQuery(
                [agg(s["statistic"], s["column"], sigma=s["sigma"])
                 for s in self.select], group_by="region").on(
                inputs["orders"], config=self._session_config(
                    lap.session_seeds[query.sid])).plan().run()
            results += [result for by_agg in grouped.groups.values()
                        for result in by_agg.values()]
        return results


class GroupedProcs(GroupedQuery):
    name = "grouped_procs"
    why = ("the same specs, seeds and table as grouped_query on the "
           "process-pool executor: isolates exec (broadcast pickling, "
           "many tiny tasks); finals must equal grouped_query's")
    config = dict(GroupedQuery.config, executor="processes", max_workers=2)
    #: The serial twin whose finals this workload must reproduce.
    serial_config = GroupedQuery.config


# -------------------------------------------------------------- cluster job

class ClusterJob(Workload):
    name = "cluster_job"
    why = ("the paper's substrate and its baseline: early mean/median/"
           "p90 jobs over simulated HDFS + MapReduce next to the exact "
           "full-scan jobs they are meant to beat")
    big_records = 200_000
    small_records = 40_000
    early_sigma = 0.05
    exact_sigma = 0.0005
    config = dict(sigma=early_sigma)
    sizes = dict(big_records=big_records, small_records=small_records,
                 logical_gb=50, nodes=5, block_kib=64, replication=2,
                 early_sigma=early_sigma, exact_sigma=exact_sigma,
                 queries_per_lap=5)
    #: (tag, path, statistic, sigma)
    jobs = (("early.mean", "/data/big", "mean", early_sigma),
            ("early.median", "/data/big", "median", early_sigma),
            ("early.p90", "/data/big", "p90", early_sigma),
            ("exact.mean", "/data/big", "mean", exact_sigma),
            ("exact.median", "/data/small", "median", exact_sigma))

    def build(self, seed: int) -> Dict[str, Any]:
        cluster = Cluster(n_nodes=5, block_size=64 * 1024, replication=2,
                          seed=seed)
        load_stand_in(cluster, "/data/big", logical_gb=50,
                      records=self.big_records, seed=seed)
        load_stand_in(cluster, "/data/small", logical_gb=10,
                      records=self.small_records, seed=seed + 1)
        return {"cluster": cluster}

    def truths(self, inputs: Dict[str, Any]) -> None:
        hdfs = inputs["cluster"].hdfs
        columns = {path: np.asarray(hdfs.read_lines(path), dtype=float)
                   for path in ("/data/big", "/data/small")}
        inputs["truth"] = {tag: float(EXACT[stat](columns[path]))
                           for tag, path, stat, _ in self.jobs}

    def register(self, service: Any, inputs: Dict[str, Any]) -> None:
        service.register_cluster("sim", inputs["cluster"])

    async def script(self, lap: Lap) -> None:
        for tag, path, stat, sigma in self.jobs:
            query = await lap.submit(
                tag, {"kind": "job", "cluster": "sim", "path": path,
                      "statistic": stat, "sigma": sigma},
                (lap.inputs["truth"][tag], sigma))
            await lap.follow(query)

    def check_answer(self, query: Query) -> Optional[str]:
        final = query.final
        if query.tag.startswith("exact.") and final["iteration"] != 0:
            return "the exact job did not take the exact fallback"
        return super().check_answer(query)

    def sampled(self, lap: Lap) -> List[Query]:
        return [q for q in lap.queries if q.tag.startswith("early.")]

    def direct(self, inputs: Dict[str, Any], lap: Lap) -> List[Any]:
        return [EarlJob(inputs["cluster"], q.spec["path"],
                        statistic=q.spec["statistic"],
                        config=self._session_config(
                            lap.session_seeds[q.sid], sigma=q.spec["sigma"])
                        ).run() for q in lap.queries]


# ------------------------------------------------------------ session churn

class SessionChurn(SharedScanWorkload):
    name = "session_churn"
    why = ("the control plane: hundreds of tiny sessions, so admission, "
           "dispatch, event log, WAL append and protocol costs dominate "
           "and the engine is small; enough polls for a p99")
    rows = 50_000
    lognormal = (1.0, 0.3)
    clients = 2
    sessions_per_client = 100
    # Samples grow 100 -> 200 -> 400 -> 800 (-> ... -> 12 800); every
    # σ is 2^¼ × the statistic's bootstrap error at 200 rows.  At B=10
    # that estimate is noisy, so sessions do stop a round early or
    # late — but 200 of them average out.  The rounds allowed are more
    # than any session needs: with 4, one session in ~6 000 ran out
    # before its estimate dropped under σ and ended unachieved.
    sigmas = dict(mean=0.0217, sum=0.0213, std=0.0569, median=0.0308,
                  p90=0.0395, p25=0.0336)
    connections = clients
    config = dict(B_override=10, n_override=100, expansion_factor=2.0,
                  max_iterations=8)
    service = dict(batch_window=5.0, event_capacity=8)
    sizes = dict(rows=rows, clients=clients,
                 queries_per_lap=clients * sessions_per_client,
                 sigmas=sigmas)

    async def script(self, lap: Lap) -> None:
        # The clients move in lockstep — both submit, the window
        # closes, both drain — so window composition and the order
        # session seeds are drawn in are the same on every lap.
        n = len(self.statistics)
        for step in range(self.sessions_per_client):
            picks = [self.statistics[(step * self.clients + c) % n]
                     for c in range(self.clients)]
            queries = await self.submit_window(
                lap, [f"p{step}.c{c}" for c in range(self.clients)], picks)
            await lap.follow_all(queries)


# ------------------------------------------------------------- crash/resume

class CrashResume(SharedScanWorkload):
    name = "crash_resume"
    why = ("the same layers used differently: the WAL is read (load, "
           "compaction, materialize) and the engines replay completed "
           "rounds, so journaling made cheaper by making recovery "
           "dearer shows")
    rows = 300_000
    # Samples grow 16 -> 128 -> 1k -> 8k (-> 64k); every σ is 8^¼ ×
    # the statistic's bootstrap error at 8k rows, so a session emits 7
    # events: pending, running, 4 snapshots, done.  (No std here: its
    # error estimate at 1k rows is too erratic to stop on one round.)
    sigmas = dict(mean=0.00948, median=0.01115, p90=0.01468, p25=0.01264)
    #: Events each client of the crashed window consumes (and acks)
    #: before the crash: with room for 2 more in the log, the engine
    #: is parked on the append of its last round's snapshot.
    consume = 3
    connections = len(sigmas)
    config = dict(B_override=40, n_override=16, expansion_factor=8.0,
                  max_iterations=6)
    service = dict(batch_window=5.0, event_capacity=2)
    sizes = dict(rows=rows, windows=2, queries_per_lap=2 * len(sigmas),
                 sigmas=sigmas, events_before_crash=consume,
                 event_capacity=service["event_capacity"])

    async def _window(self, lap: Lap, index: int) -> List[Query]:
        return await self.submit_window(
            lap, [f"w{index}.{s}" for s in self.statistics],
            self.statistics)

    async def uninterrupted(self, lap: Lap) -> None:
        """The reference lap: same sessions, nothing crashes."""
        for index in range(2):
            await lap.follow_all(await self._window(lap, index))

    async def script(self, lap: Lap) -> None:
        # Window 0 runs to its end, so the restart also finds terminal
        # sessions in the WAL; window 1 is mid-run when the crash hits.
        # One window at a time: two engine threads fighting over the
        # GIL make a lap's wall-clock bimodal.
        await lap.follow_all(await self._window(lap, 0))
        queries = await self._window(lap, 1)
        await asyncio.gather(*[
            lap.follow(q, client=i, stop_after=self.consume)
            for i, q in enumerate(queries)])
        await self._wait_blocked(lap, queries)
        await lap.crash()
        t0 = time.perf_counter()
        await lap.open()
        await lap.follow_all(queries)
        lap.extra["resume_first_event_s"] = lap.first_event_at - t0
        lap.extra["resume_drain_s"] = time.perf_counter() - t0

    async def _wait_blocked(self, lap: Lap, queries: List[Query]) -> None:
        """Wait until every log is full or sealed: the engines are then
        parked on a full log, so the crash point is the same every lap."""
        capacity = self.service["event_capacity"]
        deadline = time.perf_counter() + 30.0
        pending = list(queries)
        while pending:
            status = await lap.clients[0].status(pending[0].sid)
            if (status["retained_events"] >= capacity
                    or status["state"] in TERMINAL_STATES):
                pending.pop(0)
            elif time.perf_counter() > deadline:
                raise RuntimeError(
                    f"{pending[0].sid} never filled its event log")
            else:
                await asyncio.sleep(0.002)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    StatsSharedScan(), GroupedQuery(), GroupedProcs(), ClusterJob(),
    SessionChurn(), CrashResume())}
