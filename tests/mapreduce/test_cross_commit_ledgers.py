"""Cross-commit safety net for the MapReduce runtime's simulated ledgers.

``tests/fixtures/job_ledgers.json`` holds, for a fixed set of jobs, every
:class:`~repro.mapreduce.JobResult` the job produced: its
``simulated_seconds``, each ``breakdown`` entry (as ``float.hex``), the
counters and the output.  Every :class:`~repro.core.earl.EarlJob` case
``X`` has a companion entry ``X/stream`` with the run's corrected
per-key estimates and each snapshot's ``to_dict()`` (floats as
``float.hex`` again).  It was recorded once; this test replays the
jobs on serial / threads / processes and demands equality, so a change
to the task loops or the EARL driver that moves a single simulated
charge, counter, output byte or snapshot field fails here even when it
moves every run the same way.

Record named cases (only new ones, or with ``--rerecord`` when a ledger
is *meant* to change, and say so in the commit):
``PYTHONPATH=src:tests python tests/mapreduce/test_cross_commit_ledgers.py CASE...``
(see ``tests/fixture_record.py``).
"""

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import EarlConfig
from repro.core.earl import EarlJob, StatisticReducer
from repro.exec.executor import as_executor
from repro.hdfs.errors import BlockUnavailableError
from repro.hdfs.record_reader import LineRecordReader
from repro.jobs.kmeans import (
    CentroidStore,
    KMeansAssignMapper,
    KMeansUpdateReducer,
)
from repro.mapreduce import (
    FaultPolicy,
    GroupStateCombiner,
    JobClient,
    JobConf,
    Mapper,
    MeanReducer,
    ProjectionMapper,
    Reducer,
    TaskFailedError,
)
from repro.mapreduce import counters as C
from repro.mapreduce.job import ON_UNAVAILABLE_SKIP
from repro.workloads.synthetic import point_lines

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "job_ledgers.json"
BACKENDS = ["serial", "threads", "processes"]

_rng = np.random.default_rng(21)
VALUES = _rng.lognormal(2.0, 0.8, 6_000)
KEYED = [f"k{int(k)}\t{v:.5f}"
         for k, v in zip(_rng.integers(0, 9, 4_000),
                         _rng.normal(40.0, 6.0, 4_000))]
CENTERS = np.array([[0.0, 0.0], [6.0, 1.0], [2.0, 7.0]])
POINTS = np.concatenate([c + _rng.normal(0.0, 1.0, (700, 2))
                         for c in CENTERS])
_rng.shuffle(POINTS)
#: Bare values of uneven width, blank lines and whitespace padding
#: among them, so lines straddle the 4 KiB blocks at every offset.
RAGGED = [f"{v:.{d}f}".rjust(w) if d >= 0 else ""
          for v, d, w in zip(_rng.lognormal(2.0, 1.5, 5_000),
                             _rng.integers(-1, 9, 5_000),
                             _rng.integers(0, 24, 5_000))]


def _cluster(**kwargs):
    params = dict(n_nodes=5, block_size=4096, replication=2, seed=3)
    params.update(kwargs)
    cluster = Cluster(**params)
    # A non-integer logical scale, so per-record CPU charges are
    # float sums whose order shows in the last bits.
    cluster.hdfs.write_lines("/vals", [f"{v:.6f}" for v in VALUES],
                             logical_scale=37.3)
    cluster.hdfs.write_lines("/keyed", KEYED, logical_scale=11.7)
    cluster.hdfs.write_lines("/points", point_lines(POINTS),
                             logical_scale=5.3)
    return cluster


def _ragged_cluster():
    cluster = Cluster(n_nodes=5, block_size=4096, replication=2, seed=3)
    cluster.hdfs.write_lines("/ragged", RAGGED, logical_scale=23.9)
    return cluster


def _slow_cluster():
    # /keyed has 12 splits on 5 nodes, so node-3 runs map tasks 3 and 8
    # and reduce task 1 (placed after the map tasks, round-robin).
    cluster = _cluster()
    cluster.set_slow_node("node-3", 2.5)
    return cluster


def _lossy_cluster():
    # replication=1: losing one machine loses ~1/4 of the blocks, so
    # some splits lose their over-read tail mid-task.
    cluster = _cluster(n_nodes=4, block_size=512, replication=1, seed=11)
    cluster.fail_node("node-2")
    return cluster


class FlakyMapper(Mapper):
    """Projection mapper whose map task ``i`` fails its first
    ``fail_attempts[i]`` attempts."""

    parallel_safe = True

    def __init__(self, fail_attempts):
        self.fail_attempts = dict(fail_attempts)

    def map(self, key, value, ctx):
        index = int(ctx.task_id.split("-", 1)[1])
        if ctx.attempt < self.fail_attempts.get(index, 0):
            raise TaskFailedError(f"injected: {ctx.task_id}")
        yield None, float(value)


class AppendThenFailReducer(Reducer):
    """Mean reducer that appends a 0.0 to every group it is handed, and
    fails the first attempt of reduce task 1 after the first append: a
    retry handed the failed attempt's lists would count the 0.0 twice."""

    parallel_safe = True

    def reduce(self, key, values, ctx):
        values.append(0.0)
        if ctx.task_id == "reduce-1" and ctx.attempt == 0:
            raise TaskFailedError(f"injected: {ctx.task_id}")
        yield key, sum(values) / len(values)


class PrefixThenLossSource:
    """Yields a split's surviving records, then raises if any block
    after the split's start is lost: a read that dies after records
    were taken."""

    scales_with_file = True
    parallel_safe = True

    def read(self, fs, split, ledger, rng):
        reader = LineRecordReader(fs, split, ledger=ledger)
        yield from reader.read_records_salvage()
        if reader.available_prefix_end() < fs.file_size(split.path):
            raise BlockUnavailableError(f"split {split.index} lost its tail")


def _encode(obj):
    """JSON form of a key or value; floats as ``float.hex``."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return [_encode(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {f.name: _encode(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return {"repr": repr(obj)}


def _ledger(result):
    return {
        "simulated_seconds": result.simulated_seconds.hex(),
        "breakdown": {cat: secs.hex()
                      for cat, secs in sorted(result.breakdown.items())},
        "counters": dict(sorted(result.counters.as_dict().items())),
        "output": [[_encode(k), _encode(v)] for k, v in result.output],
        "map_tasks": result.map_tasks,
        "input_fraction": result.input_fraction.hex(),
    }


@contextmanager
def _recorded_jobs():
    """Every JobResult a driver produces while the block runs."""
    results = []
    original = JobClient.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    JobClient.run = run
    try:
        yield results
    finally:
        JobClient.run = original


def _job(make_conf, *, cluster=_cluster, source=None):
    def build(executor):
        ex, _ = as_executor(executor)
        try:
            client = JobClient(cluster(), executor=ex)
            return [_ledger(client.run(make_conf(), record_source=source))]
        finally:
            ex.close()
    return build


#: (case, executor) -> (ledger entry, stream entry) of an EarlJob run.
_EARL_RUNS = {}


def _earl(case, statistic, n, *, cluster=_cluster, path="/vals",
          n_reducers=1, pipelined=True, **cfg):
    """The ``case`` and ``case/stream`` entries of one EarlJob run."""
    # (B, n) pinned: SSABE needs a larger pilot than a test-sized file
    # gives; B·n ≥ N takes the §3.1 exact fallback.
    def run(executor):
        if (case, executor) in _EARL_RUNS:
            return _EARL_RUNS[case, executor]
        config = EarlConfig(sigma=0.01, seed=17, B_override=10,
                            n_override=n, executor=executor,
                            max_workers=2, **cfg)
        with _recorded_jobs() as results:
            snapshots = list(EarlJob(
                cluster(), path, statistic=statistic, config=config,
                n_reducers=n_reducers, pipelined=pipelined).stream())
        final = snapshots[-1].result
        summary = {"estimate": final.estimate.hex(),
                   "error": float(final.error).hex(),
                   "simulated_seconds": final.simulated_seconds.hex(),
                   "n": final.n, "used_fallback": final.used_fallback}
        keys = sorted((final.key_estimates or {}).items(),
                      key=lambda item: repr(item[0]))
        stream = {"key_estimates": [[_encode(k), _encode(v)]
                                    for k, v in keys],
                  "snapshots": [_encode(s.to_dict()) for s in snapshots]}
        _EARL_RUNS[case, executor] = (
            [summary] + [_ledger(r) for r in results], stream)
        return _EARL_RUNS[case, executor]

    return {case: lambda executor: run(executor)[0],
            f"{case}/stream": lambda executor: run(executor)[1]}


def _stock(path, statistic, *, combine=False, n_reducers=1):
    return lambda: JobConf(
        name=f"stock-{statistic}", input_path=path,
        mapper=ProjectionMapper(), reducer=StatisticReducer(statistic),
        combiner=GroupStateCombiner(statistic) if combine else None,
        n_reducers=n_reducers, seed=5)


def _kmeans():
    # The mapper charges k×d CPU on top of the engine's per-record
    # charge, through ctx.ledger, for every record it maps.
    store = CentroidStore(CENTERS + 0.5)
    return JobConf(name="kmeans-assign", input_path="/points",
                   mapper=KMeansAssignMapper(store),
                   reducer=KMeansUpdateReducer(), n_reducers=2,
                   cpu_factor=3.0, seed=6)


def _retry():
    return JobConf(name="retry", input_path="/vals",
                   mapper=FlakyMapper({0: 2, 3: 1}), reducer=MeanReducer(),
                   seed=8, fault_policy=FaultPolicy(max_task_retries=3))


def _retry_reduce():
    return JobConf(name="retry-reduce", input_path="/keyed",
                   mapper=ProjectionMapper(),
                   reducer=AppendThenFailReducer(), n_reducers=2, seed=10,
                   fault_policy=FaultPolicy(max_task_retries=2))


def _lossy(policy):
    return lambda: JobConf(name="lossy", input_path="/vals",
                           mapper=ProjectionMapper(), reducer=MeanReducer(),
                           on_unavailable=ON_UNAVAILABLE_SKIP, seed=9,
                           fault_policy=policy)


CASES = {
    "stock-mean": _job(_stock("/vals", "mean")),
    "stock-median": _job(_stock("/vals", "median")),
    "stock-mean-ragged": _job(_stock("/ragged", "mean", n_reducers=3),
                              cluster=_ragged_cluster),
    "grouped-mean": _job(_stock("/keyed", "mean", n_reducers=3)),
    "grouped-mean-combined": _job(_stock("/keyed", "mean", combine=True,
                                         n_reducers=3)),
    "kmeans-iteration": _job(_kmeans),
    **_earl("earl-early", "median", 150),
    **_earl("earl-exact", "mean", 600),
    **_earl("earl-keyed", "mean", 150, path="/keyed", n_reducers=3),
    **_earl("earl-postmap", "median", 150, sampler="postmap"),
    **_earl("earl-unpipelined", "mean", 150, pipelined=False),
    "retry": _job(_retry),
    "retry-reduce": _job(_retry_reduce, cluster=_slow_cluster),
    "lost-block-skip": _job(_lossy(None), cluster=_lossy_cluster),
    "lost-block-salvage": _job(
        _lossy(FaultPolicy(salvage_partial_splits=True)),
        cluster=_lossy_cluster),
    "mid-split-loss-skip": _job(_lossy(None), cluster=_lossy_cluster,
                                source=PrefixThenLossSource()),
    "mid-split-loss-salvage": _job(
        _lossy(FaultPolicy(salvage_partial_splits=True)),
        cluster=_lossy_cluster, source=PrefixThenLossSource()),
    **_earl("earl-lost-block-salvage", "mean", 150, cluster=_lossy_cluster,
            fault_policy=FaultPolicy(salvage_partial_splits=True)),
}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("executor", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_job_ledgers_match_recorded_fixture(recorded, case, executor):
    assert CASES[case](executor) == recorded[case]


def test_fixture_exercises_every_path(recorded):
    """The recording is only a net if the paths it names really ran."""
    assert set(recorded) == set(CASES)

    def counter(case, name, job=0):
        return recorded[case][job]["counters"].get(name, 0)

    assert counter("grouped-mean-combined", C.MAP_OUTPUT_RECORDS) \
        == len(KEYED)
    combined = recorded["grouped-mean-combined"][0]["breakdown"]["network"]
    assert float.fromhex(combined) < float.fromhex(
        recorded["grouped-mean"][0]["breakdown"]["network"])
    assert counter("retry", C.TASK_RETRIES) == 3
    # Blank lines are read as records and map to nothing.
    assert counter("stock-mean-ragged", C.MAP_INPUT_RECORDS) == len(RAGGED)
    assert counter("stock-mean-ragged", C.MAP_OUTPUT_RECORDS) \
        == sum(1 for line in RAGGED if line) < len(RAGGED)
    assert counter("lost-block-skip", C.SKIPPED_SPLITS) >= 1
    assert counter("lost-block-salvage", C.SALVAGED_SPLITS) >= 1
    # Records taken before a mid-split loss count as input when the
    # split is skipped, and as the salvaged prefix when it is kept.
    assert counter("mid-split-loss-skip", C.MAP_INPUT_RECORDS) \
        > counter("lost-block-skip", C.MAP_INPUT_RECORDS)
    assert counter("mid-split-loss-salvage", C.SALVAGED_SPLITS) >= 1
    early, exact = recorded["earl-early"], recorded["earl-exact"]
    assert not early[0]["used_fallback"] and len(early) >= 3
    assert exact[0]["used_fallback"]
    assert counter("earl-exact", C.MAP_INPUT_RECORDS, job=-1) == len(VALUES)
    salvaged = sum(job["counters"].get(C.SALVAGED_SPLITS, 0)
                   for job in recorded["earl-lost-block-salvage"][1:])
    assert salvaged >= 1
    keyed = recorded["earl-keyed/stream"]
    assert len(keyed["key_estimates"]) == 9
    assert len(keyed["snapshots"]) >= 2
    assert recorded["earl-exact/stream"]["snapshots"][-1]["iteration"] == 0
    # A restarted job pays set-up on every iteration, a pipelined one once.
    assert recorded["earl-unpipelined"][0]["simulated_seconds"] \
        != recorded["earl-early"][0]["simulated_seconds"]


def test_retry_reduce_case_retries_one_reduce_attempt(recorded):
    """``retry-reduce`` failed reduce task 1 once and kept its output to
    one appended 0.0 per group."""
    entry = recorded["retry-reduce"][0]
    assert entry["counters"][C.TASK_RETRIES] == 1
    assert entry["counters"][C.FAILED_TASKS] == 1
    groups = {}
    for line in KEYED:
        key, value = line.split("\t")
        groups.setdefault(key, []).append(float(value))
    expected = {key: sum(values + [0.0]) / (len(values) + 1)
                for key, values in groups.items()}
    assert {key: float.fromhex(value) for key, value in entry["output"]} \
        == pytest.approx(expected, rel=1e-12)


if __name__ == "__main__":
    from fixture_record import record_cases

    raise SystemExit(record_cases(
        FIXTURE, {case: lambda build=build: build("serial")
                  for case, build in CASES.items()}))
