"""The whole-split projection: a full scan with a built-in projection
mapper maps each cached split as one run of floats, shuffles it per key
and folds it into the reducer's state in order.

Every test here holds that path to the record-at-a-time one it
replaces: :class:`RecordProjection` (a :class:`ProjectionMapper` whose
``map`` calls ``super()``) keeps the per-record loop, so the two runs
differ in nothing but the path taken.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.earl import StatisticReducer
from repro.core.estimators import available_statistics, get_statistic
from repro.exec.executor import as_executor
from repro.mapreduce import (
    GlobalValueMapper,
    JobClient,
    JobConf,
    ProjectionMapper,
    Reducer,
)
from repro.mapreduce import runtime
from repro.mapreduce.mapper import projects_whole_splits
from repro.mapreduce.runtime import (
    FullScanSource,
    _execute_map_task,
    _MapTaskArgs,
)


class RecordProjection(ProjectionMapper):
    """The same projection, held to the per-record loop by an
    overriding ``map``."""

    def map(self, key, value, ctx):
        return super().map(key, value, ctx)


class AddingReducer(StatisticReducer):
    """The same statistic, folded one ``add`` at a time."""

    def initialize(self, values):
        state = self._stat.make_state()
        for value in values:
            state.add(value)
        return state


def _hex(value):
    return value.hex() if type(value) is float else repr(value)


def _job_record(result):
    """Everything a JobResult says, floats as ``float.hex``."""
    return {
        "simulated_seconds": result.simulated_seconds.hex(),
        "breakdown": {cat: secs.hex()
                      for cat, secs in sorted(result.breakdown.items())},
        "counters": sorted(result.counters.as_dict().items()),
        "output": [(repr(k), _hex(v)) for k, v in result.output],
        "map_tasks": result.map_tasks,
        "input_fraction": result.input_fraction.hex(),
    }


def _outcome(run):
    """``run()``'s value, or the exception it raised as (type, text)."""
    try:
        return run()
    except Exception as exc:  # the same rejection on both paths
        return ("raised", type(exc).__name__, str(exc))


def _cluster(lines, scale):
    cluster = Cluster(n_nodes=3, block_size=256, replication=1, seed=4)
    cluster.hdfs.write_lines("/in", lines, logical_scale=scale)
    return cluster


def _conf(mapper, statistic, n_reducers):
    # The record loop's reference folds one ``add`` at a time too.
    reducer = AddingReducer if isinstance(mapper, RecordProjection) \
        else StatisticReducer
    return JobConf(name="whole-split", input_path="/in", mapper=mapper,
                   reducer=reducer(statistic), n_reducers=n_reducers,
                   seed=3)


def _map_tasks(lines, scale, mapper, n_reducers):
    """Each split's map task as data: partitions, their bytes and
    records, counters and ledger."""
    cluster = _cluster(lines, scale)
    conf = _conf(mapper, "mean", n_reducers)
    tasks = []
    for split in cluster.hdfs.get_splits("/in"):
        task = _execute_map_task(_MapTaskArgs(
            fs=cluster.hdfs, ledger=cluster.new_ledger(), conf=conf,
            source=FullScanSource(), split=split,
            rng=np.random.default_rng(0), record_scale=scale,
            warm_start=False))
        tasks.append({
            "partitions": [[(repr(k), [_hex(v) for v in values])
                            for k, values in groups.items()]
                           for groups in task.partitions],
            "bytes": [b.hex() for b in task.partition_bytes],
            "records": [r.hex() for r in task.partition_records],
            "counters": sorted(task.counters.as_dict().items()),
            "ledger": {c: s.hex()
                       for c, s in sorted(task.ledger.breakdown().items())},
        })
    return tasks


def _job(lines, scale, mapper, statistic, n_reducers, executor):
    ex, _ = as_executor(executor)
    try:
        client = JobClient(_cluster(lines, scale), executor=ex)
        return _job_record(client.run(_conf(mapper, statistic, n_reducers)))
    finally:
        ex.close()


_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e4, 1e4).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["", "", "nan", "inf", "-inf", "-0.0", "0.0",
                     "1_000", "7"]))
_LINE = st.tuples(_VALUE, st.integers(0, 14)).map(
    lambda pad: pad[0].rjust(pad[1]) if pad[0] else pad[0])
#: What one odd line does to a split: nothing, a keyed line, a line
#: ``float`` rejects.
_ODD = st.sampled_from([None, None, "k1\t2.5", "one", "1..5", "   "])


@st.composite
def _files(draw):
    lines = draw(st.lists(_LINE, max_size=160))
    odd = draw(_ODD)
    if odd is not None:
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines, draw(st.sampled_from([1.0, 7.3, 41.9]))


@settings(max_examples=40, deadline=None)
@given(file=_files(), n_reducers=st.sampled_from([1, 3]),
       statistic=st.sampled_from(["mean", "median", "sum"]),
       executor=st.sampled_from(["serial", "threads"]))
def test_whole_split_job_equals_the_record_loop(file, n_reducers, statistic,
                                                executor):
    lines, scale = file
    with mock.patch.object(runtime, "_map_whole_split",
                           wraps=runtime._map_whole_split) as whole:
        fast = _outcome(lambda: _job(lines, scale, ProjectionMapper(),
                                     statistic, n_reducers, executor))
    slow = _outcome(lambda: _job(lines, scale, RecordProjection(),
                                 statistic, n_reducers, executor))
    assert fast == slow
    if lines and not any("\t" in line for line in lines) \
            and all(_parses(line) for line in lines):
        assert whole.call_count > 0


def _parses(line):
    try:
        float(line)
    except ValueError:
        return line == ""
    return True


@settings(max_examples=40, deadline=None)
@given(file=_files(), n_reducers=st.sampled_from([1, 3]))
def test_whole_split_map_task_equals_the_record_loop(file, n_reducers):
    lines, scale = file
    assert _outcome(lambda: _map_tasks(lines, scale, ProjectionMapper(),
                                       n_reducers)) \
        == _outcome(lambda: _map_tasks(lines, scale, RecordProjection(),
                                       n_reducers))


def test_only_the_built_in_projections_take_the_whole_split_form():
    class Setup(ProjectionMapper):
        def setup(self, ctx):
            pass

    class Cleanup(GlobalValueMapper):
        def cleanup(self, ctx):
            return ()

    class Renamed(GlobalValueMapper):
        pass

    assert projects_whole_splits(ProjectionMapper())
    assert projects_whole_splits(GlobalValueMapper(delimiter=","))
    assert projects_whole_splits(Renamed())
    for mapper in (RecordProjection(), Setup(), Cleanup()):
        assert not projects_whole_splits(mapper)


def test_global_value_mapper_takes_it_too():
    lines = [f"{v:.4f}" for v in np.random.default_rng(8).normal(size=900)]
    for executor in ("serial", "threads"):
        with mock.patch.object(runtime, "_map_whole_split",
                               wraps=runtime._map_whole_split) as whole:
            fast = _job(lines, 3.1, GlobalValueMapper(constant_key=None),
                        "p90", 3, executor)
        assert whole.call_count > 0
        slow = _job(lines, 3.1, RecordProjection(constant_key=None),
                    "p90", 3, executor)
        assert fast == slow


class MutatingReducer(Reducer):
    """Sums its values, then scribbles over the list it was handed."""

    parallel_safe = True

    def reduce(self, key, values, ctx):
        total = sum(values)
        values[:] = [1e9] * (len(values) + 5)
        values.sort()
        yield key, total


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_a_reducer_never_holds_the_split_cache(executor):
    values = np.random.default_rng(9).lognormal(1.0, 0.5, 2_000)
    lines = [f"{v:.6f}" for v in values]
    expected = _job(lines, 2.0, ProjectionMapper(), "mean", 1, executor)
    ex, _ = as_executor(executor)
    try:
        client = JobClient(_cluster(lines, 2.0), executor=ex)
        for _ in range(2):
            conf = _conf(ProjectionMapper(), "mean", 1)
            conf.reducer = MutatingReducer()
            client.run(conf)
        again = client.run(_conf(ProjectionMapper(), "mean", 1))
    finally:
        ex.close()
    assert _job_record(again) == expected


def test_a_rewritten_file_is_parsed_afresh():
    cluster = _cluster([f"{v}.5" for v in range(500)], 1.0)
    client = JobClient(cluster)
    first = client.run(_conf(ProjectionMapper(), "sum", 1)).single_value()
    cluster.hdfs.write_lines("/in", [f"{v}.25" for v in range(500)],
                             overwrite=True)
    second = client.run(_conf(ProjectionMapper(), "sum", 1)).single_value()
    assert (first, second) == (sum(v + 0.5 for v in range(500)),
                               sum(v + 0.25 for v in range(500)))


# --------------------------------------------------------------------- fold

def _state_bytes(obj):
    """A state's fields as bytes, recursively: floats by their IEEE
    bits (so ``-0.0``, ``0.0`` and each NaN differ), ints, lists and
    arrays element by element."""
    if isinstance(obj, float):
        return b"f" + np.float64(obj).tobytes()
    if isinstance(obj, (bool, int, np.integer)):
        return b"i" + repr(int(obj)).encode()
    if isinstance(obj, np.ndarray):
        return b"a" + np.ascontiguousarray(obj, dtype=float).tobytes()
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_state_bytes(x) for x in obj) + b"]"
    if obj is None or callable(obj) or isinstance(obj, str):
        return repr(type(obj)).encode()
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            fields[name] = getattr(obj, name)
    return b"{" + b";".join(name.encode() + b"=" + _state_bytes(value)
                            for name, value in sorted(fields.items())) + b"}"


_SCALAR_STATISTICS = [name for name in available_statistics()
                      if not get_statistic(name).row_items]
_FOLD_VALUES = st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), 1.0])), max_size=60)


@pytest.mark.parametrize("name", _SCALAR_STATISTICS)
@settings(max_examples=60, deadline=None)
@given(values=_FOLD_VALUES, split=st.integers(0, 60))
def test_fold_equals_repeated_add(name, values, split):
    stat = get_statistic(name)
    # A state that already holds values, then a fold of the rest.
    folded, added = stat.make_state(), stat.make_state()
    for value in values[:split]:
        folded.add(value)
        added.add(value)
    folded.add_floats(values[split:])
    for value in values[split:]:
        added.add(value)
    assert _state_bytes(folded) == _state_bytes(added)
    if values:
        with np.errstate(invalid="ignore"):  # inf - inf
            assert _outcome(lambda: np.float64(folded.result()).tobytes()) \
                == _outcome(lambda: np.float64(added.result()).tobytes())
        assert _state_bytes(folded) == _state_bytes(added)


def test_reducer_fold_keeps_a_subclass_add():
    from repro.core.estimators import MeanState, Statistic

    class Doubling(MeanState):
        def add(self, value):
            super().add(2.0 * value)

    stat = Statistic("doubled-mean", pointwise=np.mean,
                     make_state=Doubling)
    state = StatisticReducer(stat).initialize([1.0, 2.0, 6.0])
    assert state.result() == 6.0
