"""Unit tests for the pluggable execution backends (repro.exec)."""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro.exec import (
    EXECUTOR_ENV,
    MAX_WORKERS_ENV,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    as_executor,
    available_executors,
    chunk_sizes,
    get_executor,
    live_pool_executors,
    resolve_executor,
)


def _square(x: int) -> int:
    """Module-level so the process backend can pickle it by reference."""
    return x * x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x


#: Process-local journal: in a pool worker it collects what that
#: worker was handed, across maps; the driver's copy stays empty.
_SEEN: list = []


def _journal(x):
    """Where ``x`` ran, and everything that ran there up to now."""
    _SEEN.append(x)
    return os.getpid(), tuple(_SEEN)


def _journal_then_fail_on_odd(x):
    _SEEN.append(x)
    if x % 2:
        raise ValueError(f"unit {x} failed")
    return x


def _exit_on_three(x: int) -> int:
    if x == 3:
        os._exit(7)      # no exception, no reply: the process is gone
    return x


def _unpicklable_result_on_two(x):
    return (lambda: x) if x == 2 else x


class _NeedsTwoArgs(Exception):
    """Pickles (args are kept) but does not unpickle (``b`` is lost)."""

    def __init__(self, a, b):
        super().__init__(a)


def _unpicklable_exception_on_two(x):
    if x == 2:
        raise _NeedsTwoArgs("a", "b")
    return x


# ---------------------------------------------------------------- selection


def test_available_executors_names():
    assert available_executors() == ["processes", "serial", "threads"]


@pytest.mark.parametrize("name,cls,is_parallel,shares_memory", [
    ("serial", SerialExecutor, False, True),
    ("threads", ThreadExecutor, True, True),
    ("processes", ProcessExecutor, True, False),
])
def test_get_executor_builds_the_right_backend(name, cls, is_parallel,
                                               shares_memory):
    ex = get_executor(name)
    try:
        assert isinstance(ex, cls)
        assert ex.name == name
        assert ex.is_parallel is is_parallel
        assert ex.shares_memory is shares_memory
    finally:
        ex.close()


def test_get_executor_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown executor"):
        get_executor("gpu")


@pytest.mark.parametrize("bad", [0, -1, 2.5, "four"])
def test_bad_max_workers_rejected_by_every_backend(bad):
    # Same semantics as EarlConfig.max_workers (check_positive_int):
    # wrong type -> TypeError, non-positive int -> ValueError.
    for name in available_executors():
        with pytest.raises((ValueError, TypeError), match="max_workers"):
            get_executor(name, max_workers=bad)


def test_pool_backends_default_worker_count_positive():
    for cls in (ThreadExecutor, ProcessExecutor):
        ex = cls()
        try:
            assert ex.max_workers >= 1
        finally:
            ex.close()


# ------------------------------------------------------------------ resolve


class _FakeConfig:
    def __init__(self, executor="serial", max_workers=None):
        self.executor = executor
        self.max_workers = max_workers


def test_resolve_prefers_env_over_name_over_config(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    cfg = _FakeConfig(executor="threads", max_workers=2)

    ex = resolve_executor(cfg)
    try:
        assert isinstance(ex, ThreadExecutor)
        assert ex.max_workers == 2
    finally:
        ex.close()

    ex = resolve_executor(cfg, name="serial")
    try:
        assert isinstance(ex, SerialExecutor)
    finally:
        ex.close()

    monkeypatch.setenv(EXECUTOR_ENV, "processes")
    monkeypatch.setenv(MAX_WORKERS_ENV, "3")
    ex = resolve_executor(cfg, name="serial")
    try:
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 3
    finally:
        ex.close()


def test_resolve_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    ex = resolve_executor()
    try:
        assert isinstance(ex, SerialExecutor)
    finally:
        ex.close()


def test_as_executor_normalization():
    ex, owned = as_executor(None)
    assert isinstance(ex, SerialExecutor) and owned

    ex, owned = as_executor("threads")
    try:
        assert isinstance(ex, ThreadExecutor) and owned
    finally:
        ex.close()

    borrowed = SerialExecutor()
    ex, owned = as_executor(borrowed)
    assert ex is borrowed and not owned

    with pytest.raises(TypeError, match="executor must be"):
        as_executor(42)


def test_earlconfig_validates_executor_fields():
    from repro import EarlConfig

    cfg = EarlConfig(executor="processes", max_workers=4)
    assert cfg.executor == "processes" and cfg.max_workers == 4
    with pytest.raises(ValueError, match="unknown executor"):
        EarlConfig(executor="gpu")
    with pytest.raises(ValueError, match="max_workers"):
        EarlConfig(max_workers=0)


# ---------------------------------------------------------------------- map


@pytest.mark.parametrize("name", ["serial", "threads", "processes"])
def test_map_preserves_submission_order(name):
    with get_executor(name, max_workers=2) as ex:
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]


@pytest.mark.parametrize("name", ["serial", "threads", "processes"])
def test_map_propagates_exceptions(name):
    with get_executor(name, max_workers=2) as ex:
        with pytest.raises(ValueError, match="three"):
            ex.map(_raise_on_three, range(6))


def test_map_empty_and_singleton():
    for name in available_executors():
        with get_executor(name) as ex:
            assert ex.map(_square, []) == []
            assert ex.map(_square, [7]) == [49]


def test_close_is_idempotent():
    ex = get_executor("threads", max_workers=1)
    ex.map(_square, [1, 2])
    ex.close()
    ex.close()


def test_abstract_map_not_implemented():
    with pytest.raises(NotImplementedError):
        Executor().map(_square, [1])


# ---------------------------------------------------------------- placement


class TestPlacement:
    """``place`` pins units to workers: same key, same process, for the
    executor's whole life — and never changes a result."""

    def test_equal_place_runs_in_one_worker_across_maps_in_order(self):
        with get_executor("processes", max_workers=2) as ex:
            waves = [ex.map(_journal, [f"{wave}{key}" for key in "abc"],
                            place=[10, 21, 10])
                     for wave in range(3)]
        pids = [[pid for pid, _ in wave] for wave in waves]
        assert pids[0] == pids[1] == pids[2]
        assert pids[0][0] == pids[0][2] != pids[0][1]     # 10 -> 0, 21 -> 1
        assert os.getpid() not in pids[0]
        # Inside a worker, units ran in submission order, wave after wave:
        # the last unit of the last wave has seen all of them.
        assert waves[2][2][1] == ("0a", "0c", "1a", "1c", "2a", "2c")
        assert waves[2][1][1] == ("0b", "1b", "2b")
        assert _SEEN == []          # nothing ran in the driver

    def test_results_keep_submission_order_for_shuffled_place(self):
        rng = random.Random(5)
        place = [rng.randrange(1000) for _ in range(40)]
        with get_executor("processes", max_workers=3) as ex:
            assert ex.map(_square, range(40), place=place) \
                == [x * x for x in range(40)]

    def test_unplaced_items_are_dealt_round_robin(self):
        with get_executor("processes", max_workers=2) as ex:
            pids = [pid for pid, _ in ex.map(_journal, range(6))]
        assert pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 3
        assert pids[0] != pids[1]

    def test_a_lone_placed_unit_still_goes_to_its_worker(self):
        # The one-item shortcut must not fire: the unit's state lives
        # in the worker, not in the driver.
        with get_executor("processes", max_workers=2) as ex:
            (home, _), = ex.map(_journal, ["first"], place=[1])
            (again, seen), = ex.map(_journal, ["second"], place=[1])
            assert ex.map(_square, [7]) == [49]     # unplaced: run here
            assert ex.pipe_messages == {"out": 2, "back": 2}
        assert home == again != os.getpid()
        assert seen == ("first", "second")

    def test_first_failing_unit_raises_and_the_rest_still_ran(self):
        with get_executor("processes", max_workers=2) as ex:
            with pytest.raises(ValueError, match="unit 3 failed") as caught:
                ex.map(_journal_then_fail_on_odd, [2, 4, 3, 6, 5, 8],
                       place=[0, 1, 0, 1, 0, 1])
            assert "in a process worker" in "".join(caught.value.__notes__)
            # Every unit was run — failures do not cut a worker's batch
            # short — and the workers are still there for the next map.
            (_, zero), (_, one) = ex.map(_journal, ["z", "o"], place=[0, 1])
        assert zero == (2, 3, 5, "z") and one == (4, 6, 8, "o")

    @pytest.mark.parametrize("name", ["serial", "threads"])
    def test_place_is_ignored_by_shared_memory_backends(self, name):
        with get_executor(name, max_workers=2) as ex:
            assert ex.map(_square, range(10), place=[3] * 10) \
                == ex.map(_square, range(10)) == [x * x for x in range(10)]
            assert ex.map(_square, [4], place=[9]) == [16]

    def test_at_most_one_message_per_worker_each_way_per_map(self):
        with get_executor("processes", max_workers=2) as ex:
            assert ex.pipe_messages == {"out": 0, "back": 0}
            ex.map(_square, range(50))
            assert ex.pipe_messages == {"out": 2, "back": 2}
            ex.map(_square, range(50), place=[4] * 50)     # one worker
            assert ex.pipe_messages == {"out": 3, "back": 3}
            sent = dict(ex.pipe_bytes)
            assert sent["out"] > 0 and sent["back"] > 0
            ex.map(_square, [])
            ex.map(_square, [1])            # run in the driver
            assert ex.pipe_bytes == sent


# ------------------------------------------------------------------ failures


class TestWorkerFailures:
    """A dead worker or an outcome that cannot travel is one clean
    failure of the map — never a hang, a wedged pipe or a leak."""

    @pytest.fixture(autouse=True)
    def strays(self):
        """Child processes some earlier test left behind (none, ideally);
        every test here must leave no others."""
        before = set(multiprocessing.active_children())
        yield before
        assert set(multiprocessing.active_children()) <= before
        assert live_pool_executors() == []

    def test_a_worker_that_exits_mid_map_fails_the_map_by_name(self):
        with get_executor("processes", max_workers=2) as ex:
            with pytest.raises(RuntimeError,
                               match=r"process worker 1 \(pid \d+\) died"):
                ex.map(_exit_on_three, range(6))
            # The survivor answered and was read: nothing stale is left
            # on its pipe, and the corpse is named again, not waited for.
            assert ex.map(_square, [1, 2], place=[0, 0]) == [1, 4]
            with pytest.raises(RuntimeError, match="process worker 1"):
                ex.map(_square, range(4))

    @pytest.mark.parametrize("fn", [_unpicklable_result_on_two,
                                    _unpicklable_exception_on_two])
    def test_an_outcome_that_does_not_pickle_fails_its_unit(self, fn):
        with get_executor("processes", max_workers=2) as ex:
            with pytest.raises(RuntimeError, match="does not pickle"):
                ex.map(fn, range(6))
            assert ex.map(fn, [0, 1, 3]) == [0, 1, 3]     # pipes intact
            assert ex.map(_square, range(6)) == [x * x for x in range(6)]

    def test_an_item_that_does_not_pickle_fails_before_anything_is_sent(self):
        with get_executor("processes", max_workers=2) as ex:
            with pytest.raises(Exception, match="pickle"):
                ex.map(_square, [1, lambda: 2, 3])
            assert ex.pipe_messages == {"out": 0, "back": 0}
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_close_reaps_every_child_and_is_idempotent(self, strays):
        ex = get_executor("processes", max_workers=3)
        ex.map(_square, range(6))
        children = set(multiprocessing.active_children()) - strays
        assert len(children) == 3 and all(c.daemon for c in children)
        ex.close()
        ex.close()
        assert not any(child.is_alive() for child in children)


# -------------------------------------------------------------- chunk_sizes


def test_chunk_sizes_decomposition():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(3, 10) == [3]
    assert chunk_sizes(0, 5) == []


def test_chunk_sizes_depends_only_on_total_and_chunk():
    # Worker counts never enter the decomposition — that's the property
    # cross-backend determinism rests on.
    assert sum(chunk_sizes(1000, 32)) == 1000
    assert chunk_sizes(1000, 32) == chunk_sizes(1000, 32)


def test_chunk_sizes_validation():
    with pytest.raises(ValueError):
        chunk_sizes(-1, 4)
    with pytest.raises(ValueError):
        chunk_sizes(10, 0)
