"""Mapper API of the simulated MapReduce engine.

A mapper receives ``(k1, v1)`` pairs — for text input, ``(byte_offset,
line)`` exactly as Hadoop's ``TextInputFormat`` delivers them — and emits
intermediate ``(k2, v2)`` pairs by *yielding* them.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.mapreduce.types import KeyValue, TaskContext


class Mapper:
    """Base class for user map functions.

    Subclasses override :meth:`map`; :meth:`setup` and :meth:`cleanup`
    bracket a task's record stream (``cleanup`` may emit trailing pairs —
    that is how in-mapper combining flushes its buffer).

    Set :attr:`parallel_safe` to ``True`` on a subclass to declare that
    concurrent map tasks sharing this instance neither race on mutable
    state nor need their mutations seen by the driver afterwards; the
    engine may then fan the map wave out over a parallel
    :class:`~repro.exec.Executor` (see
    :func:`repro.mapreduce.runtime.wave_parallelizable`).  The default is
    conservative: undeclared mappers keep their wave serial.
    """

    #: Opt-in flag for parallel task waves (see class docstring).
    parallel_safe: bool = False

    def setup(self, ctx: TaskContext) -> None:
        """Called once before the first record of a task."""

    def map(self, key: Hashable, value: Any,
            ctx: TaskContext) -> Iterable[KeyValue]:
        """Transform one input record into zero or more intermediate pairs."""
        raise NotImplementedError

    def cleanup(self, ctx: TaskContext) -> Iterable[KeyValue]:
        """Called once after the last record; may emit trailing pairs."""
        return ()


class IdentityMapper(Mapper):
    """Pass records through unchanged."""

    parallel_safe = True

    def map(self, key: Hashable, value: Any,
            ctx: TaskContext) -> Iterable[KeyValue]:
        yield key, value


class ProjectionMapper(Mapper):
    """Parse a delimited text line and emit ``(group_key, float_value)``.

    A workhorse for the evaluation jobs: the synthetic datasets are lines
    of ``key<TAB>value`` (or bare numeric values, in which case a constant
    group key is used so a single reducer sees the whole stream).
    """

    parallel_safe = True  # pure function of the input line

    def __init__(self, *, delimiter: str = "\t",
                 constant_key: Hashable = "all") -> None:
        self.delimiter = delimiter
        self.constant_key = constant_key

    def map(self, key: Hashable, value: Any,
            ctx: TaskContext) -> Iterable[KeyValue]:
        text = value if isinstance(value, str) else str(value)
        if not text:
            return
        if self.delimiter in text:
            group, _, payload = text.partition(self.delimiter)
            yield group, float(payload)
        else:
            yield self.constant_key, float(text)


class GlobalValueMapper(Mapper):
    """Emit every value under one constant key (whole-dataset statistics).

    For ``key<TAB>value`` lines, the key column is *discarded*: use this
    when the question is about the overall distribution (e.g. the global
    median) rather than per-group values.
    """

    parallel_safe = True  # pure function of the input line

    def __init__(self, *, delimiter: str = "\t",
                 constant_key: Hashable = "all") -> None:
        self.delimiter = delimiter
        self.constant_key = constant_key

    def map(self, key: Hashable, value: Any,
            ctx: TaskContext) -> Iterable[KeyValue]:
        text = value if isinstance(value, str) else str(value)
        if not text:
            return
        if self.delimiter in text:
            _, _, payload = text.partition(self.delimiter)
            yield self.constant_key, float(payload)
        else:
            yield self.constant_key, float(text)


#: The ``map`` functions of the built-in projection mappers.  On a line
#: without the delimiter both emit ``(constant_key, float(line))``, and
#: nothing for an empty line.
_PROJECTION_MAPS = (ProjectionMapper.map, GlobalValueMapper.map)


def projects_whole_splits(mapper: Mapper) -> bool:
    """Whether a map task may take ``mapper``'s whole-split form.

    True for :class:`ProjectionMapper` and :class:`GlobalValueMapper`
    with their own ``setup``, ``map`` and ``cleanup``: over a split
    whose owned lines hold no delimiter, their output is
    ``constant_key`` paired with ``float`` of every non-empty line, so a
    full scan can take those values off the split cache in one run (see
    :func:`repro.mapreduce.runtime._execute_map_task`).  A subclass
    that overrides any of the three keeps the record-at-a-time loop.
    """
    cls = type(mapper)
    return (cls.map in _PROJECTION_MAPS and cls.setup is Mapper.setup
            and cls.cleanup is Mapper.cleanup)
