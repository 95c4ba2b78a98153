"""A uniform random permutation, drawn only as far as it is read.

EARL's early answer costs work in proportion to the *sample*, not the
input (§3): the in-memory engines walk a prefix of a random permutation
of their rows, and a run that meets σ reads the first few thousand
positions of it.  :class:`PermutationPrefix` draws those positions when
they are asked for instead of permuting all ``N`` up front.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import SeedLike, ensure_rng, spawn_child


class PermutationPrefix:
    """The leading positions of a uniform random permutation of
    ``range(size)``, drawn on demand.

    *How it draws.*  I.i.d. ``rng.integers(0, size)`` draws; repeats and
    positions already taken are dropped, keeping draw order, against a
    ``bool[size]`` mask allocated at the first such draw.  Each new
    position is thus uniform over the ones not yet taken — sequential
    rejection, exact in law: every prefix is a uniform ordered sample
    without replacement.  Once the prefix is to reach half the
    population, rejection stops paying and the remainder is shuffled
    whole.

    *Same rows however it is asked.*  The prefix grows through a fixed
    ladder of lengths — ``FIRST_RUNG``, doubling, capped at ``size`` —
    one rung at a time, so what :meth:`head` returns is a function of
    the stream alone: any sequence of ``head(m)`` calls returns the rows
    of one ``head(max m)`` call.

    *Its own stream.*  It draws from a child generator spawned off
    ``rng`` at construction, so a caller that goes on using ``rng``
    (SSABE, an estimation stage) never interleaves with it.
    """

    #: Length of the ladder's first rung.
    FIRST_RUNG = 64

    __slots__ = ("size", "_rng", "_drawn", "_taken")

    def __init__(self, size: int, rng: SeedLike = None) -> None:
        if size < 0:
            raise ValueError(f"size cannot be negative, got {size}")
        self.size = int(size)
        self._rng = spawn_child(ensure_rng(rng))[0]
        self._drawn = np.empty(0, dtype=np.int64)
        self._taken = None

    def head(self, count: int) -> np.ndarray:
        """The first ``count`` positions of the permutation (a read-only
        view: the prefix keeps growing underneath)."""
        if not 0 <= count <= self.size:
            raise ValueError(f"cannot take {count} positions of a "
                             f"permutation of {self.size}")
        while len(self._drawn) < count:
            self._climb()
        head = self._drawn[:count]
        head.flags.writeable = False
        return head

    def _climb(self) -> None:
        """Grow the prefix to the next rung of the ladder."""
        have = len(self._drawn)
        rung = min(self.size, 2 * have if have else self.FIRST_RUNG)
        if 2 * rung >= self.size:
            rest = (np.arange(self.size) if self._taken is None
                    else np.flatnonzero(~self._taken))
            self._drawn = np.concatenate(
                [self._drawn, self._rng.permutation(rest)])
            self._taken = None
            return
        if self._taken is None:
            self._taken = np.zeros(self.size, dtype=bool)
        parts = [self._drawn]
        need = rung - have
        while need:
            # Enough draws that one batch usually suffices: under half
            # the population is taken, so at least half of them are new.
            draws = self._rng.integers(
                0, self.size, size=need * self.size // (self.size - rung)
                + need // 8 + 8)
            draws = draws[~self._taken[draws]]
            if not len(draws):
                continue
            # First occurrences in draw order: sort (value, position)
            # keys — one int64 while size × batch < 2⁶³ — and keep the
            # head of every run of equal values.
            batch = len(draws)
            value, at = np.divmod(np.sort(draws * batch + np.arange(batch)),
                                  batch)
            head = np.empty(batch, dtype=bool)
            head[0] = True
            np.not_equal(value[1:], value[:-1], out=head[1:])
            fresh = draws[np.sort(at[head])[:need]]
            self._taken[fresh] = True
            parts.append(fresh)
            need -= len(fresh)
        self._drawn = np.concatenate(parts)
