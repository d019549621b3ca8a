"""Short-term tabu list and the shared elite archive.

The tabu list is a per-thread FIFO of the most recently accepted
parameter vectors; a candidate matching any entry is skipped without
being evaluated; ``screen_axial`` screens the probes of several threads
at once, and ``TabuList.axial_is_tabu`` a pattern point with its mask.
The elite archive keeps the best solutions found so far, ordered best
first, and is the source for both restart generators: the centroid
(intensify) and per-coordinate resampling (diversify).
"""
from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np

from .core import SearchPoint, check_integer, clamp

DEFAULT_TABU_CAPACITY = 7
DEFAULT_ELITE_CAPACITY = 10
DEFAULT_MATCH_TOL = 1e-6


def screen_axial(
    bases: np.ndarray, block: np.ndarray, axis: np.ndarray, moved: np.ndarray, match_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Screen T threads' axial probes in one broadcast, without building
    them: mask entry ``[t, 0, p]`` is ``is_tabu`` of the probe that
    copies ``bases[t, 0]`` but sets coordinate ``axis[p]`` to
    ``moved[t, 0, p]``, against ring ``block[t]``. A probe matches an entry
    within the tolerance in the moved coordinate and in every other one,
    which it shares with its base; an empty slot (+inf) matches nothing.
    Also returns ``rest_near`` for ``TabuList.axial_is_tabu``: the
    ``(T, capacity, N)`` mask of the entries within the tolerance of
    their base in every coordinate but the column's.
    """
    diff = bases - block
    far = np.abs(diff, out=diff) > match_tol
    # rest_near[t, e, j]: no coordinate but j of entry e is far from base t.
    rest_near = np.add.reduce(far, axis=2, keepdims=True) == far
    # take: the same gather as [:, :, axis], with less indexing overhead.
    own = block.take(axis, axis=2)
    np.subtract(moved, own, out=own)
    hit = np.abs(own, out=own) <= match_tol
    hit &= rest_near.take(axis, axis=2)
    return np.logical_or.reduce(hit, axis=1, keepdims=True), rest_near


@lru_cache(maxsize=None)
def _draw_bounds(k: int, n: int) -> np.ndarray:
    """The read-only int64 vector ``[k, n, k, n, ...]`` of length 2n: the
    exclusive upper bounds of ``diversify``'s draws."""
    bounds = np.tile(np.array([k, n], dtype=np.int64), n)
    bounds.flags.writeable = False
    return bounds


class TabuList:
    """Fixed-capacity FIFO of recently accepted normalized vectors.

    Entries live in a ``(capacity, N)`` ring whose empty slots hold +inf,
    which matches nothing. The lockstep driver hands each thread's list
    its row of one ``(K, capacity, N)`` block (``ring``); a list built
    without one allocates it at the first push, once N is known.
    """

    def __init__(self, capacity: int = DEFAULT_TABU_CAPACITY, match_tol: float = DEFAULT_MATCH_TOL, ring=None):
        capacity = check_integer(capacity, "tabu capacity")
        if capacity < 1:
            raise ValueError("tabu capacity must be positive")
        if not 0.0 <= match_tol < math.inf:  # also rejects NaN
            raise ValueError(f"match tolerance must be non-negative and finite, got {match_tol!r}")
        self.capacity = capacity
        self.match_tol = match_tol
        self._ring = ring
        self._size = 0
        self._next = 0  # slot of the next push, which holds the oldest entry once full

    def block(self, n: int) -> np.ndarray:
        """The ring as a one-thread ``(1, capacity, n)`` block, allocated if need be."""
        if self._ring is None:
            self._ring = np.full((self.capacity, n), math.inf)
        return self._ring[np.newaxis]

    def push(self, x: np.ndarray) -> None:
        """Record an accepted vector, evicting the oldest entry when full."""
        x = np.asarray(x, dtype=float)
        ring = self._ring if self._ring is not None else self.block(x.size)[0]
        if x.shape != ring.shape[1:]:
            # Assignment into the ring would broadcast a short vector silently.
            raise ValueError(f"tabu entries have shape {ring.shape[1:]}, got {x.shape}")
        ring[self._next] = x
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def axial_is_tabu(self, rest_near: np.ndarray, axis: int, value: float) -> bool:
        """``is_tabu`` of the point that copies the base of ``rest_near``
        (this list's row of a ``screen_axial`` mask, no push since) and
        sets coordinate ``axis`` to ``value``: only the entries near the
        base in every other coordinate are tested, on that coordinate alone."""
        tol = self.match_tol
        own = self._ring[:, axis].tolist()
        for near, entry in zip(rest_near[:, axis].tolist(), own):
            if near and abs(value - entry) <= tol:
                return True
        return False

    def is_tabu(self, x: np.ndarray) -> bool:
        """True when some entry matches ``x`` within the tolerance (max norm).
        The engine does not call it; it stays as a boundary that
        ``perfbench/tracer.py`` wraps."""
        if self._ring is None:
            return False
        diff = np.abs(self._ring - np.asarray(x, dtype=float))  # +inf in the empty slots
        return bool(np.any(diff.max(axis=1) <= self.match_tol))

    def __len__(self) -> int:
        return self._size


class IntermediateMemory:
    """Capacity-bounded elite archive ordered best (lowest value) first.

    An entry is a value and a vector, kept in step best first: the values
    in a list and the vectors as the rows of a ``(capacity, N)`` array,
    allocated at the first insert once N is known, so an offer screens
    against every entry in one broadcast and the restart generators read
    the same rows. The offered ``SearchPoint`` itself is not kept.

    Shared by the search threads of a run, which the lockstep driver
    steps in one OS thread; it is not safe to share across OS threads.
    """

    def __init__(self, capacity: int = DEFAULT_ELITE_CAPACITY, match_tol: float = DEFAULT_MATCH_TOL):
        capacity = check_integer(capacity, "elite capacity")
        if capacity < 1:
            raise ValueError("elite capacity must be positive")
        if not 0.0 <= match_tol < math.inf:
            raise ValueError(f"match tolerance must be non-negative and finite, got {match_tol!r}")
        self.capacity = capacity
        self.match_tol = match_tol
        self._values: list[float] = []  # best first, keeps bisect cheap
        self._rows: np.ndarray | None = None  # the vectors, in the same order

    def offer(self, p: SearchPoint) -> bool:
        """Insert a feasible point if it qualifies; returns True when inserted.

        A point qualifies when the archive has room or when it beats the
        current worst entry. Vectors already present (within the match
        tolerance, max norm) are rejected so the archive cannot collapse
        onto copies of one solution. A vector of another length than
        the archived ones, a vector that is not 1-D (checked at every
        offer, the first included) or a feasible point with a non-finite
        value raises ValueError.
        """
        if not p.feasible:
            return False
        if not math.isfinite(p.value):
            raise ValueError(f"cannot archive a feasible point with non-finite value {p.value!r}")
        x = np.asarray(p.x, dtype=float)
        n = len(self._values)
        if x.ndim != 1 or (self._rows is not None and x.shape != self._rows.shape[1:]):
            expected = "(N,)" if self._rows is None else self._rows.shape[1:]
            raise ValueError(f"archived vectors have shape {expected}, got {x.shape}")
        if n >= self.capacity and p.value >= self._values[-1]:
            return False
        if n:
            diff = self._rows[:n] - x
            if np.count_nonzero(np.maximum.reduce(np.abs(diff, out=diff), axis=1) <= self.match_tol):
                return False
        if self._rows is None:
            self._rows = np.empty((self.capacity, x.size))
        idx = bisect.bisect_right(self._values, p.value)
        self._values.insert(idx, p.value)
        if n == self.capacity:  # the worst entry drops out
            self._values.pop()
            n -= 1
        self._rows[idx + 1 : n + 1] = self._rows[idx:n]
        self._rows[idx] = x
        return True

    def values(self) -> list[float]:
        """Copy of the archived values, best first."""
        return list(self._values)

    def rows(self) -> np.ndarray:
        """Copy of the archived vectors as rows, best first."""
        if self._rows is None:
            return np.empty((0, 0))
        return self._rows[: len(self._values)].copy()

    def __len__(self) -> int:
        return len(self._values)

    def diversify(self, rng: np.random.Generator) -> np.ndarray:
        """Build a point by sampling every coordinate independently.

        Each output coordinate copies the value of a uniformly random
        coordinate of a uniformly random archive entry, so good values
        found for one parameter get tried in every other position. No
        arithmetic is performed on the copied values.
        """
        k = len(self._values)
        if not k:
            raise ValueError("cannot diversify from an empty archive")
        n = self._rows.shape[1]
        # One call draws the entry and the coordinate of each output
        # coordinate in turn, r_0, c_0, r_1, c_1, ...: the same stream as
        # two scalar draws per coordinate.
        draws = rng.integers(_draw_bounds(k, n))
        return self._rows[draws[0::2], draws[1::2]]

    def intensify(self) -> np.ndarray:
        """Componentwise mean of the archived vectors, clamped to [0, 1]."""
        k = len(self._values)
        if not k:
            raise ValueError("cannot intensify from an empty archive")
        # np.mean's own operations, without its Python wrapper.
        return clamp(np.add.reduce(self._rows[:k], axis=0) / k)
