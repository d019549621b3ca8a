"""Short-term tabu list and the shared elite archive.

The tabu list is a per-thread FIFO of the most recently accepted
parameter vectors; a candidate matching any entry is skipped without
being evaluated. The elite archive keeps the best solutions found so
far, ordered best first, and is the source for both restart generators:
the centroid (intensify) and per-coordinate resampling (diversify).
"""
from __future__ import annotations

import bisect

import numpy as np

from .core import SearchPoint, clamp

DEFAULT_TABU_CAPACITY = 7
DEFAULT_ELITE_CAPACITY = 10
DEFAULT_MATCH_TOL = 1e-6


class TabuList:
    """Fixed-capacity FIFO of recently accepted normalized vectors.

    Entries live in a ``(capacity, N)`` ring buffer, allocated at the
    first push once N is known, so a whole candidate block is screened
    against every entry in one broadcast.
    """

    def __init__(self, capacity: int = DEFAULT_TABU_CAPACITY, match_tol: float = DEFAULT_MATCH_TOL):
        if capacity < 1:
            raise ValueError("tabu capacity must be positive")
        if not match_tol >= 0:  # also rejects NaN
            raise ValueError(f"match tolerance must be non-negative, got {match_tol!r}")
        self.capacity = capacity
        self.match_tol = match_tol
        self._ring: np.ndarray | None = None
        self._size = 0
        self._next = 0  # slot of the next push, which holds the oldest entry once full

    def push(self, x: np.ndarray) -> None:
        """Record an accepted vector, evicting the oldest entry when full."""
        x = np.asarray(x, dtype=float)
        if self._ring is None:
            self._ring = np.empty((self.capacity, x.size))
        if x.shape != self._ring.shape[1:]:
            # Assignment into the ring would broadcast a short vector silently.
            raise ValueError(f"tabu entries have shape {self._ring.shape[1:]}, got {x.shape}")
        self._ring[self._next] = x
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def screen(self, X: np.ndarray) -> np.ndarray:
        """Mask of the rows of ``X`` that match some entry within the
        tolerance (max norm), testing every row against every entry at once."""
        X = np.asarray(X, dtype=float)
        if self._size == 0:
            return np.zeros(len(X), dtype=bool)
        diff = X[:, np.newaxis, :] - self._ring[: self._size]
        np.abs(diff, out=diff)
        return np.logical_or.reduce(diff.max(axis=2) <= self.match_tol, axis=1)

    def screen_axial(self, base: np.ndarray, axis: np.ndarray, moved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``screen`` of the probes that copy ``base`` and set coordinate
        ``axis[r]`` to ``moved[r]``, without building them.

        A probe matches an entry when both lie within the tolerance in the
        moved coordinate and in every other one, which the probe shares
        with the base: the entry may lie farther than the tolerance from
        the base in the moved coordinate only. Returns the probes' mask
        and ``rest_near``, the ``(len(self), N)`` mask of the entries that
        lie within the tolerance of the base in every coordinate but the
        column's, for ``axial_is_tabu``.
        """
        if self._size == 0:
            return np.zeros(len(axis), dtype=bool), np.zeros((0, base.size), dtype=bool)
        entries = self._ring[: self._size]
        diff = base - entries
        far = np.abs(diff, out=diff) > self.match_tol
        # rest_near[e, j]: no coordinate but j of entry e is far from the base.
        rest_near = far.sum(axis=1, keepdims=True) == far
        # take: the same gather as [:, axis], with less indexing overhead.
        own = entries.take(axis, axis=1)
        np.subtract(moved, own, out=own)
        hit = np.abs(own, out=own) <= self.match_tol
        hit &= rest_near.take(axis, axis=1)
        return np.logical_or.reduce(hit, axis=0), rest_near

    def axial_is_tabu(self, rest_near: np.ndarray, axis: int, value: float) -> bool:
        """``is_tabu`` of the point that copies the base of ``rest_near``
        (from ``screen_axial``, with no push since) and sets coordinate
        ``axis`` to ``value``: only the entries near the base in every
        other coordinate are tested, on that coordinate alone."""
        if not len(rest_near):
            return False
        tol = self.match_tol
        own = self._ring[: len(rest_near), axis].tolist()
        for near, entry in zip(rest_near[:, axis].tolist(), own):
            if near and abs(value - entry) <= tol:
                return True
        return False

    def is_tabu(self, x: np.ndarray) -> bool:
        """True when some entry matches ``x`` within the tolerance (max norm)."""
        return bool(self.screen(np.asarray(x, dtype=float)[np.newaxis])[0])

    @property
    def entries(self) -> np.ndarray:
        """Copy of the held vectors as rows, oldest first."""
        if self._ring is None:
            return np.empty((0, 0))
        if self._size < self.capacity:
            return self._ring[: self._size].copy()
        return np.roll(self._ring, -self._next, axis=0)

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
        if capacity < 1:
            raise ValueError("elite capacity must be positive")
        if not match_tol >= 0:
            raise ValueError(f"match tolerance must be non-negative, got {match_tol!r}")
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
        the archived ones raises ValueError.
        """
        if not p.feasible:
            return False
        x = np.asarray(p.x, dtype=float)
        n = len(self._values)
        if self._rows is not None and x.shape != self._rows.shape[1:]:
            raise ValueError(f"archived vectors have shape {self._rows.shape[1:]}, got {x.shape}")
        if n >= self.capacity and p.value >= self._values[-1]:
            return False
        if n and np.count_nonzero(np.abs(self._rows[:n] - x).max(axis=1) <= self.match_tol):
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
        rows = self.rows()
        if not len(rows):
            raise ValueError("cannot diversify from an empty archive")
        k, n = rows.shape
        out = np.empty(n)
        for j in range(n):
            r = int(rng.integers(k))
            c = int(rng.integers(n))
            out[j] = rows[r, c]
        return out

    def intensify(self) -> np.ndarray:
        """Componentwise mean of the archived vectors, clamped to [0, 1]."""
        rows = self.rows()
        if not len(rows):
            raise ValueError("cannot intensify from an empty archive")
        return clamp(np.mean(rows, axis=0))
