"""Helpers that several test modules share: an objective over a cube, one
thread's exploration, a table of adopted threads, a strategy of
normalized coordinates, a spy on what reaches an objective, and the
structure check of an axial block."""
import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from tabukit.control import SearchConfig, fresh_threads
from tabukit.core import INFEASIBLE_VALUE, MAXIMIZE, Objective, ParameterSpace, SearchPoint, denormalize, evaluate
from tabukit.hillclimb import explore


#: Normalized coordinates, with -0.0, the bounds and their neighbours among them.
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0]))


def cube_objective(value, dim=1, lower=-1.0, upper=1.0, min_step=1e-4, feasible=None, calls=None):
    """A minimized objective over ``[lower, upper]^dim`` whose ``fn`` returns
    ``float(value(raw))``, feasible unless ``feasible(raw)`` is false, and
    appends a copy of each raw row to ``calls`` when it is a list."""

    def fn(raw):
        if calls is not None:
            calls.append(np.array(raw))
        return float(value(raw)), feasible is None or bool(feasible(raw))

    return Objective(ParameterSpace.cube(lower, upper, dim, min_step=min_step), fn=fn)


def explore_one(base, step, objective, tabu):
    """``explore`` of one thread: ``base`` (a point; only its ``x`` is read)
    with its step and tabu list. Returns the first lowest row as a point,
    or None when there are no rows or that row is infeasible, and the
    move set."""
    x = base.x
    moves, block, values = explore(
        x.reshape(1, 1, -1),
        denormalize(objective.space, x)[np.newaxis],
        np.full((1, 1, 1), step),
        tabu.block(x.size),
        objective,
        tabu.match_tol,
    )
    if not len(block):
        return None, moves
    w = int(values.argmin())
    if values[w] == INFEASIBLE_VALUE:
        return None, moves
    best = x.copy()
    best[moves.axis[w]] = moves.moved[w]
    return SearchPoint(x=best, value=values.item(w), feasible=True, raw=block[w].copy()), moves


def adopted_threads(objective, starts, config=None):
    """A ``control.Threads`` table with one thread at each normalized start,
    each start evaluated, counted and adopted as ``run_lockstep`` adopts
    it: tabu, offered to the archive and the thread's best when feasible."""
    points = [evaluate(objective, np.asarray(x, dtype=float)) for x in starts]
    threads = fresh_threads(points, config or SearchConfig())
    for i, point in enumerate(points):
        threads.evals[i] += 1
        threads.adopt(i, point)
    return threads


@dataclasses.dataclass
class Spy:
    """What reached a spied objective through ``fn``, ``fn_batch`` and ``fn_axial``."""

    fn_calls: int = 0
    #: The row count of each block, from ``fn_batch`` or ``fn_axial``, in order.
    blocks: list = dataclasses.field(default_factory=list)
    #: How many of those blocks came through ``fn_axial``.
    axial_calls: int = 0
    #: The bytes of every raw row, from any path, in order.
    rows: list = dataclasses.field(default_factory=list)
    #: The lowest feasible engine value returned (the native value negated
    #: for a maximized objective).
    best: float = math.inf

    @property
    def batch_calls(self) -> int:
        """Blocks, through either block path."""
        return len(self.blocks)

    @property
    def evals(self) -> int:
        """Evaluations: ``fn`` calls plus block rows."""
        return self.fn_calls + sum(self.blocks)


def check_axial_structure(raw, bases, counts, axis):
    """Assert the structure that ``Objective.fn_axial`` is promised, bit
    for bit: thread t owns the next ``counts[t]`` rows of ``raw``, and
    each of them is ``bases[t]`` with at most coordinate ``axis[r]``
    changed."""
    raw, bases = np.asarray(raw), np.asarray(bases)
    assert raw.ndim == bases.ndim == 2 and raw.shape[1] == bases.shape[1], (raw.shape, bases.shape)
    assert len(counts) == len(bases) and all(c >= 0 for c in counts), list(counts)
    assert sum(counts) == len(raw), (list(counts), len(raw))
    assert np.shape(axis) == (len(raw),) and np.all((0 <= axis) & (axis < raw.shape[1])), axis
    want = bases.repeat(counts, axis=0)
    rows = np.arange(len(raw))
    want[rows, axis] = raw[rows, axis]
    assert want.tobytes() == raw.tobytes(), "an axial row differs from its base off its axis"


#: The ``Objective`` fields that ``spied`` wraps.
SPIED_FIELDS = ("fn", "fn_batch", "fn_axial")


def spied(objective):
    """``objective`` with a ``Spy`` on its calls, and the spy.

    Every raw input, a point, a block row or an axial block's base, must
    lie within the bounds, and an axial block must have the structure
    that ``fn_axial`` is promised. A missing ``fn_batch`` or ``fn_axial``
    stays missing. An objective with a callable ``fn*`` field that the
    spy does not wrap is an error, so that no evaluation passes unseen.
    """
    for f in dataclasses.fields(objective):
        if f.name.startswith("fn") and f.name not in SPIED_FIELDS and callable(getattr(objective, f.name)):
            raise TypeError(f"spied does not wrap Objective.{f.name}")
    spy = Spy()
    sign = -1.0 if objective.sense == MAXIMIZE else 1.0
    lower, upper = objective.space.lower, objective.space.upper

    def in_bounds(raw):
        assert np.all((lower <= raw) & (raw <= upper)), f"raw input outside the bounds: {raw}"

    def seen(raw):
        in_bounds(raw)
        spy.rows += [row.tobytes() for row in np.atleast_2d(raw)]

    def returned(values, feasible):
        for value, ok in zip(np.atleast_1d(values), np.atleast_1d(feasible)):
            if ok:
                spy.best = min(spy.best, sign * float(value))
        return values, feasible

    def fn(raw):
        seen(raw)
        spy.fn_calls += 1
        return returned(*objective.fn(raw))

    def fn_batch(raw):
        seen(raw)
        spy.blocks.append(len(raw))
        return returned(*objective.fn_batch(raw))

    def fn_axial(raw, bases, counts, axis):
        in_bounds(bases)
        check_axial_structure(raw, bases, counts, axis)
        seen(raw)
        spy.blocks.append(len(raw))
        spy.axial_calls += 1
        return returned(*objective.fn_axial(raw, bases, counts, axis))

    return (
        dataclasses.replace(
            objective,
            fn=fn,
            fn_batch=None if objective.fn_batch is None else fn_batch,
            fn_axial=None if objective.fn_axial is None else fn_axial,
        ),
        spy,
    )
