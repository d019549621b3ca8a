"""Helpers that several test modules share: one thread's axial moves, a
strategy of normalized coordinates, and a spy on what reaches an objective."""
import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from tabukit.core import MAXIMIZE
from tabukit.hillclimb import axial_moves


#: Normalized coordinates, with -0.0, the bounds and their neighbours among them.
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0]))


def moves_around(base, step, tabu):
    """``axial_moves`` of one thread: ``base`` with its step and tabu list."""
    return axial_moves(base.reshape(1, 1, -1), np.full((1, 1, 1), step), tabu.block(base.size), tabu.match_tol)


@dataclasses.dataclass
class Spy:
    """What reached a spied objective through ``fn`` and ``fn_batch``."""

    fn_calls: int = 0
    #: The row count of each ``fn_batch`` block, in order.
    blocks: list = dataclasses.field(default_factory=list)
    #: The bytes of every raw row, from either path, in order.
    rows: list = dataclasses.field(default_factory=list)
    #: The lowest feasible engine value returned (the native value negated
    #: for a maximized objective).
    best: float = math.inf

    @property
    def batch_calls(self) -> int:
        return len(self.blocks)

    @property
    def evals(self) -> int:
        """Evaluations: ``fn`` calls plus ``fn_batch`` rows."""
        return self.fn_calls + sum(self.blocks)


def spied(objective):
    """``objective`` with a ``Spy`` on its calls, and the spy.

    Every raw input, a point or a block row, must lie within the bounds.
    A missing ``fn_batch`` stays missing.
    """
    spy = Spy()
    sign = -1.0 if objective.sense == MAXIMIZE else 1.0
    lower, upper = objective.space.lower, objective.space.upper

    def seen(raw):
        assert np.all((lower <= raw) & (raw <= upper)), f"raw input outside the bounds: {raw}"
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

    batch = None if objective.fn_batch is None else fn_batch
    return dataclasses.replace(objective, fn=fn, fn_batch=batch), spy
