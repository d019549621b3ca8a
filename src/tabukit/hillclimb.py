"""Pattern-search move generator with tabu screening.

One step explores the 2N axial neighbors of the base point, picks the
best allowable candidate (the least-bad one when nothing improves),
then tries to extend the accepted move along its own direction. Tabu
candidates are skipped before evaluation, so they cost nothing.

The neighbors differ from the base in one coordinate each, so they are
built and screened from the base and the moved coordinates alone: an
entry of the tabu list can match a neighbor only when no other
coordinate of the base lies farther from it than the tolerance.

The driver steps every thread of a stage through one ``hj_stage`` call,
with the result of stepping them one by one; its docstring says how.
``explore`` and ``hj_step`` are not called by the engine; they stay as
the boundaries that ``perfbench/tracer.py`` wraps.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    INFEASIBLE_VALUE,
    Objective,
    ParameterSpace,
    SearchPoint,
    _checked,
    denormalize,
    denormalize_coordinate,
    denormalize_coordinates,
    evaluate_raw_block,
)
from .memory import TabuList, screen_axial

if TYPE_CHECKING:  # pragma: no cover
    from .control import ThreadState

IMPROVED = "improved"
NOT_IMPROVED = "not_improved"
STALLED = "stalled"

#: Strict-improvement slack; keeps rounding noise from resetting the
#: fail counter forever on a flat plateau.
IMPROVE_TOL = 1e-12


@dataclass
class MoveSet:
    """Allowable axial candidates around the bases of T threads, plus
    rejection tallies: ``counts[t]`` candidates of each thread in turn,
    each one its base with variable ``axis[r]`` moved by the step and
    clamped to ``moved[r]``. The rows are not built."""

    axis: np.ndarray
    moved: np.ndarray
    counts: list[int]
    tabu_rejected: int = 0
    infeasible_rejected: int = 0
    #: ``memory.screen_axial``'s ``(T, capacity, N)`` leave-one-out mask,
    #: for screening the pattern points with ``TabuList.axial_is_tabu``.
    rest_near: np.ndarray | None = None

    @property
    def candidates(self) -> np.ndarray:
        """One entry per candidate, ``moved``, under the name that the
        tracing hooks of ``perfbench/tracer.py`` count."""
        return self.moved


@lru_cache(maxsize=None)
def _probe_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(axis, sign) of the 2N axial probes: by variable, increment first."""
    rows = np.arange(2 * n)
    axis, sign = rows // 2, 1.0 - 2.0 * (rows % 2)
    axis.flags.writeable = sign.flags.writeable = False
    return axis, sign


def axial_moves(
    base_x: np.ndarray, step: np.ndarray, tabu: np.ndarray, match_tol: float, budget: float = math.inf
) -> MoveSet:
    """Generate the clamped, tabu-screened axial neighbours of T bases at once.

    The bases are ``(T, 1, N)``, the steps ``(T, 1, 1)`` and the tabu rings
    ``(T, capacity, N)``. Each base's 2N probes go by variable index, the
    increment first, which is also the tie-break order downstream; only the
    moved coordinate is computed. Probes that clamp back onto their base are
    dropped, the rest screened by ``memory.screen_axial``. Thread t steps
    only while the evaluations that the threads before it may spend, their
    candidates plus one pattern point each, stay below ``budget``; the
    first always does. The move set covers the threads that step.
    """
    axis, sign = _probe_order(base_x.shape[2])
    base_moved = base_x.take(axis, axis=2)
    moved = sign * step
    moved += base_moved
    np.minimum(1.0, np.maximum(0.0, moved, out=moved), out=moved)  # clamp, in place
    keep = moved != base_moved
    tabu_hit, rest_near = screen_axial(base_x, tabu, axis, moved, match_tol)
    tabu_hit &= keep
    keep ^= tabu_hit
    if len(keep) == 1:
        axis = axis[keep[0, 0]]
        counts = [axis.size]
    else:
        counts = np.add.reduce(keep, (1, 2)).tolist()
        stepping = 1 + sum(spent < budget for spent in accumulate(c + 1 for c in counts[:-1]))
        if stepping < len(counts):
            rest_near, counts = rest_near[:stepping], counts[:stepping]
            keep, moved, tabu_hit = keep[:stepping], moved[:stepping], tabu_hit[:stepping]
        axis = axis[keep.nonzero()[2]]
    return MoveSet(axis, moved[keep], counts, int(np.count_nonzero(tabu_hit)), rest_near=rest_near)


def axial_block(space: ParameterSpace, raw: np.ndarray, moves: MoveSet) -> np.ndarray:
    """The raw rows of ``moves``, whose thread t's base has the raw row
    ``raw[t]``, one row per thread of ``moves``.

    Each row is its base's raw row with the moved coordinate
    denormalized, which is ``denormalize`` of the normalized row bit
    for bit when the base's raw row is ``denormalize`` of its ``x``.
    This is the structure that ``Objective.fn_axial`` is promised.
    """
    counts = moves.counts
    block = raw.repeat(counts[0] if len(counts) == 1 else counts, axis=0)
    block[np.arange(len(block)), moves.axis] = denormalize_coordinates(space, moves.axis, moves.moved)
    return block


def explore(
    base: SearchPoint,
    step: float,
    objective: Objective,
    tabu: TabuList,
) -> tuple[SearchPoint | None, MoveSet]:
    """Evaluate the allowable neighbors as one block and return the best one.

    The best move is returned even when it is worse than the base: when
    nothing improves, the smallest increase wins, and ties go to the
    first generated candidate. Returns None only when every neighbor was
    degenerate, tabu or infeasible. Only ``base.x`` is read, so the base
    need not carry its raw row. The engine does not call it; it stays
    as a ``perfbench/tracer.py`` boundary.
    """
    if not step > 0:  # also rejects NaN
        raise ValueError(f"step must be positive, got {step!r}")
    moves = axial_moves(base.x.reshape(1, 1, -1), np.full((1, 1, 1), step), tabu.block(base.x.size), tabu.match_tol)
    if moves.axis.size == 0:
        return None, moves
    bases = denormalize(objective.space, base.x)[np.newaxis]
    raw = axial_block(objective.space, bases, moves)
    values, feasible = evaluate_raw_block(objective, raw, (bases, moves.counts, moves.axis))
    moves.infeasible_rejected = len(feasible) - int(np.count_nonzero(feasible))
    w = int(values.argmin())
    value = values.item(w)
    if value == INFEASIBLE_VALUE:  # no feasible row; a feasible value is finite
        return None, moves
    x = base.x.copy()
    x[moves.axis[w]] = moves.moved[w]
    return SearchPoint(x=x, value=value, feasible=True, raw=raw[w].copy()), moves


def _pattern_point(base_x: np.ndarray, axis: int, m: float, k: float) -> np.ndarray | None:
    """The pattern point of the move that sets coordinate ``axis`` of
    ``base_x`` to ``m``: the move extended by the factor ``k`` and
    clamped into the unit cube, or None when clamping collapses it onto
    the move.

    Only that coordinate is computed, in Python floats with the same
    rounding and clamp as numpy's. Every other one is ``x + 0.0``, as
    ``x + k * (x - x)`` is, which turns -0.0 into 0.0.
    """
    p = m + k * (m - base_x.item(axis))
    p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
    if p == m:
        return None
    x = base_x + 0.0
    x[axis] = p
    return x


def hj_stage(
    states: Sequence["ThreadState"],
    objective: Objective,
    k_pattern: float = 1.0,
    budget: float = math.inf,
) -> list[tuple[str, int]]:
    """One exploration + pattern-move cycle for each of several threads.

    Steps the leading threads of ``states`` as one batched operation,
    with the result of stepping them one by one in order. A thread takes
    part only while the evaluations that the threads before it may
    spend, at most their rows plus one pattern point each, stay below
    ``budget``; the first always does. Each stepping thread adds what it
    spent to its ``evals``. Returns ``(outcome, evaluations)`` for each
    thread that stepped, in order; no states step none.

    The states must share one ``control.Stack`` (else ValueError), which
    ``axial_moves`` reads for all of them at once: its arrays themselves
    when the states are all its rows in order, else copies of their rows.
    The axial rows are built from the bases' raw rows (``axial_block``)
    and evaluated in one ``evaluate_raw_block`` call, with the block's
    structure for ``Objective.fn_axial``; the winner takes a copy of its
    block row. A thread's winner is the first lowest of its
    rows; when that row is infeasible, so are all of them.
    Then, thread by thread, the pattern point, when it is new and not
    tabu, is evaluated alone by ``objective.fn`` with ``evaluate_raw``'s
    checks, and the adopted point (the pattern point if strictly better
    than the exploration point, else the exploration point) becomes the
    new base, goes on the tabu list and is offered to the thread's elite
    archive. Only the adopted point is built as a ``SearchPoint``. The
    pattern point differs from the base in the winner's coordinate only, as the
    winner does, so it is screened against the thread's tabu list with
    the mask of its axial screen and its raw row is the winner's with
    that one coordinate denormalized.
    The outcome is IMPROVED when the adopted point beats the thread's
    best from before the step, STALLED when no allowable move existed.
    """
    if not 0.0 < k_pattern < math.inf:  # also rejects NaN, as SearchConfig.validate does
        raise ValueError(f"pattern factor must be positive and finite, got {k_pattern!r}")
    if not states:
        return []
    k = float(k_pattern)
    stack = states[0].stack
    x, step, tabu, raw = stack.x, stack.step, stack.tabu, stack.raw
    whole = len(states) == len(x)  # every row of the stack, in order
    for t, state in enumerate(states):
        if state.stack is not stack:
            raise ValueError(f"thread {state.row} is not on the stage's stack; build the threads with fresh_states")
        whole = whole and state.row == t
    if not whole:  # some threads, or out of row order: copies
        rows = [state.row for state in states]
        x, step, tabu, raw = x[rows], step[rows], tabu[rows], raw[rows]
    moves = axial_moves(x, step, tabu, states[0].tabu.match_tol, budget)
    space = objective.space
    bases = raw[: len(moves.counts)]
    raw = axial_block(space, bases, moves)
    if len(raw):
        values, feasible = evaluate_raw_block(objective, raw, (bases, moves.counts, moves.axis))
        moves.infeasible_rejected = len(feasible) - int(np.count_nonzero(feasible))
    axes, moved, rest_near = moves.axis, moves.moved, moves.rest_near

    steps: list[tuple[str, int]] = []
    stop = 0
    for t, (state, count) in enumerate(zip(states, moves.counts)):
        start, stop = stop, stop + count
        spent = count
        if count:
            # The first lowest row; +inf there means no feasible row, as
            # infeasible rows carry INFEASIBLE_VALUE and feasible ones are finite.
            w = start + int(values[start:stop].argmin())
            value = values.item(w)
        if not count or value == INFEASIBLE_VALUE:
            state.evals += spent
            steps.append((STALLED, spent))
            continue
        a, m = axes.item(w), moved.item(w)
        base_x = state.base.x
        adopted = None
        # No pattern evaluation when clamping collapsed the pattern point
        # onto the exploration point, and never adopt a tabu one.
        p_x = _pattern_point(base_x, a, m, k)
        if p_x is not None:
            p = p_x.item(a)
            if not state.tabu.axial_is_tabu(rest_near[t], a, p):
                p_raw = raw[w].copy()
                p_raw[a] = denormalize_coordinate(space, a, p)
                p_value, ok = objective.fn(p_raw)  # evaluate_raw's call and checks, no point unless adopted
                spent += 1
                if ok:
                    p_value = _checked(objective, float(p_value))
                    if p_value < value:
                        adopted = SearchPoint(x=p_x, value=p_value, feasible=True, raw=p_raw)
        if adopted is None:
            move_x = base_x.copy()
            move_x[a] = m
            adopted = SearchPoint(x=move_x, value=value, feasible=True, raw=raw[w].copy())
        state.evals += spent
        best_before = state.best.value
        state.adopt(adopted)
        steps.append((IMPROVED if adopted.value < best_before - IMPROVE_TOL else NOT_IMPROVED, spent))
    return steps


def hj_step(state: "ThreadState", objective: Objective, k_pattern: float = 1.0) -> str:
    """One exploration + pattern-move cycle from the thread's base point:
    ``hj_stage`` for one thread. Returns the outcome. The engine does not
    call it; it stays as a ``perfbench/tracer.py`` boundary."""
    return hj_stage([state], objective, k_pattern)[0][0]
