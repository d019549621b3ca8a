"""Pattern-search move generator with tabu screening.

One step explores the 2N axial neighbors of the base point, picks the
best allowable candidate (the least-bad one when nothing improves),
then tries to extend the accepted move along its own direction. Tabu
candidates are skipped before evaluation, so they cost nothing.

The neighbors differ from the base in one coordinate each, so they are
built and screened from the base and the moved coordinates alone: an
entry of the tabu list can match a neighbor only when no other
coordinate of the base lies farther from it than the tolerance.

``hj_stage`` steps several threads as one batched operation: the
axial blocks of all of them are denormalized and evaluated in one
objective call, then each thread in order evaluates its pattern point
alone and adopts its move. Objective values do not depend on the other
rows of a block, so the result is the same as stepping the threads one
by one; ``hj_step`` is the one-thread call. A pattern point, too,
differs from the base in the winner's coordinate only, so it is screened
with the mask of its thread's axial screen (``TabuList.axial_is_tabu``)
and its raw row is the winner's with that coordinate denormalized.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    Objective,
    SearchPoint,
    clamp,
    denormalize,
    denormalize_coordinate,
    evaluate_block,
    evaluate_raw,
    evaluate_raw_block,
)
from .memory import IntermediateMemory, TabuList

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
    """Allowable axial candidates around a base point, plus rejection tallies.

    Each candidate is a row: row r of the ``(k, N)`` block ``x`` is the
    base with variable ``axis[r]`` moved by ``sign[r] * step``, and rows
    keep generation order.
    """

    x: np.ndarray
    axis: np.ndarray
    sign: np.ndarray
    tabu_rejected: int = 0
    infeasible_rejected: int = 0
    #: ``TabuList.screen_axial``'s leave-one-out mask around the base, for
    #: screening the pattern point with ``TabuList.axial_is_tabu``.
    rest_near: np.ndarray | None = None

    @property
    def candidates(self) -> np.ndarray:
        """The candidate rows, ``x``, under the name that the tracing
        hooks of ``perfbench/tracer.py`` count."""
        return self.x


@lru_cache(maxsize=None)
def _probe_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(axis, sign) of the 2N axial probes: by variable, increment first."""
    rows = np.arange(2 * n)
    axis, sign = rows // 2, 1 - 2 * (rows % 2)
    axis.flags.writeable = sign.flags.writeable = False
    return axis, sign


def axial_moves(base_x: np.ndarray, step: float, tabu: TabuList) -> MoveSet:
    """Generate the clamped, tabu-screened axial neighbors of ``base_x``.

    The 2N probes are ordered by variable index with the increment
    before the decrement, which is also the tie-break order downstream.
    Only the moved coordinate of a probe is computed and clamped; probes
    that clamp back onto the base (base already at a bound) are dropped
    as degenerate; the rest are screened against the tabu list from the
    base and the moved coordinates. Only the kept rows are built.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = base_x.size
    axis, sign = _probe_order(n)
    base_moved = base_x[axis]
    moved = base_moved + sign * step
    np.minimum(1.0, np.maximum(0.0, moved, out=moved), out=moved)  # clamp, in place
    keep = moved != base_moved
    tabu_hit, rest_near = tabu.screen_axial(base_x, axis, moved)
    tabu_hit &= keep
    tabu_rejected = int(np.count_nonzero(tabu_hit))
    if tabu_rejected:
        keep &= ~tabu_hit
    axis = axis[keep]
    X = np.empty((axis.size, n))
    X[:] = base_x
    X[np.arange(axis.size), axis] = moved[keep]
    return MoveSet(X, axis, sign[keep], tabu_rejected=tabu_rejected, rest_near=rest_near)


def _select(moves: MoveSet, values: np.ndarray, feasible: np.ndarray) -> int | None:
    """Row index of the best evaluated row of ``moves``: lowest value,
    first on ties.

    Records the infeasible tally; None when no row is feasible.
    """
    moves.infeasible_rejected = len(feasible) - int(np.count_nonzero(feasible))
    if moves.infeasible_rejected == len(feasible):
        return None
    return int(values.argmin())


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
    degenerate, tabu or infeasible.
    """
    moves = axial_moves(base.x, step, tabu)
    if len(moves.x) == 0:
        return None, moves
    values, feasible = evaluate_block(objective, moves.x)
    w = _select(moves, values, feasible)
    if w is None:
        return None, moves
    return SearchPoint(x=moves.x[w].copy(), value=float(values[w]), feasible=True), moves


def pattern_move(old_base: np.ndarray, new_base: np.ndarray, k: float) -> np.ndarray:
    """Extend the move old_base -> new_base by a factor ``k``, clamped."""
    if k <= 0:
        raise ValueError("pattern factor must be positive")
    return clamp(new_base + k * (new_base - old_base))


def _pattern_point(base_x: np.ndarray, move_x: np.ndarray, axis: int, k: float) -> np.ndarray | None:
    """``pattern_move(base_x, move_x, k)`` for a move that changed only
    coordinate ``axis``, or None when clamping collapses it onto ``move_x``.

    Only that coordinate is computed, in Python floats with the same
    rounding and clamp as numpy's. Every other one is ``x + 0.0``, as in
    ``pattern_move``, which turns -0.0 into 0.0.
    """
    m = float(move_x[axis])
    p = m + k * (m - float(base_x[axis]))
    p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
    if p == m:
        return None
    x = move_x + 0.0
    x[axis] = p
    return x


def hj_stage(
    states: Sequence["ThreadState"],
    objective: Objective,
    shared: IntermediateMemory,
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

    All axial blocks are denormalized once and evaluated in one
    ``evaluate_raw_block`` call. Then, thread by thread, the pattern
    point, when it is new and not tabu, is evaluated alone through
    ``evaluate_raw``, and the adopted point (the pattern point if
    strictly better than the exploration point, else the exploration
    point) becomes the new base, goes on the tabu list and is offered to
    the shared elite archive. The pattern point differs from the base in
    the winner's coordinate only, as the winner does, so it is screened
    against the thread's tabu list with the mask of its axial screen and
    its raw row is the winner's with that one coordinate denormalized.
    The outcome is IMPROVED when the adopted point beats the thread's
    best from before the step, STALLED when no allowable move existed.
    """
    if k_pattern <= 0:
        raise ValueError("pattern factor must be positive")
    k = float(k_pattern)
    moves: list[MoveSet] = []
    bound = 0
    for state in states:
        m = axial_moves(state.base.x, state.step, state.tabu)
        moves.append(m)
        bound += len(m.x) + 1
        if bound >= budget:
            break
    if not moves:
        return []
    X = moves[0].x if len(moves) == 1 else np.concatenate([m.x for m in moves])
    space = objective.space
    if len(X):
        raw = denormalize(space, X)
        values, feasible = evaluate_raw_block(objective, raw)
    else:
        values = feasible = np.empty(0)

    steps: list[tuple[str, int]] = []
    stop = 0
    for state, m in zip(states, moves):
        start, stop = stop, stop + len(m.x)
        spent = len(m.x)
        w = _select(m, values[start:stop], feasible[start:stop])
        if w is None:
            state.evals += spent
            steps.append((STALLED, spent))
            continue
        adopted = move = SearchPoint(x=m.x[w].copy(), value=float(values[start + w]), feasible=True)
        # No pattern evaluation when clamping collapsed the pattern point
        # onto the exploration point, and never adopt a tabu one.
        a = int(m.axis[w])
        p_x = _pattern_point(state.base.x, move.x, a, k)
        if p_x is not None:
            p = p_x.item(a)
            if not state.tabu.axial_is_tabu(m.rest_near, a, p):
                p_raw = raw[start + w].copy()
                p_raw[a] = denormalize_coordinate(space, a, p)
                pattern = evaluate_raw(objective, p_x, p_raw)
                spent += 1
                if pattern.feasible and pattern.value < move.value:
                    adopted = pattern
        state.evals += spent
        best_before = state.best.value
        state.adopt(adopted, shared)
        steps.append((IMPROVED if adopted.value < best_before - IMPROVE_TOL else NOT_IMPROVED, spent))
    return steps


def hj_step(
    state: "ThreadState",
    objective: Objective,
    shared: IntermediateMemory,
    k_pattern: float = 1.0,
) -> str:
    """One exploration + pattern-move cycle from the thread's base point:
    ``hj_stage`` for one thread. Returns the outcome."""
    return hj_stage([state], objective, shared, k_pattern)[0][0]
