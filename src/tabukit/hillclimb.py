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
axial blocks of all of them are evaluated in one objective call and
their pattern points in a second, and the moves are then adopted in
thread order. Objective values do not depend on the other rows of a
block, so the result is the same as stepping the threads one by one;
``hj_step`` is the one-thread call.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import Objective, SearchPoint, clamp, evaluate_block
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
    np.clip(moved, 0.0, 1.0, out=moved)
    keep = moved != base_moved
    tabu_hit = tabu.screen_axial(base_x, axis, moved)
    tabu_hit &= keep
    tabu_rejected = int(np.count_nonzero(tabu_hit))
    if tabu_rejected:
        keep &= ~tabu_hit
    axis = axis[keep]
    X = np.empty((axis.size, n))
    X[:] = base_x
    X[np.arange(axis.size), axis] = moved[keep]
    return MoveSet(X, axis, sign[keep], tabu_rejected=tabu_rejected)


def _select(moves: MoveSet, values: np.ndarray, feasible: np.ndarray) -> SearchPoint | None:
    """The best evaluated row of ``moves``: lowest value, first on ties.

    Records the infeasible tally; None when no row is feasible.
    """
    moves.infeasible_rejected = len(feasible) - int(np.count_nonzero(feasible))
    if moves.infeasible_rejected == len(feasible):
        return None
    w = int(np.argmin(values))
    return SearchPoint(x=moves.x[w].copy(), value=float(values[w]), feasible=True)


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
    return _select(moves, values, feasible), moves


def pattern_move(old_base: np.ndarray, new_base: np.ndarray, k: float) -> np.ndarray:
    """Extend the move old_base -> new_base by a factor ``k``, clamped."""
    if k <= 0:
        raise ValueError("pattern factor must be positive")
    return clamp(new_base + k * (new_base - old_base))


def _stack(blocks: list[np.ndarray]) -> np.ndarray:
    """Rows of the given blocks as one block, in order."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
    thread that stepped, in order.

    All axial blocks are evaluated in one call, then the pattern points
    that are new and not tabu in a second; without ``fn_batch`` the
    scalar objective therefore sees each thread's axial rows in turn,
    then the pattern points. For each thread, the adopted point (the
    pattern point if strictly better than the exploration point, else
    the exploration point) becomes the new base, goes on the tabu list
    and is offered to the shared elite archive, in thread order. The
    outcome is IMPROVED when the adopted point beats the thread's best
    from before the step, STALLED when no allowable move existed.
    """
    moves: list[MoveSet] = []
    bound = 0
    for state in states:
        if bound >= budget:
            break
        m = axial_moves(state.base.x, state.step, state.tabu)
        moves.append(m)
        bound += len(m.x) + 1
    X = _stack([m.x for m in moves])
    if len(X):
        values, feasible = evaluate_block(objective, X)
    else:
        values = feasible = np.empty(0)

    winners: list[SearchPoint | None] = []
    probes: list[tuple[int, np.ndarray]] = []
    start = 0
    for i, m in enumerate(moves):
        stop = start + len(m.x)
        move = _select(m, values[start:stop], feasible[start:stop])
        start = stop
        winners.append(move)
        if move is None:
            continue
        p_x = pattern_move(states[i].base.x, move.x, k_pattern)
        # Skip the pattern evaluation when clamping collapsed it onto the
        # exploration point, and never adopt a tabu pattern point.
        if not np.array_equal(p_x, move.x) and not states[i].tabu.is_tabu(p_x):
            probes.append((i, p_x))
    patterns: list[SearchPoint | None] = [None] * len(moves)
    if probes:
        p_values, p_feasible = evaluate_block(objective, _stack([p[np.newaxis] for _, p in probes]))
        for r, (i, p_x) in enumerate(probes):
            patterns[i] = SearchPoint(x=p_x, value=float(p_values[r]), feasible=bool(p_feasible[r]))

    steps: list[tuple[str, int]] = []
    for i, move in enumerate(winners):
        state, pattern = states[i], patterns[i]
        spent = len(moves[i].x) + (pattern is not None)
        state.evals += spent
        if move is None:
            steps.append((STALLED, spent))
            continue
        best_before = state.best.value
        adopted = move
        if pattern is not None and pattern.feasible and pattern.value < move.value:
            adopted = pattern
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
