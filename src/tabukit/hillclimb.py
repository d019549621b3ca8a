"""Pattern-search move generator with tabu screening.

One step explores the 2N axial neighbors of the base point, picks the
best allowable candidate (the least-bad one when nothing improves),
then tries to extend the accepted move along its own direction. Tabu
candidates are skipped before evaluation, so they cost nothing.

The neighbors are handled as one ``(2N, N)`` block per step: built and
clamped together, screened against the tabu list in one broadcast and
evaluated in one call, so the per-step cost is a few array operations
rather than a Python loop over candidates.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import EvalCounter, Objective, SearchPoint, clamp, evaluate, evaluate_block
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
class Candidate:
    """One axial neighbor: base with ``axis`` moved by ``sign * step``."""

    x: np.ndarray
    axis: int
    sign: int


class _Candidates(Sequence):
    """Read-only view of a MoveSet's rows as Candidate objects.

    A view rather than a list, so that taking its length, as tracing
    hooks do on every step, builds no per-candidate objects.
    """

    def __init__(self, moves: "MoveSet"):
        self._moves = moves

    def __len__(self) -> int:
        return len(self._moves.x)

    def __getitem__(self, r: int) -> Candidate:
        m = self._moves
        return Candidate(x=m.x[r], axis=int(m.axis[r]), sign=int(m.sign[r]))


@dataclass
class MoveSet:
    """Allowable axial candidates around a base point, plus rejection tallies.

    Row r of the ``(k, N)`` block ``x`` is the base with variable
    ``axis[r]`` moved by ``sign[r] * step``; rows keep generation order.
    """

    x: np.ndarray
    axis: np.ndarray
    sign: np.ndarray
    tabu_rejected: int = 0
    infeasible_rejected: int = 0

    @property
    def candidates(self) -> Sequence[Candidate]:
        return _Candidates(self)


def axial_moves(base_x: np.ndarray, step: float, tabu: TabuList) -> MoveSet:
    """Generate the clamped, tabu-screened axial neighbors of ``base_x``.

    All 2N probes are built as one block, ordered by variable index with
    the increment before the decrement, which is also the tie-break
    order downstream. Probes that clamp back onto the base (base already
    at a bound) are dropped as degenerate; the rest are screened against
    the tabu list in one call.
    """
    n = base_x.size
    rows = np.arange(2 * n)
    axis = rows // 2
    sign = 1 - 2 * (rows % 2)
    X = np.tile(base_x, (2 * n, 1))
    X[rows, axis] += sign * step
    X = clamp(X)
    moved = X[rows, axis] != base_x[axis]
    tabu_hit = moved & tabu.screen(X)
    keep = moved & ~tabu_hit
    return MoveSet(X[keep], axis[keep], sign[keep], tabu_rejected=int(np.count_nonzero(tabu_hit)))


def explore(
    base: SearchPoint,
    step: float,
    objective: Objective,
    counter: EvalCounter,
    tabu: TabuList,
) -> tuple[SearchPoint | None, MoveSet]:
    """Evaluate the allowable neighbors as one block and return the best one.

    The best move is returned even when it is worse than the base: when
    nothing improves, the smallest increase wins, and ties go to the
    first generated candidate. Returns None only when every neighbor was
    degenerate, tabu or infeasible.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    moves = axial_moves(base.x, step, tabu)
    if len(moves.x) == 0:
        return None, moves
    values, feasible = evaluate_block(objective, counter, moves.x)
    moves.infeasible_rejected = len(feasible) - int(feasible.sum())
    if moves.infeasible_rejected == len(feasible):
        return None, moves
    w = int(np.argmin(values))
    return SearchPoint(x=moves.x[w].copy(), value=float(values[w]), feasible=True), moves


def pattern_move(old_base: np.ndarray, new_base: np.ndarray, k: float) -> np.ndarray:
    """Extend the move old_base -> new_base by a factor ``k``, clamped."""
    if k <= 0:
        raise ValueError("pattern factor must be positive")
    return clamp(new_base + k * (new_base - old_base))


def hj_step(
    state: "ThreadState",
    objective: Objective,
    counter: EvalCounter,
    shared: IntermediateMemory,
    k_pattern: float = 1.0,
) -> str:
    """One exploration + pattern-move cycle from the thread's base point.

    The adopted point (pattern point if strictly better than the
    exploration point, else the exploration point) becomes the new base,
    goes on the tabu list and is offered to the shared elite archive.
    Returns IMPROVED when the adopted point beats the thread's best from
    before the step, STALLED when no allowable move existed.
    """
    best_before = state.best.value
    move, _ = explore(state.base, state.step, objective, counter, state.tabu)
    if move is None:
        return STALLED

    adopted = move
    p_x = pattern_move(state.base.x, move.x, k_pattern)
    # Skip the pattern evaluation when clamping collapsed it onto the
    # exploration point, and never adopt a tabu pattern point.
    if not np.array_equal(p_x, move.x) and not state.tabu.is_tabu(p_x):
        pattern_point = evaluate(objective, counter, p_x)
        if pattern_point.feasible and pattern_point.value < move.value:
            adopted = pattern_point

    state.adopt(adopted, shared, counter.count)
    return IMPROVED if adopted.value < best_before - IMPROVE_TOL else NOT_IMPROVED
