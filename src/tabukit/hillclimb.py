"""Pattern-search move generator with tabu screening.

One step explores the 2N axial neighbors of the base point, picks the
best allowable candidate (the least-bad one when nothing improves),
then tries to extend the accepted move along its own direction. Tabu
candidates are skipped before evaluation, so they cost nothing.

The neighbors differ from the base in one coordinate each, so they are
built and screened from the base and the moved coordinates alone: an
entry of the tabu list can match a neighbor only when no other
coordinate of the base lies farther from it than the tolerance.

A thread is a row of the run's ``control.Threads`` table. The driver
steps the live rows of a stage through one ``hj_stage`` call (more at
the budget edge), with the result of stepping them one by one; its
docstring says how.
``explore`` is the stage's exploration half, and ``hj_stage`` keeps the
winner rule, the pattern point and the adoption, and counts what each
thread spends in its row's ``evals``. Only ``hj_step`` and
``memory.TabuList.is_tabu`` are not called by the engine; they stay as
boundaries that ``perfbench/tracer.py`` wraps.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    INFEASIBLE_VALUE,
    Objective,
    ParameterSpace,
    SearchPoint,
    denormalize_coordinate,
    denormalize_coordinates,
    evaluate_raw,
    evaluate_raw_block,
)
from .memory import screen_axial

if TYPE_CHECKING:  # pragma: no cover
    from .control import Threads

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


def axial_moves(base_x: np.ndarray, step: np.ndarray, tabu: np.ndarray, match_tol: float) -> MoveSet:
    """Generate the clamped, tabu-screened axial neighbours of T bases at once.

    The bases are ``(T, 1, N)``, the steps ``(T, 1, 1)`` and the tabu rings
    ``(T, capacity, N)``. Each base's 2N probes go by variable index, the
    increment first, which is also the tie-break order downstream; only the
    moved coordinate is computed. Probes that clamp back onto their base are
    dropped, the rest screened by ``memory.screen_axial``.
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
    x: np.ndarray, raw: np.ndarray, step: np.ndarray, tabu: np.ndarray, objective: Objective, match_tol: float
) -> tuple[MoveSet, np.ndarray, np.ndarray]:
    """A stage's exploration: ``axial_moves`` of the bases ``x`` (with
    its arguments), their raw rows (``axial_block`` of the raw bases
    ``raw``, one per base) and the rows' engine values from one
    ``evaluate_raw_block`` call with the block's structure. An empty
    block reaches no objective."""
    moves = axial_moves(x, step, tabu, match_tol)
    block = axial_block(objective.space, raw, moves)
    if not len(block):
        return moves, block, np.empty(0)
    values, _ = evaluate_raw_block(objective, block, (raw, moves.counts, moves.axis))
    return moves, block, values


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
    threads: "Threads", rows: Sequence[int], objective: Objective, k_pattern: float = 1.0
) -> list[str]:
    """One exploration + pattern-move cycle for each of several threads.

    Steps every one of ``rows`` of the ``control.Threads`` table as one
    batched operation, with the result of stepping them one by one in
    that order. Each thread adds what it spent, at most its 2N axial
    rows plus one pattern point, to its ``evals``. Returns one outcome
    per row; no rows step none. Which threads
    the budget admits is the driver's rule (``control.run_lockstep``).

    ``explore`` is the stage's exploration: it reads the table's arrays
    for all the rows at once (the arrays themselves when ``rows`` is
    every row in order, else copies) and evaluates their axial block in
    one call. This function keeps the rest. A thread's winner is the
    first lowest of its rows; when that row is infeasible, so are all of
    them. Then, thread by thread, the pattern point, when it is new and
    not tabu, is evaluated alone by ``evaluate_raw``, and the adopted
    point (the pattern point if strictly better than the exploration
    point, else the exploration point; an infeasible pattern point never
    is) becomes the new base, goes on the tabu list and is offered to the
    shared elite archive (``Threads.adopt``). Only the adopted point is
    built as a ``SearchPoint``, from copies of the base row and the
    winner's block row. The pattern point differs from the base in the
    winner's coordinate only, as the winner does, so it is screened
    against the thread's tabu list with the mask of its axial screen and
    its raw row is the winner's with that one coordinate denormalized.
    The engine steps every thread here; only ``hj_step`` and
    ``memory.TabuList.is_tabu`` are left for ``perfbench/tracer.py``.
    The outcome is IMPROVED when the adopted point beats the thread's
    best from before the step, STALLED when no allowable move existed.
    """
    if not 0.0 < k_pattern < math.inf:  # also rejects NaN, as SearchConfig.validate does
        raise ValueError(f"pattern factor must be positive and finite, got {k_pattern!r}")
    rows = list(rows)
    k = float(k_pattern)
    x, step, tabu, raw = threads.x, threads.step, threads.tabu, threads.raw
    if rows != list(range(len(x))):  # some threads, or out of row order: copies
        x, step, tabu, raw = x[rows], step[rows], tabu[rows], raw[rows]
    tabu_lists, evals = threads.tabu_lists, threads.evals
    moves, block, values = explore(x, raw, step, tabu, objective, tabu_lists[0].match_tol)
    space = objective.space
    axes, moved, rest_near = moves.axis, moves.moved, moves.rest_near

    outcomes: list[str] = []
    stop = 0
    for t, (i, count) in enumerate(zip(rows, moves.counts)):
        start, stop = stop, stop + count
        evals[i] += count
        if count:
            # The first lowest row; +inf there means no feasible row, as
            # infeasible rows carry INFEASIBLE_VALUE and feasible ones are finite.
            w = start + int(values[start:stop].argmin())
            value = values.item(w)
        if not count or value == INFEASIBLE_VALUE:
            outcomes.append(STALLED)
            continue
        a, m = axes.item(w), moved.item(w)
        base_x = x[t, 0]
        adopted = None
        # No pattern evaluation when clamping collapsed the pattern point
        # onto the exploration point, and never adopt a tabu one.
        p_x = _pattern_point(base_x, a, m, k)
        if p_x is not None:
            p = p_x.item(a)
            if not tabu_lists[i].axial_is_tabu(rest_near[t], a, p):
                p_raw = block[w].copy()
                p_raw[a] = denormalize_coordinate(space, a, p)
                p_value, _ = evaluate_raw(objective, p_raw)
                evals[i] += 1
                # An infeasible pattern point's INFEASIBLE_VALUE is never below the finite winner's.
                if p_value < value:
                    adopted = SearchPoint(x=p_x, value=p_value, feasible=True, raw=p_raw)
        if adopted is None:
            move_x = base_x.copy()
            move_x[a] = m
            adopted = SearchPoint(x=move_x, value=value, feasible=True, raw=block[w].copy())
        best_before = threads.best[i].value
        threads.adopt(i, adopted)
        outcomes.append(IMPROVED if adopted.value < best_before - IMPROVE_TOL else NOT_IMPROVED)
    return outcomes


def hj_step(state: "Threads", objective: Objective, k_pattern: float = 1.0) -> str:
    """One exploration + pattern-move cycle from the base of a one-thread
    table ``state``: ``hj_stage`` for its row. Returns the outcome. The
    engine does not call it; it stays as a ``perfbench/tracer.py`` boundary."""
    return hj_stage(state, [0], objective, k_pattern)[0]
