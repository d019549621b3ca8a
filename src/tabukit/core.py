"""Problem-independent types: bounded parameter spaces, normalized
coordinates, objective wrappers and evaluation counting.

All search logic works in normalized [0, 1] coordinates; objective
functions receive vectors in their own (denormalized) units. The engine
always minimizes internally: maximization problems are negated at the
evaluation boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

#: Engine value stored for infeasible points. Infeasible points are never
#: selected as moves, never become a thread best and are never archived,
#: so their raw objective value is irrelevant to the search.
INFEASIBLE_VALUE = math.inf


@dataclass(frozen=True)
class ParameterSpace:
    """Box-bounded continuous search region with a per-variable resolution."""

    lower: np.ndarray
    upper: np.ndarray
    min_step: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        min_step = np.asarray(self.min_step, dtype=float)
        if lower.shape != upper.shape or lower.shape != min_step.shape:
            raise ValueError("lower, upper and min_step must have equal length")
        if lower.ndim != 1 or lower.size == 0:
            raise ValueError("bounds must be non-empty 1-D vectors")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if not np.all((min_step > 0) & (min_step <= upper - lower)):
            raise ValueError("min_step must satisfy 0 < min_step <= upper - lower")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "min_step", min_step)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    @classmethod
    def cube(cls, lower: float, upper: float, dimension: int, min_step: float) -> "ParameterSpace":
        """Space with identical bounds and resolution in every variable."""
        ones = np.ones(dimension)
        return cls(lower * ones, upper * ones, min_step * ones)


@dataclass(frozen=True, eq=False)
class SearchPoint:
    """A normalized parameter vector with its engine objective value.

    ``value`` is in engine sense (lower is better); infeasible points
    carry ``INFEASIBLE_VALUE``.
    """

    x: np.ndarray
    value: float
    feasible: bool


@dataclass(frozen=True)
class Objective:
    """A black-box objective over a parameter space.

    ``fn`` maps a denormalized parameter vector to ``(value, feasible)``
    and must be deterministic. ``sense`` states whether the raw value is
    to be minimized or maximized; the engine sees minimization only.

    ``fn_batch`` is optional. It maps a ``(k, N)`` block of denormalized
    rows to ``(values, feasible)`` arrays of shape ``(k,)`` and must
    agree with ``fn`` row by row, bit for bit; values on infeasible rows
    are ignored. Without it, blocks are evaluated by calling ``fn`` on
    each row in order.
    """

    space: ParameterSpace
    fn: Callable[[np.ndarray], tuple[float, bool]]
    sense: str = MINIMIZE
    name: str = ""
    fn_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError(f"unknown sense {self.sense!r}")

    def native_value(self, engine_value: float) -> float:
        """Convert an engine (minimized) value back to the problem's sense."""
        return -engine_value if self.sense == MAXIMIZE else engine_value


class EvalCounter:
    """Count of true objective evaluations.

    Tabu-rejected candidates are never evaluated and therefore never
    counted; that bookkeeping is what makes the eval columns of the
    result tables meaningful.
    """

    def __init__(self):
        self._count = 0

    def increment(self, n: int = 1) -> None:
        self._count += n

    @property
    def count(self) -> int:
        return self._count


def normalize(space: ParameterSpace, raw: np.ndarray) -> np.ndarray:
    """Map a raw in-bounds vector to [0, 1]^N coordinates."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (space.dimension,):
        raise ValueError(f"expected {space.dimension} components, got {raw.shape}")
    if np.any(raw < space.lower) or np.any(raw > space.upper):
        raise ValueError("vector outside bounds; clamp before normalizing")
    return (raw - space.lower) / space.span


def denormalize(space: ParameterSpace, x: np.ndarray) -> np.ndarray:
    """Map normalized [0, 1]^N coordinates back to problem units.

    Accepts one vector or a ``(k, N)`` block of rows. The result is
    clamped to ``[lower, upper]``: ``lower + 1.0 * span`` can round past
    ``upper``, and objectives are promised in-bounds input.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != space.dimension:
        raise ValueError(f"expected {space.dimension} components, got {x.shape}")
    return np.clip(space.lower + x * space.span, space.lower, space.upper)


def clamp(x: np.ndarray) -> np.ndarray:
    """Clip a normalized vector into [0, 1] componentwise."""
    return np.clip(x, 0.0, 1.0)


def evaluate_block(
    objective: Objective, counter: EvalCounter, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a ``(k, N)`` block of normalized rows, counting k evaluations.

    Returns engine values (infeasible rows carry ``INFEASIBLE_VALUE``)
    and the feasibility mask. Uses ``objective.fn_batch`` when present,
    else calls ``fn`` on each row in order. Raises ValueError if the
    objective reports a non-finite value for a feasible row; that is an
    objective bug, not a search condition.
    """
    raw = denormalize(objective.space, X)
    k = len(raw)
    if objective.fn_batch is not None:
        values, feasible = objective.fn_batch(raw)
        counter.increment(k)
        values = np.asarray(values, dtype=float)
        feasible = np.asarray(feasible, dtype=bool)
        if values.shape != (k,) or feasible.shape != (k,):
            raise ValueError(
                f"objective {objective.name!r}: fn_batch returned shapes "
                f"{values.shape} and {feasible.shape} for {k} rows"
            )
    else:
        values = np.full(k, INFEASIBLE_VALUE)
        feasible = np.zeros(k, dtype=bool)
        for r, row in enumerate(raw):
            value, ok = objective.fn(row)
            counter.increment()
            if ok:
                feasible[r] = True
                values[r] = value
    bad = feasible & ~np.isfinite(values)
    if bad.any():
        value = float(values[np.argmax(bad)])
        raise ValueError(f"objective {objective.name!r} returned non-finite value {value!r} for a feasible point")
    if objective.sense == MAXIMIZE:
        values = -values
    return np.where(feasible, values, INFEASIBLE_VALUE), feasible


def evaluate(objective: Objective, counter: EvalCounter, x: np.ndarray) -> SearchPoint:
    """Evaluate one normalized point, counting exactly one evaluation.

    A one-row call to ``evaluate_block``, with the same error for a
    non-finite feasible value.
    """
    x = np.array(x, dtype=float, copy=True)
    values, feasible = evaluate_block(objective, counter, x[np.newaxis])
    return SearchPoint(x=x, value=float(values[0]), feasible=bool(feasible[0]))
