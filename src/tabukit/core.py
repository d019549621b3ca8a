"""Problem-independent types: bounded parameter spaces, normalized
coordinates, objective wrappers and evaluation.

All search logic works in normalized [0, 1] coordinates; objective
functions receive vectors in their own (denormalized) units. The engine
always minimizes internally: maximization problems are negated at the
evaluation boundary.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

#: Engine value stored for infeasible points. Infeasible points are never
#: selected as moves, never become a thread best and are never archived,
#: so their raw objective value is irrelevant to the search.
INFEASIBLE_VALUE = math.inf


def check_integer(value, name: str) -> int:
    """``value`` as an int, by ``operator.index``: numpy integers pass, and
    a bool, a float or a string is a ValueError that names ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ParameterSpace:
    """Box-bounded continuous search region with a per-variable resolution."""

    lower: np.ndarray
    upper: np.ndarray
    min_step: np.ndarray
    #: ``upper - lower``, computed once.
    span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Adding 0.0 turns a -0.0 bound into 0.0, so no clamp in
        # denormalize has to choose between two zeros of opposite sign.
        lower = np.asarray(self.lower, dtype=float) + 0.0
        upper = np.asarray(self.upper, dtype=float) + 0.0
        min_step = np.asarray(self.min_step, dtype=float)
        if lower.shape != upper.shape or lower.shape != min_step.shape:
            raise ValueError("lower, upper and min_step must have equal length")
        if lower.ndim != 1 or lower.size == 0:
            raise ValueError("bounds must be non-empty 1-D vectors")
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or a span past the float range
            bad = ~np.isfinite(upper - lower)
        if bad.any():
            raise ValueError(
                f"bounds must be finite, with a finite span: at indices {np.flatnonzero(bad).tolist()}, "
                f"lower {lower[bad].tolist()} and upper {upper[bad].tolist()}"
            )
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if not np.all((min_step > 0) & (min_step <= upper - lower)):
            raise ValueError("min_step must satisfy 0 < min_step <= upper - lower")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "min_step", min_step)
        object.__setattr__(self, "span", upper - lower)

    @property
    def dimension(self) -> int:
        return self.lower.size

    @classmethod
    def cube(cls, lower: float, upper: float, dimension: int, min_step: float) -> "ParameterSpace":
        """Space with identical bounds and resolution in every variable."""
        ones = np.ones(check_integer(dimension, "dimension"))
        return cls(lower * ones, upper * ones, min_step * ones)


@dataclass(eq=False)
class SearchPoint:
    """A normalized parameter vector with its engine objective value.

    ``value`` is in engine sense (lower is better); infeasible points
    carry ``INFEASIBLE_VALUE``. ``raw`` is the denormalized row that the
    objective saw, ``denormalize`` of ``x`` bit for bit; every point
    that comes out of an evaluation carries it.
    """

    x: np.ndarray
    value: float
    feasible: bool
    raw: np.ndarray | None = None


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

    ``fn_axial`` is optional too: ``fn_axial(raw, bases, counts, axis)``
    returns what ``fn_batch(raw)`` would, for an axial block whose
    structure the engine guarantees. Thread t owns the next ``counts[t]``
    rows of ``raw``, in thread order (a count may be 0), and each of
    them is ``bases[t]`` with at most coordinate ``axis[r]`` changed.

    One point always goes to ``fn`` (``evaluate``, ``evaluate_raw``), a
    block to ``fn_axial`` when it comes with its structure and there is
    one, else to ``fn_batch`` when there is one (``evaluate_raw_block``).
    """

    space: ParameterSpace
    fn: Callable[[np.ndarray], tuple[float, bool]]
    sense: str = MINIMIZE
    name: str = ""
    fn_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    fn_axial: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError(f"unknown sense {self.sense!r}")

    def native_value(self, engine_value: float) -> float:
        """Convert an engine (minimized) value back to the problem's sense."""
        return -engine_value if self.sense == MAXIMIZE else engine_value


def check_finite(x: np.ndarray, name: str) -> None:
    """Raise ValueError naming ``name`` and the non-finite coordinates of ``x``, if any."""
    finite = np.isfinite(x)
    if np.count_nonzero(finite) != finite.size:
        bad = np.flatnonzero(~finite)
        raise ValueError(f"{name} has non-finite coordinates at indices {bad.tolist()}: {x[bad].tolist()}")


def normalize(space: ParameterSpace, raw: np.ndarray) -> np.ndarray:
    """Map a raw, finite, in-bounds vector to [0, 1]^N coordinates."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (space.dimension,):
        raise ValueError(f"expected {space.dimension} components, got {raw.shape}")
    check_finite(raw, "vector")
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
    # np.clip's result without its wrapper calls: no bound is -0.0, so
    # no tie between zeros of opposite sign can arise.
    return np.minimum(np.maximum(space.lower + x * space.span, space.lower), space.upper)


def clamp(x: np.ndarray) -> np.ndarray:
    """Clip a normalized vector into [0, 1] componentwise.

    Equal to ``np.clip(x, 0.0, 1.0)`` byte for byte, -0.0 and NaN
    included: ``x`` goes second, so a tie keeps it.
    """
    return np.minimum(1.0, np.maximum(0.0, x))


def denormalize_coordinate(space: ParameterSpace, axis: int, x: float) -> float:
    """Coordinate ``axis`` of ``denormalize`` at normalized value ``x``,
    in Python floats with the same bits: no bound is -0.0, so Python's
    ``max`` and ``min`` meet no tie that numpy's would break otherwise."""
    lower = space.lower.item(axis)
    return min(max(lower + x * space.span.item(axis), lower), space.upper.item(axis))


def denormalize_coordinates(space: ParameterSpace, axis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Entry ``axis[r]`` of ``denormalize`` at normalized value ``x[r]``,
    for each r: the same operations on the same operands, so the same
    bits."""
    lower = space.lower.take(axis)
    raw = lower + x * space.span.take(axis)
    np.maximum(raw, lower, out=raw)
    return np.minimum(raw, space.upper.take(axis), out=raw)


def _checked(objective: Objective, value: float) -> float:
    """The engine value of a feasible raw ``value``; a non-finite one is
    an objective bug, not a search condition, and raises ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"objective {objective.name!r} returned non-finite value {value!r} for a feasible point")
    return -value if objective.sense == MAXIMIZE else value


def _evaluate_fn(objective: Objective, raw: np.ndarray) -> tuple[float, bool]:
    """(engine value, feasible) of ``objective.fn`` at one raw point."""
    value, ok = objective.fn(raw)
    if not ok:
        return INFEASIBLE_VALUE, False
    return _checked(objective, float(value)), True


def evaluate_raw_block(
    objective: Objective,
    raw: np.ndarray,
    axial: tuple[np.ndarray, Sequence[int], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a ``(k, N)`` block of denormalized rows: k evaluations.

    ``axial`` is the block's structure as ``Objective.fn_axial`` states
    it, ``(bases, counts, axis)``, or None. Returns engine values
    (infeasible rows carry ``INFEASIBLE_VALUE``) and the feasibility
    mask. Uses ``objective.fn_axial`` for a block with its structure,
    else ``objective.fn_batch``, else ``objective.fn`` on each row in
    order. Raises ValueError if the objective returns arrays of another
    shape, or a non-finite value for a feasible row.
    """
    k = len(raw)
    if axial is not None and objective.fn_axial is not None:
        method = "fn_axial"
        values, feasible = objective.fn_axial(raw, *axial)
    elif objective.fn_batch is not None:
        method = "fn_batch"
        values, feasible = objective.fn_batch(raw)
    else:
        points = [_evaluate_fn(objective, row) for row in raw]
        return np.array([v for v, _ in points], dtype=float), np.array([ok for _, ok in points], dtype=bool)
    values = np.asarray(values, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    if values.shape != (k,) or feasible.shape != (k,):
        raise ValueError(
            f"objective {objective.name!r}: {method} returned shapes {values.shape} and {feasible.shape} for {k} rows"
        )
    finite = np.isfinite(values)
    if np.count_nonzero(finite) != k:
        bad = feasible & ~finite
        if np.count_nonzero(bad):
            _checked(objective, float(values[bad.argmax()]))  # raises
    if objective.sense == MAXIMIZE:
        values = -values
    if np.count_nonzero(feasible) == k:
        return values, feasible
    return np.where(feasible, values, INFEASIBLE_VALUE), feasible


def evaluate_raw(objective: Objective, x: np.ndarray, raw: np.ndarray) -> SearchPoint:
    """Evaluate the normalized point ``x``, whose denormalized form is
    ``raw``: exactly one evaluation.

    Calls ``objective.fn`` on ``raw``, never ``fn_batch``, and raises the
    same ValueError as ``evaluate_raw_block`` for a non-finite feasible
    value. The returned point holds ``x`` and ``raw`` themselves.
    """
    value, ok = objective.fn(raw)
    if not ok:
        return SearchPoint(x=x, value=INFEASIBLE_VALUE, feasible=False, raw=raw)
    return SearchPoint(x=x, value=_checked(objective, float(value)), feasible=True, raw=raw)


def evaluate(objective: Objective, x: np.ndarray) -> SearchPoint:
    """Evaluate one finite normalized point: ``evaluate_raw`` of a copy of
    ``x`` and its denormalized form."""
    x = np.array(x, dtype=float, copy=True)
    if x.ndim != 1:  # denormalize would take a block
        raise ValueError(f"expected {objective.space.dimension} components, got {x.shape}")
    check_finite(x, "point")
    return evaluate_raw(objective, x, denormalize(objective.space, x))
