"""Numerical test objectives: Schwefel sine landscape and the constrained bump.

Both are exposed as factory functions returning ready-to-run Objective
instances over their conventional bounds.
"""
from __future__ import annotations

import math

import numpy as np

from .core import MAXIMIZE, MINIMIZE, Objective, ParameterSpace

#: Location of the Schwefel minimum along every axis.
SCHWEFEL_ARGMIN = 420.9687
#: Resolvable step in raw units for all built-in benchmark spaces.
BENCHMARK_MIN_STEP = 1e-4

BUMP_PRODUCT_FLOOR = 0.75


def _schwefel_rows(x: np.ndarray) -> np.ndarray:
    """Schwefel values along the last axis of a vector or a row block."""
    return -(x * np.sin(np.sqrt(np.abs(x)))).sum(axis=-1)


def schwefel(x: np.ndarray) -> float:
    """Schwefel function, minimization form.

    f(x) = -sum(x_i * sin(sqrt(|x_i|))), so the deep well at
    x_i = 420.9687 on every axis is the global minimum, about -418.983
    per dimension (-4189.83 in 10-D).
    """
    return float(_schwefel_rows(np.asarray(x, dtype=float)))


def _bump_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bump numerator and denominator along the last axis.

    num = sum cos^4 - 2 prod cos^2, den = sum(i * x_i^2), for a vector
    or for every row of a block.
    """
    c = np.cos(x)
    num = np.sum(c**4, axis=-1) - 2.0 * np.prod(c**2, axis=-1)
    den = np.sum(np.arange(1, x.shape[-1] + 1) * x**2, axis=-1)
    return num, den


def _signed_ratio(num, den):
    return num / den


def _keane_ratio(num, den):
    return np.abs(num) / np.sqrt(den)


def _bump(x: np.ndarray, ratio) -> float:
    num, den = _bump_terms(np.asarray(x, dtype=float))
    if den == 0.0:
        raise ZeroDivisionError("bump ratio undefined at the origin")
    return float(ratio(num, den))


def bump_value(x: np.ndarray) -> float:
    """Signed bump ratio: (sum cos^4 - 2 prod cos^2) / sum(i * x_i^2).

    The numerator may be negative and the denominator is the plain
    index-weighted sum of squares. See keane_bump for the variant with
    an absolute value and square-root denominator.
    """
    return _bump(x, _signed_ratio)


def keane_bump(x: np.ndarray) -> float:
    """Classic bump formulation: |sum cos^4 - 2 prod cos^2| / sqrt(sum i*x_i^2)."""
    return _bump(x, _keane_ratio)


def _positive_logs(x: np.ndarray) -> np.ndarray:
    """Elementwise log of x, with 0 (the log of 1) for nonpositive entries,
    so a block with such entries raises no floating-point warning."""
    return np.log(np.where(x > 0.0, x, 1.0))


def _bump_feasible_rows(x: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Both bump constraints along the last axis of a vector or a row block.

    ``logs`` is ``_positive_logs(x)``. The product test runs in log space
    so 50-component products neither overflow nor underflow, and
    nonpositive components fail the positivity test instead.
    """
    return (
        (np.sum(x, axis=-1) < 7.5 * x.shape[-1])
        & np.logical_and.reduce(x > 0.0, axis=-1)
        & (np.sum(logs, axis=-1) > math.log(BUMP_PRODUCT_FLOOR))
    )


def bump_feasible(x: np.ndarray) -> bool:
    """Both bump constraints: prod(x_i) > 0.75 and sum(x_i) < 7.5 n."""
    x = np.asarray(x, dtype=float)
    return bool(_bump_feasible_rows(x, _positive_logs(x)))


def _column_runs(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of equal values down the columns of a ``(k, N)`` block.

    Returns ``distinct``, the entries that differ from the one above them
    in their column (the first row included), in column-major order, and
    a C-contiguous ``(k, N)`` index of the distinct value that each entry
    repeats. ``0.0`` and ``-0.0`` count as equal, so
    ``term(distinct)[index]`` equals ``term(block)`` for any elementwise
    term that agrees on them.
    """
    k, n = block.shape
    columns = block.T.copy()
    new = np.empty((n, k), dtype=bool)
    new[:, :1] = True
    np.not_equal(columns[:, 1:], columns[:, :-1], out=new[:, 1:])
    index = np.cumsum(new) - 1
    return columns[new], np.ascontiguousarray(index.reshape(n, k).T)


#: Bump formula per variant name, as a ratio of ``_bump_terms``.
BUMP_VARIANTS = {"keane": _keane_ratio, "signed": _signed_ratio}


def make_schwefel10() -> Objective:
    """10-D Schwefel objective on [-500, 500]^10."""
    space = ParameterSpace.cube(-500.0, 500.0, 10, min_step=BENCHMARK_MIN_STEP)
    return Objective(
        space=space,
        fn=lambda raw: (schwefel(raw), True),
        sense=MINIMIZE,
        name="schwefel10",
        fn_batch=lambda raw: (_schwefel_rows(raw), np.ones(len(raw), dtype=bool)),
    )


def make_bump(n: int, variant: str = "keane") -> Objective:
    """Constrained bump objective on [0, 10]^n, maximized.

    variant selects the formula: "keane" (|num| / sqrt(den), the usual
    published shape with a maximum near 0.8) or "signed" (num / den with
    the squared denominator, a much flatter surface).
    """
    if n < 2:
        raise ValueError("bump needs at least 2 dimensions")
    try:
        ratio = BUMP_VARIANTS[variant]
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        raise ValueError(f"unknown bump variant: {variant!r}") from None

    def fn(raw: np.ndarray) -> tuple[float, bool]:
        if not bump_feasible(raw):
            return 0.0, False
        return _bump(raw, ratio), True

    def fn_batch(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The rows of a stacked axial block repeat their base in all but
        # one coordinate, so the elementwise terms (all equal at 0.0 and
        # -0.0) are computed once per run of equal values down a column.
        # The reductions still run over full rows, so each row matches fn
        # bit for bit.
        distinct, index = _column_runs(raw)
        feasible = _bump_feasible_rows(raw, _positive_logs(distinct)[index])
        c = np.cos(distinct)
        num = np.sum((c**4)[index], axis=-1) - 2.0 * np.prod((c**2)[index], axis=-1)
        den = np.sum(np.arange(1, n + 1) * raw**2, axis=-1)
        values = np.zeros(len(raw))
        values[feasible] = ratio(num[feasible], den[feasible])
        return values, feasible

    space = ParameterSpace.cube(0.0, 10.0, n, min_step=BENCHMARK_MIN_STEP)
    return Objective(space=space, fn=fn, sense=MAXIMIZE, name=f"bump{n}", fn_batch=fn_batch)
