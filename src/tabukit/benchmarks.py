"""Numerical test objectives: Schwefel sine landscape and the constrained bump.

Both are exposed as factory functions returning ready-to-run Objective
instances over their conventional bounds.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .core import MAXIMIZE, MINIMIZE, Objective, ParameterSpace, check_integer

#: Location of the Schwefel minimum along every axis.
SCHWEFEL_ARGMIN = 420.9687
#: Resolvable step in raw units for all built-in benchmark spaces.
BENCHMARK_MIN_STEP = 1e-4

BUMP_PRODUCT_FLOOR = 0.75
_LOG_PRODUCT_FLOOR = math.log(BUMP_PRODUCT_FLOOR)


def _schwefel_rows(x: np.ndarray) -> np.ndarray:
    """Schwefel values along the last axis of a vector or a row block."""
    terms = np.abs(x)
    np.sqrt(terms, out=terms)
    np.sin(terms, out=terms)
    np.multiply(x, terms, out=terms)
    return -np.add.reduce(terms, axis=-1)


def schwefel(x: np.ndarray) -> float:
    """Schwefel function, minimization form.

    f(x) = -sum(x_i * sin(sqrt(|x_i|))), so the deep well at
    x_i = 420.9687 on every axis is the global minimum, about -418.983
    per dimension (-4189.83 in 10-D).
    """
    return float(_schwefel_rows(np.asarray(x, dtype=float)))


@functools.lru_cache(maxsize=16)
def _bump_weights(n: int) -> np.ndarray:
    """The bump denominator's weights 1.0 ... n, made once per dimension."""
    weights = np.arange(1.0, n + 1.0)
    weights.flags.writeable = False
    return weights


def _bump_terms(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bump numerator and denominator along the last axis.

    num = sum cos^4 - 2 prod cos^2, den = sum(i * x_i^2), for a vector
    or for every row of a block, where ``c`` is cos(x).
    """
    num = np.add.reduce(c**4, axis=-1) - 2.0 * np.multiply.reduce(c**2, axis=-1)
    squares = np.square(x)
    np.multiply(squares, _bump_weights(x.shape[-1]), out=squares)
    return num, np.add.reduce(squares, axis=-1)


def _signed_ratio(num, den):
    return num / den


def _keane_ratio(num, den):
    return np.abs(num) / np.sqrt(den)


def _bump(x: np.ndarray, ratio) -> float:
    x = np.asarray(x, dtype=float)
    num, den = _bump_terms(np.cos(x), x)
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


def _product_logs(x: np.ndarray) -> np.ndarray:
    """Elementwise log of x, with -inf for entries that are not positive
    and finite, so that a log sum fails the product floor whenever an
    entry is not positive, with no floating-point warning on the way."""
    logs = np.empty_like(x)
    logs.fill(-math.inf)
    finite_positive = x > 0.0
    finite_positive &= x < math.inf
    return np.log(x, out=logs, where=finite_positive)


def _bump_feasible_rows(x: np.ndarray, log_sums: np.ndarray) -> np.ndarray:
    """Both bump constraints along the last axis of a vector or a row block.

    ``log_sums`` sums ``_product_logs(x)`` along the same axis. The
    product test runs in log space so 50-component products neither
    overflow nor underflow; a nonpositive component's -inf fails it,
    which is the positivity test. (An infinite component fails the sum
    test; its log is -inf too, so that no sum meets -inf with +inf.)
    """
    return (np.add.reduce(x, axis=-1) < 7.5 * x.shape[-1]) & (log_sums > _LOG_PRODUCT_FLOOR)


def bump_feasible(x: np.ndarray) -> bool:
    """Both bump constraints: prod(x_i) > 0.75 with every x_i > 0, and
    sum(x_i) < 7.5 n."""
    x = np.asarray(x, dtype=float)
    return bool(_bump_feasible_rows(x, np.add.reduce(_product_logs(x), axis=-1)))


def _bump_values(ratio, num: np.ndarray, den: np.ndarray, feasible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's ``(values, feasible)``: the ratio on feasible rows, 0.0 elsewhere."""
    values = np.zeros(len(feasible))
    values[feasible] = ratio(num[feasible], den[feasible])
    return values, feasible


def _bump_axial(ratio, raw: np.ndarray, bases: np.ndarray, counts, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bump's ``fn_axial``: ``fn_batch`` of an axial block, from its structure.

    Each elementwise term (the feasibility log, cos, its fourth and
    second powers, and i * x_i^2) is computed only on the T * N base
    entries and the k moved entries. Each term is then spread into a
    ``(k, N)`` block: the base rows repeated by their counts, with each
    row's moved entry set. An entry off the moved one has its base's
    bits, so every entry of the block is the term of ``raw``'s entry in
    its place. Each block is reduced over full rows, as ``fn`` reduces
    its one row, so every row matches ``fn`` bit for bit. Each block is
    reduced before the next one is built, so that the kernel holds one
    ``(k, N)`` temporary at a time: holding two put the block path into
    glibc's heap-trimming state, in which every stage returns its
    temporaries to the OS and faults them back in.
    """
    raw = np.asarray(raw, dtype=float)
    k, n = raw.shape
    t_n = bases.size
    flat = np.arange(0, k * n, n)
    flat += axis  # the flat index of each row's moved entry
    entries = np.concatenate((bases.reshape(-1), raw.take(flat)))

    def spread(terms):
        block = terms[:t_n].reshape(-1, n).repeat(counts, axis=0)
        block.put(flat, terms[t_n:])
        return block

    feasible = _bump_feasible_rows(raw, np.add.reduce(spread(_product_logs(entries)), axis=-1))
    c = np.cos(entries)
    num = np.add.reduce(spread(c**4), axis=-1) - 2.0 * np.multiply.reduce(spread(c**2), axis=-1)
    squares = np.square(entries)
    weights = _bump_weights(n)
    base_squares = squares[:t_n].reshape(-1, n)
    base_squares *= weights
    squares[t_n:] *= weights.take(axis)
    return _bump_values(ratio, num, np.add.reduce(spread(squares), axis=-1), feasible)


#: Bump formula per variant name, as a ratio of ``_bump_terms``.
BUMP_VARIANTS = {"keane": _keane_ratio, "signed": _signed_ratio}


def _all_feasible(k: int) -> np.ndarray:
    """The all-true feasibility mask of a k-row block, without ``np.ones``."""
    mask = np.empty(k, dtype=bool)
    mask.fill(True)
    return mask


def make_schwefel10() -> Objective:
    """10-D Schwefel objective on [-500, 500]^10."""
    space = ParameterSpace.cube(-500.0, 500.0, 10, min_step=BENCHMARK_MIN_STEP)
    return Objective(
        space=space,
        fn=lambda raw: (schwefel(raw), True),
        sense=MINIMIZE,
        name="schwefel10",
        fn_batch=lambda raw: (_schwefel_rows(np.asarray(raw, dtype=float)), _all_feasible(len(raw))),
    )


def make_bump(n: int, variant: str = "keane") -> Objective:
    """Constrained bump objective on [0, 10]^n, maximized.

    variant selects the formula: "keane" (|num| / sqrt(den), the usual
    published shape with a maximum near 0.8) or "signed" (num / den with
    the squared denominator, a much flatter surface).
    """
    n = check_integer(n, "bump dimension")
    if n < 2:
        raise ValueError(f"bump needs at least 2 dimensions, got {n}")
    try:
        ratio = BUMP_VARIANTS[variant]
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        raise ValueError(f"unknown bump variant: {variant!r}") from None

    def fn(raw: np.ndarray) -> tuple[float, bool]:
        if not bump_feasible(raw):
            return 0.0, False
        return _bump(raw, ratio), True

    def fn_batch(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw = np.asarray(raw, dtype=float)
        feasible = _bump_feasible_rows(raw, np.add.reduce(_product_logs(raw), axis=-1))
        return _bump_values(ratio, *_bump_terms(np.cos(raw), raw), feasible)

    space = ParameterSpace.cube(0.0, 10.0, n, min_step=BENCHMARK_MIN_STEP)
    fn_axial = functools.partial(_bump_axial, ratio)
    return Objective(space=space, fn=fn, sense=MAXIMIZE, name=f"bump{n}", fn_batch=fn_batch, fn_axial=fn_axial)
