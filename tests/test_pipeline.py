"""Batched candidate pipeline: block objectives, tabu screening and counting.

The per-candidate rules that the block pipeline replaced are kept here
as reference implementations: every axial probe built, clamped, screened
and evaluated one at a time, the best taken by first strict minimum.
The block path must agree with them exactly.
"""
import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit.control import CONTINUE, SearchConfig, run_single
from tabukit.core import MAXIMIZE, EvalCounter, Objective, ParameterSpace, SearchPoint, clamp, evaluate
from tabukit.hillclimb import axial_moves, explore
from tabukit.hydraulic import make_circuit
from tabukit.memory import TabuList
from tabukit.multithread import MultiConfig, run_multi

BUILT_IN = {
    "schwefel10": make_schwefel10,
    "bump20-keane": lambda: make_bump(20, "keane"),
    "bump20-signed": lambda: make_bump(20, "signed"),
    "bump50-keane": lambda: make_bump(50, "keane"),
    "bump50-signed": lambda: make_bump(50, "signed"),
}


def reference_is_tabu(entries, x, tol):
    return any(np.max(np.abs(entry - x)) <= tol for entry in entries)


def reference_axial(base_x, step, entries, tol):
    """(candidates as (x, axis, sign), tabu_rejected) built one at a time."""
    out, rejected = [], 0
    for i in range(base_x.size):
        for sign in (1, -1):
            x = base_x.copy()
            x[i] += sign * step
            x = clamp(x)
            if x[i] == base_x[i]:
                continue
            if reference_is_tabu(entries, x, tol):
                rejected += 1
                continue
            out.append((x, i, sign))
    return out, rejected


# --- fn_batch agrees with fn bit for bit -----------------------------------


@st.composite
def raw_blocks(draw, objective):
    """Blocks of in-bounds rows, with bounds, zeros and constraint edges."""
    space = objective.space
    n = space.dimension
    lo, hi = float(space.lower[0]), float(space.upper[0])
    special = [lo, hi, 0.0, 0.5 * (lo + hi)]
    edge = hi
    if objective.name.startswith("bump"):
        edge = 7.5  # all-7.5 rows sit exactly on sum == 7.5 n
        special += [edge, float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 10.0)), 0.75, 1.0]
    coord = st.one_of(st.floats(lo, hi), st.sampled_from(special))
    kind = st.sampled_from(["mixed", "constant", "upper", "edge"])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(kind)
        if k == "mixed":
            row = draw(st.lists(coord, min_size=n, max_size=n))
        elif k == "constant":
            row = [draw(coord)] * n
        elif k == "upper":
            row = draw(st.lists(coord, min_size=n, max_size=n))
            row[draw(st.integers(0, n - 1))] = hi
        else:
            row = [edge] * n
            row[draw(st.integers(0, n - 1))] = draw(coord)
        rows.append(row)
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("name", sorted(BUILT_IN))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fn_batch_matches_fn_bit_for_bit(name, data):
    objective = BUILT_IN[name]()
    raw = data.draw(raw_blocks(objective))
    values, feasible = objective.fn_batch(raw.copy())
    assert values.shape == feasible.shape == (len(raw),)
    assert feasible.dtype == bool
    for r, row in enumerate(raw):
        value, ok = objective.fn(row.copy())
        assert bool(feasible[r]) == ok, (r, row)
        if ok:
            assert float(values[r]).hex() == float(value).hex(), (r, row)


def test_fn_batch_edges_exercised():
    bump = make_bump(4)
    raw = np.array([[7.5] * 4, [np.nextafter(7.5, 0.0)] * 4, [0.0, 5.0, 5.0, 5.0], [10.0, 1.0, 1.0, 1.0]])
    _, feasible = bump.fn_batch(raw)
    assert feasible.tolist() == [False, True, False, True]
    assert [bump.fn(row)[1] for row in raw] == feasible.tolist()


# --- TabuList.screen is is_tabu over a block --------------------------------

GRID = st.integers(0, 16).map(lambda k: k / 16.0)  # dyadic: distances are exact


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 4),
    capacity=st.integers(1, 4),
    tol=st.sampled_from([0.0, 1 / 16, 1 / 8, 1e-6]),
    data=st.data(),
)
def test_screen_matches_is_tabu_and_reference(dim, capacity, tol, data):
    vec = st.lists(st.one_of(GRID, st.floats(0.0, 1.0)), min_size=dim, max_size=dim).map(np.array)
    pushed = data.draw(st.lists(vec, max_size=3 * capacity))
    tabu = TabuList(capacity, tol)
    held = deque(maxlen=capacity)
    for x in pushed:
        tabu.push(x)
        held.append(x.copy())
    assert len(tabu) == len(held)
    assert [e.tolist() for e in tabu.entries] == [e.tolist() for e in held]  # oldest first

    near = st.sampled_from(list(held)).map(lambda e: e + tol) if held else vec
    X = np.array(data.draw(st.lists(st.one_of(vec, near), min_size=1, max_size=8)))
    mask = tabu.screen(X)
    assert mask.shape == (len(X),)
    for r in range(len(X)):
        assert mask[r] == tabu.is_tabu(X[r]) == reference_is_tabu(held, X[r], tol)


def test_screen_distance_exactly_at_tolerance():
    tabu = TabuList(capacity=2, match_tol=0.125)
    for x in ([0.5, 0.5], [0.25, 0.25], [0.75, 0.75]):  # the first push is evicted
        tabu.push(np.array(x))
    X = np.array([[0.875, 0.75], [0.25, 0.375], [0.5, 0.5], [0.25, 0.3750001]])
    assert tabu.screen(X).tolist() == [True, True, False, False]


def test_screen_empty_list_and_empty_block():
    tabu = TabuList()
    assert tabu.screen(np.ones((3, 2))).tolist() == [False] * 3
    tabu.push(np.ones(2))
    assert tabu.screen(np.empty((0, 2))).shape == (0,)


# --- the block pipeline against the per-candidate reference ---------------


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(st.one_of(GRID, st.floats(0.0, 1.0)), min_size=1, max_size=5).map(np.array),
    step=st.sampled_from([1 / 16, 0.1, 0.25, 0.6]),
    tol=st.sampled_from([1e-6, 1 / 16]),
    data=st.data(),
)
def test_axial_moves_match_reference(base, step, tol, data):
    entries = []
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, base.size - 1))
        x = base.copy()
        x[i] += data.draw(st.sampled_from([step, -step, 0.0]))
        entries.append(clamp(x))
    tabu = TabuList(7, tol)
    for e in entries:
        tabu.push(e)
    want, rejected = reference_axial(base, step, entries, tol)
    moves = axial_moves(base, step, tabu)
    got = [(c.x, c.axis, c.sign) for c in moves.candidates]
    assert moves.tabu_rejected == rejected
    assert [(a, s) for _, a, s in got] == [(a, s) for _, a, s in want]
    for (gx, _, _), (wx, _, _) in zip(got, want):
        assert gx.tobytes() == wx.tobytes()


@pytest.mark.parametrize("name", ["schwefel10", "bump20-keane", "circuit"])
def test_explore_matches_per_candidate_reference(name):
    objective = make_circuit() if name == "circuit" else BUILT_IN[name]()
    rng = np.random.default_rng(5)
    n = objective.space.dimension
    for trial in range(30):
        base_x = rng.random(n)
        if trial % 3 == 0:
            base_x[rng.integers(n)] = 1.0
        step = float(rng.choice([0.3, 0.05, 0.001]))
        base = evaluate(objective, EvalCounter(), base_x)
        entries = [base.x]
        want_moves, _ = reference_axial(base.x, step, entries, 1e-6)
        best = None
        for x, _, _ in want_moves:
            point = evaluate(objective, EvalCounter(), x)
            if point.feasible and (best is None or point.value < best.value):
                best = point
        tabu = TabuList()
        tabu.push(base.x)
        counter = EvalCounter()
        got, moves = explore(base, step, objective, counter, tabu)
        assert counter.count == len(want_moves)
        if best is None:
            assert got is None
        else:
            assert got.x.tobytes() == best.x.tobytes()
            assert float(got.value).hex() == float(best.value).hex()


def test_explore_infeasible_rows_counted_not_chosen():
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    objective = Objective(space, fn=lambda raw: (float(raw.sum()), bool(raw[0] > 0.45)))
    base = SearchPoint(x=np.array([0.5, 0.5]), value=1.0, feasible=True)
    counter = EvalCounter()
    best, moves = explore(base, 0.1, objective, counter, TabuList())
    assert counter.count == 4
    assert moves.infeasible_rejected == 1
    assert best.x.tolist() == [0.5, 0.4]


# --- evaluation accounting over the batch and scalar paths ----------------


def counting(objective):
    """The objective with its calls, batch rows and best engine value recorded."""
    calls = {"fn": 0, "rows": 0, "best": math.inf}
    sign = -1.0 if objective.sense == MAXIMIZE else 1.0

    def fn(raw):
        calls["fn"] += 1
        value, ok = objective.fn(raw)
        if ok:
            calls["best"] = min(calls["best"], sign * value)
        return value, ok

    def fn_batch(raw):
        calls["rows"] += len(raw)
        values, feasible = objective.fn_batch(raw)
        for value, ok in zip(values, feasible):
            if ok:
                calls["best"] = min(calls["best"], sign * float(value))
        return values, feasible

    return dataclasses.replace(objective, fn=fn, fn_batch=fn_batch), calls


@pytest.mark.parametrize("name", sorted(BUILT_IN))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    method=st.sampled_from(["single", "multi"]),
    max_evals=st.integers(400, 3000),
    schedule=st.sampled_from([(5, 10, 15), (1, 2, 3)]),
)
def test_evals_equal_scalar_calls_plus_batch_rows(name, seed, method, max_evals, schedule):
    objective, calls = counting(BUILT_IN[name]())
    # The short schedule makes both threads ask for a restructure in
    # the same stage within these budgets.
    intensify, diversify, reduce = schedule
    config = SearchConfig(
        seed=seed, max_evals=max_evals, intensify_after=intensify, diversify_after=diversify, reduce_after=reduce
    )
    if method == "single":
        result = run_single(objective, config)
    else:
        result = run_multi(objective, MultiConfig(base=config))
        for stage in result.stages:
            assert sum(action != CONTINUE for action in stage) <= 1
    assert calls["rows"] > 0
    assert result.evals == calls["fn"] + calls["rows"]
    # The reported best is the minimum feasible engine value evaluated.
    assert result.best.value == calls["best"]


@pytest.mark.parametrize("name", ["schwefel10", "bump20-keane"])
def test_scalar_fallback_gives_the_same_run(name):
    objective = BUILT_IN[name]()
    scalar_only = dataclasses.replace(objective, fn_batch=None)
    for seed in (0, 1):
        config = SearchConfig(seed=seed, max_evals=1500)
        a = run_multi(objective, MultiConfig(base=config))
        b = run_multi(scalar_only, MultiConfig(base=config))
        assert (a.evals, a.terminated_by, a.history, a.stages) == (b.evals, b.terminated_by, b.history, b.stages)
        assert a.best.x.tobytes() == b.best.x.tobytes()


def test_fn_batch_wrong_shape_is_reported():
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    objective = Objective(
        space,
        fn=lambda raw: (0.0, True),
        name="short",
        fn_batch=lambda raw: (np.zeros(1), np.ones(1, dtype=bool)),
    )
    base = SearchPoint(x=np.array([0.5, 0.5]), value=0.0, feasible=True)
    with pytest.raises(ValueError, match="'short': fn_batch returned shapes"):
        explore(base, 0.1, objective, EvalCounter(), TabuList())


def test_non_finite_feasible_block_value_is_an_objective_error():
    space = ParameterSpace.cube(0.0, 1.0, 1, min_step=1e-6)
    objective = Objective(
        space,
        fn=lambda raw: (math.nan, True),
        name="broken",
        fn_batch=lambda raw: (np.full(len(raw), math.nan), np.ones(len(raw), dtype=bool)),
    )
    base = SearchPoint(x=np.array([0.5]), value=0.0, feasible=True)
    with pytest.raises(ValueError, match="'broken' returned non-finite value nan"):
        explore(base, 0.1, objective, EvalCounter(), TabuList())


def test_tabu_push_rejects_a_vector_of_another_length():
    tabu = TabuList()
    tabu.push(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="tabu entries have shape"):
        tabu.push(np.array([0.25]))
    assert tabu.entries.tolist() == [[0.5, 0.5]]
