"""Batched candidate pipeline: block objectives, tabu screening, the elite
archive and counting.

The per-candidate rules that the block pipeline replaced are stated in
``reference.py``: every axial probe built, clamped, screened and
evaluated one at a time, the best taken by first strict minimum, and
every tabu test and archive offer made against one entry at a time. The
block path must agree with them exactly.
"""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reference import Archive, Tabu, axial_probes, evaluate as reference_evaluate
from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit import control, hillclimb
from tabukit.control import CONTINUE, SearchConfig, run_single
from tabukit.core import (
    MAXIMIZE,
    MINIMIZE,
    Objective,
    ParameterSpace,
    SearchPoint,
    clamp,
    denormalize,
    evaluate,
    evaluate_raw,
    evaluate_raw_block,
)
from tabukit.hillclimb import axial_block, axial_moves
from tabukit.hydraulic import (
    STARVATION_POLICIES,
    CircuitParams,
    CircuitTargets,
    circuit_objective,
    make_circuit,
    simulate_steady,
)
from tabukit.memory import IntermediateMemory, TabuList
from tabukit.multithread import MultiConfig, run_multi
from support import adopted_threads, check_axial_structure, explore_one, spied

BUILT_IN = {
    "schwefel10": make_schwefel10,
    "bump20-keane": lambda: make_bump(20, "keane"),
    "bump20-signed": lambda: make_bump(20, "signed"),
    "bump50-keane": lambda: make_bump(50, "keane"),
    "bump50-signed": lambda: make_bump(50, "signed"),
    "circuit": make_circuit,
}

#: Both starvation policies at the standard, a low and a starving pump
#: speed (at 20 rpm the largest pump at most exactly feeds the smallest
#: valve settings).
CIRCUITS = {
    f"circuit-{policy}-{speed:g}": (policy, speed)
    for policy in STARVATION_POLICIES
    for speed in (1500.0, 100.0, 20.0)
}


def evaluate_block(objective, X):
    """``evaluate_raw_block`` of the denormalized rows of ``X``."""
    return evaluate_raw_block(objective, denormalize(objective.space, X))


# --- fn_batch agrees with fn bit for bit -----------------------------------


def coordinate(lo, hi, specials=()):
    """Floats in [lo, hi], with the bounds, zero, the midpoint and the
    given special values among them when they lie inside."""
    special = [v for v in (lo, hi, 0.0, 0.5 * (lo + hi), *specials) if lo <= v <= hi]
    return st.one_of(st.floats(lo, hi), st.sampled_from(special))


@st.composite
def raw_blocks(draw, objective, specials=(), edge_rows=None):
    """Blocks of in-bounds rows over the objective's per-column bounds.

    Rows are random, constant, on some column's bound, all-lower,
    all-upper, or drawn from ``edge_rows`` (the objective's own edges).
    """
    lower, upper = objective.space.lower.tolist(), objective.space.upper.tolist()
    n = len(lower)
    columns = [coordinate(lo, hi, specials) for lo, hi in zip(lower, upper)]
    kinds = ["mixed", "constant", "bound", "lower", "upper"] + (["edge"] if edge_rows is not None else [])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.sampled_from(kinds))
        if k == "mixed":
            row = [draw(c) for c in columns]
        elif k == "constant":
            row = [draw(coordinate(max(lower), min(upper), specials))] * n
        elif k == "bound":
            row = [draw(c) for c in columns]
            j = draw(st.integers(0, n - 1))
            row[j] = draw(st.sampled_from([lower[j], upper[j]]))
        elif k == "lower":
            row = list(lower)
        elif k == "upper":
            row = list(upper)
        else:
            row = draw(edge_rows)
        rows.append(row)
    return np.array(rows, dtype=float)


BUMP_SPECIALS = (7.5, float(np.nextafter(7.5, 0.0)), float(np.nextafter(7.5, 10.0)), 0.75, 1.0)


@st.composite
def bump_edge_rows(draw, n):
    """All-7.5 rows, which sit exactly on sum == 7.5 n, with one coordinate drawn."""
    row = [7.5] * n
    row[draw(st.integers(0, n - 1))] = draw(coordinate(0.0, 10.0, BUMP_SPECIALS))
    return row


@st.composite
def axial_blocks(draw, objective, specials=()):
    """Raw blocks built the way a lockstep stage builds them, with their
    structure: ``(raw, bases, counts, axis)`` as ``Objective.fn_axial``
    takes them.

    One to three bases each give their ``axial_moves`` against their own
    tabu list (the base and some of its neighbours pushed), stacked from
    the bases' raw rows, so every row is its base with one coordinate
    moved. A thread may keep none of its rows, as when all its probes are
    tabu. Then some of these edits, each of which keeps the structure: a
    row repeated, a row whose moved entry is its base's, a base entry of
    0.0 made -0.0 across its rows, a moved entry of -0.0, and one row
    kept alone. Bases with a zero or a large coordinate mix feasible and
    infeasible rows, and entries on the bounds come from the drawn bases
    and the clamped probes.
    """
    space = objective.space
    n = space.dimension
    unit_specials = [float(v) for v in (np.asarray(specials) - space.lower[0]) / space.span[0]]
    bases, parts, axes = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        base = np.full(n, draw(st.floats(0.05, 0.75)))
        for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            base[j] = draw(coordinate(0.0, 1.0, unit_specials))
        step = draw(st.one_of(st.sampled_from([0.1, 0.05, 1e-4]), st.floats(1e-5, 1.0)))
        tabu = TabuList(draw(st.integers(1, 7)))
        tabu.push(base)
        for j, sign in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1])), max_size=3)):
            neighbour = base.copy()
            neighbour[j] += sign * step
            tabu.push(clamp(neighbour))
        moves = axial_moves(base.reshape(1, 1, -1), np.full((1, 1, 1), step), tabu.block(n), tabu.match_tol)
        base_raw = denormalize(space, base)
        kept = 0 if draw(st.integers(0, 4)) == 0 else len(moves.axis)  # 0: every probe tabu
        bases.append(base_raw)
        parts.append(axial_block(space, base_raw[np.newaxis], moves)[:kept])
        axes.append(moves.axis[:kept])
    bases = np.array(bases)
    counts = [len(part) for part in parts]
    raw, axis = np.concatenate(parts), np.concatenate(axes)
    assume(len(raw))
    owner = np.arange(len(counts)).repeat(counts)
    edits = draw(st.sets(st.sampled_from(["repeat", "unmoved", "signed-zero", "moved-zero", "one-row"])))
    if "repeat" in edits:
        r = draw(st.integers(0, len(raw) - 1))
        raw, axis, owner = (np.insert(a, r, a[r], axis=0) for a in (raw, axis, owner))
    if "unmoved" in edits:
        r = draw(st.integers(0, len(raw) - 1))
        raw[r, axis[r]] = bases[owner[r], axis[r]]
    zeros = np.argwhere(bases == 0.0)
    if "signed-zero" in edits and len(zeros):
        t, j = zeros[draw(st.integers(0, len(zeros) - 1))]
        bases[t, j] = -0.0
        raw[(owner == t) & (axis != j), j] = -0.0
    if "moved-zero" in edits:
        r = draw(st.integers(0, len(raw) - 1))
        if space.lower[axis[r]] == 0.0:
            raw[r, axis[r]] = -0.0
    if "one-row" in edits:
        r = draw(st.integers(0, len(raw) - 1))
        raw, axis, owner = raw[r : r + 1], axis[r : r + 1], owner[r : r + 1]
    counts = np.bincount(owner, minlength=len(bases)).tolist()
    return raw, bases, counts, axis


@st.composite
def circuit_edge_rows(draw, pump_speed):
    """Circuit rows whose pump is starved, exactly fitted (d1 + d2 == q_pump)
    or in surplus. No pump can be in surplus at 20 rpm."""
    motor1, motor2 = draw(coordinate(1.0, 1000.0)), draw(coordinate(1.0, 1000.0))
    kind = draw(st.sampled_from(["starved", "exact"] + (["surplus"] if pump_speed > 20.0 else [])))
    if kind == "exact":
        pump = float(draw(st.integers(math.ceil(20_000 / pump_speed), min(1000, math.floor(200_000 / pump_speed)))))
        q_pump = pump * pump_speed / 1000.0
        d1 = draw(st.floats(max(10.0, q_pump / 2, q_pump - 100.0), min(100.0, q_pump - 10.0)))
        d2 = q_pump - d1  # exact (Sterbenz), so d1 + d2 == q_pump
        assume(10.0 <= d2 <= 100.0)
    else:
        d1, d2 = draw(coordinate(10.0, 100.0)), draw(coordinate(10.0, 100.0))
        fit = (d1 + d2) * 1000.0 / pump_speed  # the pump size that feeds both valves exactly
        if kind == "starved":
            pump = draw(st.floats(1.0, min(1000.0, fit)))
        else:
            assume(fit < 1000.0)
            pump = draw(st.floats(fit, 1000.0))
    q_pump = pump * pump_speed / 1000.0
    want = {"starved": d1 + d2 > q_pump, "exact": d1 + d2 == q_pump, "surplus": d1 + d2 < q_pump}
    assume(want[kind])
    return [pump, motor1, motor2, d1, d2]


#: The bump objectives again, on blocks built as the engine builds them:
#: their fn_batch, and their fn_axial given each block's structure.
AXIAL_CASES = [f"{name}-axial" for name in BUILT_IN if name.startswith("bump")]
FN_AXIAL_CASES = [f"{name}-fn_axial" for name in BUILT_IN if name.startswith("bump")]


def fn_axial_case(objective):
    """(objective, raw-block strategy) whose ``fn_batch`` is the
    objective's ``fn_axial``, given the structure of the block that the
    strategy drew last, which it checks first."""
    drawn = {}

    def remember(block):
        raw, *drawn["structure"] = block
        return raw

    def fn_batch(raw):
        check_axial_structure(raw, *drawn["structure"])
        return objective.fn_axial(raw, *drawn["structure"])

    blocks = axial_blocks(objective, BUMP_SPECIALS).map(remember)
    return dataclasses.replace(objective, fn_batch=fn_batch), blocks


def block_case(name):
    """(objective, raw-block strategy) for a built-in name, a circuit
    variant, an axial case or an ``fn_axial`` case."""
    if name in FN_AXIAL_CASES:
        return fn_axial_case(BUILT_IN[name.removesuffix("-fn_axial")]())
    if name in AXIAL_CASES:
        objective = BUILT_IN[name.removesuffix("-axial")]()
        return objective, axial_blocks(objective, BUMP_SPECIALS).map(lambda block: block[0])
    if name in CIRCUITS:
        policy, pump_speed = CIRCUITS[name]
        objective = make_circuit(CircuitTargets(pump_speed=pump_speed), policy)
        return objective, raw_blocks(objective, edge_rows=circuit_edge_rows(pump_speed))
    objective = BUILT_IN[name]()
    if objective.name.startswith("bump"):
        n = objective.space.dimension
        return objective, raw_blocks(objective, BUMP_SPECIALS, bump_edge_rows(n))
    return objective, raw_blocks(objective)


BLOCK_CASES = sorted(BUILT_IN.keys() - {"circuit"} | CIRCUITS.keys()) + AXIAL_CASES + FN_AXIAL_CASES


@pytest.mark.parametrize("name", BLOCK_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fn_batch_matches_fn_bit_for_bit(name, data):
    objective, blocks = block_case(name)
    raw = data.draw(blocks)
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


def test_circuit_fn_batch_edges_exercised():
    circuit = make_circuit()
    raw = np.array(
        [
            [40.0, 200.0, 300.0, 24.0, 36.0],  # exact fit: 40 cc/rev at 1500 rpm is 60 L/min
            [121.0, 200.0, 300.0, 95.8340882949998, 85.6659117050002],  # exact fit at 181.5 L/min
            [10.0, 200.0, 300.0, 24.0, 36.0],  # starved
            [100.0, 200.0, 300.0, 24.0, 36.0],  # surplus
            circuit.space.lower,
            circuit.space.upper,
        ]
    )
    states = [simulate_steady(CircuitParams(*row)) for row in raw]
    assert (states[0].q1, states[0].q2, states[0].q_rv) == (24.0, 36.0, 0.0)
    # On the second row the proportional starved share would move q1 off
    # d1 and spill 1.4e-14 L/min, so only the exact-fit branch gives fn's value.
    d1, d2 = raw[1, 3], raw[1, 4]
    assert d1 + d2 == 181.5 and d1 * 181.5 / (d1 + d2) != d1
    assert (states[1].q1, states[1].q_rv) == (d1, 0.0)
    assert states[2].q_rv == 0.0 and states[2].q1 + states[2].q2 < 60.0
    assert states[3].q_rv > 0.0
    for policy in STARVATION_POLICIES:
        circuit = make_circuit(policy=policy)
        values, feasible = circuit.fn_batch(raw)
        assert feasible.all()
        assert [v.hex() for v in values.tolist()] == [circuit.fn(row)[0].hex() for row in raw]


@pytest.mark.parametrize(
    "bad",
    [
        [(0, 0, 0.5)],
        [(2, 4, 100.5)],
        [(3, 1, math.nan)],
        [(1, 3, 9.0), (3, 0, 1001.0)],  # the first bad row is named
        [(2, 2, -1.0), (2, 1, 1e9)],  # the first bad field of that row is named
    ],
)
def test_circuit_fn_batch_rejects_out_of_bounds_row_like_fn(bad):
    circuit = make_circuit()
    raw = np.tile([40.0, 200.0, 300.0, 24.0, 36.0], (4, 1))
    for r, c, value in bad:
        raw[r, c] = value
    first = min(r for r, _, _ in bad)
    with pytest.raises(ValueError) as scalar:
        circuit.fn(raw[first])
    assert "outside" in str(scalar.value)
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        circuit.fn_batch(raw)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_circuit_fn_matches_circuit_objective_bit_for_bit(name, data):
    # fn computes circuit_objective(CircuitParams(*raw)) in plain floats,
    # without building either object.
    policy, pump_speed = CIRCUITS[name]
    targets = CircuitTargets(pump_speed=pump_speed)
    objective, blocks = block_case(name)
    for row in data.draw(blocks):
        value, ok = objective.fn(row)
        assert ok
        assert type(value) is float
        assert value.hex() == float(circuit_objective(CircuitParams(*row), targets, policy)).hex(), row


#: Circuit field values outside the bounds of some field, NaN among them.
OUTSIDE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, 9.999999999999998, 100.5, 1e9])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), policy=st.sampled_from(STARVATION_POLICIES))
def test_circuit_out_of_bounds_rows_raise_one_error(data, policy):
    # fn, fn_batch and CircuitParams name the same first bad field of the
    # first bad row, NaN included.
    circuit = make_circuit(policy=policy)
    lower, upper = circuit.space.lower, circuit.space.upper
    rows = data.draw(st.integers(1, 4))
    raw = np.array([[data.draw(coordinate(lo, hi)) for lo, hi in zip(lower, upper)] for _ in range(rows)])
    for _ in range(data.draw(st.integers(1, 3))):
        raw[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, 4))] = data.draw(OUTSIDE)
    bad = (raw < lower) | (raw > upper) | np.isnan(raw)
    assume(bad.any())
    first = raw[int(np.argmax(bad.any(axis=1)))]
    messages = set()
    for call in (lambda: CircuitParams(*first), lambda: circuit.fn(first.copy()), lambda: circuit.fn_batch(raw)):
        with pytest.raises(ValueError) as raised:
            call()
        messages.add(str(raised.value))
    assert len(messages) == 1, messages
    assert "outside" in messages.pop()


# --- TabuList.is_tabu is the per-entry rule over the ring -----------------

GRID = st.integers(0, 16).map(lambda k: k / 16.0)  # dyadic: distances are exact
TOLS = [0.0, 1 / 16, 1 / 8, 1e-6]


def vectors(dim):
    return st.lists(st.one_of(GRID, st.floats(0.0, 1.0)), min_size=dim, max_size=dim)


@st.composite
def tabu_cases(draw):
    """(capacity, tol, pushed, probes): up to three times the capacity of
    pushes, so that the ring wraps, and probes, some of them exactly the
    tolerance off an entry that the ring still holds."""
    dim, capacity, tol = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.sampled_from(TOLS))
    pushed = draw(st.lists(vectors(dim), max_size=3 * capacity))
    near = st.sampled_from(pushed[-capacity:]).map(lambda e: [v + tol for v in e]) if pushed else vectors(dim)
    return capacity, tol, pushed, draw(st.lists(st.one_of(vectors(dim), near), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(case=tabu_cases())
@example(case=(2, 1e-6, [[0.1], [0.2], [0.3]], [[0.1], [0.2], [0.3]]))  # FIFO: the oldest entry goes
@example(case=(3, 1e-6, [[i / 10] for i in range(6)], [[i / 10] for i in range(6)]))
@example(case=(7, 1e-6, [[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5 + 1e-4]]))  # one push; max norm
@example(case=(7, 2.0**-20, [[0.5, 0.5]], [[0.5, 0.5 + 2.0**-20], [0.5, 0.5 + 2.0**-19]]))  # inclusive at tol
@example(case=(7, 1e-6, [], [[0.0]]))  # an empty list matches nothing
@example(
    case=(2, 0.125, [[0.5, 0.5], [0.25, 0.25], [0.75, 0.75]], [[0.875, 0.75], [0.25, 0.375], [0.5, 0.5], [0.25, 0.3750001]])
)
def test_is_tabu_matches_per_entry_reference(case):
    capacity, tol, pushed, probes = case
    tabu, reference = TabuList(capacity, tol), Tabu(capacity, tol)
    for x in map(np.array, pushed):
        tabu.push(x)
        reference.push(x)
        x.fill(math.nan)  # the list keeps a copy
    assert len(tabu) == len(reference.entries)
    for x in map(np.array, probes):
        assert tabu.is_tabu(x) == reference.is_tabu(x)


def test_screen_distance_exactly_at_tolerance():
    tabu = TabuList(capacity=2, match_tol=0.125)
    for x in ([0.5, 0.5], [0.25, 0.25], [0.75, 0.75]):  # the first push is evicted
        tabu.push(np.array(x))
    X = np.array([[0.875, 0.75], [0.25, 0.375], [0.5, 0.5], [0.25, 0.3750001]])
    assert [tabu.is_tabu(x) for x in X] == [True, True, False, False]


def test_screen_empty_list_and_empty_block():
    # An empty list matches nothing; a list that holds every probe leaves
    # an empty block to evaluate.
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    base = np.array([0.5, 0.5])
    tabu = TabuList()
    assert not any(tabu.is_tabu(x) for x in np.ones((3, 2)))
    moves = axial_moves(base.reshape(1, 1, -1), np.full((1, 1, 1), 0.25), tabu.block(2), tabu.match_tol)
    assert moves.axis.size == 4 and moves.tabu_rejected == 0
    for probe in ([0.75, 0.5], [0.25, 0.5], [0.5, 0.75], [0.5, 0.25]):
        tabu.push(np.array(probe))
    moves = axial_moves(base.reshape(1, 1, -1), np.full((1, 1, 1), 0.25), tabu.block(2), tabu.match_tol)
    assert moves.tabu_rejected == 4
    assert axial_block(space, base[np.newaxis], moves).shape == (0, 2)


# --- IntermediateMemory.offer is the per-entry rule over the archive rows --


@st.composite
def offer_cases(draw):
    """(capacity, tol, seed, offers): each offer an (x, value, feasible),
    some exactly at, or just past, the tolerance from an earlier one, and
    values that tie, to test the insert order."""
    dim, capacity, tol = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, 10])), draw(st.sampled_from(TOLS))
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-10.0, 10.0))
    offers = []
    for _ in range(draw(st.integers(1, 4 * capacity + 4))):
        if offers and draw(st.booleans()):
            offset = draw(st.sampled_from([tol, 2 * tol, 1 / 16]))
            x = [v + offset for v in draw(st.sampled_from(offers))[0]]
        else:
            x = draw(vectors(dim))
        offers.append((x, draw(value), draw(st.sampled_from([True, True, True, False]))))
    return capacity, tol, draw(st.integers(0, 2**16)), offers


#: Three offers that fill an archive of capacity 3.
FULL = [([v / 10, 0.0], v, True) for v in (1.0, 2.0, 3.0)]


@settings(max_examples=100, deadline=None)
@given(case=offer_cases())
@example(case=(3, 1e-6, 0, [FULL[1], FULL[0], FULL[2]]))
# Full: a better point displaces the worst; a worse one, or one that ties the worst, is refused.
@example(case=(3, 1e-6, 0, FULL + [([0.25, 0.0], 2.5, True)]))
@example(case=(3, 1e-6, 0, FULL + [([0.9, 0.9], 10.0, True), ([0.4, 0.0], 3.0, True)]))
# A duplicate within the tolerance is refused, however good; one just past it is not.
@example(case=(3, 1e-6, 0, [([0.5, 0.5], 1.0, True), ([0.5, 0.5], 0.5, True)]))
@example(case=(3, 1e-6, 0, [([0.5, 0.5], 1.0, True), ([0.5, 0.5 + 1e-7], 0.5, True), ([0.5, 0.5 + 1e-3], 0.5, True)]))
@example(case=(10, 1e-6, 0, [([0.5], 1.0, False)]))  # infeasible
# The restart points of one entry, of two, of two 1e-12 apart at tolerance 0, at a bound, and of five.
@example(case=(10, 1e-6, 1, [([0.4, 0.4, 0.4], 1.0, True)]))
@example(case=(10, 1e-6, 0, [([0.2, 0.2], 1.0, True), ([0.4, 0.6], 2.0, True)]))
@example(case=(10, 0.0, 0, [([0.25, 0.75], 1.0, True), ([0.25, 0.75 + 1e-12], 2.0, True)]))
@example(case=(10, 1e-6, 0, [([0.0, 1.0], 1.0, True)]))
@example(case=(10, 1e-6, 3, [([0.1 * v, 0.3, 0.7 - 0.1 * v, 0.9], v, True) for v in (4.0, 2.0, 0.0, 3.0, 1.0)]))
def test_offer_matches_per_entry_reference(case):
    capacity, tol, seed, offers = case
    memory, reference = IntermediateMemory(capacity, tol), Archive(capacity, tol)
    for x, value, feasible in offers:
        p = SearchPoint(x=np.array(x), value=value, feasible=feasible)
        assert memory.offer(p) == reference.offer(p)
        assert memory.values() == [q.value for q in reference.points]
        assert len(memory) == len(reference.points)
        if reference.points:
            assert memory.rows().tobytes() == np.array([q.x for q in reference.points]).tobytes()
            assert memory.intensify().tobytes() == reference.intensify().tobytes()
            got = memory.diversify(np.random.default_rng(seed))
            assert got.tobytes() == reference.diversify(np.random.default_rng(seed)).tobytes()


def test_offer_rejects_a_vector_of_another_length():
    memory = IntermediateMemory(capacity=3)
    assert memory.offer(SearchPoint(np.array([0.1, 0.2, 0.3]), 1.0, True))
    with pytest.raises(ValueError, match=re.escape("archived vectors have shape (3,), got (1,)")):
        memory.offer(SearchPoint(np.array([0.2]), 0.5, True))
    assert len(memory) == 1
    assert memory.intensify().tolist() == [0.1, 0.2, 0.3]


# --- the block pipeline against the per-candidate reference ---------------


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(st.one_of(GRID, st.floats(0.0, 1.0)), min_size=1, max_size=5).map(np.array),
    step=st.sampled_from([1 / 16, 0.1, 0.25, 0.6]),
    tol=st.sampled_from([1e-6, 1 / 16]),
    data=st.data(),
)
def test_axial_moves_match_reference(base, step, tol, data):
    tabu, reference = TabuList(7, tol), Tabu(7, tol)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, base.size - 1))
        x = base.copy()
        x[i] += data.draw(st.sampled_from([step, -step, 0.0]))
        tabu.push(clamp(x))
        reference.push(clamp(x))
    want, rejected = axial_probes(base, step, reference)
    moves = axial_moves(base.reshape(1, 1, -1), np.full((1, 1, 1), step), tabu.block(base.size), tol)
    assert moves.tabu_rejected == rejected
    assert moves.axis.tolist() == [a for _, a, _ in want]
    # The reference's sign, read off the moved coordinate.
    assert [1.0 if m > base[a] else -1.0 for a, m in zip(moves.axis.tolist(), moves.moved)] == [s for _, _, s in want]
    assert moves.moved.tobytes() == np.array([x[a] for x, a, _ in want]).tobytes()


@pytest.mark.parametrize("name", ["schwefel10", "bump20-keane", "circuit"])
def test_explore_matches_per_candidate_reference(name):
    objective = BUILT_IN[name]()
    rng = np.random.default_rng(5)
    n = objective.space.dimension
    for trial in range(30):
        base_x = rng.random(n)
        if trial % 3 == 0:
            base_x[rng.integers(n)] = 1.0
        step = float(rng.choice([0.3, 0.05, 0.001]))
        base = evaluate(objective, base_x)
        reference = Tabu(7, 1e-6)
        reference.push(base.x)
        want_moves, _ = axial_probes(base.x, step, reference)
        best = None
        for x, _, _ in want_moves:
            point = reference_evaluate(objective, x)
            if point.feasible and (best is None or point.value < best.value):
                best = point
        tabu = TabuList()
        tabu.push(base.x)
        counted, spy = spied(objective)
        got, moves = explore_one(base, step, counted, tabu)
        assert spy.evals == len(want_moves)
        if best is None:
            assert got is None
        else:
            assert got.x.tobytes() == best.x.tobytes()
            assert got.raw.tobytes() == best.raw.tobytes()
            assert float(got.value).hex() == float(best.value).hex()


# --- evaluation accounting over the batch and scalar paths ----------------


@pytest.mark.parametrize("name", sorted(BUILT_IN))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    method=st.sampled_from(["single", "multi"]),
    max_evals=st.integers(400, 3000),
    schedule=st.sampled_from([(5, 10, 15), (1, 2, 3)]),
)
def test_evals_equal_scalar_calls_plus_batch_rows(name, seed, method, max_evals, schedule):
    objective, spy = spied(BUILT_IN[name]())
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
        # Each thread owns its count, and the run spends their sum.
        assert result.evals == sum(t.evals for t in result.threads)
        for t in result.threads:
            counts = [n for n, _ in t.history]
            assert counts == sorted(counts)
            assert all(n <= t.evals for n in counts)
    assert sum(spy.blocks) > 0
    assert result.evals == spy.evals
    # The reported best is the minimum feasible engine value evaluated.
    assert result.best.value == spy.best


@pytest.mark.parametrize("name", ["schwefel10", "bump20-keane", "circuit"])
def test_scalar_fallback_gives_the_same_run(name):
    objective = BUILT_IN[name]()
    scalar_only = dataclasses.replace(objective, fn_batch=None, fn_axial=None)
    for seed in (0, 1):
        config = SearchConfig(seed=seed, max_evals=1500)
        a = run_multi(objective, MultiConfig(base=config))
        b = run_multi(scalar_only, MultiConfig(base=config))
        assert (a.evals, a.terminated_by, a.history, a.stages) == (b.evals, b.terminated_by, b.history, b.stages)
        assert a.best.x.tobytes() == b.best.x.tobytes()


#: Block returns that are not ``(values, feasible)`` arrays of k rows, with
#: the error that names them: ``method`` is fn_batch or fn_axial.
WRONG_BLOCKS = {
    "short": (lambda raw: (np.zeros(1), np.ones(1, dtype=bool)), "{method} returned shapes"),
    "none": (lambda raw: None, "{method} must return (value, feasible), got a NoneType"),
    "one-item": (lambda raw: (np.zeros(len(raw)),), "{method} must return (value, feasible), got a tuple"),
    "text-values": (lambda raw: (["a"] * len(raw), [True] * len(raw)), "{method} must return (value, feasible)"),
}


def test_fn_batch_wrong_shape_is_reported():
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    base = SearchPoint(x=np.array([0.5, 0.5]), value=0.0, feasible=True)
    for returned, message in WRONG_BLOCKS.values():
        objective = Objective(space, fn=lambda raw: (0.0, True), name="short", fn_batch=returned)
        with pytest.raises(ValueError, match=re.escape("'short': " + message.format(method="fn_batch"))):
            explore_one(base, 0.1, objective, TabuList())


@pytest.mark.parametrize("name", ["schwefel10", "bump20-keane", "circuit", "fn-only"])
def test_block_of_another_width_is_refused_before_any_call(name):
    if name == "fn-only":
        space = ParameterSpace.cube(0.0, 1.0, 3, min_step=1e-6)
        objective = Objective(space, fn=lambda raw: (raw.sum(), True), name="sum3")
    else:
        objective = BUILT_IN[name]()
    objective, spy = spied(objective)
    n, space = objective.space.dimension, objective.space
    centre = (space.lower + space.upper) / 2
    narrow, wide = np.tile(centre[:-1], (4, 1)), np.tile(np.append(centre, centre[0]), (4, 1))
    for raw in (narrow, wide, centre, centre[np.newaxis, np.newaxis]):
        for axial in (None, (centre[np.newaxis], [len(raw)], np.zeros(len(raw), dtype=int))):
            expected = f"objective {objective.name!r}: expected a (k, {n}) block of raw rows, got shape {raw.shape}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                evaluate_raw_block(objective, raw, axial)
    assert spy.rows == []


def test_fn_axial_wrong_shape_is_reported():
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    base = SearchPoint(x=np.array([0.5, 0.5]), value=0.0, feasible=True)
    for returned, message in WRONG_BLOCKS.values():
        objective = Objective(
            space,
            fn=lambda raw: (0.0, True),
            name="short",
            fn_batch=lambda raw: (np.zeros(len(raw)), np.ones(len(raw), dtype=bool)),
            fn_axial=lambda raw, bases, counts, axis, returned=returned: returned(raw),
        )
        with pytest.raises(ValueError, match=re.escape("'short': " + message.format(method="fn_axial"))):
            explore_one(base, 0.1, objective, TabuList())
        # Without its structure a block goes to fn_batch, whose shapes are right.
        values, feasible = evaluate_raw_block(objective, np.full((3, 2), 0.5))
        assert values.tolist() == [0.0] * 3 and feasible.all()


@pytest.mark.parametrize(
    "returned, cause",
    [
        ((None, True), TypeError),
        (None, TypeError),
        ((1.0,), ValueError),
        ((np.array([1.0, 2.0]), True), TypeError),
    ],
    ids=["none-value", "none", "one-item", "array-value"],
)
def test_fn_return_that_is_no_pair_names_the_objective(returned, cause):
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    objective = Objective(space, fn=lambda raw: returned, name="loose")
    message = "objective 'loose': fn must return (value, feasible), got a "
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        evaluate_raw(objective, np.array([0.5, 0.5]))
    assert type(raised.value.__cause__) is cause
    with pytest.raises(ValueError, match=re.escape(message)):
        run_single(objective, SearchConfig(seed=0, max_evals=50))


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
        explore_one(base, 0.1, objective, TabuList())
    # The first feasible non-finite row is named, past a finite row and an
    # infeasible NaN, from fn_batch and from fn_axial.
    block = lambda raw, *structure: ([0.5, math.nan, math.inf], [True, False, True])  # noqa: E731
    raw, axial = np.array([[0.4], [0.5], [0.6]]), (np.array([[0.5]]), [3], np.array([0, 0, 0]))
    for method in ("fn_batch", "fn_axial"):
        objective = Objective(space, fn=lambda raw: (0.0, True), name="broken", **{method: block})
        with pytest.raises(ValueError, match="'broken' returned non-finite value inf for a feasible point"):
            evaluate_raw_block(objective, raw, axial)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sense", [MINIMIZE, MAXIMIZE])
def test_non_finite_feasible_pattern_value_is_an_objective_error(bad, sense):
    # The block is finite; the pattern point, which hj_stage sends to fn
    # alone, is not: the step raises evaluate's error, not a search outcome.
    space = ParameterSpace.cube(0.0, 1.0, 1, min_step=1e-6)
    sign = 1.0 if sense == MINIMIZE else -1.0
    fn = lambda raw: (bad if raw[0] < 0.35 else sign * raw[0], True)  # noqa: E731
    fn_batch = lambda raw: (sign * raw[:, 0], np.ones(len(raw), dtype=bool))  # noqa: E731
    objective = Objective(space, fn, sense, "broken", fn_batch)
    threads = adopted_threads(objective, [[0.5]])
    with pytest.raises(ValueError, match=re.escape(f"'broken' returned non-finite value {bad!r} for a feasible point")):
        hillclimb.hj_stage(threads, [0], objective)  # the winner is 0.4, its pattern point 0.3


def test_spy_checks_the_axial_structure_and_refuses_an_entry_point_it_does_not_wrap():
    objective, spy = spied(make_bump(4))
    bases = np.full((2, 4), 5.0)
    raw = np.full((3, 4), 5.0)
    raw[:, 0] = [5.5, 4.5, 6.0]
    objective.fn_axial(raw, bases, [2, 1], np.array([0, 0, 0]))
    assert spy.blocks == [3] and spy.axial_calls == 1 and spy.evals == 3
    with pytest.raises(AssertionError, match="differs from its base off its axis"):
        objective.fn_axial(raw, bases, [2, 1], np.array([0, 1, 0]))

    @dataclasses.dataclass(frozen=True)
    class Wider(Objective):
        fn_more: object = None

    wider = Wider(objective.space, fn=objective.fn, fn_more=objective.fn)
    with pytest.raises(TypeError, match="spied does not wrap Objective.fn_more"):
        spied(wider)
    spied(dataclasses.replace(wider, fn_more=None))


# --- one point goes to fn, a block to fn_batch ---------------------------------


@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_evaluate_calls_fn_once_and_never_fn_batch(name):
    objective, spy = spied(BUILT_IN[name]())
    rng = np.random.default_rng(0)
    for i in range(1, 21):
        x = rng.random(objective.space.dimension)
        point = evaluate(objective, x)
        assert (spy.fn_calls, spy.batch_calls) == (i, i - 1)
        values, feasible = evaluate_block(objective, x[np.newaxis])
        assert (spy.fn_calls, spy.batch_calls) == (i, i)
        # The one point's result is the one-row block's, bit for bit.
        assert point.feasible == bool(feasible[0])
        assert np.float64(point.value).tobytes() == values[:1].tobytes()


class ObjectiveBug(Exception):
    pass


#: Raised inside the objective: the engine names a malformed return with a
#: ValueError chained to a TypeError or ValueError, but passes these through.
BUGS = (ObjectiveBug("boom"), TypeError("boom"), ValueError("boom"))


def test_objective_exception_propagates_unchanged_from_both_paths():
    # From fn, from fn_batch, and from fn_axial, which an axial block reaches.
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    x = np.array([0.25, 0.5])
    for bug in BUGS:

        def fail(*args):
            raise bug

        for objective in (Objective(space, fn=fail), Objective(space, fn=fail, fn_batch=fail)):
            with pytest.raises(type(bug)) as raised:
                evaluate(objective, x)
            assert raised.value is bug
            with pytest.raises(type(bug)) as raised:
                evaluate_block(objective, np.array([x, x]))
            assert raised.value is bug
        objective = Objective(space, fn=lambda raw: (0.0, True), fn_axial=fail)
        with pytest.raises(type(bug)) as raised:
            explore_one(SearchPoint(x=x, value=0.0, feasible=True), 0.1, objective, TabuList())
        assert raised.value is bug


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sense", [MINIMIZE, MAXIMIZE])
def test_non_finite_feasible_value_same_error_from_both_paths(bad, sense):
    space = ParameterSpace.cube(0.0, 1.0, 1, min_step=1e-6)
    fn = lambda raw: (bad, True)  # noqa: E731
    fn_batch = lambda raw: (np.full(len(raw), bad), np.ones(len(raw), dtype=bool))  # noqa: E731
    messages = set()
    for objective in (Objective(space, fn, sense, "broken"), Objective(space, fn, sense, "broken", fn_batch)):
        for call in (lambda: evaluate(objective, np.array([0.5])), lambda: evaluate_block(objective, np.array([[0.5]]))):
            with pytest.raises(ValueError) as raised:
                call()
            messages.add(str(raised.value))
    # An axial block goes to fn_axial, which raises the same error.
    objective = Objective(space, fn, sense, "broken", fn_axial=lambda raw, *structure: fn_batch(raw))
    with pytest.raises(ValueError) as raised:
        explore_one(SearchPoint(x=np.array([0.5]), value=0.0, feasible=True), 0.1, objective, TabuList())
    messages.add(str(raised.value))
    assert messages == {f"objective 'broken' returned non-finite value {bad!r} for a feasible point"}


@pytest.mark.parametrize("name, method", [("schwefel10", "single"), ("circuit", "multi")])
def test_objective_calls_per_stage(name, method, monkeypatch):
    # Each hj_stage call with axial rows makes one fn_batch call, and
    # every other evaluation (pattern points, starts and relocations)
    # one fn call, so no one-row block reaches fn_batch.
    objective, spy = spied(BUILT_IN[name]())
    tally = {"stages": 0, "rows": 0, "patterns": 0, "relocations": 0}
    rows: list[int] = []

    def axial_moves(*args):
        moves = real_axial_moves(*args)
        rows.append(moves.axis.size)
        return moves

    def hj_stage(*args):
        rows.clear()
        steps = real_hj_stage(*args)
        tally["stages"] += sum(rows) > 0
        tally["rows"] += sum(rows)
        tally["patterns"] += sum(spent for _, spent in steps) - sum(rows)
        return steps

    def apply_action(*args):
        spent = real_apply_action(*args)
        tally["relocations"] += spent
        return spent

    real_axial_moves, real_hj_stage, real_apply_action = hillclimb.axial_moves, control.hj_stage, control.apply_action
    monkeypatch.setattr(hillclimb, "axial_moves", axial_moves)
    monkeypatch.setattr(control, "hj_stage", hj_stage)
    monkeypatch.setattr(control, "apply_action", apply_action)
    config = SearchConfig(seed=0)
    if method == "single":
        result, starts = run_single(objective, config), 1
    else:
        result, starts = run_multi(objective, MultiConfig(base=config)), 2
    assert min(tally.values()) > 0
    assert spy.batch_calls == tally["stages"]
    assert spy.fn_calls == tally["patterns"] + starts + tally["relocations"]
    assert result.evals == spy.fn_calls + tally["rows"]


def test_tabu_push_rejects_a_vector_of_another_length():
    tabu = TabuList()
    tabu.push(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="tabu entries have shape"):
        tabu.push(np.array([0.25]))
    assert len(tabu) == 1 and tabu.is_tabu(np.array([0.5, 0.5]))


@pytest.mark.parametrize("name", [name for name in BUILT_IN if name.startswith("bump")])
def test_bump_fn_batch_matches_fn_on_stacked_axial_blocks_with_signed_zeros(name):
    # Three stacked bases, as a K = 3 stage builds them: one with a column
    # at 0.0 and one at -0.0 (every row non-positive, so infeasible), one
    # whose only zero, 0.0 under the first base's -0.0 at their run
    # boundary, is lifted by its own upward probe alone, and one feasible
    # base. Checked whole and one row at a time.
    objective = BUILT_IN[name]()
    space, n = objective.space, objective.space.dimension
    x = np.full((3, 1, n), 0.5)
    x[0, 0, :2] = 0.0
    x[1, 0, 1] = 0.0
    x[2, 0, :] = 0.42
    raw = denormalize(space, x[:, 0])
    raw[0, 1] = -0.0
    tabu = np.full((3, 1, n), math.inf)
    moves = axial_moves(x, np.full((3, 1, 1), 0.05), tabu, 1e-6)
    block = axial_block(space, raw, moves)
    first, second = moves.counts[0], moves.counts[0] + moves.counts[1]
    assert len(block) == second + moves.counts[2]
    assert np.signbit(block[first - 1, 1]) and block[first, 1] == 0.0 and not np.signbit(block[first, 1])
    for rows in [block, *(block[r : r + 1] for r in range(len(block)))]:
        values, feasible = objective.fn_batch(rows.copy())
        expected = [objective.fn(row.copy()) for row in rows]
        assert feasible.tolist() == [ok for _, ok in expected]
        assert [v.hex() for v, ok in zip(values.tolist(), feasible) if ok] == [v.hex() for v, ok in expected if ok]
    # fn_axial, given the block's structure, agrees with fn_batch bit for bit.
    check_axial_structure(block, raw, moves.counts, moves.axis)
    values, feasible = objective.fn_batch(block)
    axial_values, axial_feasible = objective.fn_axial(block.copy(), raw, moves.counts, moves.axis)
    assert axial_feasible.tolist() == feasible.tolist()
    assert axial_values.tobytes() == values.tobytes()
    assert not feasible[:first].any()
    assert feasible[first:second].tolist() == (moves.axis[first:second] == 1).tolist()
    assert feasible[second:].all()
