"""Stacked lockstep stages against the per-thread rules they replaced.

The driver steps all live threads of a stage as one batched operation
(``hj_stage``), and ``axial_moves`` screens its probes from the base and
the moved coordinates alone. ``hj_stage`` screens each pattern point with
the mask of its thread's axial screen and builds its raw row from the
winner's. The constructions they replaced are kept here as references:
every probe built as a full row with ``np.tile``, clamped and screened
with ``TabuList.screen``; each pattern point screened with
``TabuList.is_tabu`` and evaluated through ``evaluate``; and the driver
loop that stepped each live thread on its own, one step after another.
The new code must agree with them exactly.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabukit import control
from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit.control import (
    CONTINUE,
    EVAL_BUDGET,
    IMPROVED,
    STEP_FLOOR,
    CollisionLog,
    MultiRunResult,
    SearchConfig,
    ThreadReport,
    apply_action,
    control_decision,
    detect_collision,
    fresh_state,
    resolved_step_min,
    run_lockstep,
    start_point,
)
from tabukit.core import SearchPoint, clamp, denormalize, evaluate, evaluate_block
from tabukit.hillclimb import (
    IMPROVE_TOL,
    NOT_IMPROVED,
    STALLED,
    MoveSet,
    _probe_order,
    axial_moves,
    hj_stage,
    pattern_move,
)
from tabukit.hydraulic import make_circuit
from tabukit.memory import IntermediateMemory, TabuList
from tabukit.multithread import thread_rngs

PROBLEMS = {
    "schwefel10": make_schwefel10,
    "bump20": lambda: make_bump(20),
    "bump50": lambda: make_bump(50),
    "circuit": make_circuit,
}


def tile_axial_moves(base_x, step, tabu):
    """Every probe built as a full row, the whole block clamped, then
    screened with ``TabuList.screen`` in one broadcast. Returns the kept
    rows and their ``MoveSet``, whose moved coordinates are read off
    the rows."""
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
    X, axis = X[keep], axis[keep]
    moves = MoveSet(base_x, axis, sign[keep], X[np.arange(len(X)), axis], tabu_rejected=int(np.count_nonzero(tabu_hit)))
    return X, moves


def counted(objective):
    """The objective and a one-item list counting its evaluations: scalar
    calls plus batch rows."""
    calls = [0]

    def fn(raw):
        calls[0] += 1
        return objective.fn(raw)

    def fn_batch(raw):
        calls[0] += len(raw)
        return objective.fn_batch(raw)

    batch = None if objective.fn_batch is None else fn_batch
    return dataclasses.replace(objective, fn=fn, fn_batch=batch), calls


def reference_hj_step(state, objective, shared, k_pattern):
    """One thread's step with the tile screen, its axial block and its
    pattern point each evaluated on their own, the pattern point screened
    with ``is_tabu`` and evaluated through ``evaluate``."""
    best_before = state.best.value
    X, _ = tile_axial_moves(state.base.x, state.step, state.tabu)
    if len(X) == 0:
        return STALLED
    values, feasible = evaluate_block(objective, X)
    state.evals += len(X)
    if not feasible.any():
        return STALLED
    w = int(np.argmin(values))
    move = SearchPoint(x=X[w].copy(), value=float(values[w]), feasible=True)
    adopted = move
    p_x = pattern_move(state.base.x, move.x, k_pattern)
    if not np.array_equal(p_x, move.x) and not state.tabu.is_tabu(p_x):
        pattern_point = evaluate(objective, p_x)
        state.evals += 1
        if pattern_point.feasible and pattern_point.value < move.value:
            adopted = pattern_point
    state.adopt(adopted, shared)
    return IMPROVED if adopted.value < best_before - IMPROVE_TOL else NOT_IMPROVED


def reference_lockstep(objective, config, starts, seed_rngs, step_ends=None):
    """The lockstep driver with one ``reference_hj_step`` per live thread.

    Appends the running total after every thread step to ``step_ends``.
    The total and each thread's count are tallied from the objective's
    calls, apart from ``ThreadState.evals``.
    """
    objective, calls = counted(objective)
    space = objective.space
    step_floor = resolved_step_min(config, space)
    dim = space.dimension
    xs = [None if x is None else start_point(x, dim, name) for name, x in starts]
    rngs = seed_rngs(config.seed)
    memory = IntermediateMemory(config.m_elite, config.match_tol)
    evals = []
    states = []
    total = 0
    for i, x0 in enumerate(xs):
        point = evaluate(objective, rngs[i].random(dim) if x0 is None else x0)
        evals.append(calls[0] - total)
        total = calls[0]
        state = fresh_state(point, config, thread_id=i)
        state.adopt(point, memory)
        states.append(state)
        if i == 0:
            best, history = state.best, list(state.history)
        elif state.best.value < best.value:
            best = state.best
            history.append((total, best.value))

    k = len(states)
    live = k
    pending = [None] * k
    stages = []
    collisions = CollisionLog()
    terminated_by = EVAL_BUDGET
    while total < config.max_evals:
        desired = [CONTINUE] * k
        for i in range(k):
            state = states[i]
            if state.step < step_floor or total >= config.max_evals:
                continue
            if reference_hj_step(state, objective, memory, config.k_pattern) == IMPROVED:
                state.fail_count = 0
                pending[i] = None
            else:
                state.fail_count += 1
            evals[i] += calls[0] - total
            total = calls[0]
            if step_ends is not None:
                step_ends.append(total)
            if state.best.value < best.value:
                best = state.best
                history.append((total, best.value))
            desired[i] = pending[i] or control_decision(state.fail_count, config)
        if total >= config.max_evals:
            break

        performer = -1
        for i in range(k):
            if desired[i] == CONTINUE:
                continue
            if performer < 0 or states[i].best.value > states[performer].best.value:
                if performer >= 0:
                    pending[performer] = desired[performer]
                performer = i
            else:
                pending[i] = desired[i]
        actions = [CONTINUE] * k
        if performer >= 0:
            state = states[performer]
            action = actions[performer] = desired[performer]
            pending[performer] = None
            apply_action(state, action, memory, objective, rngs[performer], config)
            evals[performer] += calls[0] - total
            total = calls[0]
            if state.best.value < best.value:
                best = state.best
                history.append((total, best.value))
            if state.step < step_floor:
                live -= 1

        stages.append(tuple(actions))
        for i in range(k):
            for j in range(i + 1, k):
                detect_collision(states[i], states[j], config.match_tol, collisions, total)
        if live == 0:
            terminated_by = STEP_FLOOR
            break

    threads = [
        ThreadReport(
            thread_id=state.thread_id,
            best=state.best,
            best_raw=denormalize(space, state.best.x),
            evals=count,
            step_final=state.step,
            history=list(state.history),
        )
        for state, count in zip(states, evals)
    ]
    return MultiRunResult(
        best=best,
        best_raw=denormalize(space, best.x),
        evals=total,
        terminated_by=terminated_by,
        history=history,
        threads=threads,
        collisions=collisions,
        stages=stages,
    )


def point_key(p):
    return p.x.tobytes(), float(p.value).hex(), p.feasible


def result_key(r):
    """Every compared field of a MultiRunResult, with floats as exact bits."""
    return (
        point_key(r.best),
        r.best_raw.tobytes(),
        r.evals,
        r.terminated_by,
        r.history,
        r.stages,
        r.collisions.events,
        [
            (t.thread_id, point_key(t.best), t.best_raw.tobytes(), t.evals, float(t.step_final).hex(), t.history)
            for t in r.threads
        ],
    )


def lockstep_setup(threads, start=None):
    """(starts, seed_rngs) of run_single for one thread, of run_multi for
    two. ``start`` is every thread's start; None draws them at random."""
    if threads == 1:
        return [("start", start)], lambda seed: [np.random.default_rng(seed)]
    return [("start_a (thread 0)", start), ("start_b (thread 1)", start)], thread_rngs


# --- axial_moves against the tile + screen construction -------------------

#: Dyadic coordinates, steps and tolerances, so every distance is exact
#: and entries can sit exactly at the tolerance.
GRID = st.integers(0, 32).map(lambda k: k / 32.0)
TOLS = [0.0, 1 / 32, 1 / 16, 1e-6]


@st.composite
def tabu_entry(draw, base, step, tol):
    """A vector near the base: on a probe, or a tolerance off it or off the
    base in the moved axis and in up to two others, or anywhere."""
    n = base.size
    kind = draw(st.sampled_from(["probe", "offset", "random"]))
    if kind == "random":
        return np.array(draw(st.lists(st.one_of(GRID, st.floats(0.0, 1.0)), min_size=n, max_size=n)))
    x = base.copy()
    if kind == "probe" or draw(st.booleans()):
        a = draw(st.integers(0, n - 1))
        x[a] += draw(st.sampled_from([step, -step]))
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, n - 1))
        x[j] += draw(st.sampled_from([tol, -tol, 2 * tol, 1 / 32]))
    return clamp(x)


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(st.one_of(GRID, st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6).map(
        np.array
    ),
    step=st.sampled_from([1 / 32, 1 / 16, 0.25, 0.6, 0.1]),
    tol=st.sampled_from(TOLS),
    capacity=st.integers(1, 4),
    data=st.data(),
)
def test_axial_moves_match_tile_screen(base, step, tol, capacity, data):
    tabu = TabuList(capacity, tol)
    # From an empty list up to three times the capacity, so the ring wraps.
    for _ in range(data.draw(st.integers(0, 3 * capacity))):
        tabu.push(data.draw(tabu_entry(base, step, tol)))
    got = axial_moves(base, step, tabu)
    want_x, want = tile_axial_moves(base, step, tabu)
    assert got.x.tobytes() == want_x.tobytes()
    assert got.x.shape == want_x.shape
    assert got.moved.tobytes() == want.moved.tobytes()
    assert got.axis.tolist() == want.axis.tolist()
    assert got.sign.tolist() == want.sign.tolist()
    assert got.tabu_rejected == want.tabu_rejected


def test_axial_screen_cases_at_the_tolerance():
    tol = 1 / 16
    base = np.array([0.5, 0.0, 1.0])
    tabu = TabuList(4, tol)
    tabu.push(np.array([0.625 + tol, 0.0, 1.0]))  # probe 0 (+x0) lies exactly tol away on its own axis
    tabu.push(np.array([0.375, tol, 1.0]))  # probe 1 (-x0) lies exactly tol away on another axis
    tabu.push(np.array([0.5, 0.125 + 2 * tol, 1.0 - tol]))  # probe +x1 is 2 tol off: allowed
    tabu.push(np.array([0.5 + tol, 0.0, 0.875 - tol]))  # probe -x2 is tol off on two axes: tabu
    got = axial_moves(base, 0.125, tabu)
    want_x, want = tile_axial_moves(base, 0.125, tabu)
    # x1 and x2 sit on a bound, so one probe of each is degenerate.
    assert got.axis.tolist() == want.axis.tolist() == [1]
    assert got.sign.tolist() == [1]
    assert got.tabu_rejected == want.tabu_rejected == 3
    assert got.x.tobytes() == want_x.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    base=st.lists(st.one_of(GRID, st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=6).map(
        np.array
    ),
    tol=st.sampled_from(TOLS),
    capacity=st.integers(1, 4),
    data=st.data(),
)
def test_pattern_screen_from_the_axial_mask_matches_is_tabu(base, tol, capacity, data):
    # The pattern point copies the base but for one coordinate, like a
    # probe; entries sit on it, a tolerance off it in its own coordinate
    # or in others, or near the base and its probes.
    n = base.size
    a = data.draw(st.integers(0, n - 1))
    p = data.draw(st.one_of(GRID, st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)))
    point = base.copy()
    point[a] = p
    tabu = TabuList(capacity, tol)
    # From an empty list up to three times the capacity, so the ring wraps.
    for _ in range(data.draw(st.integers(0, 3 * capacity))):
        if data.draw(st.booleans()):
            entry = point.copy()
            for _ in range(data.draw(st.integers(0, 2))):
                j = data.draw(st.integers(0, n - 1))
                entry[j] += data.draw(st.sampled_from([tol, -tol, 2 * tol, 1 / 32]))
            tabu.push(clamp(entry))
        else:
            tabu.push(data.draw(tabu_entry(base, 1 / 16, tol)))
    axis, sign = _probe_order(n)
    _, rest_near = tabu.screen_axial(base, axis, clamp(base[axis] + sign / 16))
    assert tabu.axial_is_tabu(rest_near, a, p) == tabu.is_tabu(point) == tabu.is_tabu(point + 0.0)


# --- the stacked driver against the per-thread reference -----------------


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@settings(max_examples=12, deadline=None)
@given(
    threads=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
    schedule=st.sampled_from([(5, 10, 15), (1, 2, 3)]),
    budget=st.one_of(
        st.tuples(st.just("edge"), st.integers(0, 10_000), st.integers(-1, 2)),
        st.tuples(st.just("any"), st.integers(1, 3000), st.just(0)),
    ),
    equal_starts=st.booleans(),
    step_min=st.sampled_from([None, 0.05]),
)
# Two threads from one start tie on their best values, so the token's
# tie-break decides: at seed 0 the tied threads both ask in some stage on
# every problem but bump50. With schedule (5, 10, 15) the schwefel10 and
# circuit runs end on the step_min 0.05 floor.
@example(threads=2, seed=0, schedule=(5, 10, 15), budget=("any", 3000, 0), equal_starts=True, step_min=0.05)
@example(threads=2, seed=0, schedule=(1, 2, 3), budget=("any", 3000, 0), equal_starts=True, step_min=0.05)
def test_stacked_stage_matches_serial_threads(problem, threads, seed, schedule, budget, equal_starts, step_min):
    objective = PROBLEMS[problem]()
    intensify, diversify, reduce = schedule
    start = np.random.default_rng(seed).random(objective.space.dimension) if equal_starts else None
    starts, seed_rngs = lockstep_setup(threads, start)

    def config(max_evals):
        return SearchConfig(
            seed=seed,
            max_evals=max_evals,
            step_min=step_min,
            intensify_after=intensify,
            diversify_after=diversify,
            reduce_after=reduce,
        )

    kind, pick, offset = budget
    if kind == "edge":
        # End the budget just after some thread's step, found on a longer
        # run: the next thread of that stage then sits at the budget edge.
        step_ends = []
        reference_lockstep(objective, config(2500), starts, seed_rngs, step_ends)
        max_evals = max(1, step_ends[pick % len(step_ends)] + offset)
    else:
        max_evals = pick
    got = run_lockstep(objective, config(max_evals), starts, seed_rngs)
    want = reference_lockstep(objective, config(max_evals), starts, seed_rngs)
    assert result_key(got) == result_key(want)


def test_budget_edge_splits_a_stage(monkeypatch):
    """A thread that the budget bound leaves out of the stacked block
    still steps when the actual total allows it, as a second group."""
    objective = make_schwefel10()
    starts, seed_rngs = lockstep_setup(2)
    step_ends = []
    reference_lockstep(objective, SearchConfig(seed=3, max_evals=600), starts, seed_rngs, step_ends)
    real_stage = control.hj_stage
    groups = []

    def stage(states, *args):
        steps = real_stage(states, *args)
        groups.append((len(states), len(steps)))
        return steps

    monkeypatch.setattr(control, "hj_stage", stage)
    split = 0
    for end in step_ends[::2]:  # where thread 0's steps end
        for offset in (0, 1):
            groups.clear()
            config = SearchConfig(seed=3, max_evals=end + offset)
            got = run_lockstep(objective, config, starts, seed_rngs)
            want = reference_lockstep(objective, config, starts, seed_rngs)
            assert result_key(got) == result_key(want)
            split += groups[-2:] == [(2, 1), (1, 1)]
    assert split


def recorded(objective):
    """The objective and a log of what reaches it: the bytes of each
    ``fn`` input, and each ``fn_batch`` block's row count and bytes."""
    log = {"fn": [], "fn_batch": [], "batch_bytes": []}

    def fn(raw):
        log["fn"].append(raw.tobytes())
        return objective.fn(raw)

    def fn_batch(raw):
        log["fn_batch"].append(len(raw))
        log["batch_bytes"].append(raw.tobytes())
        return objective.fn_batch(raw)

    batch = None if objective.fn_batch is None else fn_batch
    return dataclasses.replace(objective, fn=fn, fn_batch=batch), log


@pytest.mark.parametrize("batch", [True, False], ids=["fn_batch", "fn-only"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_stage_sends_the_reference_points_to_the_objective(problem, threads, batch):
    # Seeded runs against the per-thread reference, which screens each
    # pattern point with is_tabu and evaluates it through evaluate: the
    # results agree bit for bit, fn receives the same points (pattern
    # points, starts and relocations, plus the axial rows without
    # fn_batch), and fn_batch the same rows, one block per stage. Without
    # fn_batch two threads' axial rows come before their pattern points,
    # so only there the order of the fn calls differs.
    objective = PROBLEMS[problem]()
    if not batch:
        objective = dataclasses.replace(objective, fn_batch=None)
    starts, seed_rngs = lockstep_setup(threads)
    for seed in (0, 1):
        config = SearchConfig(seed=seed, max_evals=3000, intensify_after=1, diversify_after=2, reduce_after=3)
        got_objective, got = recorded(objective)
        want_objective, want = recorded(objective)
        result = run_lockstep(got_objective, config, starts, seed_rngs)
        assert result_key(result) == result_key(reference_lockstep(want_objective, config, starts, seed_rngs))
        if batch or threads == 1:
            assert got["fn"] == want["fn"]
        else:
            assert sorted(got["fn"]) == sorted(want["fn"])
        assert len(got["fn"]) == result.evals - sum(got["fn_batch"])
        assert sum(got["fn_batch"]) == sum(want["fn_batch"])
        assert b"".join(got["batch_bytes"]) == b"".join(want["batch_bytes"])
        assert len(got["fn_batch"]) <= len(want["fn_batch"])
        assert (len(got["fn_batch"]) > 0) == batch


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_every_adopted_point_carries_its_raw_row(problem, threads, monkeypatch):
    # Starts, exploration and pattern points and relocations all reach
    # ThreadState.adopt; each carries denormalize of its x, as do the
    # thread bests and the global best, and the reported best_raw is a
    # copy of the best's raw row.
    objective = PROBLEMS[problem]()
    space = objective.space
    adopted = []
    real_adopt = control.ThreadState.adopt

    def adopt(state, point, memory):
        adopted.append(point)
        real_adopt(state, point, memory)

    monkeypatch.setattr(control.ThreadState, "adopt", adopt)
    starts, seed_rngs = lockstep_setup(threads)
    config = SearchConfig(seed=0, max_evals=3000, intensify_after=1, diversify_after=2, reduce_after=3)
    result = run_lockstep(objective, config, starts, seed_rngs)
    assert len(adopted) > 20
    for point in adopted + [result.best] + [t.best for t in result.threads]:
        assert point.raw.tobytes() == denormalize(space, point.x).tobytes()
    for best_raw, best in [(result.best_raw, result.best)] + [(t.best_raw, t.best) for t in result.threads]:
        assert best_raw.tobytes() == best.raw.tobytes()
        assert not np.shares_memory(best_raw, best.raw)


def test_run_single_best_raw_is_a_copy():
    objective = make_schwefel10()
    result = control.run_single(objective, SearchConfig(max_evals=500))
    assert result.best_raw.tobytes() == result.best.raw.tobytes()
    assert not np.shares_memory(result.best_raw, result.best.raw)


def test_sentinel_best_carries_the_start_raw_row():
    # A thread's best before any feasible point is a sentinel at its
    # start; a step reduction restarts from it, so it needs the raw row.
    objective = make_schwefel10()
    point = evaluate(objective, np.full(10, 0.25))
    state = fresh_state(point, SearchConfig())
    assert state.best.raw is point.raw and state.best.x is point.x
    assert not state.best.feasible


def test_base_without_a_raw_row_is_named():
    # A hand-built base has no raw row; the stage says so instead of
    # sending NaN rows to the objective.
    objective, calls = counted(make_schwefel10())
    base = SearchPoint(x=np.full(10, 0.5), value=1.0, feasible=True)
    state = fresh_state(base, SearchConfig(), thread_id=1)
    with pytest.raises(ValueError, match="^thread 1's base has no raw row"):
        hj_stage([state], objective, IntermediateMemory())
    assert calls == [0]


def test_stage_of_no_states_steps_none():
    objective = make_schwefel10()
    assert hj_stage([], objective, IntermediateMemory()) == []
    assert hj_stage([], objective, IntermediateMemory(), budget=0) == []


@pytest.mark.parametrize("budget", [0, -5, 0.0, 1])
def test_first_state_steps_whatever_the_budget(budget):
    # A budget at or below zero still steps the first thread, as the
    # driver's serial rule does: a thread steps while the total spent
    # before it is below the budget.
    objective = make_schwefel10()
    memory = IntermediateMemory()
    config = SearchConfig()
    states = []
    for i, x in enumerate((np.full(10, 0.25), np.full(10, 0.75))):
        point = evaluate(objective, x)
        state = fresh_state(point, config, thread_id=i)
        state.adopt(point, memory)
        states.append(state)
    steps = hj_stage(states, objective, memory, budget=budget)
    assert len(steps) == 1
    assert steps[0][1] == states[0].evals - 1 > 0
    assert states[1].evals == 1
