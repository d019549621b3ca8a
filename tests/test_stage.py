"""Stacked lockstep stages against the plain reference in ``reference.py``.

The driver steps all live threads of a stage as one batched operation
(``hj_stage``), and ``axial_moves`` screens its probes from the base and
the moved coordinates alone. ``hj_stage`` screens each pattern point with
the mask of its thread's axial screen and builds its raw row from the
winner's. ``reference.py`` states the same search one point at a time,
without the engine's code: every probe built as a full row and clamped
with ``np.clip``, every tabu test and archive offer made one entry at a
time, and the driver loop stepping each live thread on its own, one step
after another. The engine must agree with it exactly.
"""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference
from reference import PROBLEMS, Tabu, axial_probes
from tabukit import control, hillclimb
from tabukit.benchmarks import make_schwefel10
from tabukit.control import SearchConfig, fresh_threads, resolved_step_min, run_lockstep, run_single
from tabukit.core import Objective, ParameterSpace, SearchPoint, clamp, denormalize, evaluate
from tabukit.hillclimb import _probe_order, axial_moves, hj_stage
from tabukit.memory import TabuList, screen_axial
from tabukit.multithread import MultiConfig, run_multi
from support import UNIT, adopted_threads, spied


def reference_moves(base_x, step, tabu):
    """(axes, moved coordinates, tabu hits) of the reference's allowable
    probes around ``base_x``, against the reference tabu list ``tabu``."""
    probes, hits = axial_probes(base_x, step, tabu)
    return [a for _, a, _ in probes], np.array([x[a] for x, a, _ in probes]), hits


def tabu_pair(capacity, tol):
    """An engine tabu list and a reference one, to push the same entries to."""
    return TabuList(capacity, tol), Tabu(capacity, tol)


def point_key(p):
    return p.x.tobytes(), float(p.value).hex(), p.feasible


def run_key(r):
    """The fields of a RunResult, with floats as exact bits."""
    return point_key(r.best), r.best_raw.tobytes(), r.evals, r.terminated_by, r.history


def result_key(r):
    """Every compared field of a lockstep run, engine or reference, with
    floats as exact bits."""
    return run_key(r) + (
        r.stages,
        getattr(r.collisions, "events", r.collisions),
        [
            (t.thread_id, point_key(t.best), t.best_raw.tobytes(), t.evals, float(t.step_final).hex(), t.history)
            for t in r.threads
        ],
    )


def seeded_rngs(threads, seed):
    """Thread i's generator, as ``run_lockstep`` seeds its threads: for one
    thread ``default_rng(seed)``, else child i of the seed's ``SeedSequence``."""
    if threads == 1:
        return [np.random.default_rng(seed)]
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(threads)]


def lockstep_setup(threads, start=None):
    """The starts of ``run_lockstep`` for ``threads`` threads, all at
    ``start``; None draws them at random."""
    return [(f"start (thread {i})", start) for i in range(threads)]


def reference_run(objective, config, threads, start=None, step_ends=None):
    """The reference lockstep run that ``lockstep_setup(threads, start)`` sets up."""
    return reference.lockstep(objective, config, [start] * threads, seeded_rngs(threads, config.seed), step_ends)


# --- axial_moves against the reference's full-row probes ------------------

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
    tabu, ref = tabu_pair(capacity, tol)
    # From an empty list up to three times the capacity, so the ring wraps.
    for _ in range(data.draw(st.integers(0, 3 * capacity))):
        if data.draw(st.booleans()):
            entry = point.copy()
            for _ in range(data.draw(st.integers(0, 2))):
                j = data.draw(st.integers(0, n - 1))
                entry[j] += data.draw(st.sampled_from([tol, -tol, 2 * tol, 1 / 32]))
            entry = clamp(entry)
        else:
            entry = data.draw(tabu_entry(base, 1 / 16, tol))
        tabu.push(entry)
        ref.push(entry)
    axis, sign = _probe_order(n)
    probes = clamp(base[axis] + sign / 16).reshape(1, 1, -1)
    _, rest_near = screen_axial(base.reshape(1, 1, -1), tabu.block(n), axis, probes, tol)
    want = ref.is_tabu(point)
    assert tabu.axial_is_tabu(rest_near[0], a, p) == want
    assert tabu.is_tabu(point) == tabu.is_tabu(point + 0.0) == want


@st.composite
def screen_cases(draw):
    """(tol, capacity, threads): one to three threads, each a base, a step
    and the entries pushed to its ring, from none up to three times the
    capacity, so that the ring wraps."""
    n, tol, capacity = draw(st.integers(1, 5)), draw(st.sampled_from(TOLS)), draw(st.integers(1, 4))
    coordinate = st.one_of(GRID, st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
    threads = []
    for _ in range(draw(st.integers(1, 3))):
        base = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
        step = draw(st.sampled_from([1 / 32, 1 / 16, 0.25, 0.6, 0.1]))
        entries = [draw(tabu_entry(base, step, tol)).tolist() for _ in range(draw(st.integers(0, 3 * capacity)))]
        threads.append((base.tolist(), step, entries))
    return tol, capacity, threads


@settings(max_examples=300, deadline=None)
@given(case=screen_cases())
@example(case=(1e-6, 7, [([0.5, 0.5], 0.6, [])]))  # every probe clamped onto a bound
@example(case=(1e-6, 7, [([0.0], 0.1, [])]))  # a probe clamped onto its base
@example(case=(1e-6, 7, [([0.5, 0.5], 0.1, [[0.4, 0.5]])]))  # a tabu probe
# At tol = 1/16 around [0.5, 0, 1] by 0.125: probe +x0 lies exactly tol off an entry on its own axis,
# -x0 exactly tol off on another axis, +x1 2 tol off (allowed) and -x2 tol off on two axes (tabu).
@example(
    case=(1 / 16, 4, [([0.5, 0, 1], 0.125, [[0.6875, 0, 1], [0.375, 1 / 16, 1], [0.5, 0.25, 0.9375], [0.5625, 0, 0.8125]])])
)
def test_stacked_screen_matches_screen_row_by_row(case):
    # T threads screened in one call, each against its own ring: rings
    # filled to different depths and wrapped, bases with signed zeros and
    # bound coordinates, steps that clamp probes onto both bounds, and
    # entries a tolerance off. The mask is the reference tabu test of
    # every probe built as a full row, and axial_moves gives the
    # reference's probes, thread by thread, for every thread.
    tol, capacity, threads = case
    bases = np.array([base for base, _, _ in threads], dtype=float)
    steps = np.array([step for _, step, _ in threads])
    n = bases.shape[1]
    rings = np.full((len(threads), capacity, n), np.inf)
    tabus = [TabuList(capacity, tol, ring) for ring in rings]
    refs = [Tabu(capacity, tol) for _ in threads]
    for (_, _, entries), tabu, ref in zip(threads, tabus, refs):
        for entry in np.array(entries, dtype=float).reshape(-1, n):
            tabu.push(entry)
            ref.push(entry)
    axis, sign = _probe_order(n)
    moved = clamp(bases[:, axis] + sign * steps[:, np.newaxis])
    hit, rest_near = screen_axial(bases[:, np.newaxis], rings, axis, moved[:, np.newaxis], tol)
    assert hit.shape == (len(threads), 1, 2 * n) and rest_near.shape == rings.shape
    for t, ref in enumerate(refs):
        for p in range(2 * n):
            row = bases[t].copy()
            row[axis[p]] = moved[t, p]
            assert hit[t, 0, p] == ref.is_tabu(row)

    wants = [reference_moves(base, step, ref) for base, step, ref in zip(bases, steps, refs)]
    got = axial_moves(bases[:, np.newaxis], steps.reshape(-1, 1, 1), rings, tol)
    assert got.counts == [len(axes) for axes, _, _ in wants]
    assert got.axis.tolist() == [a for axes, _, _ in wants for a in axes]
    assert got.moved.tobytes() == b"".join(moved.tobytes() for _, moved, _ in wants)
    assert got.tabu_rejected == sum(hits for _, _, hits in wants)
    assert got.rest_near.tobytes() == rest_near.tobytes()


# --- whole runs against the reference -------------------------------------


@st.composite
def schedules(draw):
    """(intensify_after, diversify_after, reduce_after): the defaults, a
    restructure every step, or drawn."""
    drawn = st.lists(st.integers(1, 20), min_size=3, max_size=3, unique=True).map(lambda t: tuple(sorted(t)))
    return draw(st.one_of(st.sampled_from([(5, 10, 15), (1, 2, 3)]), drawn))


#: The SearchConfig defaults of the settings that the run test draws.
DEFAULTS = {"n_tabu": 7, "m_elite": 10, "k_pattern": 1.0, "match_tol": 1e-6}


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@settings(max_examples=8, deadline=None)
@given(
    threads=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**16),
    n_tabu=st.integers(1, 9),
    m_elite=st.integers(1, 12),
    schedule=schedules(),
    k_pattern=st.one_of(st.sampled_from([1.0, 0.5, 2.0]), st.floats(0.05, 3.0)),
    # At 0 a probe or pattern point that returns onto a tabu entry sits
    # exactly at the tolerance.
    match_tol=st.sampled_from([0.0, 1e-8, 1e-6, 1 / 64]),
    start=st.sampled_from(["random", "equal", "flat"]),
    step_min=st.sampled_from([None, 0.05]),
    budget=st.one_of(
        st.tuples(st.just("edge"), st.integers(0, 10_000), st.integers(-1, 2)),
        st.tuples(st.just("any"), st.integers(1, 1500), st.just(0)),
    ),
)
# Two threads from one start tie on their best values, so the token's
# tie-break decides: at seed 0 the tied threads both ask in some stage on
# every problem but bump50. With schedule (5, 10, 15) the schwefel10 and
# circuit runs end on the step_min 0.05 floor.
@example(**DEFAULTS, threads=2, seed=0, schedule=(5, 10, 15), start="equal", step_min=0.05, budget=("any", 3000, 0))
@example(**DEFAULTS, threads=2, seed=0, schedule=(1, 2, 3), start="equal", step_min=0.05, budget=("any", 3000, 0))
# From a flat start the schwefel10 probes on different axes tie, so the
# first-on-ties rule decides the move; the two threads tie on every problem.
@example(**DEFAULTS, threads=2, seed=0, schedule=(1, 2, 3), start="flat", step_min=0.05, budget=("any", 800, 0))
# At tolerance 0 a probe back onto the previous base is tabu only because
# the match is inclusive.
@example(
    **(DEFAULTS | {"match_tol": 0.0}), threads=1, seed=0, schedule=(5, 10, 15), start="random", step_min=None,
    budget=("any", 800, 0),
)
def test_stacked_stage_matches_serial_threads(
    problem, threads, seed, n_tabu, m_elite, schedule, k_pattern, match_tol, start, step_min, budget
):
    # run_single (one thread), run_multi (two) and run_lockstep (one to
    # three) against the reference: the whole run bit for bit. Starts are
    # random per thread, one random point for all threads, or one with
    # every coordinate equal, where probes on different axes tie.
    objective = PROBLEMS[problem]()
    n = objective.space.dimension
    rng = np.random.default_rng(seed)
    x0 = {"random": None, "equal": rng.random(n), "flat": np.full(n, rng.random())}[start]
    intensify, diversify, reduce = schedule
    # Below every step the run can reach: from a tolerance at or above the
    # step on, a run may never end (test_run_ends_when_the_tolerance_reaches_the_step).
    assume(match_tol < (step_min or resolved_step_min(SearchConfig(), objective.space)))

    def config(max_evals):
        return SearchConfig(
            n_tabu=n_tabu,
            m_elite=m_elite,
            k_pattern=k_pattern,
            step_min=step_min,
            intensify_after=intensify,
            diversify_after=diversify,
            reduce_after=reduce,
            match_tol=match_tol,
            max_evals=max_evals,
            seed=seed,
        )

    kind, pick, offset = budget
    if kind == "edge":
        # End the budget just after some thread's step, found on a longer
        # run: the next thread of that stage then sits at the budget edge.
        step_ends = []
        reference_run(objective, config(1200), threads, x0, step_ends)
        max_evals = max(1, step_ends[pick % len(step_ends)] + offset)
    else:
        max_evals = pick
    want = reference_run(objective, config(max_evals), threads, x0)
    if threads == 2:
        got = run_multi(objective, MultiConfig(config(max_evals), x0, x0))
    else:
        got = run_lockstep(objective, config(max_evals), lockstep_setup(threads, x0))
    assert result_key(got) == result_key(want)
    if threads == 1:
        assert run_key(run_single(objective, config(max_evals), x0)) == run_key(want)


#: Stages in a row that spend no evaluation before a run counts as looping.
#: Runs that end spend something at least every 45 stages: 90 runs on
#: schwefel10, bump20 and the circuit, seeds 0-4, one to three threads,
#: restructure schedules (5, 10, 15) and (1, 2, 3).
IDLE_STAGES = 1000


@pytest.mark.xfail(raises=TimeoutError, strict=True, reason="known fault: the run never ends (CHANGES.md FOUND)")
def test_run_ends_when_the_tolerance_reaches_the_step(monkeypatch):
    # From a step at or below the tabu tolerance on, every probe of a
    # thread matches its own base, so its steps spend nothing and only
    # the restructure thresholds move it. Here thread 0's reduce request
    # is lost while its earlier request waits for the token; its failure
    # count then passes every threshold, and it stalls at step 0.0125
    # after thread 1 has reached the floor. The run is stopped after
    # IDLE_STAGES stages in a row that spend nothing.
    config = SearchConfig(seed=3, max_evals=1500, match_tol=0.05, intensify_after=1, diversify_after=2, reduce_after=3)
    real_stage, idle = control.hj_stage, [0]

    def stage(table, *args, **kwargs):
        before = sum(table.evals)
        outcomes = real_stage(table, *args, **kwargs)
        idle[0] = 0 if sum(table.evals) > before else idle[0] + 1
        if idle[0] == IDLE_STAGES:
            raise TimeoutError(f"{IDLE_STAGES} stages in a row spent no evaluation")
        return outcomes

    monkeypatch.setattr(control, "hj_stage", stage)
    run_lockstep(make_schwefel10(), config, lockstep_setup(2))


#: What ``reference.py`` may take from ``tabukit``: the problem definitions.
PROBLEM_DEFINITIONS = {
    "Objective", "ParameterSpace", "MAXIMIZE", "MINIMIZE", "make_bump", "make_schwefel10", "make_circuit"
}


def test_reference_imports_only_problem_definitions():
    # The reference checks the engine only while it shares no code with it.
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [alias.name for alias in node.names if alias.name.partition(".")[0] == "tabukit"]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "tabukit"):
            taken += [alias.name for alias in node.names]
    assert taken
    assert set(taken) <= PROBLEM_DEFINITIONS, sorted(set(taken) - PROBLEM_DEFINITIONS)


def spied_stages(monkeypatch):
    """Record each ``hj_stage`` call of the driver as (total spent before
    it, rows offered), and check that it steps every row offered."""
    real_stage, calls = control.hj_stage, []

    def stage(threads, rows, *args):
        calls.append((sum(threads.evals), list(rows)))
        steps = real_stage(threads, rows, *args)
        assert len(steps) == len(rows)
        return steps

    monkeypatch.setattr(control, "hj_stage", stage)
    return calls


def admitted(max_evals, total, n):
    """How many threads the driver's bound admits to one call with
    ``total`` spent: a thread step spends at most 2n + 1."""
    return 1 + (max_evals - total - 1) // (2 * n + 1)


def test_budget_edge_splits_a_stage(monkeypatch):
    """Near the budget the driver's bound admits thread 0 alone; thread 1
    still steps when the actual total allows it, in a second call."""
    objective = make_schwefel10()
    starts = lockstep_setup(2)
    step_ends = []
    reference_run(objective, SearchConfig(seed=3, max_evals=600), 2, step_ends=step_ends)
    calls = spied_stages(monkeypatch)
    split = 0
    for end in step_ends[::2]:  # where thread 0's steps end
        for offset in (0, 1):
            calls.clear()
            config = SearchConfig(seed=3, max_evals=end + offset)
            got = run_lockstep(objective, config, starts)
            assert result_key(got) == result_key(reference_run(objective, config, 2))
            assert all(len(rows) <= admitted(config.max_evals, total, 10) for total, rows in calls)
            split += [rows for _, rows in calls[-2:]] == [[0], [1]]
    assert split


@pytest.mark.parametrize("problem", ["schwefel10", "bump20"])
def test_runs_across_a_stage_window_match_the_reference(problem, monkeypatch):
    # Three live threads start a stage with T spent. As the budget sweeps
    # from T + 1 to T + 2(2N + 1) + 1, the driver's bound admits one, two
    # and then all three of them to the stage's first call. Every split
    # point and the budgets on either side of it are swept, and each run
    # must equal the reference's.
    objective = PROBLEMS[problem]()
    n = objective.space.dimension
    starts = lockstep_setup(3)
    calls = spied_stages(monkeypatch)
    run_lockstep(objective, SearchConfig(seed=1, max_evals=1500), starts)
    whole = [total for total, rows in calls if rows == [0, 1, 2]]
    start = whole[len(whole) // 2]  # a stage well inside the run, after restructures
    admits = set()
    for max_evals in range(start + 1, start + 2 * (2 * n + 1) + 2):
        config = SearchConfig(seed=1, max_evals=max_evals)
        calls.clear()
        got = run_lockstep(objective, config, starts)
        assert result_key(got) == result_key(reference_run(objective, config, 3))
        [first] = [rows for total, rows in calls if total == start]
        assert len(first) == min(3, admitted(max_evals, start, n))
        admits.add(len(first))
    assert admits == {1, 2, 3}


def test_one_axial_moves_call_per_stage_for_the_stepping_threads(monkeypatch):
    """hj_stage screens and builds the probes of all its threads in one
    axial_moves call, and steps every thread that it is offered, also at
    the budget edge, where the driver offers fewer."""
    real_moves, real_stage = hillclimb.axial_moves, control.hj_stage
    calls, stages = [], []

    def axial_moves(*args):
        moves = real_moves(*args)
        calls.append(len(moves.counts))
        return moves

    def stage(threads, rows, *args):
        calls.clear()
        steps = real_stage(threads, rows, *args)
        stages.append((len(rows), len(steps), list(calls)))
        return steps

    monkeypatch.setattr(hillclimb, "axial_moves", axial_moves)
    monkeypatch.setattr(control, "hj_stage", stage)
    objective = make_schwefel10()
    starts = lockstep_setup(3)
    for max_evals in range(300, 400, 9):
        run_lockstep(objective, SearchConfig(seed=2, max_evals=max_evals), starts)
    assert all(calls == [stepped] and stepped == offered for offered, stepped, calls in stages)
    assert any(offered < 3 for offered, _, _ in stages)


@pytest.mark.parametrize("batch", [True, False], ids=["fn_batch", "fn-only"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_stage_sends_the_reference_points_to_the_objective(problem, threads, batch):
    # Seeded runs against the reference, which sends every point to fn on
    # its own: the results agree bit for bit, and the objective receives
    # the same rows. At one thread they come in the same order. Two
    # threads' axial rows come before their pattern points, so there only
    # the order differs.
    objective = PROBLEMS[problem]()
    if not batch:
        objective = dataclasses.replace(objective, fn_batch=None, fn_axial=None)
    starts = lockstep_setup(threads)
    for seed in (0, 1):
        config = SearchConfig(seed=seed, max_evals=1500, intensify_after=1, diversify_after=2, reduce_after=3)
        got_objective, got = spied(objective)
        want_objective, want = spied(objective)
        result = run_lockstep(got_objective, config, starts)
        assert result_key(result) == result_key(reference_run(want_objective, config, threads))
        if threads == 1:
            assert got.rows == want.rows
        else:
            assert sorted(got.rows) == sorted(want.rows)
        assert len(got.rows) == result.evals
        assert (got.batch_calls > 0) == batch
        # Every engine block comes with its structure, so an objective with
        # fn_axial receives no fn_batch call.
        assert got.axial_calls == (got.batch_calls if objective.fn_axial else 0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_every_adopted_point_carries_its_raw_row(problem, threads, monkeypatch):
    # Starts, exploration and pattern points and relocations all reach
    # Threads.adopt; each carries denormalize of its x, as do the
    # thread bests and the global best, and the reported best_raw is a
    # copy of the best's raw row.
    objective = PROBLEMS[problem]()
    space = objective.space
    adopted = []
    real_adopt = control.Threads.adopt

    def adopt(threads, i, point):
        adopted.append(point)
        real_adopt(threads, i, point)

    monkeypatch.setattr(control.Threads, "adopt", adopt)
    config = SearchConfig(seed=0, max_evals=3000, intensify_after=1, diversify_after=2, reduce_after=3)
    result = run_lockstep(objective, config, lockstep_setup(threads))
    assert len(adopted) > 20
    for point in adopted + [result.best] + [t.best for t in result.threads]:
        assert point.raw.tobytes() == denormalize(space, point.x).tobytes()
    for best_raw, best in [(result.best_raw, result.best)] + [(t.best_raw, t.best) for t in result.threads]:
        assert best_raw.tobytes() == best.raw.tobytes()
        assert not np.shares_memory(best_raw, best.raw)


def test_run_single_best_raw_is_a_copy():
    objective = make_schwefel10()
    result = run_single(objective, SearchConfig(max_evals=500))
    assert result.best_raw.tobytes() == result.best.raw.tobytes()
    assert not np.shares_memory(result.best_raw, result.best.raw)


def test_sentinel_best_carries_the_start_raw_row():
    # A thread's best before any feasible point is a sentinel at its
    # start; a step reduction restarts from it, so it needs the raw row.
    objective = make_schwefel10()
    point = evaluate(objective, np.full(10, 0.25))
    [best] = fresh_threads([point], SearchConfig()).best
    assert best.raw is point.raw and best.x is point.x
    assert not best.feasible


def test_base_without_a_raw_row_is_named():
    # A hand-built base has no raw row; the table says so instead of
    # holding a NaN row for the stage to send to the objective.
    objective, spy = spied(make_schwefel10())
    base = SearchPoint(x=np.full(10, 0.5), value=1.0, feasible=True)
    good = evaluate(make_schwefel10(), base.x)
    with pytest.raises(ValueError, match="^thread 1's base has no raw row"):
        fresh_threads([good, base], SearchConfig())
    with pytest.raises(ValueError, match="^thread 2's base has no raw row"):
        fresh_threads([good, good, base], SearchConfig())
    threads = fresh_threads([good, good], SearchConfig())
    with pytest.raises(ValueError, match="^thread 1's base has no raw row"):
        threads.adopt(1, base)
    assert spy.evals == 0


@pytest.mark.parametrize("batch", [True, False], ids=["fn_batch", "fn-only"])
def test_stage_winner_is_the_first_feasible_minimum_and_infeasible_rows_are_counted(batch, monkeypatch):
    # Thread 0's rows are all infeasible: it stalls and spends them.
    # Thread 1's are mixed: its infeasible row reports a lower value than
    # any feasible one and must not win; its feasible rows tie, so the
    # first of them wins. The block's infeasible rows are evaluated once
    # and counted in their threads' evals.
    space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-6)
    infeasible = []

    def fn_batch(raw):
        feasible = (0.5 <= raw[:, 0]) & (raw[:, 0] <= 0.8)
        infeasible.append(len(raw) - int(np.count_nonzero(feasible)))
        return np.where(raw[:, 0] > 0.8, -5.0, 1.0), feasible

    def fn(raw):
        values, feasible = fn_batch(raw[np.newaxis])
        return values.item(), bool(feasible[0])

    objective = Objective(space, fn, fn_batch=fn_batch if batch else None)
    real_moves, made = hillclimb.axial_moves, []

    def axial_moves(*args):
        made.append(real_moves(*args))
        return made[-1]

    monkeypatch.setattr(hillclimb, "axial_moves", axial_moves)
    threads = adopted_threads(objective, [np.full(2, x) for x in (0.25, 0.75)])
    stalled_base = threads.x[0].tobytes(), threads.raw[0].tobytes()
    infeasible.clear()  # the starts'

    outcomes = hj_stage(threads, [0, 1], objective)

    [moves] = made
    assert moves.counts == [4, 4]
    assert sum(infeasible) == 4 + 1
    assert outcomes == [hillclimb.STALLED, hillclimb.NOT_IMPROVED]  # thread 1's pattern point ties
    assert (threads.x[0].tobytes(), threads.raw[0].tobytes()) == stalled_base
    assert threads.evals == [1 + 4, 1 + 5]
    assert threads.x[1, 0].tolist() == [0.75 - 0.1, 0.75]  # the second row; the first moved past 0.8
    assert threads.raw[1].tobytes() == denormalize(space, threads.x[1, 0]).tobytes()
    assert threads.best[1].value == 1.0  # the start, which the tie does not replace


@settings(max_examples=60, deadline=None)
@given(problem=st.sampled_from(sorted(PROBLEMS)), threads=st.integers(1, 3), data=st.data())
def test_a_thread_step_spends_at_most_2n_plus_1(problem, threads, data):
    # The driver's budget bound rests on this: whatever the table, a stage
    # returns one outcome per row it is given, and each row spends at
    # most its 2N axial rows and one pattern point, all of it booked to
    # that thread's evals, and no other row spends. Starts on the bounds,
    # steps that clamp, tolerances that make probes tabu and stages in a
    # row that fill the rings.
    objective = PROBLEMS[problem]()
    n = objective.space.dimension
    tol = data.draw(st.sampled_from([0.0, 1e-6, 1 / 8]))
    config = SearchConfig(n_tabu=data.draw(st.integers(1, 9)), match_tol=tol)
    starts = [data.draw(st.lists(UNIT, min_size=n, max_size=n)) for _ in range(threads)]
    table = adopted_threads(objective, starts, config)
    steps = data.draw(st.lists(st.sampled_from([1 / 32, 0.1, 0.25, 0.6, 1.0]), min_size=threads, max_size=threads))
    table.step[:, 0, 0] = steps
    k_pattern = data.draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 3.0)))
    before = list(table.evals)
    assert hj_stage(table, [], objective, k_pattern) == [] and table.evals == before  # a stage of no rows
    for _ in range(data.draw(st.integers(1, 4))):
        order = data.draw(st.permutations(range(threads)))
        rows = order[: data.draw(st.integers(0, threads))]
        before = list(table.evals)
        assert len(hj_stage(table, rows, objective, k_pattern)) == len(rows)
        spent = [table.evals[i] - before[i] for i in range(threads)]
        assert all(0 <= s <= 2 * n + 1 if i in rows else s == 0 for i, s in enumerate(spent))


@pytest.mark.parametrize(
    "rows", [[1, 0], (1, 0), np.array([1, 0]), range(1, -1, -1)], ids=["list", "tuple", "ndarray", "range"]
)
def test_threads_out_of_row_order_step_in_their_order(rows):
    # Every row of the table, but not in row order: the stage steps the
    # threads in the order given, as stepping them one at a time does,
    # whatever sequence holds the rows.
    objective = make_schwefel10()

    def threads():
        return adopted_threads(objective, [np.full(10, x) for x in (0.25, 0.75)])

    got, want = threads(), threads()
    steps = hj_stage(got, rows, objective)
    assert steps == hj_stage(want, [1], objective) + hj_stage(want, [0], objective)
    for column in ("x", "raw", "step", "tabu"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert got.evals == want.evals
    assert got.memory.rows().tobytes() == want.memory.rows().tobytes()
