import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabukit.core import (
    Objective,
    ParameterSpace,
    SearchPoint,
    clamp,
    evaluate,
)
from tabukit.control import SearchConfig, fresh_state
from tabukit.hillclimb import (
    IMPROVED,
    NOT_IMPROVED,
    STALLED,
    axial_moves,
    explore,
    hj_step,
    pattern_move,
)
from tabukit.memory import IntermediateMemory, TabuList


def make_objective(fn, dim=1, record=None):
    """Minimization objective over [0,1]^dim given a normalized-space fn."""
    space = ParameterSpace.cube(0.0, 1.0, dim, min_step=1e-6)

    def wrapped(raw):
        if record is not None:
            record.append(np.array(raw))
        return float(fn(raw)), True

    return Objective(space=space, fn=wrapped)


def eval_point(obj, x, value_fn):
    x = np.asarray(x, dtype=float)
    return SearchPoint(x=x, value=float(value_fn(x)), feasible=True)


class TestAxialMoves:
    def test_generates_2n_candidates(self):
        moves = axial_moves(np.array([0.5, 0.5]), 0.1, TabuList())
        assert len(moves.x) == 4
        got = {tuple(np.round(x, 12)) for x in moves.x}
        assert got == {(0.6, 0.5), (0.4, 0.5), (0.5, 0.6), (0.5, 0.4)}

    def test_order_is_axis_major_increment_first(self):
        moves = axial_moves(np.array([0.5, 0.5]), 0.1, TabuList())
        provenance = list(zip(moves.axis.tolist(), moves.sign.tolist()))
        assert provenance == [(0, 1), (0, -1), (1, 1), (1, -1)]

    def test_clamping(self):
        moves = axial_moves(np.array([0.5, 0.5]), 0.6, TabuList())
        got = {tuple(x) for x in moves.x}
        assert got == {(1.0, 0.5), (0.0, 0.5), (0.5, 1.0), (0.5, 0.0)}

    def test_degenerate_clamped_candidates_dropped(self):
        # Base on the lower bound: the decrement clamps onto the base.
        moves = axial_moves(np.array([0.0]), 0.1, TabuList())
        assert list(zip(moves.axis.tolist(), moves.sign.tolist())) == [(0, 1)]

    def test_tabu_candidates_filtered_and_counted(self):
        tabu = TabuList()
        tabu.push(np.array([0.4, 0.5]))
        moves = axial_moves(np.array([0.5, 0.5]), 0.1, tabu)
        assert moves.tabu_rejected == 1
        assert len(moves.x) == 3
        for x in moves.x:
            assert not tabu.is_tabu(x)

    def test_candidates_subset_of_axial_neighbors(self):
        base = np.array([0.15, 0.8, 0.5])
        step = 0.3
        moves = axial_moves(base, step, TabuList())
        allowed = set()
        for i in range(3):
            for sign in (1, -1):
                x = base.copy()
                x[i] += sign * step
                allowed.add(tuple(clamp(x)))
        for x in moves.x:
            assert tuple(x) in allowed


class TestExplore:
    def test_picks_lowest_value(self):
        obj = make_objective(lambda raw: raw[0])
        base = eval_point(obj, [0.5], lambda x: x[0])
        best, moves = explore(base, 0.25, obj, TabuList())
        assert best.x[0] == pytest.approx(0.25)
        assert len(moves.x) == 2

    def test_tabu_forces_uphill_move(self):
        obj = make_objective(lambda raw: raw[0])
        base = eval_point(obj, [0.5], lambda x: x[0])
        tabu = TabuList()
        tabu.push(np.array([0.25]))
        best, _ = explore(base, 0.25, obj, tabu)
        # 0.75 is worse than the base but it is the only allowable move.
        assert best.x[0] == pytest.approx(0.75)

    def test_all_candidates_tabu_returns_none(self):
        calls = []
        obj = make_objective(lambda raw: raw[0], record=calls)
        base = eval_point(obj, [0.5], lambda x: x[0])
        tabu = TabuList()
        tabu.push(np.array([0.25]))
        tabu.push(np.array([0.75]))
        best, moves = explore(base, 0.25, obj, tabu)
        assert best is None
        assert moves.tabu_rejected == 2
        assert calls == []

    def test_infeasible_candidates_evaluated_but_excluded(self):
        space = ParameterSpace.cube(0.0, 1.0, 1, min_step=1e-6)
        calls = []
        obj = Objective(space, fn=lambda raw: (calls.append(raw) or float(raw[0]), raw[0] > 0.4))
        base = SearchPoint(x=np.array([0.5]), value=0.5, feasible=True)
        best, moves = explore(base, 0.25, obj, TabuList())
        assert best.x[0] == pytest.approx(0.75)
        assert moves.infeasible_rejected == 1
        # The infeasible candidate still cost an evaluation.
        assert len(calls) == 2

    def test_returns_minimum_of_evaluated_candidates(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            coeffs = rng.random(3)
            record = []
            obj = make_objective(
                lambda raw, c=coeffs: float(np.sum(c * (raw - 0.3) ** 2)),
                dim=3,
                record=record,
            )
            base_x = rng.random(3)
            base = evaluate(obj, base_x)
            record.clear()
            best, _ = explore(base, 0.17, obj, TabuList())
            evaluated = [float(np.sum(coeffs * (r - 0.3) ** 2)) for r in record]
            assert best.value == min(evaluated)

    def test_tie_break_prefers_first_generated(self):
        obj = make_objective(lambda raw: 1.0, dim=2)  # flat: all ties
        base = eval_point(obj, [0.5, 0.5], lambda x: 1.0)
        best, _ = explore(base, 0.1, obj, TabuList())
        # Increment of variable 0 wins every tie.
        assert np.allclose(best.x, [0.6, 0.5])

    def test_rejects_nonpositive_step(self):
        obj = make_objective(lambda raw: raw[0])
        base = eval_point(obj, [0.5], lambda x: x[0])
        with pytest.raises(ValueError):
            explore(base, 0.0, obj, TabuList())


class TestPatternMove:
    def test_doubling(self):
        out = pattern_move(np.array([0.4]), np.array([0.5]), k=1.0)
        assert out[0] == pytest.approx(0.6)

    def test_identity_when_no_move(self):
        out = pattern_move(np.array([0.5]), np.array([0.5]), k=1.0)
        assert out[0] == 0.5

    def test_clamped(self):
        out = pattern_move(np.array([0.2]), np.array([0.8]), k=2.0)
        assert out[0] == 1.0

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            pattern_move(np.array([0.2]), np.array([0.4]), k=0.0)

    @given(
        st.lists(st.floats(0.3, 0.7), min_size=2, max_size=2),
        st.lists(st.floats(0.3, 0.7), min_size=2, max_size=2),
        st.floats(0.1, 0.4),
    )
    def test_collinearity_before_clamping(self, old, new, k):
        # With these ranges the raw pattern point stays inside [0,1],
        # so the clamp is a no-op and the extension formula holds exactly.
        old = np.asarray(old)
        new = np.asarray(new)
        out = pattern_move(old, new, k)
        assert np.array_equal(out, new + k * (new - old))
        assert np.max(np.abs((out - new) - k * (new - old))) <= 1e-12


def quadratic_setup(base_x, fn=None, step=0.1):
    fn = fn or (lambda raw: (raw[0] - 0.3) ** 2)
    obj = make_objective(fn)
    base = evaluate(obj, np.asarray(base_x, dtype=float))
    state = fresh_state(base, SearchConfig(step_initial=step))
    state.tabu.push(base.x)
    state.observe(base)
    return obj, state


class TestHjStep:
    def test_pattern_point_adopted_when_better(self):
        # f = (x-0.3)^2 from 0.5: explore picks 0.4, pattern reaches the
        # optimum at 0.3 and must become the new base.
        obj, state = quadratic_setup([0.5])
        shared = IntermediateMemory()
        outcome = hj_step(state, obj, shared)
        assert outcome == IMPROVED
        assert state.base.x[0] == pytest.approx(0.3)
        assert state.base.value == pytest.approx(0.0, abs=1e-12)

    def test_exploration_point_kept_when_pattern_worse(self):
        # f = (x-0.42)^2 from 0.3: explore picks 0.4; its pattern
        # extension 0.5 overshoots the optimum and is worse, so the
        # exploration point itself is adopted.
        obj, state = quadratic_setup(
            [0.3], fn=lambda raw: (raw[0] - 0.42) ** 2
        )
        before = state.evals
        outcome = hj_step(state, obj, IntermediateMemory())
        assert state.base.x[0] == pytest.approx(0.4)
        assert outcome == IMPROVED
        assert state.evals - before == 3

    def test_uphill_move_adopted_when_base_is_optimal(self):
        # From the optimum every neighbor is worse; the least-bad one is
        # still adopted (the increment wins the exact tie at step 0.25)
        # but the thread's best did not improve.
        obj, state = quadratic_setup(
            [0.5], fn=lambda raw: (raw[0] - 0.5) ** 2, step=0.25
        )
        outcome = hj_step(state, obj, IntermediateMemory())
        assert outcome == NOT_IMPROVED
        assert state.base.x[0] == pytest.approx(0.75)
        assert state.best.value == 0.0

    def test_stalled_when_all_neighbors_tabu(self):
        obj, state = quadratic_setup([0.5])
        state.tabu.push(np.array([0.4]))
        state.tabu.push(np.array([0.6]))
        before = state.evals
        base_before = state.base
        outcome = hj_step(state, obj, IntermediateMemory())
        assert outcome == STALLED
        assert state.evals == before
        assert state.base is base_before

    def test_eval_economy(self):
        # Never more than 2N+1 evaluations per step (2N neighbors + pattern).
        rng = np.random.default_rng(11)
        dim = 4
        calls = []
        obj = make_objective(lambda raw: float(np.sum((raw - 0.37) ** 2)), dim=dim, record=calls)
        base = evaluate(obj, rng.random(dim))
        state = fresh_state(base, SearchConfig())
        state.observe(base)
        shared = IntermediateMemory()
        for _ in range(30):
            before, calls_before = state.evals, len(calls)
            hj_step(state, obj, shared)
            assert state.evals - before == len(calls) - calls_before <= 2 * dim + 1

    def test_adopted_point_never_tabu_at_selection(self):
        rng = np.random.default_rng(13)
        obj = make_objective(lambda raw: float(np.sum(np.sin(7 * raw))), dim=3)
        base = evaluate(obj, rng.random(3))
        state = fresh_state(base, SearchConfig())
        state.tabu.push(base.x)
        state.observe(base)
        shared = IntermediateMemory()
        for _ in range(40):
            snapshot = [e.copy() for e in state.tabu.entries]
            before_tol = state.tabu.match_tol
            outcome = hj_step(state, obj, shared)
            if outcome == STALLED:
                break
            for entry in snapshot:
                assert np.max(np.abs(entry - state.base.x)) > before_tol

    def test_adopted_point_recorded_in_tabu_and_elite(self):
        obj, state = quadratic_setup([0.5])
        shared = IntermediateMemory()
        hj_step(state, obj, shared)
        assert state.tabu.is_tabu(state.base.x)
        assert shared.best().value == state.base.value

    def test_improvement_tracks_thread_best(self):
        obj, state = quadratic_setup([0.5])
        shared = IntermediateMemory()
        hj_step(state, obj, shared)
        assert state.best.value == state.base.value
        history_values = [v for _, v in state.history]
        assert history_values == sorted(history_values, reverse=True)
