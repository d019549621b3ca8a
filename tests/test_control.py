import dataclasses
import math

import numpy as np
import pytest

from tabukit.control import (
    CONTINUE,
    DIVERSIFY,
    EVAL_BUDGET,
    INTENSIFY,
    REDUCE_STEP,
    STEP_FLOOR,
    SearchConfig,
    apply_action,
    control_decision,
    fresh_states,
    resolved_step_min,
    run_single,
)
from tabukit.core import Objective, ParameterSpace, evaluate
from tabukit.multithread import MultiConfig, run_multi


def interval_objective(fn, lower=-1.0, upper=1.0, min_step=1e-4, dim=1):
    space = ParameterSpace.cube(lower, upper, dim, min_step=min_step)
    return Objective(space=space, fn=lambda raw: (float(fn(raw)), True))


class TestControlDecision:
    def test_schedule_thresholds(self):
        cfg = SearchConfig()
        assert control_decision(0, cfg) == CONTINUE
        assert control_decision(4, cfg) == CONTINUE
        assert control_decision(5, cfg) == INTENSIFY
        assert control_decision(6, cfg) == CONTINUE
        assert control_decision(10, cfg) == DIVERSIFY
        assert control_decision(14, cfg) == CONTINUE
        assert control_decision(15, cfg) == REDUCE_STEP
        assert control_decision(16, cfg) == CONTINUE

    def test_custom_thresholds(self):
        cfg = SearchConfig(intensify_after=2, diversify_after=3, reduce_after=4)
        assert control_decision(2, cfg) == INTENSIFY
        assert control_decision(3, cfg) == DIVERSIFY
        assert control_decision(4, cfg) == REDUCE_STEP


class TestConfigValidation:
    def test_defaults_valid(self):
        SearchConfig().validate()

    def test_numpy_integers_accepted(self):
        plain = SearchConfig(n_tabu=7, m_elite=5, intensify_after=4, diversify_after=9, reduce_after=14)
        numpy_ints = dataclasses.replace(
            plain, n_tabu=np.int64(7), m_elite=np.int32(5), intensify_after=np.int64(4),
            diversify_after=np.int16(9), reduce_after=np.uint8(14),
        )
        numpy_ints.validate()
        obj = interval_objective(lambda raw: raw[0] ** 2)
        expected = run_single(obj, plain, start=np.array([0.5]))
        result = run_single(obj, numpy_ints, start=np.array([0.5]))
        assert (result.evals, result.best.value, result.history) == (expected.evals, expected.best.value, expected.history)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            SearchConfig(intensify_after=10, diversify_after=5).validate()
        with pytest.raises(ValueError):
            SearchConfig(reduce_after=10).validate()

    def test_factor_range(self):
        with pytest.raises(ValueError):
            SearchConfig(step_reduce_factor=1.0).validate()
        with pytest.raises(ValueError):
            SearchConfig(step_reduce_factor=0.0).validate()

    def test_step_initial_range(self):
        with pytest.raises(ValueError):
            SearchConfig(step_initial=0.0).validate()
        with pytest.raises(ValueError):
            SearchConfig(step_initial=1.5).validate()

    def test_step_min_range(self):
        with pytest.raises(ValueError):
            SearchConfig(step_min=0.5).validate()  # above step_initial

    @pytest.mark.parametrize(
        "name, value",
        [
            ("k_pattern", 0.0),
            ("k_pattern", math.inf),
            ("k_pattern", math.nan),
            ("match_tol", -1.0),
            ("match_tol", math.inf),
            ("match_tol", math.nan),
            ("max_evals", 0),
            ("max_evals", math.nan),
            ("max_evals", 2.5),
            ("seed", 2.5),
            ("seed", -1),
            ("seed", "3"),
            ("n_tabu", 2.5),
            ("n_tabu", math.nan),
            ("n_tabu", 7.0),
            ("m_elite", 2.5),
            ("m_elite", "5"),
            ("intensify_after", 2.5),
            ("diversify_after", 10.5),
            ("reduce_after", 15.5),
            ("reduce_after", math.inf),
            ("max_evals", True),
            ("n_tabu", True),
            ("seed", False),
        ],
    )
    def test_bad_value_rejected_before_any_evaluation(self, name, value):
        calls = []
        obj = interval_objective(lambda raw: calls.append(raw) or raw[0] ** 2)
        cfg = SearchConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            cfg.validate()
        with pytest.raises(ValueError, match=name):
            run_single(obj, cfg, start=np.array([0.5]))
        with pytest.raises(ValueError, match=name):
            run_multi(obj, MultiConfig(base=cfg))
        assert calls == []

    def test_step_min_derived_from_space(self):
        space = ParameterSpace(
            lower=np.array([0.0, 0.0]),
            upper=np.array([1.0, 100.0]),
            min_step=np.array([1e-4, 0.5]),
        )
        # max over variables: 0.5/100 = 5e-3 beats 1e-4/1.
        assert resolved_step_min(SearchConfig(), space) == pytest.approx(5e-3)
        assert resolved_step_min(SearchConfig(step_min=0.01), space) == 0.01


def seeded_state(obj, x0, config):
    base = evaluate(obj, np.asarray(x0, dtype=float))
    state = fresh_states([base], config)[0]
    state.tabu.push(base.x)
    state.observe(base)
    return state


class TestApplyAction:
    def test_continue_is_noop(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        before = state.evals
        base_before = state.base
        apply_action(state, CONTINUE, obj, cfg)
        assert state.evals == before
        assert state.base is base_before

    def test_reduce_step(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig(step_initial=0.1, step_reduce_factor=0.5)
        state = seeded_state(obj, [0.7], cfg)
        state.fail_count = 15
        before = state.evals
        apply_action(state, REDUCE_STEP, obj, cfg)
        assert state.step == 0.05
        assert state.fail_count == 0
        assert state.base is state.best
        assert state.evals == before  # no evaluation consumed

    def test_reduce_step_factor_exact(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        steps = [state.step]
        for _ in range(4):
            apply_action(state, REDUCE_STEP, obj, cfg)
            steps.append(state.step)
        for prev, cur in zip(steps, steps[1:]):
            assert cur == prev * cfg.step_reduce_factor
            assert cur < prev

    def test_intensify_moves_to_centroid(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        mem = state.memory
        for x, v in (([0.2], 2.0), ([0.4], 1.0)):
            mem.offer(evaluate(obj, np.array(x)))
        before = state.evals
        apply_action(state, INTENSIFY, obj, cfg)
        assert state.evals == before + 1
        assert state.base.x[0] == pytest.approx(0.3)
        assert state.tabu.is_tabu(state.base.x)

    def test_intensify_empty_memory_noop(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        before = state.evals
        base_before = state.base
        apply_action(state, INTENSIFY, obj, cfg)
        assert state.evals == before
        assert state.base is base_before

    def test_diversify_consumes_one_eval(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        mem = state.memory
        mem.offer(evaluate(obj, np.array([0.25])))
        before = state.evals
        apply_action(state, DIVERSIFY, obj, cfg)
        assert state.evals == before + 1
        # Single elite entry: the diversified point must copy its value.
        assert state.base.x[0] == 0.25

    def test_diversify_empty_memory_uses_random_point(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        before = state.evals
        apply_action(state, DIVERSIFY, obj, cfg)
        assert state.evals == before + 1
        assert 0.0 <= state.base.x[0] <= 1.0

    def test_relocations_offered_to_memory(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        mem = state.memory
        # Two entries so the centroid (0.25) is a genuinely new point.
        mem.offer(evaluate(obj, np.array([0.2])))
        mem.offer(evaluate(obj, np.array([0.3])))
        apply_action(state, INTENSIFY, obj, cfg)
        assert len(mem) == 3
        assert any(x[0] == pytest.approx(0.25) for x in mem.rows())

    def test_unknown_action_rejected(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        cfg = SearchConfig()
        state = seeded_state(obj, [0.7], cfg)
        with pytest.raises(ValueError):
            apply_action(state, "restart", obj, cfg)


class TestRunSingle:
    def test_convex_reaches_floor(self):
        # f(x) = x^2 on [-1, 1]: any descent method must end near 0.
        obj = interval_objective(lambda raw: raw[0] ** 2)
        result = run_single(obj, SearchConfig(seed=0), start=np.array([0.85]))
        assert result.terminated_by == STEP_FLOOR
        assert abs(result.best_raw[0]) <= 10 * 1e-4
        assert result.best.value <= 1e-6

    def test_budget_termination(self):
        obj = interval_objective(lambda raw: float(np.sum(raw**2)), dim=3)
        result = run_single(obj, SearchConfig(seed=1, max_evals=10))
        assert result.terminated_by == EVAL_BUDGET
        # The sweep in flight may finish: overshoot is bounded by 2N.
        assert result.evals <= 10 + 2 * 3

    def test_best_is_minimum_of_all_evaluations(self):
        seen = []
        space = ParameterSpace.cube(0.0, 1.0, 2, min_step=1e-3)

        def fn(raw):
            v = float(np.sum(np.cos(9.0 * raw) + (raw - 0.4) ** 2))
            seen.append(v)
            return v, True

        obj = Objective(space=space, fn=fn)
        result = run_single(obj, SearchConfig(seed=3, max_evals=2000))
        assert result.best.value == min(seen)
        assert result.evals == len(seen)

    def test_history_strictly_decreasing(self):
        obj = interval_objective(lambda raw: float(np.sum(raw**2)), dim=2)
        result = run_single(obj, SearchConfig(seed=4))
        values = [v for _, v in result.history]
        assert all(b < a for a, b in zip(values, values[1:]))
        counts = [c for c, _ in result.history]
        assert counts == sorted(counts)
        assert values[-1] == result.best.value

    def test_deterministic_given_seed(self):
        obj = interval_objective(lambda raw: float(np.sum(np.sin(5 * raw))), dim=2)
        a = run_single(obj, SearchConfig(seed=9, max_evals=5000))
        b = run_single(obj, SearchConfig(seed=9, max_evals=5000))
        assert a.history == b.history
        assert a.evals == b.evals
        assert np.array_equal(a.best.x, b.best.x)

    def test_different_seeds_differ(self):
        obj = interval_objective(lambda raw: float(np.sum(np.sin(5 * raw))), dim=2)
        a = run_single(obj, SearchConfig(seed=0, max_evals=3000))
        b = run_single(obj, SearchConfig(seed=1, max_evals=3000))
        assert not np.array_equal(a.history[0][1], b.history[0][1]) or a.evals != b.evals

    def test_flat_objective_terminates_via_reductions(self):
        # Nothing ever improves, so only the fail-count ladder can end it.
        obj = interval_objective(lambda raw: 1.0, dim=2)
        result = run_single(obj, SearchConfig(seed=5), start=np.array([0.5, 0.5]))
        assert result.terminated_by == STEP_FLOOR
        assert result.best.value == 1.0

    def test_fixed_start_used(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        result = run_single(obj, SearchConfig(seed=0, max_evals=1), start=np.array([0.75]))
        # One evaluation budget: the only point seen is the start, 0.5 raw.
        assert result.best_raw[0] == pytest.approx(0.5)

    def test_start_clamped(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        result = run_single(obj, SearchConfig(seed=0, max_evals=1), start=np.array([2.0]))
        assert result.best_raw[0] == pytest.approx(1.0)

    def test_bad_start_shape_rejected(self):
        obj = interval_objective(lambda raw: raw[0] ** 2)
        with pytest.raises(ValueError):
            run_single(obj, SearchConfig(), start=np.array([0.5, 0.5]))

    def test_infeasible_regions_never_become_best(self):
        space = ParameterSpace.cube(-1.0, 1.0, 2, min_step=1e-3)

        def fn(raw):
            # Deep attractive values in the infeasible half-plane.
            if raw[0] < 0:
                return -1000.0, False
            return float(np.sum(raw**2)), True

        obj = Objective(space=space, fn=fn)
        result = run_single(obj, SearchConfig(seed=6, max_evals=4000))
        assert result.best.feasible
        assert result.best.value >= 0.0
        assert math.isfinite(result.best.value)


class TestStartValidation:
    def counting_objective(self, dim=2):
        calls = []
        space = ParameterSpace.cube(-1.0, 1.0, dim, min_step=1e-4)
        return Objective(space=space, fn=lambda raw: (calls.append(1) or 0.0, True)), calls

    def test_non_finite_start_named_before_any_evaluation(self):
        obj, calls = self.counting_objective()
        with pytest.raises(ValueError, match=r"start has non-finite coordinates at indices \[1\]"):
            run_single(obj, SearchConfig(), start=np.array([0.5, np.nan]))
        assert calls == []

    def test_infinite_start_rejected(self):
        obj, calls = self.counting_objective()
        with pytest.raises(ValueError, match="non-finite"):
            run_single(obj, SearchConfig(), start=np.array([np.inf, 0.5]))
        assert calls == []

    def test_wrong_shape_start_named(self):
        obj, calls = self.counting_objective()
        with pytest.raises(ValueError, match=r"start must have one coordinate per parameter: expected shape \(2,\)"):
            run_single(obj, SearchConfig(), start=np.zeros((2, 1)))
        assert calls == []

    def test_nan_start_not_blamed_on_objective(self):
        from tabukit.benchmarks import make_schwefel10

        with pytest.raises(ValueError) as info:
            run_single(make_schwefel10(), SearchConfig(), start=np.full(10, np.nan))
        assert "start" in str(info.value)
        assert "objective" not in str(info.value)
