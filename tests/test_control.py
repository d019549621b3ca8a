import dataclasses
import math
import re

import numpy as np
import pytest

from tabukit.cli import PROBLEMS, ExperimentSpec, run_experiment
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
    fresh_threads,
    resolved_step_min,
    run_single,
)
from tabukit.core import Objective, ParameterSpace, evaluate
from tabukit.multithread import MultiConfig, run_multi

from support import adopted_threads, cube_objective


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
        obj = cube_objective(lambda raw: raw[0] ** 2)
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
            ("n_tabu", 0),
            ("m_elite", 0),
        ],
    )
    def test_bad_value_rejected_before_any_evaluation(self, name, value, monkeypatch):
        # Named by validate, by both runs before a bad start, and by the
        # experiment runner before it builds the problem.
        calls, built = [], []
        obj = cube_objective(lambda raw: raw[0] ** 2, calls=calls)
        cfg = SearchConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            cfg.validate()
        with pytest.raises(ValueError, match=name):
            run_single(obj, cfg, start=np.array([np.nan]))
        with pytest.raises(ValueError, match=name):
            run_multi(obj, MultiConfig(base=cfg, start_a=np.array([np.nan])))
        assert calls == []
        if name != "seed":  # the runner derives each run's seed itself
            monkeypatch.setitem(PROBLEMS, "schwefel10", lambda options: built.append(options))
            with pytest.raises(ValueError, match=name):
                run_experiment(ExperimentSpec("schwefel10", overrides={name: value}))
            assert built == []

    @pytest.mark.parametrize(
        "name, value",
        [
            ("k_pattern", "2"),
            ("k_pattern", True),
            ("step_initial", None),
            ("step_initial", np.array([0.1])),
            ("step_reduce_factor", [0.5]),
            ("step_min", "0.01"),
            ("match_tol", "1e-6"),
        ],
    )
    def test_float_setting_that_is_no_real_number_named(self, name, value):
        message = f"^{name} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SearchConfig(**{name: value}).validate()
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentSpec("schwefel10", overrides={name: value}))

    def test_integers_and_numpy_reals_accepted_as_float_settings(self):
        SearchConfig(k_pattern=2, step_initial=np.float64(0.5), step_min=np.float32(0.25), match_tol=0).validate()

    def test_step_initial_below_the_floor_of_the_space_refused_before_any_evaluation(self):
        calls = []
        obj = cube_objective(lambda raw: 0.0, min_step=0.5, calls=calls)  # a floor of 0.25
        with pytest.raises(ValueError, match="^step_initial is below the resolution floor of the space$"):
            run_single(obj, SearchConfig(step_initial=0.2))
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


def one_thread(adopted=True, **config):
    """(objective x², config, one-thread table at 0.7): the start adopted
    as a run adopts it (tabu, archived), or, unless ``adopted``, not."""
    obj, cfg = cube_objective(lambda raw: raw[0] ** 2), SearchConfig(**config)
    threads = adopted_threads(obj, [[0.7]], cfg) if adopted else fresh_threads([evaluate(obj, np.array([0.7]))], cfg)
    return obj, cfg, threads


class TestApplyAction:
    def test_continue_is_noop(self):
        obj, cfg, threads = one_thread()
        base_before = threads.x.tobytes()
        assert apply_action(threads, CONTINUE, 0, obj, cfg) == 0
        assert threads.evals == [1]
        assert threads.x.tobytes() == base_before

    def test_reduce_step(self):
        obj, cfg, threads = one_thread(step_initial=0.1, step_reduce_factor=0.5)
        threads.fail_count[0] = 15
        threads.x[0, 0] = 0.2  # moved off the best, which the restart returns to
        assert apply_action(threads, REDUCE_STEP, 0, obj, cfg) == 0
        assert threads.step.item(0) == 0.05
        assert threads.fail_count == [0]
        assert threads.x[0, 0].tobytes() == threads.best[0].x.tobytes()
        assert threads.raw[0].tobytes() == threads.best[0].raw.tobytes()
        assert threads.evals == [1]  # no evaluation consumed

    def test_reduce_step_factor_exact(self):
        obj, cfg, threads = one_thread()
        steps = [threads.step.item(0)]
        for _ in range(4):
            apply_action(threads, REDUCE_STEP, 0, obj, cfg)
            steps.append(threads.step.item(0))
        for prev, cur in zip(steps, steps[1:]):
            assert cur == prev * cfg.step_reduce_factor
            assert cur < prev

    def test_intensify_moves_to_centroid(self):
        obj, cfg, threads = one_thread()
        for x in ([0.2], [0.6]):
            threads.memory.offer(evaluate(obj, np.array(x)))
        assert apply_action(threads, INTENSIFY, 0, obj, cfg) == 1
        assert threads.evals == [2]
        assert threads.x[0, 0, 0] == pytest.approx(0.5)  # the centroid of 0.7, 0.2 and 0.6
        assert threads.tabu_lists[0].is_tabu(threads.x[0, 0])

    def test_intensify_empty_memory_noop(self):
        obj, cfg, threads = one_thread(adopted=False)  # nothing archived yet
        base_before = threads.x.tobytes()
        assert apply_action(threads, INTENSIFY, 0, obj, cfg) == 0
        assert threads.evals == [1]
        assert threads.x.tobytes() == base_before

    def test_diversify_consumes_one_eval(self):
        obj, cfg, threads = one_thread(adopted=False)
        threads.memory.offer(evaluate(obj, np.array([0.25])))
        assert apply_action(threads, DIVERSIFY, 0, obj, cfg) == 1
        assert threads.evals == [2]
        # Single elite entry: the diversified point must copy its value.
        assert threads.x[0, 0, 0] == 0.25

    def test_diversify_empty_memory_uses_random_point(self):
        obj, cfg, threads = one_thread(adopted=False)
        assert apply_action(threads, DIVERSIFY, 0, obj, cfg) == 1
        assert threads.evals == [2]
        assert 0.0 <= threads.x[0, 0, 0] <= 1.0

    def test_relocations_offered_to_memory(self):
        obj, cfg, threads = one_thread()
        mem = threads.memory
        # The centroid of 0.7, 0.2 and 0.3 (0.4) is a genuinely new point.
        mem.offer(evaluate(obj, np.array([0.2])))
        mem.offer(evaluate(obj, np.array([0.3])))
        apply_action(threads, INTENSIFY, 0, obj, cfg)
        assert len(mem) == 4
        assert any(x[0] == pytest.approx(0.4) for x in mem.rows())

    def test_unknown_action_rejected(self):
        obj, cfg, threads = one_thread()
        with pytest.raises(ValueError):
            apply_action(threads, "restart", 0, obj, cfg)


class TestRunSingle:
    def test_convex_reaches_floor(self):
        # f(x) = x^2 on [-1, 1]: any descent method must end near 0.
        obj = cube_objective(lambda raw: raw[0] ** 2)
        result = run_single(obj, SearchConfig(seed=0), start=np.array([0.85]))
        assert result.terminated_by == STEP_FLOOR
        assert abs(result.best_raw[0]) <= 10 * 1e-4
        assert result.best.value <= 1e-6

    def test_budget_termination(self):
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=3)
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
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=2)
        result = run_single(obj, SearchConfig(seed=4))
        values = [v for _, v in result.history]
        assert all(b < a for a, b in zip(values, values[1:]))
        counts = [c for c, _ in result.history]
        assert counts == sorted(counts)
        assert values[-1] == result.best.value

    def test_deterministic_given_seed(self):
        obj = cube_objective(lambda raw: float(np.sum(np.sin(5 * raw))), dim=2)
        a = run_single(obj, SearchConfig(seed=9, max_evals=5000))
        b = run_single(obj, SearchConfig(seed=9, max_evals=5000))
        assert a.history == b.history
        assert a.evals == b.evals
        assert np.array_equal(a.best.x, b.best.x)

    def test_different_seeds_differ(self):
        obj = cube_objective(lambda raw: float(np.sum(np.sin(5 * raw))), dim=2)
        a = run_single(obj, SearchConfig(seed=0, max_evals=3000))
        b = run_single(obj, SearchConfig(seed=1, max_evals=3000))
        assert not np.array_equal(a.history[0][1], b.history[0][1]) or a.evals != b.evals

    def test_flat_objective_terminates_via_reductions(self):
        # Nothing ever improves, so only the fail-count ladder can end it.
        obj = cube_objective(lambda raw: 1.0, dim=2)
        result = run_single(obj, SearchConfig(seed=5), start=np.array([0.5, 0.5]))
        assert result.terminated_by == STEP_FLOOR
        assert result.best.value == 1.0

    def test_fixed_start_used(self):
        obj = cube_objective(lambda raw: raw[0] ** 2)
        result = run_single(obj, SearchConfig(seed=0, max_evals=1), start=np.array([0.75]))
        # One evaluation budget: the only point seen is the start, 0.5 raw.
        assert result.best_raw[0] == pytest.approx(0.5)

    def test_start_clamped(self):
        obj = cube_objective(lambda raw: raw[0] ** 2)
        result = run_single(obj, SearchConfig(seed=0, max_evals=1), start=np.array([2.0]))
        assert result.best_raw[0] == pytest.approx(1.0)

    def test_bad_start_shape_rejected(self):
        obj = cube_objective(lambda raw: raw[0] ** 2)
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


@pytest.mark.parametrize("method", ["single", "multi"])
def test_no_config_runs_the_default_config(method):
    objective = cube_objective(lambda raw: float(np.sum((raw - 0.3) ** 2)), dim=2)
    if method == "single":
        got, want = run_single(objective), run_single(objective, SearchConfig())
    else:
        got, want = run_multi(objective), run_multi(objective, MultiConfig())
    def key(r):
        return r.best.x.tobytes(), float(r.best.value).hex(), r.evals, r.terminated_by, r.history

    assert key(got) == key(want)


class TestStartValidation:
    """Both runs name a bad start, and its thread, before any evaluation."""

    def test_non_finite_start_named_before_any_evaluation(self):
        calls = []
        obj = cube_objective(lambda raw: 0.0, dim=2, calls=calls)
        with pytest.raises(ValueError, match=r"^start has non-finite coordinates at indices \[1\]"):
            run_single(obj, SearchConfig(), start=np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match=r"^start_b \(thread 1\) has non-finite coordinates at indices \[0\]"):
            run_multi(obj, MultiConfig(start_a=np.array([0.5, 0.5]), start_b=np.array([np.nan, 0.5])))
        assert calls == []

    def test_infinite_start_rejected(self):
        calls = []
        obj = cube_objective(lambda raw: 0.0, dim=2, calls=calls)
        with pytest.raises(ValueError, match="non-finite"):
            run_single(obj, SearchConfig(), start=np.array([np.inf, 0.5]))
        assert calls == []

    def test_wrong_shape_start_named(self):
        calls = []
        obj = cube_objective(lambda raw: 0.0, dim=2, calls=calls)
        with pytest.raises(ValueError, match=r"^start must have one coordinate per parameter: expected shape \(2,\)"):
            run_single(obj, SearchConfig(), start=np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"^start_a \(thread 0\) must have one coordinate per parameter"):
            run_multi(obj, MultiConfig(start_a=np.array([0.5, 0.5, 0.5])))
        assert calls == []

    def test_nan_start_not_blamed_on_objective(self):
        from tabukit.benchmarks import make_schwefel10

        with pytest.raises(ValueError) as info:
            run_single(make_schwefel10(), SearchConfig(), start=np.full(10, np.nan))
        assert "start" in str(info.value)
        assert "objective" not in str(info.value)
