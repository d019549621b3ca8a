import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabukit import control, multithread
from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit.control import (
    CONTINUE,
    EVAL_BUDGET,
    STEP_FLOOR,
    CollisionLog,
    RunResult,
    SearchConfig,
    detect_collision,
    fresh_threads,
    run_single,
    thread_generators,
)
from tabukit.core import denormalize
from tabukit.multithread import MultiConfig, run_multi

from reference import Tabu, axial_probes
from support import UNIT, cube_objective


#: Two close bases and a tolerance: (xa, xb, tol).
PAIRS = st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.lists(UNIT, min_size=n, max_size=n)] * 2))


# Identical bases collide; distant ones do not; the tolerance is
# inclusive, at power-of-two offsets whose distance is exact.
@example(pair=([0.5, 0.5], [0.5, 0.5]), tol=1e-6)
@example(pair=([0.0, 0.5], [1.0, 0.5]), tol=1e-6)
@example(pair=([0.5, 0.5], [0.5 + 2.0**-20, 0.5 + 2.0**-20]), tol=2.0**-20)
@example(pair=([0.5, 0.5], [0.5 + 2.0**-19, 0.5]), tol=2.0**-20)
@given(pair=PAIRS, tol=st.one_of(st.sampled_from([0.0, 2.0**-20, 1e-6, 2.0]), st.floats(0.0, 1.0)))
def test_collision_distance_is_the_max_abs_difference_bit_for_bit(pair, tol):
    # Bases collide when their largest coordinate distance is within the
    # tolerance. Each collision is logged with its evaluation count and a
    # distance with the bits of float(np.abs(a - b).max()), whichever
    # entry attains it and whatever the signs of zeros; a miss is not.
    xa, xb = np.array(pair[0]), np.array(pair[1])
    dist = float(np.abs(xa - xb).max())
    log = CollisionLog()
    hit = detect_collision(xa, xb, tol=tol, log=log, eval_count=7)
    assert hit == (dist <= tol) == detect_collision(xa, xb, tol=tol)
    detect_collision(xa, xb, tol=tol, log=log, eval_count=8)
    assert all(type(d) is float for _, d in log.events)
    assert [(count, d.hex()) for count, d in log.events] == ([(7, dist.hex()), (8, dist.hex())] if hit else [])


class TestThreadSeeds:
    def test_derived_streams_differ(self):
        rng_a, rng_b = thread_generators(123, 2)
        assert not np.array_equal(rng_a.random(8), rng_b.random(8))

    def test_derivation_reproducible(self):
        a1, b1 = thread_generators(7, 2)
        a2, b2 = thread_generators(7, 2)
        assert np.array_equal(a1.random(5), a2.random(5))
        assert np.array_equal(b1.random(5), b2.random(5))


class TestRunMulti:
    def test_lockstep_bit_reproducible(self):
        obj = make_schwefel10()
        cfg = lambda: MultiConfig(base=SearchConfig(seed=11, max_evals=6000))
        a = run_multi(obj, cfg())
        b = run_multi(obj, cfg())
        assert a.history == b.history
        assert a.evals == b.evals
        assert a.collisions.events == b.collisions.events
        assert a.stages == b.stages
        assert np.array_equal(a.best.x, b.best.x)
        for ta, tb in zip(a.threads, b.threads):
            assert ta.history == tb.history
            assert ta.evals == tb.evals

    def test_eval_accounting_exact(self):
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=3, min_step=1e-3)
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=2, max_evals=3000)))
        assert result.evals == sum(t.evals for t in result.threads)

    def test_action_exclusivity_per_stage(self):
        obj = make_schwefel10()
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=3, max_evals=8000)))
        non_continue_stages = 0
        for action_a, action_b in result.stages:
            restructures = (action_a != CONTINUE) + (action_b != CONTINUE)
            assert restructures <= 1
            non_continue_stages += restructures
        # The schedule must actually fire for the assertion to mean anything.
        assert non_continue_stages > 0

    def test_global_best_is_better_thread_best(self):
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=3, min_step=1e-3)
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=4, max_evals=3000)))
        thread_bests = [t.best.value for t in result.threads]
        assert result.best.value == min(thread_bests)

    def test_budget_respected(self):
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=3, min_step=1e-3)
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=5, max_evals=50)))
        assert result.terminated_by == EVAL_BUDGET
        assert result.evals <= 50 + 2 * 3 + 1

    def test_floor_termination_when_budget_ample(self):
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=2, min_step=1e-3)
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=6, max_evals=200000)))
        assert result.terminated_by == STEP_FLOOR
        floor = 1e-3 / 2.0  # min_step / span
        for t in result.threads:
            assert t.step_final < floor

    def test_fixed_starts_used(self):
        calls = []
        obj = cube_objective(lambda raw: float(np.sum(raw**2)), dim=2, lower=0.0, min_step=1e-3, calls=calls)
        start_a, start_b = np.array([0.25, 0.25]), np.array([0.75, 0.75])
        run_multi(obj, MultiConfig(base=SearchConfig(seed=7, max_evals=2), start_a=start_a, start_b=start_b))
        assert np.allclose(calls[0], start_a)
        assert np.allclose(calls[1], start_b)

    def test_history_matches_global_best(self):
        obj = make_schwefel10()
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=8, max_evals=5000)))
        values = [v for _, v in result.history]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == result.best.value
        counts = [c for c, _ in result.history]
        assert counts == sorted(counts)
        assert counts[-1] <= result.evals

    def test_collision_log_distances_within_tol(self):
        obj = make_schwefel10()
        cfg = SearchConfig(seed=9, max_evals=20000)
        result = run_multi(obj, MultiConfig(base=cfg))
        for _, dist in result.collisions.events:
            assert dist <= cfg.match_tol

    def test_thread_reports_denormalized(self):
        obj = make_schwefel10()
        result = run_multi(obj, MultiConfig(base=SearchConfig(seed=12, max_evals=4000)))
        for t in result.threads:
            assert t.best_raw.shape == (10,)
            assert np.all(t.best_raw >= -500.0) and np.all(t.best_raw <= 500.0)


class TestStartValidation:
    def test_no_starts_named_after_the_config_before_any_evaluation(self):
        calls = []
        obj = cube_objective(lambda raw: 0.0, dim=2, calls=calls)
        with pytest.raises(ValueError, match="max_evals must be at least 1"):
            control.run_lockstep(obj, SearchConfig(max_evals=0), [])
        with pytest.raises(ValueError, match="^a run needs at least one start"):
            control.run_lockstep(obj, SearchConfig(), [])
        with pytest.raises(ValueError, match="^a run needs at least one start"):
            fresh_threads([], SearchConfig())
        assert calls == []


def run_method(objective, method, seed=0):
    """``run_single`` or ``run_multi`` of ``objective`` at 5,000 evaluations."""
    config = SearchConfig(seed=seed, max_evals=5000)
    if method == "single":
        return run_single(objective, config)
    return run_multi(objective, MultiConfig(base=config))


def failing_run(method, m, seed=0):
    """Run schwefel10 through a scalar-only objective that raises on its
    m-th call; returns the raw vectors it was called with."""
    schwefel = make_schwefel10()
    calls = []

    def fn(raw):
        calls.append(raw.copy())
        if len(calls) == m:
            raise RuntimeError(f"objective failed on call {m}")
        return schwefel.fn(raw)

    # Scalar fn only, so evaluation m is one call.
    objective = dataclasses.replace(schwefel, fn=fn, fn_batch=None)
    result = None
    with pytest.raises(RuntimeError, match=f"call {m}$"):
        result = run_method(objective, method, seed)
    assert result is None
    return calls


class TestErrorPropagation:
    @pytest.mark.parametrize("method", ["single", "multi"])
    def test_objective_error_propagates(self, method):
        assert len(failing_run(method, 500)) == 500
        # Every engine block comes with its structure, so these runs send
        # each axial block to fn_axial, which fails on its m-th block.
        bump = make_bump(20)
        for m in (1, 3):
            blocks = []

            def fn_axial(raw, bases, counts, axis):
                blocks.append(len(raw))
                if len(blocks) == m:
                    raise RuntimeError(f"fn_axial failed on block {m}")
                return bump.fn_axial(raw, bases, counts, axis)

            with pytest.raises(RuntimeError, match=f"block {m}$"):
                run_method(dataclasses.replace(bump, fn_axial=fn_axial), method)
            assert len(blocks) == m

    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(["single", "multi"]), m=st.integers(1, 600), seed=st.integers(0, 3))
    def test_objective_error_on_any_call_propagates(self, method, m, seed):
        assert len(failing_run(method, m, seed)) == m

    @pytest.mark.parametrize("row", [0, 5])
    def test_error_in_thread_1_rows_of_a_stacked_block(self, row):
        # The starts take calls 1 and 2; the first stage's block holds
        # thread 0's axial rows, then thread 1's.
        space = make_schwefel10().space
        x0, x1 = (rng.random(10) for rng in thread_generators(0, 2))
        config = SearchConfig()
        first = []
        for x in (x0, x1):
            tabu = Tabu(config.n_tabu, config.match_tol)
            tabu.push(x)
            first.append([probe for probe, _, _ in axial_probes(x, config.step_initial, tabu)[0]])
        m = 2 + len(first[0]) + row + 1
        calls = failing_run("multi", m)
        assert len(calls) == m
        assert calls[-1].tobytes() == denormalize(space, first[1][row]).tobytes()


class TestFnAxialErrorPropagation:
    @pytest.mark.parametrize("method", ["single", "multi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feasible_value_raises_the_fn_batch_error(self, method, bad):
        # schwefel10 has fn_batch and no fn_axial; each broken path is the
        # only block path that the engine takes.
        schwefel = make_schwefel10()

        def broken(raw, *structure):
            return np.full(len(raw), bad), np.ones(len(raw), dtype=bool)

        messages = set()
        for field in ("fn_batch", "fn_axial"):
            with pytest.raises(ValueError) as raised:
                run_method(dataclasses.replace(schwefel, **{field: broken}), method)
            messages.add(str(raised.value))
        assert messages == {f"objective 'schwefel10' returned non-finite value {bad!r} for a feasible point"}

    @pytest.mark.parametrize("method", ["single", "multi"])
    def test_wrong_shape_names_fn_axial(self, method):
        def long(raw, bases, counts, axis):
            return np.zeros(len(raw) + 1), np.ones(len(raw) + 1, dtype=bool)

        objective = dataclasses.replace(make_schwefel10(), fn_axial=long)
        with pytest.raises(ValueError, match=re.escape("objective 'schwefel10': fn_axial returned shapes")):
            run_method(objective, method)


class TestAllInfeasible:
    @pytest.mark.parametrize("method", ["single", "multi"])
    @pytest.mark.parametrize("start", [np.array([0.75, 0.75]), None], ids=["fixed", "random"])
    def test_reports_thread_0_evaluated_start(self, method, start):
        obj = cube_objective(lambda raw: 0.0, dim=2, min_step=1e-3, feasible=lambda raw: False)
        config = SearchConfig(seed=5, max_evals=2000)
        if method == "single":
            result = run_single(obj, config, start=start)
            rng = np.random.default_rng(5)
        else:
            result = run_multi(obj, MultiConfig(base=config, start_a=start))
            rng = thread_generators(5, 2)[0]
        x0 = rng.random(2) if start is None else start
        assert result.best.feasible is False
        assert result.history == []
        assert np.array_equal(result.best_raw, denormalize(obj.space, x0))


class TestPublicApi:
    # perfbench/tracer.py wraps detect_collision under tabukit.multithread.
    @pytest.mark.parametrize("name", ["detect_collision"])
    def test_multithread_reexports_control_objects(self, name):
        assert getattr(multithread, name) is getattr(control, name)

    def test_run_multi_result_is_a_run_result(self):
        result = run_multi(make_schwefel10(), MultiConfig(base=SearchConfig(seed=9, max_evals=20000)))
        assert isinstance(result, RunResult)
        assert [t.thread_id for t in result.threads] == [0, 1]
        assert result.stages and all(len(stage) == 2 for stage in result.stages)
        assert result.collisions.events
