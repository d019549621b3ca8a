import math
import re

import numpy as np
import pytest

from tabukit.benchmarks import (
    BENCHMARK_MIN_STEP,
    SCHWEFEL_ARGMIN,
    bump_feasible,
    bump_value,
    keane_bump,
    make_bump,
    make_schwefel10,
    schwefel,
)
from tabukit.control import SearchConfig, run_single
from tabukit.core import MAXIMIZE, MINIMIZE, Objective, evaluate, normalize

# Frozen regression anchors, computed once with plain-python loop
# implementations of the formulas (no numpy, no shared code).
SCHWEFEL_OPT_VALUE = -4189.828872721624
BUMP20_SIGNED_AT_5 = 2.4664735955991505e-05
BUMP20_KEANE_AT_5 = 0.001787129905417789


def schwefel_oracle(x):
    return -sum(float(v) * math.sin(math.sqrt(abs(float(v)))) for v in x)


def bump_signed_oracle(x):
    num = sum(math.cos(float(v)) ** 4 for v in x)
    num -= 2.0 * math.prod(math.cos(float(v)) ** 2 for v in x)
    den = sum((i + 1) * float(v) ** 2 for i, v in enumerate(x))
    return num / den


def bump_keane_oracle(x):
    num = sum(math.cos(float(v)) ** 4 for v in x)
    num -= 2.0 * math.prod(math.cos(float(v)) ** 2 for v in x)
    den = sum((i + 1) * float(v) ** 2 for i, v in enumerate(x))
    return abs(num) / math.sqrt(den)


class TestSchwefel:
    def test_optimum_value(self):
        x = np.full(10, SCHWEFEL_ARGMIN)
        assert schwefel(x) == pytest.approx(-4189.83, abs=0.01)
        assert schwefel(x) == pytest.approx(SCHWEFEL_OPT_VALUE, abs=1e-9)

    def test_zero_vector(self):
        assert schwefel(np.zeros(10)) == 0.0

    def test_odd_symmetry(self):
        x = np.full(10, -SCHWEFEL_ARGMIN)
        assert schwefel(x) == pytest.approx(4189.83, abs=0.01)
        rng = np.random.default_rng(0)
        y = rng.uniform(-500, 500, 10)
        assert schwefel(-y) == pytest.approx(-schwefel(y), abs=1e-9)

    def test_oracle_agreement_1000_points(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(-500, 500, 10)
            assert schwefel(x) == pytest.approx(schwefel_oracle(x), abs=1e-9)

    def test_separability(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-500, 500, 10)
        per_component = sum(schwefel(np.array([v])) for v in x)
        assert schwefel(x) == pytest.approx(per_component, abs=1e-9)

    def test_factory(self):
        obj = make_schwefel10()
        assert obj.sense == MINIMIZE
        assert obj.space.dimension == 10
        assert np.all(obj.space.lower == -500.0)
        assert np.all(obj.space.upper == 500.0)
        assert np.all(obj.space.min_step == BENCHMARK_MIN_STEP)

    def test_no_value_below_global_bound_during_search(self):
        # Any evaluation below the known optimum would be a formula bug.
        seen = []
        obj = make_schwefel10()
        inner = obj.fn

        def recording(raw):
            value, feasible = inner(raw)
            seen.append(value)
            return value, feasible

        wrapped = Objective(space=obj.space, fn=recording, sense=obj.sense, name=obj.name)
        run_single(wrapped, SearchConfig(seed=0, max_evals=3000))
        assert seen
        assert min(seen) >= -4189.9


class TestBumpValue:
    def test_signed_form_at_recommended_start(self):
        assert bump_value(np.full(20, 5.0)) == pytest.approx(BUMP20_SIGNED_AT_5, rel=1e-12)

    def test_keane_form_at_recommended_start(self):
        assert keane_bump(np.full(20, 5.0)) == pytest.approx(BUMP20_KEANE_AT_5, rel=1e-12)

    def test_analytic_zero(self):
        # cos(pi) = -1: numerator (1+1) - 2*(1*1) = 0.
        assert bump_value(np.array([math.pi, math.pi])) == pytest.approx(0.0, abs=1e-15)

    def test_origin_undefined(self):
        with pytest.raises(ZeroDivisionError):
            bump_value(np.zeros(3))
        with pytest.raises(ZeroDivisionError):
            keane_bump(np.zeros(3))

    def test_oracle_agreement_1000_feasible_points(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 1000:
            x = rng.uniform(0.1, 10.0, 20)
            if not bump_feasible(x):
                continue
            assert bump_value(x) == pytest.approx(bump_signed_oracle(x), rel=1e-9)
            assert keane_bump(x) == pytest.approx(bump_keane_oracle(x), rel=1e-9)
            checked += 1

    def test_variant_relation(self):
        # The two variants differ by |.| on top and sqrt below, so
        # keane = |signed| * den / sqrt(den) at any point.
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(0.1, 10.0, 20)
            den = float(np.sum(np.arange(1, 21) * x**2))
            expected = abs(bump_value(x)) * den / math.sqrt(den)
            assert keane_bump(x) == pytest.approx(expected, rel=1e-12)


class TestBumpFeasible:
    def test_recommended_start_feasible(self):
        assert bump_feasible(np.full(20, 5.0))

    def test_zero_component_infeasible(self):
        x = np.full(20, 5.0)
        x[7] = 0.0
        assert not bump_feasible(x)

    def test_sum_constraint(self):
        assert not bump_feasible(np.array([8.0, 8.0]))  # sum 16 >= 15
        assert bump_feasible(np.array([7.0, 7.0]))  # sum 14, product 49

    def test_product_constraint_strict(self):
        # Product exactly at the floor fails the strict inequality.
        assert not bump_feasible(np.array([0.75, 1.0]))
        assert bump_feasible(np.array([0.76, 1.0]))

    def test_log_space_robust_for_50_components(self):
        # The raw 50-term product underflows to exactly 0.0 here; the
        # log-space comparison must still give the right verdict.
        x = np.full(50, 1e-7)
        assert float(np.prod(x)) == 0.0
        assert not bump_feasible(x)
        # Boundary resolved through logs: products 1% above/below the floor.
        above = np.full(50, (0.75 * 1.01) ** (1 / 50))
        below = np.full(50, (0.75 * 0.99) ** (1 / 50))
        assert bump_feasible(above)
        assert not bump_feasible(below)
        assert not bump_feasible(np.full(50, 8.0))  # sum 400 fails the ceiling
        assert bump_feasible(np.full(50, 6.0))

    def test_scaling_component_to_zero_flips_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(0.5, 7.0, 20)
            if not bump_feasible(x):
                continue
            y = x.copy()
            y[0] *= 1e-30
            assert not bump_feasible(y)


class TestBumpFactory:
    def test_sense_and_space(self):
        obj = make_bump(20)
        assert obj.sense == MAXIMIZE
        assert obj.space.dimension == 20
        assert np.all(obj.space.lower == 0.0)
        assert np.all(obj.space.upper == 10.0)

    def test_engine_value_negated(self):
        obj = make_bump(20)
        x = normalize(obj.space, np.full(20, 5.0))
        p = evaluate(obj, x)
        assert p.value == pytest.approx(-BUMP20_KEANE_AT_5, rel=1e-12)
        assert obj.native_value(p.value) == pytest.approx(BUMP20_KEANE_AT_5, rel=1e-12)

    def test_signed_variant_selectable(self):
        obj = make_bump(20, variant="signed")
        x = normalize(obj.space, np.full(20, 5.0))
        p = evaluate(obj, x)
        assert obj.native_value(p.value) == pytest.approx(BUMP20_SIGNED_AT_5, rel=1e-12)

    def test_infeasible_point_reported(self):
        obj = make_bump(20)
        raw = np.full(20, 5.0)
        raw[0] = 0.0
        p = evaluate(obj, normalize(obj.space, raw))
        assert not p.feasible

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_bump(1)
        with pytest.raises(ValueError):
            make_bump(20, variant="classic")


@pytest.mark.parametrize(
    "x", [[math.inf, 0.0], [math.inf, 1.0], [-math.inf, 1.0], [math.nan, 1.0], [-1.0, -1.0], [-0.0, 2.0]]
)
def test_bump_rows_outside_the_domain_are_infeasible_without_warnings(x):
    # The log of an entry that is not positive and finite is -inf, so no
    # log sum adds -inf to +inf (a warning is an error in this suite).
    assert not bump_feasible(np.array(x))
    assert make_bump(2).fn(np.array(x)) == (0.0, False)


class TestBumpDimension:
    @pytest.mark.parametrize("n", [2.5, 20.0, "3", True, False, None])
    def test_rejects_a_dimension_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=f"bump dimension must be an integer, got {re.escape(repr(n))}$"):
            make_bump(n)

    @pytest.mark.parametrize("n", [np.int64(20), np.int32(3), np.uint8(2)])
    def test_accepts_numpy_integers(self, n):
        obj = make_bump(n)
        assert obj.name == f"bump{int(n)}"
        assert obj.space.dimension == int(n)
        assert obj.fn(np.full(int(n), 5.0)) == make_bump(int(n)).fn(np.full(int(n), 5.0))

    @pytest.mark.parametrize("n", [1, 0, -3, np.int64(1)])
    def test_names_a_dimension_below_two(self, n):
        with pytest.raises(ValueError, match=f"bump needs at least 2 dimensions, got {int(n)}$"):
            make_bump(n)
