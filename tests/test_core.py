import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabukit.core import (
    INFEASIBLE_VALUE,
    MAXIMIZE,
    MINIMIZE,
    Objective,
    ParameterSpace,
    clamp,
    denormalize,
    evaluate,
    normalize,
)
from tabukit.benchmarks import make_bump, make_schwefel10


def unit_space(dim=2):
    return ParameterSpace.cube(0.0, 1.0, dim, min_step=1e-6)


class TestParameterSpace:
    def test_basic_fields(self):
        space = ParameterSpace(
            lower=np.array([0.0, -5.0]),
            upper=np.array([1.0, 5.0]),
            min_step=np.array([0.1, 0.5]),
        )
        assert space.dimension == 2
        assert np.array_equal(space.span, [1.0, 10.0])

    def test_cube(self):
        space = ParameterSpace.cube(-500.0, 500.0, 10, min_step=1e-4)
        assert space.dimension == 10
        assert np.all(space.lower == -500.0)
        assert np.all(space.upper == 500.0)
        assert np.all(space.min_step == 1e-4)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ParameterSpace(np.array([1.0]), np.array([0.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            ParameterSpace(np.array([1.0]), np.array([1.0]), np.array([0.1]))

    def test_rejects_bad_min_step(self):
        with pytest.raises(ValueError):
            ParameterSpace(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ParameterSpace(np.array([0.0]), np.array([1.0]), np.array([1.5]))

    @pytest.mark.parametrize(
        "lower, upper, named",
        [
            ([-math.inf, 0.0], [math.inf, 1.0], "at indices [0], lower [-inf] and upper [inf]"),
            ([0.0, 0.0], [1.0, math.inf], "at indices [1], lower [0.0] and upper [inf]"),
            ([0.0, math.nan, -math.inf], [1.0, 1.0, 0.0], "at indices [1, 2], lower [nan, -inf] and upper [1.0, 0.0]"),
            ([-1e308], [1e308], "at indices [0], lower [-1e+308] and upper [1e+308]"),  # the span overflows
        ],
    )
    def test_rejects_non_finite_bounds_by_name(self, lower, upper, named):
        # Such a space would hand the objective NaN coordinates, for which
        # the objective would be blamed.
        calls = []
        with pytest.raises(ValueError, match=re.escape(f"bounds must be finite, with a finite span: {named}")):
            space = ParameterSpace(np.array(lower), np.array(upper), np.full(len(lower), 1e-3))
            evaluate(Objective(space, lambda raw: (calls.append(raw) or 0.0, True)), np.full(len(lower), 0.5))
        assert calls == []

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ParameterSpace(np.zeros(2), np.ones(3), np.full(2, 0.1))


class TestCoordinateMaps:
    def test_normalize_denormalize_known(self):
        space = ParameterSpace.cube(-500.0, 500.0, 2, min_step=1e-4)
        x = normalize(space, np.array([-500.0, 500.0]))
        assert np.array_equal(x, [0.0, 1.0])
        assert np.array_equal(denormalize(space, np.array([0.5, 0.5])), [0.0, 0.0])

    def test_normalize_rejects_out_of_bounds(self):
        space = unit_space()
        with pytest.raises(ValueError):
            normalize(space, np.array([1.5, 0.5]))

    def test_normalize_rejects_wrong_shape(self):
        space = unit_space()
        with pytest.raises(ValueError):
            normalize(space, np.array([0.5]))

    @given(st.lists(st.floats(-499.0, 499.0), min_size=3, max_size=3))
    def test_roundtrip(self, raw):
        space = ParameterSpace.cube(-500.0, 500.0, 3, min_step=1e-4)
        raw = np.asarray(raw)
        back = denormalize(space, normalize(space, raw))
        assert np.allclose(back, raw, atol=1e-9)

    def test_clamp(self):
        assert np.array_equal(clamp(np.array([-0.5, 0.3, 1.7])), [0.0, 0.3, 1.0])


class TestEvaluate:
    def test_minimize_passthrough(self):
        calls = []
        obj = Objective(unit_space(1), fn=lambda raw: (calls.append(raw) or float(raw[0]) * 3.0, True))
        p = evaluate(obj, np.array([0.5]))
        assert p.value == 1.5
        assert p.feasible
        assert len(calls) == 1

    def test_maximize_negates(self):
        obj = Objective(
            unit_space(1), fn=lambda raw: (float(raw[0]), True), sense=MAXIMIZE
        )
        p = evaluate(obj, np.array([0.25]))
        assert p.value == -0.25
        assert obj.native_value(p.value) == 0.25

    def test_infeasible_marked_and_counted(self):
        calls = []
        obj = Objective(unit_space(1), fn=lambda raw: (calls.append(raw) or 123.0, False))
        p = evaluate(obj, np.array([0.5]))
        assert not p.feasible
        assert p.value == INFEASIBLE_VALUE
        assert math.isinf(p.value)
        # Infeasible evaluations still call the objective, so they consume budget.
        assert len(calls) == 1

    def test_nonfinite_feasible_value_raises(self):
        obj = Objective(unit_space(1), fn=lambda raw: (math.nan, True))
        with pytest.raises(ValueError):
            evaluate(obj, np.array([0.5]))

    def test_point_copies_input(self):
        obj = Objective(unit_space(1), fn=lambda raw: (0.0, True))
        x = np.array([0.5])
        p = evaluate(obj, x)
        x[0] = 0.9
        assert p.x[0] == 0.5

    def test_rejects_bad_sense(self):
        with pytest.raises(ValueError):
            Objective(unit_space(1), fn=lambda raw: (0.0, True), sense="biggest")

    def test_sense_constants(self):
        assert MINIMIZE != MAXIMIZE


class TestObjectiveExamples:
    def test_schwefel_optimum_through_normalization(self):
        obj = make_schwefel10()
        x = normalize(obj.space, np.full(10, 420.9687))
        p = evaluate(obj, x)
        assert p.feasible
        assert p.value == pytest.approx(-4189.83, abs=0.01)

    def test_bump_zero_component_infeasible(self):
        obj = make_bump(20)
        raw = np.full(20, 5.0)
        raw[3] = 0.0
        x = normalize(obj.space, raw)
        p = evaluate(obj, x)
        assert not p.feasible
        assert p.value == INFEASIBLE_VALUE


class TestDenormalizeBounds:
    def test_upper_end_does_not_overshoot(self):
        # -0.1 + 1.0 * 0.30000000000000004 rounds to 0.20000000000000004.
        space = ParameterSpace(np.array([-0.1]), np.array([0.2]), np.array([0.01]))
        assert space.lower[0] + 1.0 * space.span[0] > space.upper[0]
        assert denormalize(space, np.array([1.0]))[0] == 0.2
        assert denormalize(space, np.array([0.0]))[0] == -0.1

    def test_objective_sees_in_bounds_input(self):
        space = ParameterSpace(np.array([-0.1]), np.array([0.2]), np.array([0.01]))
        seen = []
        obj = Objective(space, fn=lambda raw: (seen.append(raw[0]) or 0.0, True))
        evaluate(obj, np.array([1.0]))
        assert seen == [0.2]

    def test_block_rows_match_single_vectors(self):
        space = ParameterSpace(np.array([-0.1, 1.0]), np.array([0.2, 1000.0]), np.array([0.01, 0.01]))
        X = np.array([[1.0, 1.0], [0.0, 0.5], [0.3, 0.999]])
        block = denormalize(space, X)
        assert block.shape == (3, 2)
        for r in range(3):
            assert block[r].tobytes() == denormalize(space, X[r]).tobytes()

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            denormalize(unit_space(2), np.ones((3, 3)))

    def test_negative_zero_bounds_are_stored_as_zero(self):
        # np.clip picks either zero on a tie of opposite signs, depending
        # on the array layout; with no -0.0 bound no such tie arises, and
        # a row maps the same alone and in a block.
        space = ParameterSpace(np.array([-0.0, -1.0]), np.array([1.0, -0.0]), np.array([0.01, 0.01]))
        assert not np.signbit(space.lower[0]) and not np.signbit(space.upper[1])
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 0.0]])
        block = denormalize(space, X)
        assert not np.signbit(block[:2]).any()
        for r in range(len(X)):
            assert denormalize(space, X[r]).tobytes() == block[r].tobytes()

    def test_evaluate_rejects_a_block(self):
        obj = Objective(unit_space(2), fn=lambda raw: (0.0, True))
        with pytest.raises(ValueError, match="expected 2 components"):
            evaluate(obj, np.ones((1, 2)))

    @given(
        st.floats(-1e3, 1e3),
        st.floats(1e-6, 1e3),
        st.floats(0.0, 1.0),
    )
    def test_always_within_bounds(self, lower, width, x):
        upper = lower + width
        space = ParameterSpace(np.array([lower]), np.array([upper]), np.array([upper - lower]))
        for t in (x, 1.0, 0.0):
            raw = denormalize(space, np.array([t]))[0]
            assert space.lower[0] <= raw <= space.upper[0]
