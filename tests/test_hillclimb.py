import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit.core import (
    ParameterSpace,
    clamp,
    denormalize,
    denormalize_coordinate,
    denormalize_coordinates,
    evaluate,
)
from tabukit.control import SearchConfig, fresh_threads
from tabukit.hydraulic import make_circuit
from tabukit.hillclimb import (
    IMPROVED,
    STALLED,
    axial_block,
    axial_moves,
    _pattern_point,
    hj_stage,
    hj_step,
)
from tabukit.memory import TabuList

import reference
from support import UNIT, adopted_threads, cube_objective


def make_objective(fn, dim=1, record=None):
    """A minimized objective over [0, 1]^dim, so that raw rows are normalized ones."""
    return cube_objective(fn, dim, lower=0.0, min_step=1e-6, calls=record)


def probe_rows(moves, bases):
    """The normalized rows of ``moves`` around ``bases``, one base or one
    row per thread: each candidate's base with its moved coordinate set."""
    X = np.repeat(np.atleast_2d(bases), moves.counts, axis=0)
    X[np.arange(moves.axis.size), moves.axis] = moves.moved
    return X


#: Any float, with signed zeros, the unit bounds, NaN and infinities among them.
EDGY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 2**-52, -5e-324, math.nan, -math.nan, math.inf, -math.inf]),
)


@st.composite
def one_coordinate_moves(draw):
    """(base, axis, moved coordinate) of an exploration move: the base of
    one to six coordinates with one of them set to the moved value."""
    base = draw(st.lists(UNIT, min_size=1, max_size=6))
    return base, draw(st.integers(0, len(base) - 1)), draw(UNIT)


class TestOneCoordinatePatternPoint:
    @given(move=one_coordinate_moves(), k=st.floats(0.0, 4.0, exclude_min=True))
    @example(move=([0.4], 0, 0.5), k=1.0)  # doubled to 0.6
    @example(move=([0.5], 0, 0.5), k=1.0)  # no move, no pattern point
    @example(move=([0.2], 0, 0.8), k=2.0)  # clamped at 1
    @example(move=([0.5, 0.5], 1, 0.6), k=0.25)
    def test_matches_pattern_move(self, move, k):
        # The exploration move changes one coordinate of the base; the
        # pattern point built from that coordinate alone is the reference's
        # whole-vector pattern move, clamping at 0 and 1 included, and None
        # exactly when np.array_equal finds it collapsed onto the move.
        base, axis, moved = move
        base = np.array(base)
        move = base.copy()
        move[axis] = moved
        full = reference.pattern_move(base, move, k)
        point = _pattern_point(base, axis, move.item(axis), k)
        assert (point is None) == np.array_equal(full, move)
        if point is not None:
            assert point.tobytes() == full.tobytes()

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.5, 4.0))
    def test_clamps_at_both_bounds(self, b, m, k):
        base, move = np.array([0.5, b]), np.array([0.5, m])
        point = _pattern_point(base, 1, m, k)
        if point is not None:
            assert 0.0 <= point[1] <= 1.0
            assert point.tobytes() == reference.pattern_move(base, move, k).tobytes()


#: Spaces with a negative, a zero and mixed lower bounds, and one whose
#: ``lower + 1.0 * span`` rounds past every upper bound.
SPACES = {
    "schwefel10": make_schwefel10().space,
    "bump4": make_bump(4).space,
    "circuit": make_circuit().space,
    "rounding": ParameterSpace(np.array([-0.1, 0.3, -1.7]), np.array([0.2, 0.9, 0.9]), np.full(3, 1e-3)),
}


class TestPatternRawRow:
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(SPACES)),
        k=st.floats(0.0, 4.0, exclude_min=True),
    )
    def test_matches_denormalize(self, data, name, k):
        # The pattern point's raw row is the winner's raw row (a row of
        # the denormalized block) with the one moved coordinate
        # denormalized in Python floats: denormalize of the pattern point,
        # byte for byte, at both bounds and from -0.0 coordinates.
        space = SPACES[name]
        n = space.dimension
        base = np.array(data.draw(st.lists(UNIT, min_size=n, max_size=n)))
        axis = data.draw(st.integers(0, n - 1))
        move = base.copy()
        move[axis] = data.draw(UNIT)
        point = _pattern_point(base, axis, move.item(axis), k)
        if point is None:
            return
        block = denormalize(space, np.stack([base, move]))
        raw = block[1].copy()
        raw[axis] = denormalize_coordinate(space, axis, point.item(axis))
        assert raw.tobytes() == denormalize(space, point).tobytes()

    @given(data=st.data(), name=st.sampled_from(sorted(SPACES)))
    def test_coordinate_matches_denormalize(self, data, name):
        space = SPACES[name]
        x = np.array(data.draw(st.lists(UNIT, min_size=space.dimension, max_size=space.dimension)))
        raw = denormalize(space, x)
        for j in range(space.dimension):
            assert np.float64(denormalize_coordinate(space, j, x.item(j))).tobytes() == raw[j : j + 1].tobytes()


class TestAxialRawBlock:
    @given(data=st.data(), name=st.sampled_from(sorted(SPACES)), rows=st.integers(0, 9))
    def test_coordinates_match_denormalize(self, data, name, rows):
        space = SPACES[name]
        n = space.dimension
        X = np.array(data.draw(st.lists(UNIT, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
        axis = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows)), dtype=int)
        r = np.arange(rows)
        assert denormalize_coordinates(space, axis, X[r, axis]).tobytes() == denormalize(space, X)[r, axis].tobytes()

    @settings(deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(SPACES)),
        step=st.sampled_from([0.1, 0.25, 0.6, 1.0, 2**-53]),
        threads=st.integers(1, 3),
    )
    def test_matches_denormalize_of_the_normalized_block(self, data, name, step, threads):
        # Each row is its base's raw row with the one moved coordinate
        # denormalized: denormalize of the stacked normalized rows, byte
        # for byte, from bases with -0.0 and bound coordinates, with
        # probes clamped onto both bounds, some probes tabu, and in the
        # "rounding" space, where lower + 1.0 * span rounds past upper.
        space = SPACES[name]
        n = space.dimension
        bases = np.array([data.draw(st.lists(UNIT, min_size=n, max_size=n)) for _ in range(threads)])
        rings = np.full((threads, 4, n), np.inf)
        for base, ring in zip(bases, rings):
            tabu = TabuList(4, 0.0, ring)
            for _ in range(data.draw(st.integers(0, 2))):
                probe = base.copy()
                probe[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([step, -step]))
                tabu.push(clamp(probe))
        moves = axial_moves(bases[:, np.newaxis], np.full((threads, 1, 1), step), rings, 0.0)
        block = axial_block(space, denormalize(space, bases), moves)
        want = denormalize(space, probe_rows(moves, bases))
        assert block.shape == want.shape == (moves.axis.size, n)
        assert block.tobytes() == want.tobytes()


class TestUfuncClamps:
    @given(data=st.data(), shape=st.sampled_from([(1,), (7,), (40,), (1, 3), (5, 4), (33, 2)]))
    def test_clamp_equals_np_clip_bytewise(self, data, shape):
        x = np.array(data.draw(st.lists(EDGY, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
        assert clamp(x).tobytes() == np.clip(x, 0.0, 1.0).tobytes()
        assert clamp(x.T).tobytes() == np.clip(x.T, 0.0, 1.0).tobytes()

    @given(
        data=st.data(),
        lower=st.sampled_from([0.0, -0.0, -500.0, -0.1, 1.0, 10.0]),
        width=st.sampled_from([1.0, 1000.0, 0.30000000000000004, 0.1, 990.0]),
        n=st.integers(1, 4),
        rows=st.integers(1, 9),
    )
    def test_denormalize_equals_np_clip_bytewise(self, data, lower, width, n, rows):
        # x = 0 and x = 1 land exactly on the bounds (lower + 1.0 * span
        # may round past upper and be clamped back); -0.0 and NaN pass.
        upper = lower + width
        space = ParameterSpace(np.full(n, lower), np.full(n, upper), np.full(n, min(width, 1e-3)))
        x = np.array(data.draw(st.lists(EDGY | UNIT, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
        with np.errstate(over="ignore", invalid="ignore"):  # huge and infinite x
            ref = np.clip(space.lower + x * space.span, space.lower, space.upper)
            assert denormalize(space, x).tobytes() == ref.tobytes()
            for r in range(rows):
                assert denormalize(space, x[r]).tobytes() == ref[r].tobytes()


def quadratic_setup(base_x):
    obj = make_objective(lambda raw: (raw[0] - 0.3) ** 2)
    return obj, adopted_threads(obj, [base_x], SearchConfig(step_initial=0.1))


class TestHjStep:
    def test_pattern_point_adopted_when_better(self):
        # f = (x-0.3)^2 from 0.5: explore picks 0.4, pattern reaches the
        # optimum at 0.3 and must become the new base.
        obj, state = quadratic_setup([0.5])
        outcome = hj_step(state, obj)
        assert outcome == IMPROVED
        assert state.x[0, 0, 0] == pytest.approx(0.3)
        assert state.best[0].value == pytest.approx(0.0, abs=1e-12)
        assert state.best[0].x.tobytes() == state.x[0, 0].tobytes()

    def test_stalled_when_all_neighbors_tabu(self):
        obj, state = quadratic_setup([0.5])
        state.tabu_lists[0].push(np.array([0.4]))
        state.tabu_lists[0].push(np.array([0.6]))
        base_before = state.x.tobytes(), state.raw.tobytes()
        outcome = hj_step(state, obj)
        assert outcome == STALLED
        assert state.evals == [1]
        assert (state.x.tobytes(), state.raw.tobytes()) == base_before


class TestNonFiniteFactorAndStep:
    """A NaN or infinite pattern factor is refused before any point
    reaches the objective, where it would be a NaN coordinate. A
    table's steps come from a validated ``SearchConfig``."""

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_pattern_factor_outside_zero_to_inf(self, k):
        calls = []
        obj = make_objective(lambda raw: raw[0], dim=2, record=calls)
        state = fresh_threads([evaluate(obj, np.array([0.5, 0.5]))], SearchConfig())
        match = "^pattern factor must be positive and finite"
        with pytest.raises(ValueError, match=match):
            hj_step(state, obj, k_pattern=k)
        with pytest.raises(ValueError, match=match):
            hj_stage(state, [0], obj, k_pattern=k)
        assert len(calls) == 1 and state.evals == [0]  # the start, evaluated but not counted
