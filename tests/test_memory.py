import math
import re

import numpy as np
import pytest

from tabukit.core import SearchPoint
from tabukit.memory import IntermediateMemory, TabuList


#: Capacities that are not integers, the bool among them.
NOT_INTEGERS = [2.5, math.nan, True, "3"]


def point(values, value):
    return SearchPoint(x=np.asarray(values, dtype=float), value=value, feasible=True)


class TestTabuList:
    @pytest.mark.parametrize("capacity", NOT_INTEGERS)
    def test_names_a_capacity_that_is_not_an_integer(self, capacity):
        with pytest.raises(ValueError, match=f"^tabu capacity must be an integer, got {re.escape(repr(capacity))}$"):
            TabuList(capacity)
        tabu = TabuList(np.int64(2))
        tabu.push(np.array([0.5]))
        assert tabu.capacity == 2 and tabu.is_tabu(np.array([0.5]))

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            TabuList(capacity=0)
        with pytest.raises(ValueError):
            TabuList(match_tol=-1.0)


class TestIntermediateMemory:
    @pytest.mark.parametrize("capacity", NOT_INTEGERS)
    def test_names_a_capacity_that_is_not_an_integer(self, capacity):
        with pytest.raises(ValueError, match=f"^elite capacity must be an integer, got {re.escape(repr(capacity))}$"):
            IntermediateMemory(capacity)
        memory = IntermediateMemory(np.int32(2))
        assert memory.offer(point([0.5], 1.0))
        assert memory.capacity == 2 and memory.values() == [1.0]
        with pytest.raises(ValueError, match="^elite capacity must be positive$"):
            IntermediateMemory(0)

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_rejects_bad_tolerance_like_tabu_list(self, tol):
        with pytest.raises(ValueError, match="match tolerance must be non-negative"):
            TabuList(match_tol=tol)
        with pytest.raises(ValueError, match="match tolerance must be non-negative"):
            IntermediateMemory(match_tol=tol)
        assert IntermediateMemory(match_tol=0.0).match_tol == 0.0

    def test_vector_that_is_not_1d_rejected_at_every_offer(self):
        # The first offer fixes N; it must not store a (1, N) row either.
        mem = IntermediateMemory(capacity=3)
        with pytest.raises(ValueError, match=r"got \(1, 3\)"):
            mem.offer(point([[0.1, 0.2, 0.3]], 1.0))
        assert len(mem) == 0 and mem.values() == [] and mem.rows().size == 0
        assert mem.offer(point([0.1, 0.2, 0.3], 1.0))
        for bad in ([[0.4, 0.5, 0.6]], 0.4):
            with pytest.raises(ValueError, match="archived vectors have shape"):
                mem.offer(point(bad, 0.5))
        assert mem.values() == [1.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_feasible_non_finite_value_rejected(self, bad):
        # Archived, such a value would break the best-first order that
        # the capacity check reads.
        mem = IntermediateMemory(capacity=3)
        assert mem.offer(point([0.1, 0.0], 1.0))
        with pytest.raises(ValueError, match=f"non-finite value {bad!r}"):
            mem.offer(point([0.2, 0.0], bad))
        assert mem.offer(point([0.3, 0.0], 0.5))
        assert mem.offer(point([0.4, 0.0], 2.0))
        assert mem.values() == [0.5, 1.0, 2.0]

    def test_values_is_a_copy_in_step_with_rows(self):
        mem = IntermediateMemory(capacity=3)
        assert mem.values() == [] and len(mem) == 0
        for v in (3.0, 1.0, 2.0, 0.5, 2.5):  # the last two each displace the worst entry
            mem.offer(point([v / 10, v / 10], v))
            values = mem.values()
            assert values == sorted(values)
            assert len(values) == len(mem) == len(mem.rows())
            assert mem.rows()[:, 0].tolist() == [value / 10 for value in values]
        assert values == [0.5, 1.0, 2.0]
        values.append(-1.0)
        values[0] = 9.0
        assert mem.values() == [0.5, 1.0, 2.0]
        assert len(mem) == 3
        assert mem.offer(point([0.15, 0.15], 1.5))  # still judged against the archived 2.0
        assert mem.values() == [0.5, 1.0, 1.5]

class TestDiversify:
    def test_empty_memory_errors(self):
        with pytest.raises(ValueError):
            IntermediateMemory().diversify(np.random.default_rng(0))
        with pytest.raises(ValueError):
            IntermediateMemory().intensify()

    def test_uniform_selection_statistics(self):
        # One entry (0.1, 0.9): each output component picks either value
        # with equal probability, so over 10,000 draws the frequency of
        # 0.1 must sit within 0.5 +/- 0.02.
        mem = IntermediateMemory()
        mem.offer(point([0.1, 0.9], 1.0))
        rng = np.random.default_rng(4)
        draws = np.array([mem.diversify(rng) for _ in range(10000)])
        assert set(np.unique(draws)) == {0.1, 0.9}
        for j in range(2):
            freq = np.mean(draws[:, j] == 0.1)
            assert abs(freq - 0.5) <= 0.02


@pytest.mark.parametrize("k", [1, 2, 5, 10])
@pytest.mark.parametrize("n", [1, 5, 10, 50])
@pytest.mark.parametrize("seed", range(5))
def test_diversify_draws_as_two_scalar_draws_per_coordinate(seed, k, n):
    # Coordinate j copies coordinate integers(n) of entry integers(k),
    # drawn in that order; after the call the generator stands where that
    # loop leaves it (k = 1 draws nothing for the entry on either path).
    mem = IntermediateMemory(capacity=k)
    rows = np.random.default_rng(100 + seed).random((k, n))
    for i, row in enumerate(rows):
        assert mem.offer(point(row, float(i)))
    loop = np.random.default_rng(seed)
    expected = []
    for _ in range(n):
        r = int(loop.integers(k))
        c = int(loop.integers(n))
        expected.append(rows[r, c])
    rng = np.random.default_rng(seed)
    out = mem.diversify(rng)
    assert out.tolist() == expected
    assert rng.bit_generator.state == loop.bit_generator.state
    assert rng.integers(2**62) == loop.integers(2**62)


