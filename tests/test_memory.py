import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabukit.core import SearchPoint
from tabukit.memory import IntermediateMemory, TabuList


#: Capacities that are not integers, the bool among them.
NOT_INTEGERS = [2.5, math.nan, True, "3"]


def point(values, value):
    return SearchPoint(x=np.asarray(values, dtype=float), value=value, feasible=True)


class TestTabuList:
    def test_fifo_eviction(self):
        tabu = TabuList(capacity=2)
        a, b, c = np.array([0.1]), np.array([0.2]), np.array([0.3])
        tabu.push(a)
        tabu.push(b)
        tabu.push(c)
        assert len(tabu) == 2
        assert not tabu.is_tabu(a)
        assert tabu.is_tabu(b)
        assert tabu.is_tabu(c)

    def test_push_onto_empty(self):
        tabu = TabuList()
        tabu.push(np.array([0.5, 0.5]))
        assert len(tabu) == 1

    def test_capacity_never_exceeded(self):
        tabu = TabuList()  # default capacity 7
        rng = np.random.default_rng(0)
        for _ in range(100):
            tabu.push(rng.random(3))
        assert len(tabu) == 7

    def test_eviction_order_recoverable(self):
        tabu = TabuList(capacity=3)
        xs = [np.array([i / 10]) for i in range(6)]
        for x in xs:
            tabu.push(x)
        # Only the last three pushes survive.
        for x in xs[:3]:
            assert not tabu.is_tabu(x)
        for x in xs[3:]:
            assert tabu.is_tabu(x)

    def test_match_uses_max_norm_tolerance(self):
        tabu = TabuList(match_tol=1e-6)
        tabu.push(np.array([0.5, 0.5]))
        assert tabu.is_tabu(np.array([0.5, 0.5]))
        assert not tabu.is_tabu(np.array([0.5, 0.5 + 1e-4]))

    def test_match_boundary_is_inclusive(self):
        # Power-of-two tolerance and offset so the distance is exact.
        tol = 2.0**-20
        tabu = TabuList(match_tol=tol)
        tabu.push(np.array([0.5, 0.5]))
        assert tabu.is_tabu(np.array([0.5, 0.5 + tol]))
        assert not tabu.is_tabu(np.array([0.5, 0.5 + 2 * tol]))

    def test_empty_list_matches_nothing(self):
        tabu = TabuList()
        assert not tabu.is_tabu(np.array([0.0]))

    def test_entries_are_copies(self):
        tabu = TabuList()
        x = np.array([0.4])
        tabu.push(x)
        x[0] = 0.9
        assert tabu.is_tabu(np.array([0.4]))
        assert not tabu.is_tabu(np.array([0.9]))

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

    def test_offer_keeps_best_first(self):
        mem = IntermediateMemory(capacity=3)
        for v in (2.0, 1.0, 3.0):
            assert mem.offer(point([v / 10, 0.0], v))
        assert mem.values() == [1.0, 2.0, 3.0]
        assert mem.rows().tolist() == [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]

    def test_full_memory_displaces_worst(self):
        mem = IntermediateMemory(capacity=3)
        for v in (1.0, 2.0, 3.0):
            mem.offer(point([v / 10, 0.0], v))
        assert mem.offer(point([0.25, 0.0], 2.5))
        assert mem.values() == [1.0, 2.0, 2.5]

    def test_full_memory_rejects_worse(self):
        mem = IntermediateMemory(capacity=3)
        for v in (1.0, 2.0, 3.0):
            mem.offer(point([v / 10, 0.0], v))
        assert not mem.offer(point([0.9, 0.9], 10.0))
        assert len(mem) == 3

    def test_duplicate_vector_rejected(self):
        mem = IntermediateMemory(capacity=3)
        assert mem.offer(point([0.5, 0.5], 1.0))
        assert not mem.offer(point([0.5, 0.5], 0.5))
        assert len(mem) == 1

    def test_near_duplicate_within_tolerance_rejected(self):
        mem = IntermediateMemory(capacity=3, match_tol=1e-6)
        mem.offer(point([0.5, 0.5], 1.0))
        assert not mem.offer(point([0.5, 0.5 + 1e-7], 0.5))
        assert mem.offer(point([0.5, 0.5 + 1e-3], 0.5))

    def test_infeasible_rejected(self):
        mem = IntermediateMemory()
        bad = SearchPoint(x=np.array([0.5]), value=1.0, feasible=False)
        assert not mem.offer(bad)
        assert len(mem) == 0

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

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_ordering_invariant(self, values):
        mem = IntermediateMemory(capacity=10)
        for i, v in enumerate(values):
            # Distinct vectors so the duplicate rule stays out of the way.
            mem.offer(point([i / 100.0, 0.0], float(v)))
        snap = mem.values()
        assert len(snap) <= 10
        assert snap == sorted(snap)
        # Best offered value is never evicted.
        assert snap[0] == min(float(v) for v in values)


class TestDiversify:
    def test_empty_memory_errors(self):
        with pytest.raises(ValueError):
            IntermediateMemory().diversify(np.random.default_rng(0))
        with pytest.raises(ValueError):
            IntermediateMemory().intensify()

    def test_single_uniform_entry(self):
        mem = IntermediateMemory()
        mem.offer(point([0.4, 0.4, 0.4], 1.0))
        out = mem.diversify(np.random.default_rng(1))
        assert np.array_equal(out, [0.4, 0.4, 0.4])

    def test_provenance(self):
        # Every output component must literally be some entry's component.
        mem = IntermediateMemory(capacity=5)
        rng = np.random.default_rng(2)
        pool = set()
        for v in range(5):
            x = rng.random(4)
            pool.update(x.tolist())
            mem.offer(point(x, float(v)))
        draw_rng = np.random.default_rng(3)
        for _ in range(50):
            out = mem.diversify(draw_rng)
            assert all(component in pool for component in out.tolist())

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


class TestIntensify:
    def test_single_entry_is_identity(self):
        mem = IntermediateMemory()
        mem.offer(point([0.3, 0.7], 1.0))
        assert np.array_equal(mem.intensify(), [0.3, 0.7])

    def test_mean_of_two(self):
        mem = IntermediateMemory()
        mem.offer(point([0.2, 0.2], 1.0))
        mem.offer(point([0.4, 0.6], 2.0))
        assert np.allclose(mem.intensify(), [0.3, 0.4])

    def test_identical_entries_idempotent(self):
        mem = IntermediateMemory(match_tol=0.0)
        mem.offer(point([0.25, 0.75], 1.0))
        mem.offer(point([0.25, 0.75 + 1e-12], 2.0))
        out = mem.intensify()
        assert np.allclose(out, [0.25, 0.75], atol=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        vectors = [rng.random(3) for _ in range(6)]
        values = list(range(6))
        mem_fwd = IntermediateMemory()
        for x, v in zip(vectors, values):
            mem_fwd.offer(point(x, float(v)))
        mem_rev = IntermediateMemory()
        for x, v in zip(reversed(vectors), reversed(values)):
            mem_rev.offer(point(x, float(v)))
        assert np.allclose(mem_fwd.intensify(), mem_rev.intensify())

    def test_result_clamped(self):
        mem = IntermediateMemory()
        mem.offer(point([0.0, 1.0], 1.0))
        out = mem.intensify()
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
