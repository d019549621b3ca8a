import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabukit.core import SearchPoint
from tabukit.memory import IntermediateMemory, TabuList


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

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            TabuList(capacity=0)
        with pytest.raises(ValueError):
            TabuList(match_tol=-1.0)


class TestIntermediateMemory:
    def test_offer_keeps_best_first(self):
        mem = IntermediateMemory(capacity=3)
        for v in (2.0, 1.0, 3.0):
            assert mem.offer(point([v / 10, 0.0], v))
        values = [e.value for e in mem.snapshot()]
        assert values == [1.0, 2.0, 3.0]
        assert mem.best().value == 1.0

    def test_full_memory_displaces_worst(self):
        mem = IntermediateMemory(capacity=3)
        for v in (1.0, 2.0, 3.0):
            mem.offer(point([v / 10, 0.0], v))
        assert mem.offer(point([0.25, 0.0], 2.5))
        values = [e.value for e in mem.snapshot()]
        assert values == [1.0, 2.0, 2.5]

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

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_ordering_invariant(self, values):
        mem = IntermediateMemory(capacity=10)
        for i, v in enumerate(values):
            # Distinct vectors so the duplicate rule stays out of the way.
            mem.offer(point([i / 100.0, 0.0], float(v)))
        snap = [e.value for e in mem.snapshot()]
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
