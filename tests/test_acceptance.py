"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line with the measured
numbers (run `pytest -s tests/test_acceptance.py` to see them on a
passing run). Expensive search batches are module-scoped fixtures so
criteria that look at the same runs share them.
"""
import math
import statistics

import numpy as np
import pytest

from tabukit.benchmarks import bump_value, keane_bump, make_bump, make_schwefel10, schwefel
from tabukit.cli import ExperimentSpec, emit_csv, run_experiment
from tabukit.control import SearchConfig, run_single
from tabukit.core import SearchPoint, normalize
from tabukit.hydraulic import (
    PRIORITY,
    PROPORTIONAL,
    CircuitParams,
    make_circuit,
    simulate_steady,
)
from tabukit.memory import IntermediateMemory, TabuList
from tabukit.multithread import MultiConfig, run_multi

from reference import pattern_move

SCHWEFEL_TARGET = -4189.83
SEEDS = range(5)


@pytest.fixture(scope="module")
def schwefel_single():
    objective = make_schwefel10()
    return objective, [run_single(objective, SearchConfig(seed=s)) for s in SEEDS]


@pytest.fixture(scope="module")
def schwefel_multi():
    objective = make_schwefel10()
    return objective, [
        run_multi(objective, MultiConfig(base=SearchConfig(seed=s))) for s in SEEDS
    ]


@pytest.fixture(scope="module")
def bump20_multi():
    objective = make_bump(20)
    return objective, [
        run_multi(objective, MultiConfig(base=SearchConfig(seed=s))) for s in SEEDS
    ]


@pytest.fixture(scope="module")
def bump20_single_random():
    objective = make_bump(20)
    return objective, [run_single(objective, SearchConfig(seed=s)) for s in SEEDS]


@pytest.fixture(scope="module")
def bump20_single_fixed():
    objective = make_bump(20)
    start = normalize(objective.space, np.full(20, 5.0))
    return objective, [
        run_single(objective, SearchConfig(seed=s), start=start) for s in SEEDS
    ]


@pytest.fixture(scope="module")
def bump50_multi():
    objective = make_bump(50)
    return objective, [
        run_multi(objective, MultiConfig(base=SearchConfig(seed=s))) for s in range(3)
    ]


@pytest.fixture(scope="module")
def circuit_multi():
    objective = make_circuit()
    return objective, [
        run_multi(objective, MultiConfig(base=SearchConfig(seed=s, max_evals=10_000)))
        for s in SEEDS
    ]


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_1(schwefel_single):
    objective, results = schwefel_single
    values = [r.best_native(objective) for r in results]
    evals = [r.evals for r in results]
    median_evals = statistics.median(evals)
    ok_values = all(abs(v - SCHWEFEL_TARGET) <= 0.1 for v in values)
    ok_evals = all(e <= 40_000 for e in evals) and median_evals <= 20_000
    ok = ok_values and ok_evals
    print(
        f"criterion 1: {_status(ok)} single-thread schwefel best "
        f"{min(values):.4f}..{max(values):.4f}, evals {min(evals)}..{max(evals)} "
        f"(median {median_evals:.0f})"
    )
    assert ok


def test_criterion_2(schwefel_single, schwefel_multi):
    objective, single_results = schwefel_single
    _, multi_results = schwefel_multi
    single_median = statistics.median(r.evals for r in single_results)
    values = [r.best_native(objective) for r in multi_results]
    evals = [r.evals for r in multi_results]
    ok_values = all(abs(v - SCHWEFEL_TARGET) <= 0.1 for v in values)
    ok_evals = all(e > single_median for e in evals)
    ok = ok_values and ok_evals
    print(
        f"criterion 2: {_status(ok)} multi-thread schwefel best "
        f"{min(values):.4f}..{max(values):.4f}, evals {min(evals)}..{max(evals)} "
        f"vs single median {single_median:.0f}"
    )
    assert ok


def test_criterion_3(bump20_multi, bump20_single_random, bump50_multi):
    objective, multi_results = bump20_multi
    _, single_results = bump20_single_random
    obj50, big_results = bump50_multi
    multi_values = [r.best_native(objective) for r in multi_results]
    single_values = [r.best_native(objective) for r in single_results]
    big_values = [r.best_native(obj50) for r in big_results]
    multi_mean = statistics.fmean(multi_values)
    single_mean = statistics.fmean(single_values)
    ok_order = multi_mean >= single_mean
    ok_range = all(0.5 <= v <= 0.82 for v in multi_values + single_values)
    ok_cap = all(v <= 0.82 for v in big_values)
    ok = ok_order and ok_range and ok_cap
    print(
        f"criterion 3: {_status(ok)} bump20 multi mean {multi_mean:.4f} >= "
        f"single mean {single_mean:.4f}; values "
        f"{min(multi_values + single_values):.4f}..{max(multi_values + single_values):.4f}; "
        f"bump50 max {max(big_values):.4f} <= 0.82"
    )
    assert ok


def test_criterion_4(bump20_single_fixed):
    objective, results = bump20_single_fixed
    values = [r.best_native(objective) for r in results]
    spread = max(values) - min(values)
    ok = spread <= 0.05
    print(
        f"criterion 4: {_status(ok)} bump20 fixed-start values "
        f"{min(values):.6f}..{max(values):.6f}, spread {spread:.6f} <= 0.05"
    )
    assert ok


def test_criterion_5(circuit_multi):
    _, results = circuit_multi
    hits = 0
    worst = (0.0, 0.0)
    for r in results:
        state = simulate_steady(CircuitParams(*r.best_raw))
        e1 = abs(state.omega1 - 120.0)
        e2 = abs(state.omega2 - 60.0)
        worst = max(worst, (e1, e2))
        if e1 <= 0.5 and e2 <= 0.5 and r.evals <= 10_000:
            hits += 1
    ok = hits >= 4
    print(
        f"criterion 5: {_status(ok)} circuit speed targets hit on {hits}/5 seeds "
        f"within 10000 evals (worst errors {worst[0]:.4f}, {worst[1]:.4f} rev/min)"
    )
    assert ok


def test_criterion_6():
    checks: dict[str, bool] = {}

    # Tabu FIFO and exclusion.
    tabu = TabuList(capacity=7, match_tol=1e-6)
    points = [np.full(3, float(i)) for i in range(10)]
    for p in points:
        tabu.push(p)
    checks["tabu"] = (
        len(tabu) == 7
        and all(not tabu.is_tabu(p) for p in points[:3])
        and all(tabu.is_tabu(p) for p in points[3:])
        and tabu.is_tabu(points[9] + 1e-7)
    )

    # Elite ordering and offer semantics.
    memory = IntermediateMemory(capacity=10, match_tol=1e-6)
    rng = np.random.default_rng(0)
    offered = []
    for _ in range(30):
        p = SearchPoint(x=rng.random(4), value=float(rng.random()), feasible=True)
        memory.offer(p)
        offered.append(p.value)
    snap = memory.values()
    duplicate = SearchPoint(x=memory.rows()[0], value=-1.0, feasible=True)
    checks["elite"] = (
        snap == sorted(offered)[:10] and not memory.offer(duplicate)
    )

    # Diversification provenance and 10,000-trial uniformity.
    pool_mem = IntermediateMemory(capacity=10, match_tol=0.0)
    values = np.arange(10, dtype=float).reshape(2, 5) / 100.0  # 10 distinct slots
    pool_mem.offer(SearchPoint(x=values[0], value=0.0, feasible=True))
    pool_mem.offer(SearchPoint(x=values[1], value=1.0, feasible=True))
    pool = set(values.ravel())
    draw_rng = np.random.default_rng(7)
    provenance_ok = all(
        set(pool_mem.diversify(draw_rng)) <= pool for _ in range(100)
    )
    marker = values[0, 0]
    hits = sum(pool_mem.diversify(draw_rng)[0] == marker for _ in range(10_000))
    checks["diversify"] = provenance_ok and abs(hits / 10_000 - 0.1) <= 0.02

    # Pattern-move collinearity (interior points, so clamping is inert).
    col_rng = np.random.default_rng(3)
    collinear = True
    for _ in range(200):
        old = col_rng.uniform(0.4, 0.5, size=6)
        new = col_rng.uniform(0.45, 0.55, size=6)
        p = pattern_move(old, new, k=0.5)
        collinear &= bool(np.max(np.abs((p - new) - 0.5 * (new - old))) <= 1e-12)
    checks["pattern"] = collinear

    # Exact flow conservation across policies.
    flow_rng = np.random.default_rng(11)
    conserved = True
    for _ in range(200):
        params = CircuitParams(
            flow_rng.uniform(1, 1000),
            flow_rng.uniform(1, 1000),
            flow_rng.uniform(1, 1000),
            flow_rng.uniform(10, 100),
            flow_rng.uniform(10, 100),
        )
        for policy in (PROPORTIONAL, PRIORITY):
            s = simulate_steady(params, policy=policy)
            conserved &= math.fsum([s.q1, s.q2, s.q_rv]) == s.q_pump
    checks["flow"] = conserved

    # Benchmark oracle agreement on 1,000 random points each.
    def schwefel_oracle(x):
        return -sum(xi * math.sin(math.sqrt(abs(xi))) for xi in x)

    def bump_oracles(x):
        s4 = sum(math.cos(xi) ** 4 for xi in x)
        p2 = 1.0
        for xi in x:
            p2 *= math.cos(xi) ** 2
        den = sum((i + 1) * xi * xi for i, xi in enumerate(x))
        signed = (s4 - 2.0 * p2) / den
        return signed, abs(s4 - 2.0 * p2) / math.sqrt(den)

    oracle_rng = np.random.default_rng(17)
    agree = True
    for _ in range(1000):
        xs = oracle_rng.uniform(-500, 500, size=10)
        agree &= math.isclose(
            schwefel(xs), schwefel_oracle(xs), rel_tol=1e-9, abs_tol=1e-9
        )
        xb = oracle_rng.uniform(0.1, 10.0, size=20)
        signed_ref, keane_ref = bump_oracles(xb)
        agree &= math.isclose(bump_value(xb), signed_ref, rel_tol=1e-9, abs_tol=1e-12)
        agree &= math.isclose(keane_bump(xb), keane_ref, rel_tol=1e-9, abs_tol=1e-12)
    checks["oracles"] = agree

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    print(
        f"criterion 6: {_status(ok)} property suites "
        f"({'all green' if ok else 'failed: ' + ', '.join(failed)})"
    )
    assert ok, failed


def test_criterion_7(tmp_path):
    # Identical experiment spec twice: CSVs must match byte for byte in
    # every field except the measured wall-clock column.
    texts = []
    for name in ("first.csv", "second.csv"):
        spec = ExperimentSpec(
            problem="schwefel10",
            method="multi",
            runs=2,
            base_seed=0,
            overrides={"max_evals": 3000},
        )
        rows, summary = run_experiment(spec)
        path = tmp_path / name
        emit_csv(rows, summary, str(path))
        texts.append(path.read_text())

    def mask_wall(text):
        out = []
        for line in text.strip().split("\n"):
            cells = line.split(",")
            cells[4] = ""
            out.append(",".join(cells))
        return "\n".join(out)

    csv_ok = mask_wall(texts[0]) == mask_wall(texts[1])

    # Lockstep runs are bit-reproducible including the collision log;
    # this run is long enough that the log compared is non-empty.
    objective = make_schwefel10()
    runs = [
        run_multi(objective, MultiConfig(base=SearchConfig(seed=0))) for _ in range(2)
    ]
    a, b = runs
    lockstep_ok = (
        a.history == b.history
        and a.stages == b.stages
        and a.collisions.events == b.collisions.events
        and len(a.collisions.events) > 0
        and a.evals == b.evals
        and np.array_equal(a.best.x, b.best.x)
        and a.best.value == b.best.value
        and [t.evals for t in a.threads] == [t.evals for t in b.threads]
    )

    ok = csv_ok and lockstep_ok
    print(
        f"criterion 7: {_status(ok)} determinism (csv identical: {csv_ok}, "
        f"lockstep bit-reproducible with {len(a.collisions.events)} collisions: {lockstep_ok})"
    )
    assert ok
