"""Search controller: failure-count schedule over the hill climber.

A counter of consecutive non-improving steps drives the escalation
ladder: recentre on the elite centroid, then jump to a recombined
random point, then halve the step and restart from the best point
found so far. The run ends when every thread's step has fallen below
the resolution floor or the evaluation budget is spent.

One lockstep driver, ``run_lockstep``, runs K threads and returns a
``MultiRunResult``; ``run_single`` is its K = 1 case and returns the
plain ``RunResult`` part. The run's threads are one table, ``Threads``:
thread i is row i of every column, its base, step, tabu ring, generator,
best point and counters alike, and the table holds the one archive that
the threads share. It is also the run's one ledger: an evaluation counts
once, in its thread's ``evals``, and ``Threads.adopt`` records each
improvement once, for its thread and the run. Each stage steps the live
rows through one ``hillclimb.hj_stage`` call (more at the budget edge),
which screens all their probes at once, evaluates all their axial
candidates in one objective call and each pattern point alone, and the
result is the same as stepping them one after another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .core import Objective, ParameterSpace, SearchPoint, check_finite, check_integer, check_real, clamp, evaluate
from .hillclimb import IMPROVED, hj_stage
from .memory import (
    DEFAULT_ELITE_CAPACITY,
    DEFAULT_MATCH_TOL,
    DEFAULT_TABU_CAPACITY,
    IntermediateMemory,
    TabuList,
)

CONTINUE = "continue"
INTENSIFY = "intensify"
DIVERSIFY = "diversify"
REDUCE_STEP = "reduce_step"

STEP_FLOOR = "step_floor"
EVAL_BUDGET = "eval_budget"


def check_number_fields(settings) -> None:
    """Raise ValueError naming the first int-default field of ``settings``
    holding no integer, or float-default one holding no real number; a bool is neither."""
    for f in fields(settings):
        if type(f.default) is int:
            check_integer(getattr(settings, f.name), f.name)
        elif type(f.default) is float:
            check_real(getattr(settings, f.name), f.name)


@dataclass
class SearchConfig:
    """Tuning knobs for one search run. Defaults work on all built-in problems."""

    n_tabu: int = DEFAULT_TABU_CAPACITY
    m_elite: int = DEFAULT_ELITE_CAPACITY
    k_pattern: float = 1.0
    step_initial: float = 0.1
    step_reduce_factor: float = 0.5
    step_min: float | None = None
    intensify_after: int = 5
    diversify_after: int = 10
    reduce_after: int = 15
    match_tol: float = DEFAULT_MATCH_TOL
    max_evals: int = 100_000
    seed: int = 0

    def validate(self) -> None:
        check_number_fields(self)
        if self.step_min is not None:
            check_real(self.step_min, "step_min")
        if not (0 < self.intensify_after < self.diversify_after < self.reduce_after):
            raise ValueError("thresholds must satisfy 0 < intensify < diversify < reduce")
        if not (0.0 < self.step_reduce_factor < 1.0):
            raise ValueError("step_reduce_factor must lie in (0, 1)")
        if not (0.0 < self.step_initial <= 1.0):
            raise ValueError("step_initial must lie in (0, 1]")
        if self.step_min is not None and not (0.0 < self.step_min <= self.step_initial):
            raise ValueError("step_min must lie in (0, step_initial]")
        for name in ("n_tabu", "m_elite"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not (0.0 < self.k_pattern < math.inf):
            raise ValueError("k_pattern must be positive and finite")
        if not (0.0 <= self.match_tol < math.inf):
            raise ValueError("match_tol must be non-negative and finite")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(eq=False)
class Threads:
    """A run's threads as one table: thread i is row i of every column.
    The bases ``x`` ``(K, 1, N)`` and ``raw`` ``(K, N)``, the steps
    ``(K, 1, 1)`` and the tabu rings ``(K, capacity, N)`` are arrays that
    a stage reads at once. The other columns are lists: tabu list (over
    its ring), generator, best point, evaluations, consecutive failures,
    pending restructure (None while it continues) and ``(evaluations,
    best value)`` at each improvement. ``memory`` is the archive that all
    the threads share. ``rebase`` and ``adopt`` move a base. ``run_best``
    is the lowest of the threads' bests, the first of equals (thread 0's
    sentinel until a feasible point), and ``run_history`` holds
    ``(sum(evals), value)`` at each of its improvements."""

    x: np.ndarray
    raw: np.ndarray
    step: np.ndarray
    tabu: np.ndarray
    tabu_lists: list[TabuList]
    rngs: list[np.random.Generator]
    best: list[SearchPoint]
    evals: list[int]
    fail_count: list[int]
    pending: list[str | None]
    history: list[list[tuple[int, float]]]
    memory: IntermediateMemory
    run_best: SearchPoint
    run_history: list[tuple[int, float]]

    def rebase(self, i: int, point: SearchPoint) -> None:
        """Copy ``point`` into thread i's base rows; ``point`` must carry
        its raw row, as every evaluated point does."""
        if point.raw is None:
            raise ValueError(f"thread {i}'s base has no raw row; evaluate it with core.evaluate")
        self.x[i, 0] = point.x
        self.raw[i] = point.raw

    def adopt(self, i: int, point: SearchPoint) -> None:
        """Move thread i's base to ``point``: tabu it, offer it to the
        archive, and make it the thread's best when it is feasible and
        strictly better, and the run's when it beats that too."""
        self.rebase(i, point)
        self.tabu_lists[i].push(point.x)
        self.memory.offer(point)
        if point.feasible and point.value < self.best[i].value:
            self.best[i] = point
            self.history[i].append((self.evals[i], point.value))
            if point.value < self.run_best.value:
                self.run_best = point
                self.run_history.append((sum(self.evals), point.value))


def thread_generators(seed: int, k: int) -> list[np.random.Generator]:
    """A run's thread generators: ``default_rng(seed)`` for one thread, else
    one for each child of ``SeedSequence(seed).spawn(k)``."""
    if k == 1:
        return [np.random.default_rng(seed)]
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(k)]


def fresh_threads(
    points: Sequence[SearchPoint], config: SearchConfig, rngs: Sequence[np.random.Generator] | None = None
) -> Threads:
    """One thread on each already-evaluated start: thread i based at
    ``points[i]``, drawing from ``rngs[i]`` (``thread_generators(config.seed,
    K)`` by default), all sharing one new archive. Nothing is counted,
    tabu or archived yet: the caller counts and adopts each start. Until
    a feasible point takes over, a thread's best is a sentinel at its
    start, with its ``x`` and ``raw``. Raises ValueError when there are no starts."""
    if not points:
        raise ValueError("a run needs at least one start, and got none")
    k, n = len(points), points[0].x.size
    rings = np.full((k, config.n_tabu, n), math.inf)
    bests = [SearchPoint(x=point.x, value=math.inf, feasible=False, raw=point.raw) for point in points]
    threads = Threads(
        np.empty((k, 1, n)), np.empty((k, n)), np.full((k, 1, 1), config.step_initial), rings,
        tabu_lists=[TabuList(config.n_tabu, config.match_tol, ring) for ring in rings],
        rngs=list(thread_generators(config.seed, k) if rngs is None else rngs),
        best=bests, evals=[0] * k, fail_count=[0] * k, pending=[None] * k, history=[[] for _ in points],
        memory=IntermediateMemory(config.m_elite, config.match_tol), run_best=bests[0], run_history=[],
    )
    for i, point in enumerate(points):
        threads.rebase(i, point)
    return threads


def resolved_step_min(config: SearchConfig, space: ParameterSpace) -> float:
    """Step floor in normalized units; derived from the space when unset."""
    if config.step_min is not None:
        return config.step_min
    return float(np.max(space.min_step / space.span))


def start_point(start: np.ndarray, dimension: int, name: str = "start") -> np.ndarray:
    """Check a normalized start vector and clamp it into the unit cube.

    Raises ValueError naming ``name`` when the shape is not
    ``(dimension,)`` or a coordinate is not finite, so a bad start is
    reported as such before anything is evaluated.
    """
    x = np.asarray(start, dtype=float)
    if x.shape != (dimension,):
        raise ValueError(
            f"{name} must have one coordinate per parameter: expected shape ({dimension},), got {x.shape}"
        )
    check_finite(x, name)
    return clamp(x)


def control_decision(fail_count: int, config: SearchConfig) -> str:
    """Map the consecutive-failure count onto the escalation ladder.

    Exact-threshold matches, not ranges: each escalation fires once as
    the counter passes through its threshold, and the counter keeps
    growing until an improvement or a step reduction resets it.
    """
    if fail_count == config.intensify_after:
        return INTENSIFY
    if fail_count == config.diversify_after:
        return DIVERSIFY
    if fail_count == config.reduce_after:
        return REDUCE_STEP
    return CONTINUE


def apply_action(threads: Threads, action: str, i: int, objective: Objective, config: SearchConfig) -> None:
    """Carry out a control action on thread i of ``threads``, in place.

    Intensify and diversify relocate the base, which costs one
    evaluation, added to its ``evals``; reduce_step halves the step,
    restarts from the incumbent best and resets the failure counter.
    With an empty elite archive intensify is a no-op and diversify falls
    back to a uniform random point.
    """
    if action == CONTINUE:
        return
    if action == REDUCE_STEP:
        threads.step[i] *= config.step_reduce_factor
        threads.rebase(i, threads.best[i])
        threads.fail_count[i] = 0
        return
    memory = threads.memory
    if action == INTENSIFY:
        if len(memory) == 0:
            return
        x = memory.intensify()
    elif action == DIVERSIFY:
        if len(memory) == 0:
            x = threads.rngs[i].random(threads.x.shape[2])
        else:
            x = memory.diversify(threads.rngs[i])
    else:
        raise ValueError(f"unknown control action: {action!r}")

    point = evaluate(objective, x)
    threads.evals[i] += 1
    threads.adopt(i, point)


@dataclass
class CollisionLog:
    """(total eval count, base distance) records, one per detected collision."""

    events: list[tuple[int, float]] = field(default_factory=list)


def detect_collision(
    x_a: np.ndarray, x_b: np.ndarray, tol: float, log: CollisionLog | None = None, eval_count: int = 0
) -> bool:
    """True when the two base vectors agree within ``tol`` in every coordinate."""
    diff = np.abs(x_a - x_b)
    dist = diff.item(diff.argmax())  # the max, without the reduction's wrapper
    hit = dist <= tol
    if hit and log is not None:
        log.events.append((eval_count, dist))
    return hit


@dataclass
class RunResult:
    """Outcome of one search run."""

    best: SearchPoint
    best_raw: np.ndarray
    evals: int
    terminated_by: str
    #: (total eval count, best value) each time the best improved.
    history: list[tuple[int, float]]

    def best_native(self, objective: Objective) -> float:
        return objective.native_value(self.best.value)


@dataclass
class ThreadReport:
    """Per-thread outcome inside a lockstep run."""

    thread_id: int
    best: SearchPoint
    best_raw: np.ndarray
    evals: int
    step_final: float
    history: list[tuple[int, float]]


@dataclass
class MultiRunResult(RunResult):
    """A lockstep run's outcome: the global best and totals, plus per-thread detail."""

    threads: list[ThreadReport]
    collisions: CollisionLog
    #: One tuple of per-thread actions per completed stage.
    stages: list[tuple[str, ...]]


def run_lockstep(
    objective: Objective,
    config: SearchConfig,
    starts: Sequence[tuple[str, np.ndarray | None]],
) -> MultiRunResult:
    """Run one thread per ``(name, start)`` pair in lockstep to termination.

    Each thread draws from its own generator, seeded from ``config.seed``
    (``thread_generators``): a lone thread from ``default_rng(seed)``,
    thread i of K from child i of ``SeedSequence(seed).spawn(K)``. A None
    start is a uniform random point from it. The config, then the
    starts (named in errors by ``name``) are checked before anything is
    evaluated. The threads share the elite archive and the evaluation
    budget, and each has its own tabu list and evaluation count, as its
    row of the run's ``Threads`` table.

    Each stage steps every thread whose step is at or above the floor,
    with the result of stepping them one by one in index order: a
    thread steps only while the total spent before it is below the
    budget. This is the one home of that rule. A thread step spends at
    most 2N + 1 evaluations, so with B left the leading
    ``1 + (B - 1) // (2N + 1)`` threads surely step: one ``hj_stage``
    call steps them as one block, and the rest wait for the actual total.
    Then the stage lets at most one restructure: among the threads that
    ask, the one with the worst current best (lowest index on ties)
    goes, and the others keep their request pending for the next stage
    unless they improve first. After the stage every pair of bases is
    checked for a collision. The run ends at the first stage that finds
    no thread at or above the floor, or when the budget is spent; its
    best and history are the table's ``run_best`` and ``run_history``.
    """
    config.validate()
    space = objective.space
    step_floor = resolved_step_min(config, space)
    if step_floor > config.step_initial:
        raise ValueError("step_initial is below the resolution floor of the space")
    dim = space.dimension
    xs = [None if x is None else start_point(x, dim, name) for name, x in starts]
    rngs = thread_generators(config.seed, len(xs))
    points = [evaluate(objective, rng.random(dim) if x0 is None else x0) for rng, x0 in zip(rngs, xs)]
    threads = fresh_threads(points, config, rngs)
    bests, evals, fail_count, pending = threads.best, threads.evals, threads.fail_count, threads.pending
    for i, point in enumerate(points):
        evals[i] += 1  # thread i's start, evaluation i + 1 of the run
        threads.adopt(i, point)

    # Plain loops below: at K = 1 this is the whole per-step overhead
    # of run_single.
    k = total = len(points)
    bases = list(threads.x[:, 0])  # views of the base rows
    stages: list[tuple[str, ...]] = []
    idle = (CONTINUE,) * k
    collisions = CollisionLog()
    terminated_by = EVAL_BUDGET
    live = [i for i in range(k) if threads.step.item(i) >= step_floor]  # only a restructure changes a step
    most_per_step = 2 * dim + 1  # evaluations: 2N axial rows and one pattern point
    while total < config.max_evals:
        if not live:
            terminated_by = STEP_FLOOR
            break
        stepping = live
        while stepping and total < config.max_evals:  # the budget rule of the docstring
            admitted = stepping[: 1 + (config.max_evals - total - 1) // most_per_step]
            for i, outcome in zip(admitted, hj_stage(threads, admitted, objective, config.k_pattern)):
                if outcome == IMPROVED:
                    fail_count[i] = 0
                    pending[i] = None
                else:
                    fail_count[i] += 1
                request = pending[i] or control_decision(fail_count[i], config)
                pending[i] = None if request == CONTINUE else request
            stepping = stepping[len(admitted) :]
            total = sum(evals)
        if total >= config.max_evals:
            break

        # Restructure token: among the threads that ask, the one with the
        # worst best goes (the lowest index on ties) and the others keep
        # their request pending.
        actions = idle
        asking = [i for i in range(k) if pending[i] is not None]
        if asking:
            i = max(asking, key=lambda j: bests[j].value)  # max keeps the first of equals
            action, pending[i] = pending[i], None
            actions = idle[:i] + (action,) + idle[i + 1 :]
            apply_action(threads, action, i, objective, config)
            total = sum(evals)
            live = [i for i in range(k) if threads.step.item(i) >= step_floor]

        stages.append(actions)
        for i in range(k):
            for j in range(i + 1, k):
                detect_collision(bases[i], bases[j], config.match_tol, collisions, total)

    reports = [
        ThreadReport(i, bests[i], bests[i].raw.copy(), evals[i], threads.step.item(i), list(threads.history[i]))
        for i in range(k)
    ]
    return MultiRunResult(
        best=threads.run_best,
        best_raw=threads.run_best.raw.copy(),
        evals=total,
        terminated_by=terminated_by,
        history=threads.run_history,
        threads=reports,
        collisions=collisions,
        stages=stages,
    )


def run_single(
    objective: Objective,
    config: SearchConfig | None = None,
    start: np.ndarray | None = None,
) -> RunResult:
    """Run the single-thread search to termination.

    ``start`` is a point in normalized [0,1] coordinates; when omitted
    the run starts from a seeded uniform random point.
    """
    config = config or SearchConfig()
    run = run_lockstep(objective, config, [("start", start)])
    return RunResult(run.best, run.best_raw, run.evals, run.terminated_by, run.history)
