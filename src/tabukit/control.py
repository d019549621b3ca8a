"""Search controller: failure-count schedule over the hill climber.

A counter of consecutive non-improving steps drives the escalation
ladder: recentre on the elite centroid, then jump to a recombined
random point, then halve the step and restart from the best point
found so far. The run ends when every thread's step has fallen below
the resolution floor or the evaluation budget is spent.

One lockstep driver, ``run_lockstep``, runs K threads over a shared
elite archive and returns a ``MultiRunResult``; ``run_single`` is its
K = 1 case and returns the plain ``RunResult`` part. Each stage steps
the live threads through one ``hillclimb.hj_stage`` call, which screens
all their probes at once (their state is stacked, ``Stack``), evaluates
all their axial candidates in one objective call and each pattern point
alone, and the result is the same as stepping them one after another.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .core import Objective, ParameterSpace, SearchPoint, clamp, evaluate
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


def check_integer_fields(settings) -> None:
    """Raise ValueError naming the first int-default field of ``settings``
    holding a non-integer; a bool is not taken for one."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if type(f.default) is int and (isinstance(value, bool) or not hasattr(value, "__index__")):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


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
        check_integer_fields(self)
        if not (0 < self.intensify_after < self.diversify_after < self.reduce_after):
            raise ValueError("thresholds must satisfy 0 < intensify < diversify < reduce")
        if not (0.0 < self.step_reduce_factor < 1.0):
            raise ValueError("step_reduce_factor must lie in (0, 1)")
        if not (0.0 < self.step_initial <= 1.0):
            raise ValueError("step_initial must lie in (0, 1]")
        if self.step_min is not None and not (0.0 < self.step_min <= self.step_initial):
            raise ValueError("step_min must lie in (0, step_initial]")
        if self.n_tabu < 1 or self.m_elite < 1:
            raise ValueError("memory capacities must be at least 1")
        if not (0.0 < self.k_pattern < math.inf):
            raise ValueError("k_pattern must be positive and finite")
        if not (0.0 <= self.match_tol < math.inf):
            raise ValueError("match_tol must be non-negative and finite")
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(eq=False)
class Stack:
    """A run's per-thread state with one row per thread, which a stage reads
    for all its threads at once: bases ``x`` ``(K, 1, N)`` and ``raw``
    ``(K, N)``, steps ``(K, 1, 1)`` and tabu rings ``(K, capacity, N)``;
    ``threads[i]`` owns row i."""

    x: np.ndarray
    raw: np.ndarray
    step: np.ndarray
    tabu: np.ndarray
    threads: list[ThreadState] = field(default_factory=list)


@dataclass(eq=False)
class ThreadState:
    """Mutable per-thread search state. The step, the tabu ring (``tabu``
    is a view) and copies of the base live in row ``row`` of ``stack``;
    move the base with ``rebase`` or ``adopt``, which keep them in step."""

    base: SearchPoint
    best: SearchPoint
    tabu: TabuList
    stack: Stack
    row: int
    fail_count: int = 0
    thread_id: int = 0
    #: Objective evaluations this thread has spent.
    evals: int = 0
    #: (evaluation count, best value) at each improvement, oldest first.
    history: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        self._x, self._raw = self.stack.x[self.row, 0], self.stack.raw[self.row]
        self.rebase(self.base)

    @property
    def step(self) -> float:
        return self.stack.step.item(self.row)

    @step.setter
    def step(self, value: float) -> None:
        self.stack.step[self.row] = value

    def observe(self, point: SearchPoint) -> bool:
        """Track the incumbent best. Returns True when ``point`` takes over."""
        if point.feasible and point.value < self.best.value:
            self.best = point
            self.history.append((self.evals, point.value))
            return True
        return False

    def rebase(self, point: SearchPoint) -> None:
        """Move the base to ``point`` and its rows to the stack; ``point``
        must carry its raw row, as every evaluated point does."""
        if point.raw is None:
            raise ValueError(f"thread {self.thread_id}'s base has no raw row; evaluate it with core.evaluate")
        self.base = point
        self._x[...] = point.x
        self._raw[...] = point.raw

    def adopt(self, point: SearchPoint, memory: IntermediateMemory) -> None:
        """Move the base to ``point``: tabu it, offer it to the archive and observe it."""
        self.rebase(point)
        self.tabu.push(point.x)
        memory.offer(point)
        self.observe(point)


def fresh_states(points: Sequence[SearchPoint], config: SearchConfig, first_id: int = 0) -> list[ThreadState]:
    """One thread around each already-evaluated start, whose evaluation is
    the thread's first: thread ``first_id + i`` on row i of one new
    ``Stack``. Until a feasible point takes over, a thread's best is a
    sentinel at its start, with its ``x`` and ``raw``."""
    k, n = len(points), points[0].x.size
    step, rings = np.full((k, 1, 1), config.step_initial), np.full((k, config.n_tabu, n), math.inf)
    stack = Stack(np.empty((k, 1, n)), np.empty((k, n)), step, rings)
    for i, point in enumerate(points):
        sentinel = SearchPoint(x=point.x, value=math.inf, feasible=False, raw=point.raw)
        tabu = TabuList(config.n_tabu, config.match_tol, stack.tabu[i])
        stack.threads.append(ThreadState(point, sentinel, tabu, stack, i, thread_id=first_id + i, evals=1))
    return list(stack.threads)


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
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{name} has non-finite coordinates at indices {bad.tolist()}: {x[bad].tolist()}")
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


def apply_action(
    state: ThreadState,
    action: str,
    memory: IntermediateMemory,
    objective: Objective,
    rng: np.random.Generator,
    config: SearchConfig,
) -> None:
    """Carry out a control action, mutating ``state`` in place.

    Intensify and diversify relocate the base, which costs one
    evaluation, added to ``state.evals``; reduce_step halves the step,
    restarts from the incumbent best and resets the failure counter.
    With an empty elite archive intensify is a no-op and diversify
    falls back to a uniform random point.
    """
    if action == CONTINUE:
        return
    if action == REDUCE_STEP:
        state.step *= config.step_reduce_factor
        state.rebase(state.best)
        state.fail_count = 0
        return
    if action == INTENSIFY:
        if len(memory) == 0:
            return
        x = memory.intensify()
    elif action == DIVERSIFY:
        if len(memory) == 0:
            x = rng.random(state.base.x.size)
        else:
            x = memory.diversify(rng)
    else:
        raise ValueError(f"unknown control action: {action!r}")

    point = evaluate(objective, x)
    state.evals += 1
    state.adopt(point, memory)


@dataclass
class CollisionLog:
    """(total eval count, base distance) records, one per detected collision."""

    events: list[tuple[int, float]] = field(default_factory=list)


def detect_collision(
    state_a: ThreadState,
    state_b: ThreadState,
    tol: float,
    log: CollisionLog | None = None,
    eval_count: int = 0,
) -> bool:
    """True when the two bases agree within ``tol`` in every coordinate."""
    dist = float(np.abs(state_a.base.x - state_b.base.x).max())
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
    seed_rngs: Callable[[int], Sequence[np.random.Generator]],
) -> MultiRunResult:
    """Run one thread per ``(name, start)`` pair in lockstep to termination.

    ``seed_rngs(config.seed)`` gives each thread its generator; a None
    start is a uniform random point from it. The config, then the
    starts (named in errors by ``name``) are checked before anything is
    evaluated. The threads share the elite archive and the evaluation
    budget, and each has its own tabu list and evaluation count, in one
    ``Stack`` allocated for the run.

    Each stage steps every thread whose step is at or above the floor,
    with the result of stepping them one by one in index order: a
    thread steps only while the total spent before it is below the
    budget. The threads that step together are evaluated as one block
    (see ``hj_stage``). Then the stage lets at most one restructure:
    among the threads that ask, the one with the worst current best
    (lowest index on ties) goes, and the others keep their request
    pending for the next stage unless they improve first. After the
    stage every pair of bases is checked for a collision. The run ends
    at the first stage that finds no thread at or above the floor, or
    when the budget is spent.

    The global best starts as thread 0's, so a run that finds no
    feasible point reports thread 0's evaluated start and an empty
    history. At K = 1 the global best and history are thread 0's.
    """
    config.validate()
    space = objective.space
    step_floor = resolved_step_min(config, space)
    if step_floor > config.step_initial:
        raise ValueError("step_initial is below the resolution floor of the space")
    dim = space.dimension
    xs = [None if x is None else start_point(x, dim, name) for name, x in starts]
    rngs = seed_rngs(config.seed)
    memory = IntermediateMemory(config.m_elite, config.match_tol)
    points = [evaluate(objective, rngs[i].random(dim) if x0 is None else x0) for i, x0 in enumerate(xs)]
    states = fresh_states(points, config)
    best = states[0].best  # thread 0's sentinel, at its start
    history: list[tuple[int, float]] = []
    # Thread i's start was evaluation i + 1.
    for total, state in enumerate(states, 1):
        state.adopt(state.base, memory)
        if state.best.value < best.value:
            best = state.best
            history.append((total, best.value))

    # Plain loops below: at K = 1 this is the whole per-step overhead
    # of run_single.
    k = len(states)
    # Each thread's restructure request, None while it continues.
    pending: list[str | None] = [None] * k
    stages: list[tuple[str, ...]] = []
    idle = (CONTINUE,) * k
    collisions = CollisionLog()
    terminated_by = EVAL_BUDGET
    live = [state for state in states if state.step >= step_floor]  # only a restructure changes a step
    while total < config.max_evals:
        # Every live thread steps while the budget lasts. One hj_stage
        # call steps as many of them as the budget surely admits; a
        # thread it leaves waits for the actual total.
        if not live:
            terminated_by = STEP_FLOOR
            break
        stepping = live
        while stepping and total < config.max_evals:
            steps = hj_stage(stepping, objective, memory, config.k_pattern, config.max_evals - total)
            for state, (outcome, spent) in zip(stepping, steps):
                i = state.row
                if outcome == IMPROVED:
                    state.fail_count = 0
                    pending[i] = None
                else:
                    state.fail_count += 1
                total += spent
                if state.best.value < best.value:
                    best = state.best
                    history.append((total, best.value))
                request = pending[i] or control_decision(state.fail_count, config)
                pending[i] = None if request == CONTINUE else request
            stepping = stepping[len(steps) :]
        if total >= config.max_evals:
            break

        # Restructure token: among the threads that ask, the one with the
        # worst best goes (max keeps the lowest index on ties) and the
        # others keep their request pending.
        actions = idle
        if pending.count(None) < k:
            asking = (i for i in range(k) if pending[i] is not None)
            performer = max(asking, key=lambda i: states[i].best.value)
            state = states[performer]
            action = pending[performer]
            actions = idle[:performer] + (action,) + idle[performer + 1 :]
            pending[performer] = None
            before = state.evals
            apply_action(state, action, memory, objective, rngs[performer], config)
            total += state.evals - before
            if state.best.value < best.value:
                best = state.best
                history.append((total, best.value))
            live = [state for state in states if state.step >= step_floor]

        stages.append(actions)
        for i in range(k):
            for j in range(i + 1, k):
                detect_collision(states[i], states[j], config.match_tol, collisions, total)

    # The stack and its threads refer to each other: drop the stack's side,
    # so that the run's state is freed with the run, not by the cycle collector.
    states[0].stack.threads.clear()
    threads = [
        ThreadReport(
            thread_id=state.thread_id,
            best=state.best,
            best_raw=state.best.raw.copy(),
            evals=state.evals,
            step_final=state.step,
            history=list(state.history),
        )
        for state in states
    ]
    return MultiRunResult(
        best=best,
        best_raw=best.raw.copy(),
        evals=total,
        terminated_by=terminated_by,
        history=history,
        threads=threads,
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
    run = run_lockstep(objective, config, [("start", start)], lambda seed: [np.random.default_rng(seed)])
    return RunResult(run.best, run.best_raw, run.evals, run.terminated_by, run.history)
