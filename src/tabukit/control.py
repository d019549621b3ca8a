"""Search controller: failure-count schedule over the hill climber.

A counter of consecutive non-improving steps drives the escalation
ladder: recentre on the elite centroid, then jump to a recombined
random point, then halve the step and restart from the best point
found so far. The run ends when every thread's step has fallen below
the resolution floor or the evaluation budget is spent.

One lockstep driver, ``run_lockstep``, runs K threads over a shared
elite archive and returns a ``MultiRunResult``; ``run_single`` is its
K = 1 case and returns the plain ``RunResult`` part. Each stage steps
the live threads through one ``hillclimb.hj_stage`` call, which
evaluates all their axial candidates in one objective call and each
pattern point alone, and the result is the same as stepping them one
after another.
"""
from __future__ import annotations

import math
import operator
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
    """Raise ValueError naming the first int-default field of ``settings`` holding a non-integer."""
    for f in fields(settings):
        if type(f.default) is int:
            try:
                operator.index(getattr(settings, f.name))
            except TypeError:
                raise ValueError(f"{f.name} must be an integer, got {getattr(settings, f.name)!r}") from None


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


@dataclass
class ThreadState:
    """Mutable per-thread search state."""

    base: SearchPoint
    best: SearchPoint
    step: float
    tabu: TabuList
    fail_count: int = 0
    thread_id: int = 0
    #: Objective evaluations this thread has spent.
    evals: int = 0
    #: (evaluation count, best value) at each improvement, oldest first.
    history: list[tuple[int, float]] = field(default_factory=list)

    def observe(self, point: SearchPoint) -> bool:
        """Track the incumbent best. Returns True when ``point`` takes over."""
        if point.feasible and point.value < self.best.value:
            self.best = point
            self.history.append((self.evals, point.value))
            return True
        return False

    def adopt(self, point: SearchPoint, memory: IntermediateMemory) -> None:
        """Move the base to ``point``: tabu it, offer it to the archive and observe it."""
        self.base = point
        self.tabu.push(point.x)
        memory.offer(point)
        self.observe(point)


def fresh_state(base: SearchPoint, config: SearchConfig, thread_id: int = 0) -> ThreadState:
    """Build a ThreadState around an already-evaluated starting point,
    whose evaluation is the thread's first. Until a feasible point takes
    over, the best is a sentinel at the start, with its ``x`` and ``raw``."""
    sentinel = SearchPoint(x=base.x, value=math.inf, feasible=False, raw=base.raw)
    return ThreadState(
        base=base,
        best=sentinel,
        step=config.step_initial,
        tabu=TabuList(config.n_tabu, config.match_tol),
        thread_id=thread_id,
        evals=1,
    )


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
        state.base = state.best
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
    budget, and each has its own tabu list and evaluation count.

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
    states: list[ThreadState] = []
    history: list[tuple[int, float]] = []
    total = 0
    for i, x0 in enumerate(xs):
        point = evaluate(objective, rngs[i].random(dim) if x0 is None else x0)
        total += 1
        state = fresh_state(point, config, thread_id=i)
        states.append(state)
        if i == 0:
            best = state.best  # thread 0's sentinel, at its start
        state.adopt(point, memory)
        if state.best.value < best.value:
            best = state.best
            history.append((total, best.value))

    # Plain loops below: at K = 1 this is the whole per-step overhead
    # of run_single.
    k = len(states)
    # Each thread's restructure request, None while it continues.
    pending: list[str | None] = [None] * k
    stages: list[tuple[str, ...]] = []
    collisions = CollisionLog()
    terminated_by = EVAL_BUDGET
    while total < config.max_evals:
        # Every thread above the floor steps while the budget lasts. One
        # hj_stage call steps as many of them as the budget surely
        # admits; a thread it leaves waits for the actual total.
        stepping = [i for i in range(k) if states[i].step >= step_floor]
        if not stepping:
            terminated_by = STEP_FLOOR
            break
        while stepping and total < config.max_evals:
            steps = hj_stage(
                [states[i] for i in stepping],
                objective,
                memory,
                config.k_pattern,
                config.max_evals - total,
            )
            for i, (outcome, spent) in zip(stepping, steps):
                state = states[i]
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
        asking = [i for i in range(k) if pending[i] is not None]
        actions = [CONTINUE] * k
        if asking:
            performer = max(asking, key=lambda i: states[i].best.value)
            state = states[performer]
            action = actions[performer] = pending[performer]
            pending[performer] = None
            before = state.evals
            apply_action(state, action, memory, objective, rngs[performer], config)
            total += state.evals - before
            if state.best.value < best.value:
                best = state.best
                history.append((total, best.value))

        stages.append(tuple(actions))
        for i in range(k):
            for j in range(i + 1, k):
                detect_collision(states[i], states[j], config.match_tol, collisions, total)

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
