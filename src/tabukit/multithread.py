"""Two cooperating search threads over one shared elite archive.

Each thread runs the standard control loop with a private tabu list.
They share the intermediate memory, one evaluation budget, and a
restructure token: per stage at most one thread may intensify,
diversify or reduce its step; when both want to, the one whose current
best is worse goes first and the other retries next stage. Collisions
(both bases within the match tolerance) are logged, not prevented.

Lockstep mode interleaves the two threads deterministically in one OS
thread and is bit-reproducible. Free-running mode uses two worker
threads for wall-clock speed at the cost of reproducibility.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import EvalCounter, Objective, SearchPoint, denormalize, evaluate
from .control import (
    CONTINUE,
    EVAL_BUDGET,
    STEP_FLOOR,
    SearchConfig,
    ThreadState,
    apply_action,
    control_decision,
    fresh_state,
    resolved_step_min,
    start_point,
)
from .hillclimb import IMPROVED, hj_step
from .memory import IntermediateMemory


@dataclass
class MultiConfig:
    """Two-thread run setup.

    start_a / start_b are normalized starting vectors; None means a
    uniform random point from that thread's own generator.
    """

    base: SearchConfig = field(default_factory=SearchConfig)
    start_a: np.ndarray | None = None
    start_b: np.ndarray | None = None
    lockstep: bool = True


@dataclass
class CollisionLog:
    """(total eval count, base distance) records, one per detected collision."""

    events: list[tuple[int, float]] = field(default_factory=list)


@dataclass
class ThreadReport:
    """Per-thread outcome inside a multi-thread run."""

    thread_id: int
    best: SearchPoint
    best_raw: np.ndarray
    evals: int
    step_final: float
    history: list[tuple[int, float]]


@dataclass
class MultiRunResult:
    """Combined outcome: global best, totals, per-thread detail, collisions."""

    best: SearchPoint
    best_raw: np.ndarray
    evals: int
    terminated_by: str
    history: list[tuple[int, float]]
    threads: list[ThreadReport]
    collisions: CollisionLog
    #: Lockstep stage trace as (action_a, action_b) pairs; empty when free-running.
    stages: list[tuple[str, str]]

    def best_native(self, objective: Objective) -> float:
        return objective.native_value(self.best.value)


def detect_collision(
    state_a: ThreadState,
    state_b: ThreadState,
    tol: float,
    log: CollisionLog | None = None,
    eval_count: int = 0,
) -> bool:
    """True when the two bases agree within ``tol`` in every coordinate."""
    dist = float(np.max(np.abs(state_a.base.x - state_b.base.x)))
    hit = dist <= tol
    if hit and log is not None:
        log.events.append((eval_count, dist))
    return hit


def thread_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two distinct, reproducible generators derived from one seed."""
    child_a, child_b = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(child_a), np.random.default_rng(child_b)


class _SharedRun:
    """Everything both threads touch: budget, elite archive, logs, token."""

    def __init__(self, objective: Objective, config: MultiConfig):
        base = config.base
        base.validate()
        self.objective = objective
        self.config = base
        self.step_floor = resolved_step_min(base, objective.space)
        if self.step_floor > base.step_initial:
            raise ValueError("step_initial is below the resolution floor of the space")
        self.memory = IntermediateMemory(base.m_elite, base.match_tol)
        self.counters = (EvalCounter(), EvalCounter())
        self.collisions = CollisionLog()
        self.history: list[tuple[int, float]] = []
        self.best = SearchPoint(
            x=np.zeros(objective.space.dimension), value=math.inf, feasible=False
        )
        self.lock = threading.Lock()
        self.token = threading.Lock()

        dim = objective.space.dimension
        starts = [
            None if start is None else start_point(start, dim, f"{name} (thread {i})")
            for i, (name, start) in enumerate((("start_a", config.start_a), ("start_b", config.start_b)))
        ]
        rng_a, rng_b = thread_rngs(base.seed)
        self.rngs = (rng_a, rng_b)
        self.states: list[ThreadState] = []
        for i in (0, 1):
            x0 = self.rngs[i].random(dim) if starts[i] is None else starts[i]
            point = evaluate(objective, self.counters[i], x0)
            state = fresh_state(point, base, thread_id=i)
            state.tabu.push(point.x)
            self.memory.offer(point)
            state.observe(point, self.counters[i].count)
            self.states.append(state)
            self.note_best(state)

    def total_evals(self) -> int:
        return self.counters[0].count + self.counters[1].count

    def budget_left(self) -> bool:
        return self.total_evals() < self.config.max_evals

    def note_best(self, state: ThreadState) -> None:
        if state.best.value < self.best.value:
            self.best = state.best
            self.history.append((self.total_evals(), self.best.value))

    def alive(self, i: int) -> bool:
        return self.states[i].step >= self.step_floor


def _thread_reports(shared: _SharedRun) -> list[ThreadReport]:
    space = shared.objective.space
    return [
        ThreadReport(
            thread_id=i,
            best=shared.states[i].best,
            best_raw=denormalize(space, shared.states[i].best.x),
            evals=shared.counters[i].count,
            step_final=shared.states[i].step,
            history=list(shared.states[i].history),
        )
        for i in (0, 1)
    ]


def _result(shared: _SharedRun, terminated_by: str, stages: list[tuple[str, str]]) -> MultiRunResult:
    return MultiRunResult(
        best=shared.best,
        best_raw=denormalize(shared.objective.space, shared.best.x),
        evals=shared.total_evals(),
        terminated_by=terminated_by,
        history=list(shared.history),
        threads=_thread_reports(shared),
        collisions=shared.collisions,
        stages=stages,
    )


def _run_lockstep(shared: _SharedRun) -> MultiRunResult:
    cfg = shared.config
    states = shared.states
    pending: list[str | None] = [None, None]
    stages: list[tuple[str, str]] = []

    while True:
        if not shared.budget_left():
            return _result(shared, EVAL_BUDGET, stages)
        if not (shared.alive(0) or shared.alive(1)):
            return _result(shared, STEP_FLOOR, stages)

        desired = [CONTINUE, CONTINUE]
        for i in (0, 1):
            if not (shared.alive(i) and shared.budget_left()):
                continue
            outcome = hj_step(
                states[i], shared.objective, shared.counters[i], shared.memory, cfg.k_pattern
            )
            if outcome == IMPROVED:
                states[i].fail_count = 0
                pending[i] = None
            else:
                states[i].fail_count += 1
            shared.note_best(states[i])
            desired[i] = pending[i] or control_decision(states[i].fail_count, cfg)

        if not shared.budget_left():
            return _result(shared, EVAL_BUDGET, stages)

        # Restructure token: at most one non-continue action per stage.
        # When both threads ask, the one with the worse current best wins
        # (ties go to thread A) and the loser retries next stage.
        actions = [CONTINUE, CONTINUE]
        wants = [i for i in (0, 1) if desired[i] != CONTINUE and shared.alive(i)]
        if len(wants) == 2:
            performer = 0 if states[0].best.value >= states[1].best.value else 1
            loser = 1 - performer
            pending[loser] = desired[loser]
        elif len(wants) == 1:
            performer = wants[0]
        else:
            performer = None
        if performer is not None:
            actions[performer] = desired[performer]
            pending[performer] = None
            apply_action(
                states[performer],
                desired[performer],
                shared.memory,
                shared.objective,
                shared.counters[performer],
                shared.rngs[performer],
                cfg,
            )
            shared.note_best(states[performer])

        stages.append((actions[0], actions[1]))
        detect_collision(
            states[0], states[1], cfg.match_tol, shared.collisions, shared.total_evals()
        )


def _run_free(shared: _SharedRun) -> MultiRunResult:
    cfg = shared.config

    def worker(i: int) -> None:
        state = shared.states[i]
        other = shared.states[1 - i]
        pending: str | None = None
        while shared.budget_left() and state.step >= shared.step_floor:
            outcome = hj_step(
                state, shared.objective, shared.counters[i], shared.memory, cfg.k_pattern
            )
            if outcome == IMPROVED:
                state.fail_count = 0
                pending = None
            else:
                state.fail_count += 1
            with shared.lock:
                shared.note_best(state)
            if not shared.budget_left():
                break
            desired = pending or control_decision(state.fail_count, cfg)
            if desired != CONTINUE:
                # Non-blocking token: if the other thread is mid-restructure,
                # carry the action over to the next pass instead of waiting.
                if shared.token.acquire(blocking=False):
                    try:
                        apply_action(
                            state,
                            desired,
                            shared.memory,
                            shared.objective,
                            shared.counters[i],
                            shared.rngs[i],
                            cfg,
                        )
                    finally:
                        shared.token.release()
                    pending = None
                    with shared.lock:
                        shared.note_best(state)
                else:
                    pending = desired
            with shared.lock:
                detect_collision(
                    state, other, cfg.match_tol, shared.collisions, shared.total_evals()
                )

    workers = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    terminated_by = EVAL_BUDGET if not shared.budget_left() else STEP_FLOOR
    return _result(shared, terminated_by, stages=[])


def run_multi(objective: Objective, config: MultiConfig | None = None) -> MultiRunResult:
    """Run the two-thread search to termination.

    The run ends when the shared budget is spent or both threads have
    reduced their steps below the resolution floor. The reported best is
    the better of the two thread bests; evals are the exact sum of both
    threads' evaluation counts.
    """
    config = config or MultiConfig()
    shared = _SharedRun(objective, config)
    if config.lockstep:
        return _run_lockstep(shared)
    return _run_free(shared)
