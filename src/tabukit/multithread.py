"""Two cooperating search threads over one shared elite archive.

Each thread has a private tabu list and shares the intermediate memory,
one evaluation budget and a restructure token: per stage at most one
thread may intensify, diversify or reduce its step; when both want to,
the one whose current best is worse goes first and the other retries
next stage. Collisions (both bases within the match tolerance) are
logged, not prevented.

The two threads are interleaved deterministically in one OS thread by
the lockstep driver in ``control``, so a seeded run is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# CollisionLog and detect_collision live beside the driver that uses
# them and are re-exported here.
from .control import CollisionLog, SearchConfig, detect_collision, run_lockstep  # noqa: F401
from .core import Objective, SearchPoint, denormalize


@dataclass
class MultiConfig:
    """Two-thread run setup.

    start_a / start_b are normalized starting vectors; None means a
    uniform random point from that thread's own generator.
    """

    base: SearchConfig = field(default_factory=SearchConfig)
    start_a: np.ndarray | None = None
    start_b: np.ndarray | None = None


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
    #: Stage trace as (action_a, action_b) pairs, one per completed stage.
    stages: list[tuple[str, str]]

    def best_native(self, objective: Objective) -> float:
        return objective.native_value(self.best.value)


def thread_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two distinct, reproducible generators derived from one seed."""
    child_a, child_b = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(child_a), np.random.default_rng(child_b)


def run_multi(objective: Objective, config: MultiConfig | None = None) -> MultiRunResult:
    """Run the two-thread search to termination.

    The run ends when the shared budget is spent or both threads have
    reduced their steps below the resolution floor. The reported best is
    the better of the two thread bests; evals are the exact sum of both
    threads' evaluation counts.
    """
    config = config or MultiConfig()
    starts = [("start_a (thread 0)", config.start_a), ("start_b (thread 1)", config.start_b)]
    run = run_lockstep(objective, config.base, starts, thread_rngs)
    space = objective.space
    threads = [
        ThreadReport(
            thread_id=state.thread_id,
            best=state.best,
            best_raw=denormalize(space, state.best.x),
            evals=counter.count,
            step_final=state.step,
            history=list(state.history),
        )
        for state, counter in zip(run.states, run.counters)
    ]
    return MultiRunResult(
        best=run.best,
        best_raw=denormalize(space, run.best.x),
        evals=run.evals,
        terminated_by=run.terminated_by,
        history=run.history,
        threads=threads,
        collisions=run.collisions,
        stages=run.stages,
    )
