"""Two-thread setup, seeding and entry point.

Two threads share the intermediate memory, one evaluation budget and a
restructure token; each has a private tabu list and generator. The
lockstep driver in ``control`` runs them, interleaved deterministically
in one OS thread, so a seeded run is bit-reproducible. It seeds its
threads itself, and ``thread_rngs`` is the K = 2 case of its rule
(``control.thread_generators``). This module holds only what is
particular to two threads: the starts, ``thread_rngs`` and ``run_multi``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import MultiRunResult, SearchConfig, run_lockstep, thread_generators
from .control import detect_collision  # noqa: F401  (perfbench/tracer.py resolves it here)
from .core import Objective


@dataclass
class MultiConfig:
    """Two-thread run setup.

    start_a / start_b are normalized starting vectors; None means a
    uniform random point from that thread's own generator.
    """

    base: SearchConfig = field(default_factory=SearchConfig)
    start_a: np.ndarray | None = None
    start_b: np.ndarray | None = None


def thread_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The two generators that a two-thread run with this seed draws from."""
    return tuple(thread_generators(seed, 2))


def run_multi(objective: Objective, config: MultiConfig | None = None) -> MultiRunResult:
    """Run the two-thread search to termination.

    The run ends when the shared budget is spent or both threads have
    reduced their steps below the resolution floor. The reported best is
    the better of the two thread bests; evals are the exact sum of both
    threads' evaluation counts.
    """
    config = config or MultiConfig()
    starts = [("start_a (thread 0)", config.start_a), ("start_b (thread 1)", config.start_b)]
    return run_lockstep(objective, config.base, starts)
