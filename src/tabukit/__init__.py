"""Tabu search over a pattern-search hill climber, single- and two-thread.

The package exports the problems and the run API. The engine's parts
stay in their modules: ``control``, ``hillclimb``, ``memory`` and ``core``.
"""

from .benchmarks import (
    bump_feasible,
    bump_value,
    keane_bump,
    make_bump,
    make_schwefel10,
    schwefel,
)
from .control import (
    CONTINUE,
    DIVERSIFY,
    EVAL_BUDGET,
    INTENSIFY,
    REDUCE_STEP,
    STEP_FLOOR,
    CollisionLog,
    MultiRunResult,
    RunResult,
    SearchConfig,
    run_single,
)
from .core import (
    INFEASIBLE_VALUE,
    MAXIMIZE,
    MINIMIZE,
    Objective,
    ParameterSpace,
    SearchPoint,
    denormalize,
    evaluate,
    normalize,
)
from .hydraulic import (
    CircuitParams,
    CircuitState,
    CircuitTargets,
    circuit_objective,
    make_circuit,
    simulate_steady,
)
from .multithread import MultiConfig, run_multi

__all__ = [
    "CONTINUE",
    "DIVERSIFY",
    "EVAL_BUDGET",
    "INFEASIBLE_VALUE",
    "INTENSIFY",
    "MAXIMIZE",
    "MINIMIZE",
    "REDUCE_STEP",
    "STEP_FLOOR",
    "CircuitParams",
    "CircuitState",
    "CircuitTargets",
    "CollisionLog",
    "MultiConfig",
    "MultiRunResult",
    "Objective",
    "ParameterSpace",
    "RunResult",
    "SearchConfig",
    "SearchPoint",
    "bump_feasible",
    "bump_value",
    "circuit_objective",
    "denormalize",
    "evaluate",
    "keane_bump",
    "make_bump",
    "make_circuit",
    "make_schwefel10",
    "normalize",
    "run_multi",
    "run_single",
    "simulate_steady",
]
