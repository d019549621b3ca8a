"""Tabu search over a pattern-search hill climber, single- and two-thread.

The package exports the problems and the run API. The engine's parts
stay in their modules: ``control``, ``hillclimb``, ``memory`` and ``core``.
The problem modules, ``benchmarks`` and ``hydraulic``, load on first
access to one of their names, so a run imports only the problem it uses.
"""

import importlib

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
from .multithread import MultiConfig, run_multi

#: Exported problem name -> the module that defines it.
_PROBLEM_MODULES = {
    "bump_feasible": "benchmarks",
    "bump_value": "benchmarks",
    "keane_bump": "benchmarks",
    "make_bump": "benchmarks",
    "make_schwefel10": "benchmarks",
    "schwefel": "benchmarks",
    "CircuitParams": "hydraulic",
    "CircuitState": "hydraulic",
    "CircuitTargets": "hydraulic",
    "circuit_objective": "hydraulic",
    "make_circuit": "hydraulic",
    "simulate_steady": "hydraulic",
}


def __getattr__(name: str):
    """Load an exported problem name from its module, then keep it here."""
    if name not in _PROBLEM_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_PROBLEM_MODULES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _PROBLEM_MODULES.keys())


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
    "schwefel",
    "simulate_steady",
]
