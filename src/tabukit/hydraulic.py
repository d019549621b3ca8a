"""Steady-state surrogate of a two-motor hydraulic circuit.

A fixed-displacement pump feeds two pressure-compensated flow-control
valves, each driving a motor; surplus flow spills over a relief valve.
The valves are ideal flow limiters, so the steady state is pure flow
bookkeeping: no pressure dynamics, no leakage. The sizing objective
penalizes squared motor-speed errors, inflated by the fraction of pump
flow wasted over the relief valve.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import MINIMIZE, Objective, ParameterSpace

PROPORTIONAL = "proportional"
PRIORITY = "priority"
STARVATION_POLICIES = (PROPORTIONAL, PRIORITY)

PUMP_DISP_BOUNDS = (1.0, 1000.0)
MOTOR_DISP_BOUNDS = (1.0, 1000.0)
VALVE_FLOW_BOUNDS = (10.0, 100.0)
#: Bounds of the CircuitParams fields, in field order.
_FIELD_BOUNDS = (PUMP_DISP_BOUNDS, MOTOR_DISP_BOUNDS, MOTOR_DISP_BOUNDS, VALVE_FLOW_BOUNDS, VALVE_FLOW_BOUNDS)


@dataclass(frozen=True)
class CircuitParams:
    """Component sizes: displacements in cc/rev, valve settings in L/min."""

    pump_disp: float
    motor1_disp: float
    motor2_disp: float
    pcfv1_flow: float
    pcfv2_flow: float

    def __post_init__(self) -> None:
        for f, (lo, hi) in zip(fields(self), _FIELD_BOUNDS):
            value = getattr(self, f.name)
            if not lo <= value <= hi:
                raise ValueError(f"{f.name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class CircuitTargets:
    """Demanded motor speeds (rev/min) and the fixed pump shaft speed."""

    omega1_target: float = 120.0
    omega2_target: float = 60.0
    # Standard 50 Hz industrial drive speed; the model treats it as constant.
    pump_speed: float = 1500.0


@dataclass(frozen=True)
class CircuitState:
    """Steady-state flows (L/min) and motor speeds (rev/min)."""

    omega1: float
    omega2: float
    q_pump: float
    q1: float
    q2: float
    q_rv: float


def _split_supply(supply: float, first_share: float, second_demand: float):
    """Split ``supply`` into three parts that sum back exactly.

    Returns (q1, q2, q_rv) with q1 + q2 + q_rv == supply as an exact
    real-arithmetic identity. Each rounded subtraction is closed by
    re-deriving the counterpart from the rounded result (the difference
    of a float and a nearby rounded difference is itself exact), so the
    rounding error lands inside the parts instead of breaking the sum.
    """
    rest = supply - min(first_share, supply)
    q1 = supply - rest
    q_rv = rest - min(second_demand, rest)
    q2 = rest - q_rv
    return q1, q2, q_rv


def _split_supply_rows(supply: np.ndarray, first_share: np.ndarray, second_demand: np.ndarray):
    """``_split_supply`` over arrays, operation by operation."""
    rest = supply - np.minimum(first_share, supply)
    q1 = supply - rest
    q_rv = rest - np.minimum(second_demand, rest)
    q2 = rest - q_rv
    return q1, q2, q_rv


def _proportional_share_rows(d1, total, q_pump):
    return d1 * q_pump / total


def _priority_share_rows(d1, total, q_pump):
    return np.minimum(d1, q_pump)


#: Branch 1's share of a starved pump, per policy, over arrays.
_STARVED_SHARE_ROWS = {PROPORTIONAL: _proportional_share_rows, PRIORITY: _priority_share_rows}


def simulate_steady(
    params: CircuitParams,
    targets: CircuitTargets | None = None,
    policy: str = PROPORTIONAL,
) -> CircuitState:
    """Solve the circuit's steady state.

    Pump delivery is pump_disp * pump_speed / 1000 L/min. When the two
    valve settings fit within it, each branch gets its demand and the
    relief valve spills the surplus. When demand exceeds supply nothing
    spills and the shortfall is shared per ``policy``: "proportional"
    scales both demands by the same factor, "priority" serves branch 1
    first. Motor speed is branch flow * 1000 / motor displacement.
    """
    targets = targets or CircuitTargets()
    if policy not in STARVATION_POLICIES:
        raise ValueError(f"unknown starvation policy: {policy!r}")

    q_pump = params.pump_disp * targets.pump_speed / 1000.0
    d1 = params.pcfv1_flow
    d2 = params.pcfv2_flow

    if d1 + d2 <= q_pump:
        share1 = d1
    elif policy == PRIORITY:
        share1 = min(d1, q_pump)
    else:
        share1 = d1 * q_pump / (d1 + d2)
    q1, q2, q_rv = _split_supply(q_pump, share1, d2)

    return CircuitState(
        omega1=q1 * 1000.0 / params.motor1_disp,
        omega2=q2 * 1000.0 / params.motor2_disp,
        q_pump=q_pump,
        q1=q1,
        q2=q2,
        q_rv=q_rv,
    )


def circuit_objective(
    params: CircuitParams,
    targets: CircuitTargets | None = None,
    policy: str = PROPORTIONAL,
) -> float:
    """Squared speed errors scaled up by the wasted-flow fraction.

    (e1^2 + e2^2) * (1 + q_rv / q_pump); zero exactly when both motors
    run on target, regardless of spill.
    """
    targets = targets or CircuitTargets()
    state = simulate_steady(params, targets, policy)
    e1 = state.omega1 - targets.omega1_target
    e2 = state.omega2 - targets.omega2_target
    return (e1 * e1 + e2 * e2) * (1.0 + state.q_rv / state.q_pump)


def make_circuit(
    targets: CircuitTargets | None = None,
    policy: str = PROPORTIONAL,
) -> Objective:
    """Circuit sizing objective over (pump, motor1, motor2, valve1, valve2)."""
    targets = targets or CircuitTargets()
    if policy not in STARVATION_POLICIES:
        raise ValueError(f"unknown starvation policy: {policy!r}")
    lower = np.array([lo for lo, _ in _FIELD_BOUNDS])
    upper = np.array([hi for _, hi in _FIELD_BOUNDS])
    space = ParameterSpace(lower=lower, upper=upper, min_step=np.full(5, 1e-4))
    pump_speed = targets.pump_speed
    omega1_target, omega2_target = targets.omega1_target, targets.omega2_target
    starved_share = _STARVED_SHARE_ROWS[policy]

    def fn(raw: np.ndarray) -> tuple[float, bool]:
        params = CircuitParams(*raw)
        return circuit_objective(params, targets, policy), True

    def fn_batch(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # simulate_steady and circuit_objective over rows, in the same
        # float operations and order, so every row matches fn bit for bit.
        in_bounds = (lower <= raw) & (raw <= upper)
        if np.count_nonzero(in_bounds) != in_bounds.size:
            CircuitParams(*raw[np.argmin(in_bounds.all(axis=1))])  # raises fn's error for that row
        pump_disp, motor1_disp, motor2_disp, d1, d2 = raw.T
        q_pump = pump_disp * pump_speed / 1000.0
        total = d1 + d2
        share1 = np.where(total <= q_pump, d1, starved_share(d1, total, q_pump))
        q1, q2, q_rv = _split_supply_rows(q_pump, share1, d2)
        e1 = q1 * 1000.0 / motor1_disp - omega1_target
        e2 = q2 * 1000.0 / motor2_disp - omega2_target
        return (e1 * e1 + e2 * e2) * (1.0 + q_rv / q_pump), np.ones(len(raw), dtype=bool)

    return Objective(space=space, fn=fn, sense=MINIMIZE, name="circuit", fn_batch=fn_batch)
