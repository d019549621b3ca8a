import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabukit.core import MINIMIZE, evaluate, normalize
from tabukit.hydraulic import (
    PRIORITY,
    PROPORTIONAL,
    CircuitParams,
    CircuitTargets,
    circuit_objective,
    make_circuit,
    simulate_steady,
)

params_strategy = st.builds(
    CircuitParams,
    pump_disp=st.floats(1.0, 1000.0),
    motor1_disp=st.floats(1.0, 1000.0),
    motor2_disp=st.floats(1.0, 1000.0),
    pcfv1_flow=st.floats(10.0, 100.0),
    pcfv2_flow=st.floats(10.0, 100.0),
)


class TestCircuitParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            CircuitParams(0.5, 200.0, 500.0, 24.0, 30.0)
        with pytest.raises(ValueError):
            CircuitParams(60.0, 200.0, 500.0, 9.0, 30.0)
        with pytest.raises(ValueError):
            CircuitParams(60.0, 200.0, 500.0, 24.0, 101.0)
        with pytest.raises(ValueError):
            CircuitParams(60.0, 1001.0, 500.0, 24.0, 30.0)

    def test_valid_construction(self):
        p = CircuitParams(60.0, 200.0, 500.0, 24.0, 30.0)
        assert p.pump_disp == 60.0


class TestSimulateSteady:
    def test_surplus_hand_oracle(self):
        # Pump 60 cc/rev at 1500 rev/min delivers 90 L/min; valves pass
        # 24 and 30, motors 200 and 500 cc/rev turn at 120 and 60 rev/min,
        # and 36 L/min spills over the relief valve.
        state = simulate_steady(CircuitParams(60.0, 200.0, 500.0, 24.0, 30.0))
        assert state.q_pump == 90.0
        assert state.q1 == 24.0
        assert state.q2 == 30.0
        assert state.q_rv == 36.0
        assert state.omega1 == 120.0
        assert state.omega2 == 60.0

    def test_starved_proportional_hand_oracle(self):
        # Pump 10 cc/rev delivers 15 L/min against demands 20 + 10:
        # both valves scale by 15/30, nothing spills.
        state = simulate_steady(CircuitParams(10.0, 200.0, 500.0, 20.0, 10.0))
        assert state.q_pump == 15.0
        assert state.q1 == 10.0
        assert state.q2 == 5.0
        assert state.q_rv == 0.0

    def test_starved_priority_policy(self):
        state = simulate_steady(
            CircuitParams(10.0, 200.0, 500.0, 20.0, 10.0), policy=PRIORITY
        )
        # Branch 1 takes the whole 15 L/min supply; branch 2 is starved dry.
        assert state.q1 == 15.0
        assert state.q2 == 0.0
        assert state.q_rv == 0.0

    def test_priority_partial_starvation(self):
        state = simulate_steady(
            CircuitParams(10.0, 200.0, 500.0, 12.0, 10.0), policy=PRIORITY
        )
        assert state.q1 == 12.0
        assert state.q2 == 3.0
        assert state.q_rv == 0.0

    def test_demand_exactly_matches_supply(self):
        # 40 + 50 = 90: both branches get full demand, relief flow zero.
        state = simulate_steady(CircuitParams(60.0, 200.0, 500.0, 40.0, 50.0))
        assert state.q1 == 40.0
        assert state.q2 == 50.0
        assert state.q_rv == 0.0

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            simulate_steady(CircuitParams(60.0, 200.0, 500.0, 24.0, 30.0), policy="fifo")

    @settings(max_examples=300)
    @given(params=params_strategy, policy=st.sampled_from([PROPORTIONAL, PRIORITY]))
    def test_flow_conservation_exact(self, params, policy):
        # The delivered and spilled flows must reconstruct the pump flow
        # exactly, not approximately: fsum computes the true real sum.
        state = simulate_steady(params, policy=policy)
        assert math.fsum([state.q1, state.q2, state.q_rv]) == state.q_pump
        assert state.q_rv >= 0.0
        assert state.q_rv <= state.q_pump
        assert state.q1 >= 0.0
        assert state.q2 >= 0.0

    @given(params=params_strategy)
    def test_flows_near_demands_when_unstarved(self, params):
        state = simulate_steady(params)
        demand = params.pcfv1_flow + params.pcfv2_flow
        if demand <= state.q_pump:
            assert state.q1 == pytest.approx(params.pcfv1_flow, rel=1e-12)
            assert state.q2 == pytest.approx(params.pcfv2_flow, rel=1e-12)
        else:
            assert state.q_rv == pytest.approx(0.0, abs=1e-9)

    def test_pump_speed_configurable(self):
        state = simulate_steady(
            CircuitParams(60.0, 200.0, 500.0, 24.0, 30.0),
            CircuitTargets(pump_speed=3000.0),
        )
        assert state.q_pump == 180.0


class TestCircuitObjective:
    def test_zero_at_exact_speeds(self):
        # Perfect speed match annihilates the relief penalty entirely.
        value = circuit_objective(CircuitParams(60.0, 200.0, 500.0, 24.0, 30.0))
        assert value == 0.0

    def test_single_rpm_error_with_no_spill(self):
        # Motor 1 runs 1 rev/min fast, nothing spills: objective is 1.
        # q1 = 24, motor 24000/121 cc/rev -> omega1 = 121; demands sum to
        # the pump flow so q_rv = 0.
        params = CircuitParams(36.0, 24000.0 / 121.0, 500.0, 24.0, 30.0)
        value = circuit_objective(params)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_matches_definition(self):
        rng = np.random.default_rng(6)
        targets = CircuitTargets()
        for _ in range(50):
            params = CircuitParams(
                rng.uniform(1, 1000),
                rng.uniform(1, 1000),
                rng.uniform(1, 1000),
                rng.uniform(10, 100),
                rng.uniform(10, 100),
            )
            state = simulate_steady(params, targets)
            e1 = state.omega1 - targets.omega1_target
            e2 = state.omega2 - targets.omega2_target
            expected = (e1 * e1 + e2 * e2) * (1.0 + state.q_rv / state.q_pump)
            assert circuit_objective(params, targets) == pytest.approx(expected, rel=1e-12)

    @given(params=params_strategy)
    def test_nonnegative(self, params):
        assert circuit_objective(params) >= 0.0

    def test_relief_penalty_monotone(self):
        # Same delivered flows and speed errors, growing pump displacement:
        # the wasted fraction grows and so must the objective.
        values = []
        for pump in (60.0, 80.0, 120.0, 400.0):
            values.append(circuit_objective(CircuitParams(pump, 210.0, 480.0, 24.0, 30.0)))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCircuitFactory:
    def test_space_and_sense(self):
        obj = make_circuit()
        assert obj.sense == MINIMIZE
        assert obj.space.dimension == 5
        assert np.array_equal(obj.space.lower, [1.0, 1.0, 1.0, 10.0, 10.0])
        assert np.array_equal(obj.space.upper, [1000.0, 1000.0, 1000.0, 100.0, 100.0])

    def test_matches_direct_objective(self):
        obj = make_circuit()
        raw = np.array([60.0, 200.0, 500.0, 24.0, 30.0])
        p = evaluate(obj, normalize(obj.space, raw))
        assert p.feasible
        assert p.value == circuit_objective(CircuitParams(*raw))

    def test_policy_plumbed_through(self):
        obj = make_circuit(policy=PRIORITY)
        raw = np.array([10.0, 200.0, 500.0, 20.0, 10.0])
        p = evaluate(obj, normalize(obj.space, raw))
        state = simulate_steady(CircuitParams(*raw), policy=PRIORITY)
        e2 = state.omega2 - 60.0
        e1 = state.omega1 - 120.0
        assert p.value == pytest.approx((e1 * e1 + e2 * e2) * 1.0, rel=1e-12)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            make_circuit(policy="roundrobin")
