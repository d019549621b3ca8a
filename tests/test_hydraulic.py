import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabukit.control import SearchConfig
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
from tabukit.multithread import MultiConfig, run_multi

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
        valid = [60.0, 200.0, 500.0, 24.0, 30.0]
        for index, (name, value) in enumerate(
            [("pump_disp", 0.5), ("motor1_disp", 1001.0), ("motor2_disp", 0.5), ("pcfv1_flow", 9.0), ("pcfv2_flow", 101.0)]
        ):
            args = list(valid)
            args[index] = value
            with pytest.raises(ValueError, match=f"^{name}="):
                CircuitParams(*args)

    def test_valid_construction(self):
        p = CircuitParams(60.0, 200.0, 500.0, 24.0, 30.0)
        assert p.pump_disp == 60.0


class TestCircuitTargets:
    @pytest.mark.parametrize("speed", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite_pump_speed(self, speed):
        with pytest.raises(ValueError, match="^pump_speed must be positive and finite"):
            CircuitTargets(pump_speed=speed)

    @pytest.mark.parametrize("name", ["omega1_target", "omega2_target"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_speed_target(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CircuitTargets(**{name: value})

    @pytest.mark.parametrize("name", ["omega1_target", "omega2_target", "pump_speed"])
    @pytest.mark.parametrize("value", ["100", None, True, [1500.0], 1j])
    def test_rejects_a_value_that_is_not_a_real_number(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
            CircuitTargets(**{name: value})

    def test_stores_every_field_as_a_float(self):
        targets = CircuitTargets(omega1_target=np.float64(120), omega2_target=60, pump_speed=Fraction(3000, 2))
        assert [type(v) for v in dataclasses.astuple(targets)] == [float, float, float]
        assert targets == CircuitTargets()

    def test_accepts_small_positive_pump_speed_and_zero_targets(self):
        targets = CircuitTargets(omega1_target=0.0, omega2_target=0.0, pump_speed=1e-3)
        assert targets.pump_speed == 1e-3


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


#: (policy, pump_speed, seed) -> (evals, best value as float.hex, best_raw bytes as hex)
#: of a default-config ``run_multi`` on ``make_circuit``. At 1500 rev/min about
#: a third of the priority runs' block rows starve the pump; at 100 nearly all.
SEEDED_RUNS = {
    ("proportional", 1500.0, 0): (6447, "0x1.d868f6a32cdaap-33", "78e1b757e21b51406a61fc160aa577405319a1ee18d28d4054bcfb40f55f4b401c3ef6cd38435140"),
    ("proportional", 1500.0, 1): (7895, "0x1.db2ccc5ae0d35p-30", "b1a74d90c1764a40a09c7693088377406acd82d386d68140a2306780549246403eeb864ce81f4140"),
    ("proportional", 1500.0, 2): (7542, "0x1.c5d876434d6fcp-30", "b56cd605e9385540aea514b6f3f48240b02870cac5678c40b3e5c5d2d5325240ab3a4330e6444b40"),
    ("proportional", 100.0, 0): (5924, "0x1.3c25b3b22e868p-31", "7ce59df41e388640fc4de3948f5f6d404d9ffa406c5886407859f12cd05e4e40b48d2b679a1a5740"),
    ("proportional", 100.0, 1): (6436, "0x1.9c7cf810f08b6p-34", "a1579e9b88f18540d5930afca7267740302c8d5cccd77a40a8df9c0eac965340ae4cc5bf60b64640"),
    ("proportional", 100.0, 2): (6421, "0x1.6720b0b6fa303p-32", "a840662bd6158840a2cb0d9c8b4b76401a0b6bc0d9d88140f8b45795eab75440bced4e6ebf955040"),
    ("priority", 1500.0, 0): (6638, "0x1.ddea3b4b662b0p-29", "15a750a403695640616824c551ec8840231211f4852f84404e6c2ca61bed5740d0cd08db34ee4b40"),
    ("priority", 1500.0, 1): (6424, "0x1.1a7916d69ce4ep-30", "51094518c47e4a4022b7c53cd487774001c7846b3dde81408f9ecf64e09646409694343c79044340"),
    ("priority", 1500.0, 2): (8000, "0x1.3410c1891d0a7p-38", "3076442f603755407c72e182d4f18240844dc9fccb688c40b7e75d45d62f5240a8ad2490e2454b40"),
    ("priority", 100.0, 0): (5956, "0x1.9d7a88cefb708p-34", "016faba1b6e88e40a63e6f62c7e081402d3114a498847f402be58519b5295140be983c905be65840"),
    ("priority", 100.0, 1): (6087, "0x1.9c15936580f91p-27", "eea65c55e99d8a4053d223352a768040f5078e6960e07640fb245690339b4f40d3f20784c1fa5540"),
    ("priority", 100.0, 2): (5791, "0x1.0cc4c88bd028cp-26", "03c9e93896c98d40498a269115db804015e9c5dd4dde7f401425d9ff792e50405c3b09a168f45740"),
}


@pytest.mark.parametrize("policy", [PROPORTIONAL, PRIORITY])
@pytest.mark.parametrize("pump_speed", [1500.0, 100.0])
def test_seeded_runs_pinned_per_policy_and_pump_speed(policy, pump_speed):
    objective = make_circuit(CircuitTargets(pump_speed=pump_speed), policy)
    rows = [0, 0]  # starved, all: block rows whose valve demand exceeds the pump

    def counting_batch(raw, fn_batch=objective.fn_batch):
        rows[0] += int(np.count_nonzero(raw[:, 3] + raw[:, 4] > raw[:, 0] * pump_speed / 1000.0))
        rows[1] += len(raw)
        return fn_batch(raw)

    counted = dataclasses.replace(objective, fn_batch=counting_batch)
    for seed in range(3):
        result = run_multi(counted, MultiConfig(base=SearchConfig(seed=seed)))
        got = (result.evals, result.best.value.hex(), result.best_raw.tobytes().hex())
        assert got == SEEDED_RUNS[policy, pump_speed, seed]
    # The starved branch is exercised, not just the surplus one.
    assert rows[0] > (0.2 if pump_speed == 1500.0 else 0.9) * rows[1]
