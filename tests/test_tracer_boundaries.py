"""The perfbench tracer's boundaries must all exist in the engine.

The tracer reports a missing boundary as absent instead of failing, so
a renamed or deleted function would only show up as ``trace.absent`` in
a traced benchmark pass. This test loads ``perfbench/tracer.py`` by path
and checks every boundary, the hook arguments read by position and the
row count that the axial hook reads.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from tabukit.hillclimb import axial_moves
from tabukit.memory import TabuList

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_boundary_resolves(tracer):
    absent = [b.name for b in tracer.BOUNDARIES if tracer._resolve(b) is None]
    assert absent == []


@pytest.mark.parametrize(
    "module, name, position, parameter",
    [("control", "apply_action", 1, "action"), ("hillclimb", "hj_step", 0, "state")],
)
def test_hook_arguments_keep_their_positions(module, name, position, parameter):
    fn = getattr(importlib.import_module(f"tabukit.{module}"), name)
    assert list(inspect.signature(fn).parameters)[position] == parameter


def test_axial_moves_counts_one_candidate_per_row():
    # The tracer counts len(result.candidates) of each axial_moves call.
    tabu = TabuList()
    tabu.push(np.array([0.5, 0.0, 0.6]))
    moves = axial_moves(np.array([[[0.5, 0.0, 0.5]]]), np.full((1, 1, 1), 0.1), tabu.block(3), tabu.match_tol)
    # Of six probes, the decrement of x1 clamps onto the base and the
    # increment of x2 is tabu.
    assert moves.tabu_rejected == 1
    assert len(moves.candidates) == len(moves.x) == 4
