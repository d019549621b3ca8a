"""The perfbench tracer's boundaries must all exist in the engine.

The tracer reports a missing boundary as absent instead of failing, so
a renamed or deleted function would only show up as ``trace.absent`` in
a traced benchmark pass. This test loads ``perfbench/tracer.py`` by path
and checks every boundary, and the hook arguments read by position.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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
