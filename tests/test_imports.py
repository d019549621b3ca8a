"""What a fresh interpreter loads: building one problem through
``cli.PROBLEMS`` imports that problem's module only, and the experiment
runner imports neither ``statistics`` nor ``argparse``."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tabukit

SRC = str(Path(tabukit.__file__).resolve().parent.parent)


def loaded_after(code: str):
    """Run ``code`` in a fresh interpreter that imports tabukit from this
    source tree; return the JSON that its last line prints."""
    script = f"import json, sys\nsys.path.insert(0, {SRC!r})\n{code}"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


BUILD = """
from tabukit.cli import PROBLEMS, ExperimentSpec
spec = ExperimentSpec(problem={problem!r})
spec.validate()
PROBLEMS[spec.problem](spec.options)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize(
    "problem, module",
    [("schwefel10", "tabukit.benchmarks"), ("bump50", "tabukit.benchmarks"), ("circuit", "tabukit.hydraulic")],
)
def test_building_a_problem_loads_only_its_module(problem, module):
    modules = set(loaded_after(BUILD.format(problem=problem)))
    unused = {"tabukit.benchmarks", "tabukit.hydraulic"} - {module}
    assert module in modules
    assert modules & (unused | {"statistics", "argparse"}) == set()


def test_an_exported_problem_name_loads_its_module():
    before, after, listed, exported = loaded_after(
        """
import tabukit
before = "tabukit.hydraulic" in sys.modules
from tabukit import make_circuit
print(json.dumps([before, "tabukit.hydraulic" in sys.modules, dir(tabukit), tabukit.__all__]))
"""
    )
    assert (before, after) == (False, True)
    assert set(exported) <= set(listed)
