"""The benchmark workloads keep their seed-0 trajectories.

Every performance change claims that the seeded runs are unchanged. This
test makes that a Tier-1 check: it loads ``perfbench/run.py`` by path,
runs one untimed pass of each workload at seed 0 and full size, and
compares the pass's trajectory digest with the recorded one. The pass
also checks each run's reported best against the objective.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from tabukit import cli

RUN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

SEED0_DIGESTS = {
    "bump50-multi": "a435c688f7457bed",
    "schwefel10-single": "62889158f3880354",
    "circuit-multi": "e2eea607f3efedc6",
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("_perfbench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_workload_pinned(bench):
    assert sorted(SEED0_DIGESTS) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SEED0_DIGESTS))
def test_seed0_pass_keeps_its_digest(bench, workload):
    spec = bench.make_spec(cli, bench.WORKLOADS[workload], seed=0, tiny=False)
    spec.validate()
    objective, _ = cli.PROBLEMS[spec.problem](spec.options)
    result = bench.run_pass(cli, spec, objective)
    assert result.problems == []
    assert result.failed == 0
    assert result.digest == SEED0_DIGESTS[workload]
