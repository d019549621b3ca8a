"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload twice per mode with ``--tiny`` and checks the output
contract: all seven end-to-end metrics print with their units, no run
fails on the current code, and trajectory digests and per-layer counts
repeat exactly between invocations.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PRINTED_END_TO_END = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "evals": "count",
    "best_gap": "objective_units",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics that are counts or ratios of counts, not times.
DETERMINISTIC = [
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] != "s" and m["name"] not in ("trace.overhead_frac", "trace.accounted_frac")
]


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict[str, tuple[float, str]], str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        try:
            printed[parts[0]] = (float(parts[1]), parts[2])
        except (IndexError, ValueError):
            continue
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result, printed, digest


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def outputs(request):
    workload = request.param
    return {trace: [parse(invoke(workload, trace)) for _ in range(2)] for trace in (0, 1)}


def test_end_to_end_metrics_print_with_units(outputs):
    for result, printed, _ in outputs[0]:
        for name, unit in PRINTED_END_TO_END.items():
            assert printed[name][1] == unit, name
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for metric in SPEC["end_to_end"]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0


def test_no_failures_on_current_code(outputs):
    for trace in (0, 1):
        for result, printed, _ in outputs[trace]:
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert result["failed"] == 0
            assert printed["fail_frac"] == (0.0, "ratio")


def test_per_layer_metrics_complete(outputs):
    for result, _, _ in outputs[1]:
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"]["trace.absent"]["value"] == 0
        assert result["metrics"]["core.evaluate.calls"]["value"] > 0


def test_digests_and_counts_repeat_exactly(outputs):
    digests = {digest for trace in (0, 1) for _, _, digest in outputs[trace]}
    assert len(digests) == 1
    (first, _, _), (second, _, _) = outputs[1]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    (first, _, _), (second, _, _) = outputs[0]
    assert first["metrics"]["evals"] == second["metrics"]["evals"]


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(sorted(WORKLOADS)[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
