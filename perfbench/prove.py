"""Steadiness proof and baseline record for the benchmark.

    python3 perfbench/prove.py --seeds 10 [--workload NAME ...] [--record LABEL]

Runs ``perfbench/run.py`` once per seed on each workload with tracing
off, then reports every end-to-end metric's median, quartiles and
spread (q3 - q1, as a share of the median) against its bound from
``BENCHMARK.json``. Seeds are 0, 1000, 2000, ... so that the seeded runs
of different invocations never overlap. With ``--record`` it also makes
one traced run per workload at seed 0 and appends the figures, with the
machine facts, to ``perfbench/baseline.json``.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"
SEED_STRIDE = 1000

#: Per layer (the first part of a per-layer metric's name): which
#: end-to-end metric its metrics should move, and on which workload.
#: Later changes cite these names.
LAYER_MAP = {
    "memory": ("evals_per_s, wall_s (screen); evals (hit ratio)",
               "bump50-multi, schwefel10-single (screen); circuit-multi (offer)"),
    "hillclimb": ("evals_per_s (generation); evals (outcomes)", "bump50-multi"),
    "core": ("evals_per_s", "all three"),
    "benchmarks": ("evals_per_s", "bump50-multi, schwefel10-single"),
    "hydraulic": ("evals_per_s; must not move under a vectorized batch path", "circuit-multi"),
    "control": ("wall_s; counts must stay identical through refactors",
                "schwefel10-single, circuit-multi"),
    "multithread": ("wall_s", "circuit-multi"),
    "cli": ("wall_s (a process pool over seeded runs shows here)", "all three"),
    "trace": ("none", "all three"),
}


def layer_map(per_layer: list[dict]) -> list[dict]:
    layers = {}
    for metric in per_layer:
        layer = metric["name"].partition(".")[0]
        if layer in LAYER_MAP:
            layers.setdefault(layer, []).append(metric["name"])
    return [{"layer": layer, "metrics": names, "moves": LAYER_MAP[layer][0], "on": LAYER_MAP[layer][1]}
            for layer, names in layers.items()]


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed\n{proc.stdout}")
    return result, digest


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread,
            "bound": bound, "steady": spread < bound / 3}


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--record", metavar="LABEL", help="append the figures to baseline.json")
    parser.add_argument("--tier1-seconds", type=float,
                        help="Tier-1 suite wall time to store with the record (informational)")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    seeds = [k * SEED_STRIDE for k in range(args.seeds)]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    figures = {}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        digests = []
        for seed in seeds:
            result, digest = invoke(workload, seed, seconds, trace=0)
            digests.append(digest)
            print(f"  seed {seed}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.6g}" for name in bounds), flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {name: summarize(vals, bounds[name]) for name, vals in values.items()}
        figures[workload] = {"end_to_end": summary, "digests": dict(zip(map(str, seeds), digests))}
        print(f"{workload} (seeds {seeds[0]}..{seeds[-1]} step {SEED_STRIDE}, {seconds} s runs)")
        for name, s in summary.items():
            flag = "steady" if s["steady"] else ("WITHIN BOUND" if s["spread"] <= s["bound"] else "OVER BOUND")
            print(f"  {name:<14} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} / bound {s['bound']}  {flag}")
        if args.record:
            traced, _ = invoke(workload, 0, seconds, trace=1)
            figures[workload]["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}

    if args.record:
        doc = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {"records": []}
        doc["layer_map"] = layer_map(spec["per_layer"])
        doc["workloads"] = {w["name"]: w["why"] for w in spec["workloads"]}
        doc["records"].append({
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "machine": machine_facts(),
            "tier1_suite_s": args.tier1_seconds,
            "run_seconds": seconds,
            "figures": figures,
        })
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"appended a record to {BASELINE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
