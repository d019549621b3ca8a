"""End-to-end benchmark of tabukit's seeded experiments.

Usage (from the repository root):

    python3 perfbench/run.py --workload bump50-multi --seed 0 --seconds 24 --trace 0

A pass is one ``tabukit.cli.run_experiment`` call: ``runs`` seeded runs
back to back in this process (run i uses seed + i, as the command line
does), with no extra threads. With ``--trace 0`` the benchmark repeats
the pass, closed loop, until another one would overrun ``--seconds``
(at least once) and reports end-to-end metrics. With ``--trace 1`` it
makes one untraced and one traced pass and reports per-layer self times
and counts from ``perfbench/tracer.py``.

Times are reported at the reference machine's speed. On a shared host
the same run takes up to 50% longer from one minute to the next, and
slow spells outlast a whole measurement, so no statistic of raw times
stays steady. A fixed kernel that uses no tabukit code is therefore
timed just before and after every seeded run, and the run's time is
scaled by ``REFERENCE_CAL_S`` over that kernel time. Set-up time is
scaled the same way against a fresh interpreter that imports numpy (see
``measure_setup``). Raw times and the measured speed are printed beside
the scaled ones; per-layer self times are raw.

Every run's output is checked outside the timed region: the run must
not raise, ``best_raw`` must lie within the bounds, and re-evaluating
the objective there must reproduce the reported best value as feasible.
Repeated passes, and the traced pass, must give the same trajectory
digest. Human-readable lines go first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    problem: str
    method: str
    start: str
    runs: int
    why: str
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    "bump50-multi": Workload(
        "bump50", "multi", "fixed", 6,
        "the 50-D throughput case: tabu screening and the objective take most of the "
        "time at 100 candidates a step; runs are capped at 10,000 evaluations",
        overrides={"max_evals": 10_000},
    ),
    "schwefel10-single": Workload(
        "schwefel10", "single", "random", 12,
        "the only run_single path: 20 candidates a step, no infeasible points "
        "and the highest tabu hit ratio",
    ),
    "circuit-multi": Workload(
        "circuit", "multi", "random", 12,
        "densest archive offers and restructures per evaluation, on a scalar "
        "Python objective that a vectorized batch path would bypass",
    ),
}

#: Reference optimum per problem, in the problem's native sense. bump50
#: is the best published value of the 50-D Keane bump.
REFERENCE = {"schwefel10": -4189.8289, "circuit": 0.0, "bump50": 0.8353}

#: Smoke-test size: one short budget-capped run per pass.
TINY_MAX_EVALS = 2000

SETUP_REPEATS = 9

#: Seconds that ``calibrate()`` takes on the reference machine (2-core
#: Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4) when it runs undisturbed.
REFERENCE_CAL_S = 0.02

#: Seconds that a fresh interpreter importing only numpy takes on the
#: reference machine when it runs undisturbed.
REFERENCE_START_S = 0.1

SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from tabukit.cli import PROBLEMS, ExperimentSpec
spec = ExperimentSpec(problem=sys.argv[2], method=sys.argv[3], start=sys.argv[4],
                      runs=int(sys.argv[5]), base_seed=int(sys.argv[6]))
spec.validate()
PROBLEMS[spec.problem](spec.options)
"""


def import_tabukit():
    """Import the engine from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import tabukit.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import tabukit from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: tabukit was imported from {cli.__file__}, not {SRC}")
    return cli


def make_spec(cli, workload: Workload, seed: int, tiny: bool):
    overrides = dict(workload.overrides)
    if tiny:
        overrides["max_evals"] = TINY_MAX_EVALS
    return cli.ExperimentSpec(
        problem=workload.problem,
        method=workload.method,
        start=workload.start,
        runs=1 if tiny else workload.runs,
        base_seed=seed,
        overrides=overrides,
    )


def calibrate(iterations: int = 500) -> float:
    """Seconds for a fixed kernel shaped like the engine's inner loop.

    Small-vector numpy calls under a Python loop, as in candidate
    generation, tabu screening and the bump objective, but no tabukit
    code, so its time follows only how fast the machine runs right now.
    """
    rng = np.random.default_rng(2014)
    base = rng.random(50)
    entries = [rng.random(50) for _ in range(7)]
    weights = np.arange(1, 51)
    t0 = time.perf_counter()
    for i in range(iterations):
        x = base.copy()
        x[i % 50] += 0.01
        x = np.clip(x, 0.0, 1.0)
        for entry in entries:
            if np.max(np.abs(entry - x)) <= 1e-6:
                break
        c = np.cos(10.0 * x)
        math.sqrt(float(np.sum(weights * x * x))) + float(np.sum(c**4) - 2.0 * np.prod(c**2))
    return time.perf_counter() - t0


def speed() -> float:
    """Machine speed now, relative to the reference machine undisturbed."""
    return REFERENCE_CAL_S / calibrate()


def _spawn_seconds(args: list[str]) -> float:
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    t0 = time.perf_counter()
    subprocess.run(args, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(spec, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to an imported engine and built
    objective, raw and at reference speed.

    Start-up swings with the host as run times do, but it does not follow
    the calibration kernel. Each sample is instead scaled by
    ``REFERENCE_START_S`` over the time of a fresh interpreter that only
    imports numpy, started just before it.
    """
    args = [sys.executable, "-c", SETUP_SCRIPT, str(SRC), spec.problem, spec.method,
            spec.start, str(spec.runs), str(spec.base_seed)]
    reference = [sys.executable, "-c", "import numpy"]
    raw, scaled = [], []
    for _ in range(repeats):
        base = _spawn_seconds(reference)
        raw.append(_spawn_seconds(args))
        scaled.append(raw[-1] * REFERENCE_START_S / base)
    return raw, scaled


@dataclass
class Run:
    result: object
    seconds: float
    #: Machine speed around the run: the mean of ``speed()`` just before
    #: and just after it, or 1.0 when not calibrated.
    speed: float


@contextmanager
def capturing_runs(cli, calibrated: bool):
    """Collect a Run for every run_single / run_multi call made by cli."""
    runs: list[Run] = []
    saved = {name: getattr(cli, name) for name in ("run_single", "run_multi") if hasattr(cli, name)}

    def capture(fn):
        def captured(*args, **kwargs):
            before = speed() if calibrated else 1.0
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            after = speed() if calibrated else 1.0
            runs.append(Run(result, seconds, (before + after) / 2.0))
            return result
        return captured

    for name, fn in saved.items():
        setattr(cli, name, capture(fn))
    try:
        yield runs
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


@dataclass
class Pass:
    wall_s: float
    #: (seconds, speed) per seeded run; results are dropped once checked,
    #: so memory does not grow with the number of passes.
    timings: list[tuple[float, float]]
    ok: int
    failed: int
    evals: int
    gaps: list[float]
    digest: str
    problems: list[str]


def _float_bits(value: float) -> str:
    return float(value).hex()


def run_digest(result) -> bytes:
    """Canonical bytes of one run's trajectory."""
    parts = [
        str(result.evals),
        str(result.terminated_by),
        _float_bits(result.best.value),
        ";".join(f"{e}:{_float_bits(v)}" for e, v in result.history),
    ]
    stages = getattr(result, "stages", None)
    if stages is not None:
        parts.append(";".join(",".join(stage) for stage in stages))
    collisions = getattr(result, "collisions", None)
    if collisions is not None:
        parts.append(";".join(f"{e}:{_float_bits(d)}" for e, d in collisions.events))
    return "|".join(parts).encode()


def check_run(objective, row, result) -> str | None:
    """None when the run's reported output holds up, else the reason."""
    raw = row.best_params
    space = objective.space
    if raw.shape != space.lower.shape or not (
        (raw >= space.lower).all() and (raw <= space.upper).all()
    ):
        return f"seed {row.seed_used}: best_raw outside the bounds"
    value, feasible = objective.fn(raw)
    if not (feasible and result.best.feasible):
        return f"seed {row.seed_used}: reported best is infeasible"
    if float(value) != row.best_value:
        return f"seed {row.seed_used}: objective gives {value!r} at best_raw, reported {row.best_value!r}"
    if row.eval_count != result.evals:
        return f"seed {row.seed_used}: row evals {row.eval_count} != result evals {result.evals}"
    return None


def gap(objective, native_best: float, reference: float) -> float:
    """Distance above the reference optimum, in minimization sense."""
    sign = -1.0 if objective.sense == "maximize" else 1.0
    return sign * (native_best - reference)


def run_pass(cli, spec, objective, calibrated: bool = False) -> Pass:
    """One timed run_experiment call, then its checks outside the timing."""
    with capturing_runs(cli, calibrated) as runs:
        t0 = time.perf_counter()
        try:
            rows, _ = cli.run_experiment(spec)
            error = None
        except Exception as exc:  # a failed run is a measured outcome
            rows, error = [], f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0

    problems = [error] if error else []
    if not error and len(runs) != len(rows):
        problems.append(f"captured {len(runs)} run results for {len(rows)} rows")
        rows = []
    ok, evals, gaps = 0, 0, []
    digest = hashlib.sha256()
    for row, result in zip(rows, (run.result for run in runs)):
        evals += row.eval_count
        gaps.append(gap(objective, row.best_value, REFERENCE[spec.problem]))
        digest.update(run_digest(result) + b"\n")
        reason = check_run(objective, row, result)
        if reason:
            problems.append(reason)
        else:
            ok += 1
    timings = [(run.seconds, run.speed) for run in runs]
    return Pass(wall, timings, ok, spec.runs - ok, evals, gaps, digest.hexdigest()[:16], problems)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<44} {value:>16.6g} {unit:<16} {note}".rstrip())


def timing_note(values: list[float]) -> str:
    q1, _, q3 = quartiles(values)
    return f"median of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g}"


def end_to_end(cli, spec, objective, seconds: float, setup: tuple[list[float], list[float]]):
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, spec, objective, calibrated=True))
        if passes[-1].problems:
            break
        if time.perf_counter() - start + statistics.median(p.wall_s for p in passes) > seconds:
            break
    first = passes[0]
    problems = [msg for p in passes for msg in p.problems]
    problems += [
        f"pass {i} digest {p.digest} differs from pass 0 digest {first.digest}"
        for i, p in enumerate(passes) if p.digest != first.digest
    ]
    # The same seeded run repeats in every pass. Its time, scaled by the
    # machine speed measured around it, has a median over the repeats;
    # the pass time is the sum of those medians over the seeded runs.
    repeats = list(zip(*(p.timings for p in passes)))
    wall = sum(statistics.median(t * k for t, k in runs) for runs in repeats)
    raw_wall = sum(statistics.median(t for t, _ in runs) for runs in repeats)
    pass_walls = [sum(t * k for t, k in p.timings) for p in passes]
    speeds = [k for p in passes for _, k in p.timings]
    attempted = sum(spec.runs for _ in passes)
    failed = sum(p.failed for p in passes)
    note = f"at reference speed, per-run medians summed; passes: {timing_note(pass_walls)}"
    print_metric("raw_wall_s", raw_wall, "s", "as timed, same medians")
    print_metric("raw_setup_s", statistics.median(setup[0]), "s", timing_note(setup[0]))
    if speeds:
        print_metric("machine_speed", statistics.median(speeds), "ratio", timing_note(speeds))
    metrics = {
        "wall_s": (wall, "s", note),
        "evals_per_s": (first.evals / wall if wall else 0.0, "1/s", "at reference speed"),
        "evals": (first.evals, "count", ""),
        "best_gap": (statistics.fmean(first.gaps) if first.gaps else math.nan, "objective_units", ""),
        "fail_frac": (failed / attempted, "ratio", f"{failed} of {attempted} runs"),
        "setup_s": (statistics.median(setup[1]), "s", f"at reference speed; {timing_note(setup[1])}"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", ""),
    }
    return metrics, first.digest, problems, attempted, failed


def per_layer(cli, spec, objective):
    from tracer import Tracer, layer_metrics, tracing

    # Speed is sampled between passes only: inside the traced pass the
    # calibration kernel would land in the self time of run_experiment.
    speeds = [[speed() for _ in range(5)]]
    plain = run_pass(cli, spec, objective)
    speeds.append([speed() for _ in range(5)])
    tracer = Tracer()
    with tracing(tracer):
        traced = run_pass(cli, spec, objective)
    speeds.append([speed() for _ in range(5)])
    problems = plain.problems + traced.problems
    if traced.digest != plain.digest:
        problems.append(f"traced digest {traced.digest} differs from untraced {plain.digest}")
    accounted = tracer.total_self_s() / traced.wall_s
    negative = [name for name, (_, self_s) in tracer.stats.items() if self_s < 0]
    if negative or not 0.98 <= accounted <= 1.0 + 1e-9:
        problems.append(f"self times cover {accounted:.4f} of the traced wall; negative: {negative}")
    plain_wall = plain.wall_s * statistics.median(speeds[0] + speeds[1])
    traced_wall = traced.wall_s * statistics.median(speeds[1] + speeds[2])
    metrics = {name: (value, unit, "") for name, (value, unit) in layer_metrics(tracer).items()}
    metrics["trace.overhead_frac"] = (
        traced_wall / plain_wall - 1.0, "ratio",
        f"at reference speed: traced {traced_wall:.6g} s, untraced {plain_wall:.6g} s",
    )
    metrics["trace.accounted_frac"] = (accounted, "ratio", "sum of self times / traced wall")
    metrics["best_gap"] = (statistics.fmean(traced.gaps) if traced.gaps else math.nan,
                           "objective_units", "")
    failed = plain.failed + traced.failed
    metrics["fail_frac"] = (failed / (2 * spec.runs), "ratio", "")
    for name in tracer.absent:
        print(f"absent boundary: {name}")
    return metrics, traced.digest, problems, 2 * spec.runs, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"smoke size: one run per pass, max_evals={TINY_MAX_EVALS}")
    args = parser.parse_args(argv)

    cli = import_tabukit()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workload = WORKLOADS[args.workload]
    spec = make_spec(cli, workload, args.seed, args.tiny)
    spec.validate()
    objective, _ = cli.PROBLEMS[spec.problem](spec.options)

    print(f"workload {args.workload}: {spec.problem} {spec.method} start={spec.start} "
          f"runs/pass={spec.runs} seeds {spec.base_seed}..{spec.base_seed + spec.runs - 1}")
    if args.trace:
        metrics, digest, problems, attempted, failed = per_layer(cli, spec, objective)
    else:
        setup = measure_setup(spec, 2 if args.tiny else SETUP_REPEATS)
        metrics, digest, problems, attempted, failed = end_to_end(
            cli, spec, objective, args.seconds, setup
        )
    for name, (value, unit, note) in metrics.items():
        print_metric(name, value, unit, note)
    print(f"digest {digest}")
    for msg in problems:
        print(f"check failed: {msg}")

    names = load_metric_names("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    print(json.dumps(result))
    return 0


def load_metric_names(kind: str) -> list[str]:
    """Metric names of one kind, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


if __name__ == "__main__":
    sys.exit(main())
