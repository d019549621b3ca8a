"""Experiment runner: seeded repeat runs over the built-in problems.

Problems are registered by name; an experiment is `runs` independent
searches with seeds base_seed + run_index, reported as an aligned table
on stdout and optionally a CSV file. Every tuning constant can be
overridden from a key=value config file or --set flags (flags win).
"""
from __future__ import annotations

import math
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .control import RunResult, SearchConfig, check_number_fields, run_single
from .core import Objective, normalize
from .multithread import MultiConfig, run_multi

SINGLE = "single"
MULTI = "multi"
START_FIXED = "fixed"
START_RANDOM = "random"

#: SearchConfig fields settable via --set / config file, each parsed as
#: the type of its default (step_min, None by default, as a float). The
#: per-run seed is excluded: it is always derived from the experiment's
#: base seed.
SEARCH_FIELDS: dict[str, Callable[[str], object]] = {
    f.name: float if f.default is None else type(f.default) for f in fields(SearchConfig) if f.name != "seed"
}


#: Problem options settable the same way.
OPTION_FIELDS: dict[str, Callable[[str], object]] = {
    "bump_variant": str,
    "pump_speed": float,
    "starvation": str,
}

#: The options each problem's builder reads; any other option is an error.
PROBLEM_OPTIONS: dict[str, tuple[str, ...]] = {
    "schwefel10": (),
    "bump20": ("bump_variant",),
    "bump50": ("bump_variant",),
    "circuit": ("pump_speed", "starvation"),
}


@dataclass
class ExperimentSpec:
    """One experiment: a problem, a method and a block of seeded runs."""

    problem: str
    method: str = SINGLE
    start: str = START_FIXED
    runs: int = 5
    base_seed: int = 0
    overrides: dict[str, object] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if not isinstance(self.problem, str) or self.problem not in PROBLEMS:  # a list is unhashable
            raise ValueError(f"unknown problem: {self.problem!r}")
        if self.method not in (SINGLE, MULTI):
            raise ValueError(f"method must be {SINGLE!r} or {MULTI!r}")
        if self.start not in (START_FIXED, START_RANDOM):
            raise ValueError(f"start must be {START_FIXED!r} or {START_RANDOM!r}")
        check_number_fields(self)
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed!r}")
        for name in ("overrides", "options"):
            if not isinstance(getattr(self, name), Mapping):
                raise ValueError(f"{name} must be a mapping of setting names to values, got {getattr(self, name)!r}")
        for key in self.overrides:
            if key not in SEARCH_FIELDS:
                raise ValueError(f"unknown search setting: {key!r}")
        SearchConfig(**self.overrides).validate()
        for key in self.options:
            if key not in PROBLEM_OPTIONS[self.problem]:
                raise ValueError(f"option {key!r} does not apply to problem {self.problem!r}")


@dataclass
class ResultRow:
    """One run's outcome in the problem's native sense."""

    run_index: int
    seed_used: int
    best_value: float
    eval_count: int
    wall_time_ms: float
    best_params: np.ndarray


@dataclass
class Summary:
    """Across-run means of best values and evaluation counts."""

    mean_value: float
    mean_evals: float


def _present(options: dict, **params: str) -> dict:
    """``{param: options[option]}`` for each ``param=option`` whose option
    is set: an unset option takes the default of the factory it feeds."""
    return {param: options[option] for param, option in params.items() if option in options}


def _bump_problem(n: int):
    def build(options: dict) -> tuple[Objective, np.ndarray | None]:
        from .benchmarks import make_bump

        objective = make_bump(n, **_present(options, variant="bump_variant"))
        start = normalize(objective.space, np.full(n, 5.0))
        return objective, start

    return build


def _schwefel_problem(options: dict) -> tuple[Objective, np.ndarray | None]:
    from .benchmarks import make_schwefel10

    return make_schwefel10(), None


def _circuit_problem(options: dict) -> tuple[Objective, np.ndarray | None]:
    from .hydraulic import CircuitTargets, make_circuit

    targets = CircuitTargets(**_present(options, pump_speed="pump_speed"))
    return make_circuit(targets, **_present(options, policy="starvation")), None


#: name -> builder(options) -> (objective, fixed normalized start or None).
#: Each builder imports its problem's module when it runs, so an
#: experiment loads only the problem it uses.
PROBLEMS: dict[str, Callable[[dict], tuple[Objective, np.ndarray | None]]] = {
    "schwefel10": _schwefel_problem,
    "bump20": _bump_problem(20),
    "bump50": _bump_problem(50),
    "circuit": _circuit_problem,
}


def run_experiment(spec: ExperimentSpec) -> tuple[list[ResultRow], Summary]:
    """Execute the experiment's runs in order and summarize them.

    Run i uses seed base_seed + i, so any row can be reproduced alone.
    A fixed start applies to the single thread, or to thread A with
    thread B random; start=random leaves every start seeded-random.
    """
    spec.validate()
    objective, fixed_start = PROBLEMS[spec.problem](spec.options)
    if spec.start == START_RANDOM:
        fixed_start = None

    rows = []
    for i in range(spec.runs):
        config = SearchConfig(seed=spec.base_seed + i, **spec.overrides)
        t0 = time.perf_counter()
        result: RunResult
        if spec.method == SINGLE:
            result = run_single(objective, config, start=fixed_start)
        else:
            result = run_multi(objective, MultiConfig(base=config, start_a=fixed_start))
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            ResultRow(
                run_index=i,
                seed_used=config.seed,
                best_value=result.best_native(objective),
                eval_count=result.evals,
                wall_time_ms=wall_ms,
                best_params=result.best_raw,
            )
        )
    return rows, summarize(rows)


def _mean(v: list) -> float:
    """``statistics.fmean(v)``, by the same operations."""
    return math.fsum(v) / len(v)


def summarize(rows: list[ResultRow]) -> Summary:
    if not rows:
        raise ValueError("no rows to summarize")
    return Summary(
        mean_value=_mean([r.best_value for r in rows]),
        mean_evals=_mean([r.eval_count for r in rows]),
    )


def _fmt(value: float) -> str:
    """Shared numeric formatter: 6 significant digits."""
    return format(float(value), ".6g")


def _csv_cells(rows: list[ResultRow], summary: Summary) -> list[list[str]]:
    dim = rows[0].best_params.size
    header = ["run", "seed", "best_value", "evals", "wall_ms"]
    header += [f"param{j + 1}" for j in range(dim)]
    table = [header]
    for r in rows:
        cells = [str(r.run_index), str(r.seed_used), _fmt(r.best_value), str(r.eval_count)]
        cells.append(_fmt(r.wall_time_ms))
        cells += [_fmt(p) for p in r.best_params]
        table.append(cells)
    average = ["AVERAGE", "", _fmt(summary.mean_value), _fmt(summary.mean_evals), ""]
    average += [""] * dim
    table.append(average)
    return table


def emit_csv(rows: list[ResultRow], summary: Summary, path: str) -> None:
    """Write the experiment as UTF-8 CSV with a trailing AVERAGE row."""
    if not rows:
        raise ValueError("refusing to write an empty CSV")
    lines = [",".join(cells) for cells in _csv_cells(rows, summary)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_table(rows: list[ResultRow], summary: Summary) -> str:
    """Render the same cells as the CSV, aligned for a terminal."""
    if not rows:
        raise ValueError("no rows to render")
    cells = _csv_cells(rows, summary)
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def read_config_file(path: str) -> dict[str, str]:
    """Parse a `key = value` file; # starts a comment, blank lines skipped."""
    settings: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not part of the first key
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            settings[key.strip()] = value.strip()
    return settings


EXPERIMENT_FIELDS: dict[str, Callable[[str], object]] = {
    "problem": str,
    "method": str,
    "start": str,
    "runs": int,
    "seed": int,
    "out": str,
}


def build_spec(settings: dict[str, str]) -> tuple[ExperimentSpec, str | None]:
    """Turn a flat key->string mapping into a validated ExperimentSpec."""
    known: dict[str, object] = {}
    overrides: dict[str, object] = {}
    options: dict[str, object] = {}
    for key, text in settings.items():
        for parsers, target in ((EXPERIMENT_FIELDS, known), (SEARCH_FIELDS, overrides), (OPTION_FIELDS, options)):
            if key in parsers:
                parse = parsers[key]
                try:
                    target[key] = parse(text)
                except ValueError:
                    raise ValueError(f"setting {key!r} expects {parse.__name__}, got {text!r}") from None
                break
        else:
            raise ValueError(f"unknown setting: {key!r}")
    if "problem" not in known:
        raise ValueError("no problem selected (use --problem or a config file)")
    out = known.pop("out", None)
    if "seed" in known:
        known["base_seed"] = known.pop("seed")
    spec = ExperimentSpec(**known, overrides=overrides, options=options)
    spec.validate()
    return spec, out


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line needs it

    parser = argparse.ArgumentParser(
        prog="tabukit",
        description="Run seeded tabu-search experiments on the built-in problems.",
    )
    parser.add_argument("--problem", choices=sorted(PROBLEMS))
    parser.add_argument("--method", choices=(SINGLE, MULTI))
    parser.add_argument("--runs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--start", choices=(START_FIXED, START_RANDOM))
    parser.add_argument("--out", help="write results to this CSV file")
    parser.add_argument("--config", help="key = value settings file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="assignments",
        help="override any search or problem setting; repeatable",
    )
    args = parser.parse_args(argv)

    try:
        settings: dict[str, str] = {}
        if args.config:
            settings.update(read_config_file(args.config))
        for assignment in args.assignments:
            if "=" not in assignment:
                raise ValueError(f"--set expects KEY=VALUE, got {assignment!r}")
            key, value = assignment.split("=", 1)
            settings[key.strip()] = value.strip()
        for flag in EXPERIMENT_FIELDS:
            value = getattr(args, flag)
            if value is not None:
                settings[flag] = str(value)
        spec, out_path = build_spec(settings)
        rows, summary = run_experiment(spec)
        print(emit_table(rows, summary))
        if out_path:
            emit_csv(rows, summary, out_path)
            print(f"wrote {out_path}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
