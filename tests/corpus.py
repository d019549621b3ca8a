"""The digest corpus: one hash per seeded ``run_lockstep`` run.

Each digest hashes a run's ``best.x`` bytes, ``evals``, ``terminated_by``,
``history`` and stage codes. The runs cover the four built-in problems,
K = 1 to 4 threads, seeds 0-7 and three configs at ``max_evals`` 2,000:
the default, small memories with ``k_pattern`` 2, and a tight threshold
ladder. A few more runs put the step floor at the initial step, so that
most of them end there.

``tests/test_corpus.py`` recomputes every digest and names the first run
that moved. A change that alters trajectories on purpose regenerates the
file with

    python tests/corpus.py --write
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().with_name("corpus.json")

PROBLEMS = ("schwefel10", "bump20", "bump50", "circuit")
THREADS = (1, 2, 3, 4)
SEEDS = range(8)
MAX_EVALS = 2_000

#: Config name -> SearchConfig fields besides the seed and the budget.
CONFIGS = {
    "default": {},
    "small": {"n_tabu": 2, "m_elite": 2, "k_pattern": 2.0},
    "tight": {"intensify_after": 1, "diversify_after": 2, "reduce_after": 3},
}
#: The tight ladder with the floor at the initial step, so that the first
#: step reduction ends the run (on bump50 the budget ends it first).
FLOOR = {**CONFIGS["tight"], "step_min": 0.1}
FLOOR_THREADS = (1, 2)
FLOOR_SEEDS = range(2)


def objectives() -> dict:
    from tabukit.benchmarks import make_bump, make_schwefel10
    from tabukit.hydraulic import make_circuit

    return {
        "schwefel10": make_schwefel10(),
        "bump20": make_bump(20),
        "bump50": make_bump(50),
        "circuit": make_circuit(),
    }


def cases():
    """(key, problem, threads, config fields) of every corpus run, in order."""
    for problem in PROBLEMS:
        for threads in THREADS:
            for name, fields in CONFIGS.items():
                for seed in SEEDS:
                    yield f"{problem}/K{threads}/{name}/{seed}", problem, threads, {**fields, "seed": seed}
        for threads in FLOOR_THREADS:
            for seed in FLOOR_SEEDS:
                yield f"{problem}/K{threads}/floor/{seed}", problem, threads, {**FLOOR, "seed": seed}


def digest(result) -> str:
    """16 hex digits over the run's best x, evals, ending, history and stages."""
    parts = [
        result.best.x.tobytes().hex(),
        str(result.evals),
        result.terminated_by,
        ";".join(f"{n}:{float(v).hex()}" for n, v in result.history),
        ";".join(",".join(stage) for stage in result.stages),
    ]
    return hashlib.blake2b("|".join(parts).encode(), digest_size=8).hexdigest()


def runs():
    """Yield (key, result) for every corpus run, in order."""
    from tabukit.control import SearchConfig, run_lockstep

    built = objectives()
    for key, problem, threads, fields in cases():
        config = SearchConfig(max_evals=MAX_EVALS, **fields)
        starts = [(f"start (thread {i})", None) for i in range(threads)]
        yield key, run_lockstep(built[problem], config, starts)


def compute() -> dict[str, str]:
    return {key: digest(result) for key, result in runs()}


def load() -> dict[str, str]:
    return json.loads(PATH.read_text())


def write() -> None:
    PATH.write_text(json.dumps(compute(), indent=0) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(PATH.parents[1] / "src"))
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/corpus.py --write")
    write()
