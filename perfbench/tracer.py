"""Outside-in span tracer for the tabukit layers.

The tracer wraps public functions and methods of the engine modules from
the outside: the engine itself carries no timing code. Each wrapper opens
a span, runs the original, and on exit adds the span's self time (its
duration minus the time covered by child spans) and a call count to the
boundary's totals. Spans are aggregated as they close rather than kept,
because a 50-D pass opens millions of them.

Functions that other modules import by name (``evaluate``, ``hj_step``,
``run_single``, ...) are rebound in every ``tabukit`` module that holds
the same object, so the wrapper sees calls from all of them. A boundary
that no longer exists is reported as absent instead of failing, so the
tracer keeps working while later changes fold or batch these functions.
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Boundary:
    """One traced layer boundary: ``tabukit.<module>.<path>``."""

    module: str
    path: tuple[str, ...]
    #: hook(tracer, args, result, parent_name), run inside the span.
    hook: Callable | None = None

    @property
    def name(self) -> str:
        return ".".join((self.module,) + self.path)


def _count_if(key: str) -> Callable:
    def hook(tracer, args, result, parent):
        if result:
            tracer.count(key)

    return hook


def _axial_hook(tracer, args, result, parent):
    tracer.count("hillclimb.axial_moves.candidates", len(getattr(result, "candidates", ())))
    tracer.count("hillclimb.axial_moves.tabu_rejected", getattr(result, "tabu_rejected", 0))


def _evaluate_hook(tracer, args, result, parent):
    if not getattr(result, "feasible", True):
        tracer.count("core.evaluate.infeasible")
    # hj_step evaluates directly only its pattern point; the axial probes
    # are evaluated under explore.
    if parent == "hillclimb.hj_step":
        tracer.count("hillclimb.pattern.evals")
        tracer.last_pattern = result


def _hj_step_hook(tracer, args, result, parent):
    hillclimb = sys.modules["tabukit.hillclimb"]
    if result == getattr(hillclimb, "IMPROVED", "improved"):
        tracer.count("hillclimb.hj_step.improved")
    elif result == getattr(hillclimb, "STALLED", "stalled"):
        tracer.count("hillclimb.hj_step.stalled")
    if tracer.last_pattern is not None and args and getattr(args[0], "base", None) is tracer.last_pattern:
        tracer.count("hillclimb.pattern.accepted")
    tracer.last_pattern = None


def _apply_action_hook(tracer, args, result, parent):
    if len(args) > 1 and isinstance(args[1], str):
        tracer.count(f"control.apply_action.{args[1]}")


BOUNDARIES = (
    Boundary("memory", ("TabuList", "is_tabu"), _count_if("memory.TabuList.is_tabu.hits")),
    Boundary("memory", ("TabuList", "push")),
    Boundary("memory", ("IntermediateMemory", "offer"), _count_if("memory.IntermediateMemory.offer.accepted")),
    Boundary("memory", ("IntermediateMemory", "intensify")),
    Boundary("memory", ("IntermediateMemory", "diversify")),
    Boundary("hillclimb", ("axial_moves",), _axial_hook),
    Boundary("hillclimb", ("explore",)),
    Boundary("hillclimb", ("hj_step",), _hj_step_hook),
    Boundary("core", ("evaluate",), _evaluate_hook),
    Boundary("control", ("run_single",)),
    Boundary("control", ("control_decision",)),
    Boundary("control", ("apply_action",), _apply_action_hook),
    Boundary("multithread", ("run_multi",)),
    Boundary("multithread", ("detect_collision",), _count_if("multithread.detect_collision.hits")),
    Boundary("cli", ("run_experiment",)),
)


class Tracer:
    """Per-boundary call counts, self times and outcome counters."""

    def __init__(self):
        #: boundary name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.last_pattern = None
        self._stack: list[list] = [["<root>", 0.0]]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def total_self_s(self) -> float:
        return sum(stat[1] for stat in self.stats.values())

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result, parent[0])
                return result
            finally:
                stack.pop()
                duration = clock() - t0
                stat[0] += 1
                stat[1] += duration - frame[1]
                parent[1] += duration

        return traced


class Patches:
    """Attribute and mapping replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[Callable[[], None]] = []

    def setattr(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def setitem(self, mapping: dict, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(boundary: Boundary):
    """(owner, attribute, original) for a boundary, or None when absent."""
    try:
        owner = importlib.import_module(f"tabukit.{boundary.module}")
    except ImportError:
        return None
    for attr in boundary.path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    original = getattr(owner, boundary.path[-1], None)
    if not callable(original):
        return None
    return owner, boundary.path[-1], original


def _tabukit_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if (name == "tabukit" or name.startswith("tabukit.")) and m is not None
    ]


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every boundary, rebinding by-name imports across tabukit."""
    for boundary in BOUNDARIES:
        resolved = _resolve(boundary)
        if resolved is None:
            tracer.absent.append(boundary.name)
            continue
        owner, attr, original = resolved
        traced = tracer.wrap(boundary.name, original, boundary.hook)
        patches.setattr(owner, attr, traced)
        if isinstance(owner, type):
            continue
        for module in _tabukit_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.setattr(module, key, traced)

    # The objective is a closure built per experiment: wrap what each
    # problem builder returns, named after the module that defines fn.
    cli = sys.modules["tabukit.cli"]
    for problem, build in list(cli.PROBLEMS.items()):
        patches.setitem(cli.PROBLEMS, problem, _traced_builder(tracer, build))


def _traced_builder(tracer: Tracer, build: Callable) -> Callable:
    def traced_build(options):
        objective, start = build(options)
        layer = objective.fn.__module__.rpartition(".")[2]
        fn = tracer.wrap(f"{layer}.fn", objective.fn)
        return dataclasses.replace(objective, fn=fn), start

    return traced_build


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    patches = Patches()
    try:
        install(tracer, patches)
        yield tracer
    finally:
        patches.undo()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""

    def n(key: str) -> int:
        return t.counts.get(key, 0)

    is_tabu = "memory.TabuList.is_tabu"
    offer = "memory.IntermediateMemory.offer"
    hj = "hillclimb.hj_step"
    pattern = "hillclimb.pattern"
    evaluate = "core.evaluate"
    apply = "control.apply_action"
    collide = "multithread.detect_collision"
    return {
        f"{is_tabu}.self_s": (t.self_s(is_tabu), "s"),
        f"{is_tabu}.calls": (t.calls(is_tabu), "count"),
        f"{is_tabu}.hit_ratio": (_ratio(n(f"{is_tabu}.hits"), t.calls(is_tabu)), "ratio"),
        "memory.TabuList.push.self_s": (t.self_s("memory.TabuList.push"), "s"),
        f"{offer}.self_s": (t.self_s(offer), "s"),
        f"{offer}.calls": (t.calls(offer), "count"),
        f"{offer}.accept_ratio": (_ratio(n(f"{offer}.accepted"), t.calls(offer)), "ratio"),
        "memory.IntermediateMemory.intensify.calls": (t.calls("memory.IntermediateMemory.intensify"), "count"),
        "memory.IntermediateMemory.diversify.calls": (t.calls("memory.IntermediateMemory.diversify"), "count"),
        "memory.IntermediateMemory.restart_self_s": (
            t.self_s("memory.IntermediateMemory.intensify") + t.self_s("memory.IntermediateMemory.diversify"),
            "s",
        ),
        "hillclimb.axial_moves.self_s": (t.self_s("hillclimb.axial_moves"), "s"),
        "hillclimb.axial_moves.candidates": (n("hillclimb.axial_moves.candidates"), "count"),
        "hillclimb.axial_moves.tabu_rejected": (n("hillclimb.axial_moves.tabu_rejected"), "count"),
        "hillclimb.explore.self_s": (t.self_s("hillclimb.explore"), "s"),
        f"{hj}.self_s": (t.self_s(hj), "s"),
        f"{hj}.calls": (t.calls(hj), "count"),
        f"{hj}.improved_ratio": (_ratio(n(f"{hj}.improved"), t.calls(hj)), "ratio"),
        f"{hj}.stalled": (n(f"{hj}.stalled"), "count"),
        f"{pattern}.evals": (n(f"{pattern}.evals"), "count"),
        f"{pattern}.accept_ratio": (_ratio(n(f"{pattern}.accepted"), n(f"{pattern}.evals")), "ratio"),
        f"{evaluate}.self_s": (t.self_s(evaluate), "s"),
        f"{evaluate}.calls": (t.calls(evaluate), "count"),
        f"{evaluate}.infeasible_ratio": (_ratio(n(f"{evaluate}.infeasible"), t.calls(evaluate)), "ratio"),
        "benchmarks.fn.self_s": (t.self_s("benchmarks.fn"), "s"),
        "benchmarks.fn.calls": (t.calls("benchmarks.fn"), "count"),
        "hydraulic.fn.self_s": (t.self_s("hydraulic.fn"), "s"),
        "hydraulic.fn.calls": (t.calls("hydraulic.fn"), "count"),
        "control.run_single.self_s": (t.self_s("control.run_single"), "s"),
        "control.control_decision.self_s": (t.self_s("control.control_decision"), "s"),
        f"{apply}.self_s": (t.self_s(apply), "s"),
        f"{apply}.intensify": (n(f"{apply}.intensify"), "count"),
        f"{apply}.diversify": (n(f"{apply}.diversify"), "count"),
        f"{apply}.reduce_step": (n(f"{apply}.reduce_step"), "count"),
        "multithread.run_multi.self_s": (t.self_s("multithread.run_multi"), "s"),
        f"{collide}.self_s": (t.self_s(collide), "s"),
        f"{collide}.hits": (n(f"{collide}.hits"), "count"),
        "cli.run_experiment.self_s": (t.self_s("cli.run_experiment"), "s"),
        "trace.absent": (len(t.absent), "count"),
    }
