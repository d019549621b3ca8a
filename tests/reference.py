"""The whole search, stated plainly and slowly, for differential tests.

The engine (``tabukit``) screens, builds and evaluates the probes of all
the threads of a stage at once. This module states the same algorithm
one point at a time and shares no code with it: from ``tabukit`` it
imports only the problem definitions, and it reads a ``SearchConfig`` as
a plain record of settings. Every rule is written out again here:

- an axial probe is the whole base row with one coordinate moved by the
  step, clamped into the unit cube with ``np.clip``;
- the tabu test and the elite archive compare one entry at a time;
- the pattern move extends the whole move vector;
- intensify, diversify and reduce-step relocate a thread as written;
- the lockstep loop steps the live threads one after another, lets at
  most one thread restructure per stage (the token) and logs collisions.

Every point goes to the objective's scalar ``fn``. A run here must agree
with the engine's bit for bit.
"""
from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from tabukit.benchmarks import make_bump, make_schwefel10
from tabukit.core import MAXIMIZE
from tabukit.hydraulic import make_circuit

#: The built-in problems, by the names the tests use.
PROBLEMS = {
    "schwefel10": make_schwefel10,
    "bump20": lambda: make_bump(20),
    "bump50": lambda: make_bump(50),
    "circuit": make_circuit,
}

CONTINUE, INTENSIFY, DIVERSIFY, REDUCE_STEP = "continue", "intensify", "diversify", "reduce_step"
IMPROVED, NOT_IMPROVED, STALLED = "improved", "not_improved", "stalled"
STEP_FLOOR, EVAL_BUDGET = "step_floor", "eval_budget"

#: A step improves when it beats the thread's best by more than this.
IMPROVE_TOL = 1e-12


@dataclass
class Point:
    """A normalized point, its engine value (lower is better, +inf when
    infeasible) and the raw row that the objective saw."""

    x: np.ndarray
    value: float
    feasible: bool
    raw: np.ndarray


def denormalize(space, x):
    return np.clip(space.lower + x * (space.upper - space.lower), space.lower, space.upper)


def evaluate(objective, x):
    """One evaluation of the normalized point ``x``, through ``fn``."""
    x = np.array(x, dtype=float)
    raw = denormalize(objective.space, x)
    value, feasible = objective.fn(raw)
    if not feasible:
        return Point(x, math.inf, False, raw)
    value = float(value)
    return Point(x, -value if objective.sense == MAXIMIZE else value, True, raw)


class Tabu:
    """A thread's short-term memory: its last ``capacity`` accepted points."""

    def __init__(self, capacity, tol):
        self.entries = deque(maxlen=capacity)
        self.tol = tol

    def push(self, x):
        self.entries.append(x.copy())

    def is_tabu(self, x):
        """True when some entry lies within the tolerance of ``x`` in every coordinate."""
        for entry in self.entries:
            if np.abs(entry - x).max() <= self.tol:
                return True
        return False


class Archive:
    """The threads' shared elite archive: at most ``capacity`` points, best first."""

    def __init__(self, capacity, tol):
        self.capacity = capacity
        self.tol = tol
        self.points = []

    def offer(self, p):
        """Insert a feasible point that matches no archived one and beats
        the worst while the archive is full; True when inserted."""
        if not p.feasible:
            return False
        for q in self.points:
            if np.abs(q.x - p.x).max() <= self.tol:
                return False
        if len(self.points) == self.capacity and p.value >= self.points[-1].value:
            return False
        # After the entries of equal value.
        self.points.insert(bisect.bisect_right([q.value for q in self.points], p.value), p)
        del self.points[self.capacity :]
        return True

    def intensify(self):
        """The centroid of the archived points."""
        return np.clip(np.mean([q.x for q in self.points], axis=0), 0.0, 1.0)

    def diversify(self, rng):
        """Each coordinate copied from a random coordinate of a random
        archived point: the point drawn first, then the coordinate."""
        n = self.points[0].x.size
        out = np.empty(n)
        for j in range(n):
            r = int(rng.integers(len(self.points)))
            c = int(rng.integers(n))
            out[j] = self.points[r].x[c]
        return out


@dataclass
class Thread:
    thread_id: int
    base: Point
    #: Until a feasible point takes over, an infeasible copy of the start.
    best: Point
    step: float
    tabu: Tabu
    evals: int = 1
    fail_count: int = 0
    history: list = field(default_factory=list)

    def adopt(self, point, archive):
        """Move the base to ``point``: tabu it, archive it, track the best."""
        self.base = point
        self.tabu.push(point.x)
        archive.offer(point)
        if point.feasible and point.value < self.best.value:
            self.best = point
            self.history.append((self.evals, point.value))


def axial_probes(base, step, tabu):
    """The allowable axial neighbours of ``base``, by variable and the
    increment first, as ``(x, axis, sign)``; and how many were tabu."""
    probes, tabu_hits = [], 0
    for i in range(base.size):
        for sign in (1.0, -1.0):
            x = base.copy()
            x[i] += sign * step
            x = np.clip(x, 0.0, 1.0)
            if x[i] == base[i]:  # clamped back onto the base
                continue
            if tabu.is_tabu(x):
                tabu_hits += 1
                continue
            probes.append((x, i, sign))
    return probes, tabu_hits


def pattern_move(old, new, k):
    return np.clip(new + k * (new - old), 0.0, 1.0)


def hj_step(thread, objective, archive, k_pattern):
    """One exploration and pattern move; returns (outcome, evaluations).

    The best allowable neighbour becomes the move even when it is worse
    than the base (first on ties). Its pattern point, when it is new and
    not tabu, costs one evaluation and replaces the move when strictly
    better.
    """
    base = thread.base.x
    best_before = thread.best.value
    probes, _ = axial_probes(base, thread.step, thread.tabu)
    spent = len(probes)
    move = None
    for x, _, _ in probes:
        p = evaluate(objective, x)
        if p.feasible and (move is None or p.value < move.value):
            move = p
    if move is None:
        thread.evals += spent
        return STALLED, spent
    adopted = move
    p_x = pattern_move(base, move.x, k_pattern)
    if not np.array_equal(p_x, move.x) and not thread.tabu.is_tabu(p_x):
        pattern = evaluate(objective, p_x)
        spent += 1
        if pattern.feasible and pattern.value < move.value:
            adopted = pattern
    thread.evals += spent
    thread.adopt(adopted, archive)
    return (IMPROVED if adopted.value < best_before - IMPROVE_TOL else NOT_IMPROVED), spent


def decision(fail_count, config):
    """The restructure that ``fail_count`` consecutive failures ask for."""
    if fail_count == config.intensify_after:
        return INTENSIFY
    if fail_count == config.diversify_after:
        return DIVERSIFY
    if fail_count == config.reduce_after:
        return REDUCE_STEP
    return CONTINUE


def restructure(thread, action, archive, objective, rng, config):
    """Carry out ``action``; returns the evaluations it spent. Intensify
    from an empty archive does nothing; diversify from one draws a
    uniform random point."""
    if action == REDUCE_STEP:
        thread.step *= config.step_reduce_factor
        thread.base = thread.best
        thread.fail_count = 0
        return 0
    if action == INTENSIFY:
        if not archive.points:
            return 0
        x = archive.intensify()
    elif archive.points:
        x = archive.diversify(rng)
    else:
        x = rng.random(thread.base.x.size)
    thread.evals += 1
    thread.adopt(evaluate(objective, x), archive)
    return 1


@dataclass
class Report:
    thread_id: int
    best: Point
    best_raw: np.ndarray
    evals: int
    step_final: float
    history: list


@dataclass
class Run:
    best: Point
    best_raw: np.ndarray
    evals: int
    terminated_by: str
    history: list
    threads: list
    #: (total evaluations, base distance) of each collision.
    collisions: list
    stages: list


def lockstep(objective, config, starts, rngs, step_ends=None):
    """Run one thread per start, thread i drawing from ``rngs[i]``; a None
    start is a uniform random point. Appends the total after each thread
    step to ``step_ends``.

    Each stage steps every thread whose step is at or above the floor, in
    index order, while the total is below the budget. Then, of the threads
    that ask for a restructure, the one with the worst best goes (the
    lowest index on ties), and the others ask again at the next stage
    unless they improve first. Then every pair of bases within the
    tolerance in every coordinate is logged as a collision.
    """
    space = objective.space
    n = space.dimension
    if config.step_min is not None:
        floor = config.step_min
    else:
        floor = max((space.min_step / (space.upper - space.lower)).tolist())
    archive = Archive(config.m_elite, config.match_tol)
    threads = []
    for i, start in enumerate(starts):
        x = rngs[i].random(n) if start is None else np.clip(np.asarray(start, dtype=float), 0.0, 1.0)
        point = evaluate(objective, x)
        sentinel = Point(point.x, math.inf, False, point.raw)
        threads.append(Thread(i, point, sentinel, config.step_initial, Tabu(config.n_tabu, config.match_tol)))
    best, history = threads[0].best, []
    total = 0
    for thread in threads:
        total += 1
        thread.adopt(thread.base, archive)
        if thread.best.value < best.value:
            best = thread.best
            history.append((total, best.value))

    k = len(threads)
    pending = [None] * k
    stages, collisions = [], []
    terminated_by = EVAL_BUDGET
    while total < config.max_evals:
        live = [i for i in range(k) if threads[i].step >= floor]
        if not live:
            terminated_by = STEP_FLOOR
            break
        for i in live:
            if total >= config.max_evals:
                break
            thread = threads[i]
            outcome, spent = hj_step(thread, objective, archive, config.k_pattern)
            total += spent
            if step_ends is not None:
                step_ends.append(total)
            if outcome == IMPROVED:
                thread.fail_count = 0
                pending[i] = None
            else:
                thread.fail_count += 1
            if thread.best.value < best.value:
                best = thread.best
                history.append((total, best.value))
            request = pending[i] or decision(thread.fail_count, config)
            pending[i] = None if request == CONTINUE else request
        if total >= config.max_evals:
            break

        actions = [CONTINUE] * k
        performer = None
        for i in range(k):
            if pending[i] is not None and (performer is None or threads[i].best.value > threads[performer].best.value):
                performer = i
        if performer is not None:
            thread = threads[performer]
            actions[performer], pending[performer] = pending[performer], None
            total += restructure(thread, actions[performer], archive, objective, rngs[performer], config)
            if thread.best.value < best.value:
                best = thread.best
                history.append((total, best.value))
        stages.append(tuple(actions))
        for i in range(k):
            for j in range(i + 1, k):
                dist = float(np.abs(threads[i].base.x - threads[j].base.x).max())
                if dist <= config.match_tol:
                    collisions.append((total, dist))

    reports = [Report(t.thread_id, t.best, t.best.raw.copy(), t.evals, t.step, list(t.history)) for t in threads]
    return Run(best, best.raw.copy(), total, terminated_by, history, reports, collisions, stages)
