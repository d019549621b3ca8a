"""Mutation check of ``src/tabukit``: which faults does the suite catch?

A mutant changes one spot of one module: a comparison flipped, an int
constant or a slice bound shifted by one, ``min``/``max``,
``argmin``/``argmax`` or ``minimum``/``maximum`` swapped, a statement
that is not a docstring, a definition or an import dropped, or a sign
negated. Each mutant runs in a temporary copy of ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` under the system's temporary
directory (``TMPDIR``), never in the checkout, under ``pytest -x`` with
hypothesis seeded, its example database off, no deadline and no
shrinking (a property fails at its first failing example): the mutated
module's test file first, then ``test_corpus.py``, then the rest of
``tests/``. One worker runs per CPU. A test that runs longer than the
alarm marks the mutant hung.

    python tests/mutants.py run OUT
    python tests/mutants.py recheck OUT

``run`` writes each mutant's module, line, operator, status (killed,
survived or hung) and first failing test id to OUT as JSON. ``recheck``
reads OUT and reruns only what may have changed, because an unchanged
test under a fixed seed kills the same mutant. If anything a run reads
besides the test files changed (a module of ``src/tabukit``, a file of
``perfbench/``, ``pyproject.toml``, or a helper or data file in
``tests/``), every mutant runs again. Otherwise a killed or hung mutant
reruns only if its first killer is gone or sits in a test file that
changed, one with no killer (pytest stopped before any test) only if
any test file changed, and a survivor reruns only against the test
files that changed. It rewrites OUT, names every mutant caught before
that survives now, and then exits 1.
"""
import argparse
import ast
import hashlib
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "tabukit")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SWAPS = {"min": "max", "max": "min", "argmin": "argmax", "argmax": "argmin", "minimum": "maximum", "maximum": "minimum"}
#: Statements never dropped: without a definition or an import the module
#: only fails to import, and without ``pass`` nothing changes.
KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)
#: The test file run first for a module without a ``test_<module>.py``.
FIRST = {"__init__": "test_api.py"}
#: Seconds one test may run before its mutant counts as hung (the slowest
#: test takes about 2.5 s on a loaded 2-CPU host), and one mutant's whole run.
ALARM, TIMEOUT = 10, 300


def _is_docstring(stmt):
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _sites(tree):
    """(node, operator, change) of every spot to mutate, in a fixed order.
    ``change()`` mutates the tree in place."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            for i, stmt in enumerate(body if isinstance(body, list) else ()):
                if not isinstance(stmt, KEPT) and not (i == 0 and field == "body" and _is_docstring(stmt)):
                    yield stmt, "drop", lambda body=body, i=i: body.__setitem__(i, ast.Pass())
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                yield node, "flip", lambda node=node, i=i, op=op: node.ops.__setitem__(i, FLIPS[type(op)]())
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                yield node, "shift", lambda node=node, delta=delta: setattr(node, "value", node.value + delta)
        elif isinstance(node, ast.Slice):
            for bound in ("lower", "upper"):
                value = getattr(node, bound)
                if value is not None and not isinstance(value, ast.Constant):
                    for op in (ast.Add, ast.Sub):
                        shifted = ast.BinOp(value, op(), ast.Constant(1))
                        yield node, "shift", lambda node=node, bound=bound, shifted=shifted: setattr(node, bound, shifted)
        elif isinstance(node, ast.Name) and node.id in ("min", "max") or isinstance(node, ast.Attribute) and node.attr in SWAPS:
            field = "id" if isinstance(node, ast.Name) else "attr"
            yield node, "swap", lambda node=node, field=field: setattr(node, field, SWAPS[getattr(node, field)])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, "sign", lambda node=node: setattr(node, "op", ast.UAdd())


def mutate(source, index):
    """The mutant ``index`` of ``source``: (line, operator, before, after, mutated source)."""
    tree = ast.parse(source)
    for i, (node, op, change) in enumerate(_sites(tree)):
        if i == index:
            before = ast.unparse(node)
            change()
            return node.lineno, op, before, "pass" if op == "drop" else ast.unparse(node), ast.unparse(tree)
    raise IndexError(index)


def _scopes(tree):
    """Each node's innermost enclosing definition, as a dotted name
    (``""`` at module level)."""
    scopes = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            scopes[child] = scope
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if defines else scope)

    visit(tree, "")
    return scopes


def mutants(module, source):
    """Every mutant of ``source`` as a record without a status. Its key
    names it by its enclosing definition, operator and text, and numbers
    repeats within that definition only, so that it survives edits
    elsewhere in the module."""
    tree = ast.parse(source)
    scopes = _scopes(tree)
    seen = {}
    for index, (node, _, _) in enumerate(_sites(tree)):
        line, op, before, after, _ = mutate(source, index)
        digest = hashlib.sha1(f"{scopes[node]}\0{op}\0{before}\0{after}".encode()).hexdigest()[:12]
        seen[digest] = seen.get(digest, -1) + 1
        text = f"{before.splitlines()[0]} -> {after}" if op == "drop" else f"{before} -> {after}"
        yield {"module": module, "index": index, "key": f"{digest}.{seen[digest]}", "line": line, "op": op, "text": text[:160]}


def _sha(*texts):
    return hashlib.sha1("\0".join(texts).encode()).hexdigest()[:16]


def fingerprint(root=ROOT):
    """(context, tests): one hash of what a run reads besides the test
    files (``src/tabukit``, ``perfbench/``, ``pyproject.toml`` and the
    helpers and data in ``tests/``, this tool aside), and a hash of each
    ``tests/test_*.py``."""
    tests = root / "tests"
    shared = [*sorted((root / PACKAGE).iterdir()), *sorted((root / "perfbench").iterdir()), root / "pyproject.toml"]
    shared += [p for p in sorted(tests.iterdir()) if not p.name.startswith("test_") and p.name != "mutants.py"]
    context = _sha(*(f"{p.relative_to(root)}\0{p.read_text()}" for p in shared if p.is_file() and p.suffix != ".pyc"))
    return context, {p.name: _sha(p.read_text()) for p in sorted(tests.glob("test_*.py"))}


def check_workdir(workdir):
    """``workdir`` resolved; a directory inside the checkout is refused."""
    workdir = Path(workdir).resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        raise ValueError(f"work directory {workdir} lies inside the checkout {ROOT}")
    return workdir


# The pytest plugin that each mutant's run loads as ``-p mutants``.
class Hung(BaseException):
    """A test ran longer than the alarm."""


def pytest_configure(config):
    from hypothesis import Phase, settings

    # Shrinking a failing example changes no status, but it can run past the alarm.
    settings.register_profile("mutants", database=None, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    settings.load_profile("mutants")


def _report(killer, hung=False):
    """Write the first failure to ``MUTANTS_REPORT``; later ones are ignored."""
    path = Path(os.environ["MUTANTS_REPORT"])
    if not path.exists():
        path.write_text(json.dumps({"killer": killer, "hung": hung}))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def alarm(signum, frame):
        _report(item.nodeid, hung=True)
        raise Hung(f"over {os.environ['MUTANTS_ALARM']} s")

    signal.signal(signal.SIGALRM, alarm)
    signal.alarm(int(os.environ["MUTANTS_ALARM"]))
    try:
        return (yield)
    finally:
        signal.alarm(0)


def pytest_runtest_logreport(report):
    if report.failed:
        _report(report.nodeid)


pytest_collectreport = pytest_runtest_logreport


# The runner.
def _pytest(copy, module, files):
    """Run ``files`` (all of ``tests/`` when None) in ``copy``: (status, killer)."""
    report = copy / "report.json"
    report.unlink(missing_ok=True)
    if files is None:
        first = [FIRST.get(module, f"test_{module}.py"), "test_corpus.py"]
        rest = sorted(p.name for p in (copy / "tests").glob("test_*.py"))
        files = [f"tests/{name}" for name in dict.fromkeys(first + rest) if name in rest]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy / "tests")]),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        MUTANTS_ALARM=str(ALARM),
        MUTANTS_REPORT=str(report),
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", "mutants", "--hypothesis-seed=0"]
    try:
        code = subprocess.run(command + files, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return "hung", None
    found = json.loads(report.read_text()) if report.exists() else {"killer": None, "hung": False}
    if code == 0:
        return "survived", None
    return ("hung" if found["hung"] else "killed"), found["killer"]


def _execute(work, sources, workdir):
    """Run each (record, files) of ``work`` on its mutant, one worker per
    CPU; yield each record with its status, killer and seconds."""
    copies = queue.SimpleQueue()
    made = []
    for _ in range(max(1, min(os.cpu_count() or 1, len(work)))):
        copy = Path(tempfile.mkdtemp(prefix="mutants-", dir=workdir))
        made.append(copy)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(ROOT / name, copy / name)
        copies.put(copy)

    def one(item):
        record, files = item
        copy = copies.get()
        target = copy / PACKAGE / f"{record['module']}.py"
        start = time.monotonic()
        try:
            if record["index"] is not None:
                target.write_text(mutate(sources[record["module"]], record["index"])[-1])
            status, killer = _pytest(copy, record["module"], files)
        finally:
            target.write_text(sources[record["module"]])
            copies.put(copy)
        return {**record, "status": status, "killer": killer, "seconds": round(time.monotonic() - start, 1)}

    try:
        with ThreadPoolExecutor(copies.qsize()) as pool:
            yield from pool.map(one, work)
    finally:
        for copy in made:
            shutil.rmtree(copy, ignore_errors=True)


def _plan(old, sources, context, tests):
    """(kept records, work) of a recheck of the record ``old``; none kept if the context changed."""
    previous = {(m["module"], m["key"]): m for m in old["mutants"]} if old["context"] == context else {}
    changed = [name for name, h in tests.items() if old["tests"].get(name) != h]
    same_tests = old["tests"] == tests
    kept, work = [], []
    for module, source in sources.items():
        for mutant in mutants(module, source):
            before = previous.get((module, mutant["key"]))
            killer = before and before["killer"] and Path(before["killer"].split("::")[0]).name
            if before and before["status"] == "survived":
                if changed:
                    work.append((mutant, [f"tests/{name}" for name in changed]))
                else:
                    kept.append({**before, **mutant})
            elif before and (killer in tests and killer not in changed if killer else same_tests):
                kept.append({**before, **mutant})
            else:
                work.append((mutant, None))
    return kept, work


def _write(path, record):
    """Write ``record`` as JSON with one mutant a line, so that a diff shows which moved."""
    mutants = ",\n".join(json.dumps(m) for m in record["mutants"])
    head = f'{{"context": {json.dumps(record["context"])},\n"tests": {json.dumps(record["tests"])},\n'
    path.write_text(f'{head}"mutants": [\n{mutants}\n]}}\n')


def summary(records):
    """Per module: killed, survived and hung counts."""
    counts = {}
    for m in records:
        counts.setdefault(m["module"], {"killed": 0, "survived": 0, "hung": 0})[m["status"]] += 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=["run", "recheck"])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    workdir = check_workdir(tempfile.gettempdir())

    sources = {p.stem: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    context, tests = fingerprint()
    old = {"context": None, "tests": {}, "mutants": []}
    if args.command == "recheck":
        old = {**old, **json.loads(args.out.read_text())}
    kept, work = _plan(old, sources, context, tests)
    # The unmutated suite must pass in the copy, or no status means anything.
    baseline = next(_execute([({"module": "__init__", "index": None}, None)], sources, workdir))
    if baseline["status"] != "survived":
        raise SystemExit(f"the unmutated suite fails in the copy: {baseline['killer']}")
    print(f"{len(kept)} mutants kept from {args.out}, {len(work)} to run", flush=True)

    caught = {(m["module"], m["key"]) for m in old["mutants"] if m["status"] != "survived"}
    record = {"context": context, "tests": tests, "mutants": kept}
    lost = []
    for done, result in enumerate(_execute(work, sources, workdir), 1):
        record["mutants"].append(result)
        if result["status"] == "survived" and (result["module"], result["key"]) in caught:
            lost.append(result)
        print(f"[{done}/{len(work)}] {result['module']}:{result['line']} {result['op']} {result['status']} {result['killer'] or ''}", flush=True)
        if done % 20 == 0 or done == len(work):
            _write(args.out, record)
    record["mutants"].sort(key=lambda m: (m["module"], m["index"]))
    _write(args.out, record)
    for module, counts in summary(record["mutants"]).items():
        print(module, counts)
    for m in lost:
        print(f"LOST {m['module']}:{m['line']} {m['op']} {m['text']}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
