"""The mutation tool (``mutants.py``): its mutants are deterministic, each
one parses and differs from its source, no docstring is dropped, a key
stays put when another definition is deleted, its runner never works
inside the checkout, and its hypothesis profile never shrinks."""
import ast
import tempfile

import pytest
from hypothesis import Phase, settings

import mutants

SOURCE = '''"""A module."""


def f(x, y, n):
    """A function."""
    if x < y and -x in y[1:n]:
        return min(x, 2)
    return np.argmax(y)
'''


def docstrings(tree):
    return [ast.get_docstring(node) for node in ast.walk(tree) if isinstance(node, (ast.Module, ast.FunctionDef))]


@pytest.mark.parametrize(
    "source", [SOURCE, (mutants.ROOT / mutants.PACKAGE / "multithread.py").read_text()], ids=["small", "multithread"]
)
def test_every_mutant_parses_differs_and_keeps_the_docstrings(source):
    records = list(mutants.mutants("m", source))
    assert records == list(mutants.mutants("m", source))
    assert len({r["key"] for r in records}) == len(records)
    original = ast.parse(ast.unparse(ast.parse(source)))
    for r in records:
        tree = ast.parse(mutants.mutate(source, r["index"])[-1])
        assert ast.dump(tree) != ast.dump(original), r
        assert docstrings(tree) == docstrings(original), r


def test_small_source_gets_every_operator():
    ops = {}
    for r in mutants.mutants("m", SOURCE):
        ops.setdefault(r["op"], []).append(r["text"])
    assert ops.keys() == {"drop", "flip", "shift", "swap", "sign"}
    assert ops["flip"] == ["x < y -> x <= y", "-x in y[1:n] -> -x not in y[1:n]"]
    assert {"1:n -> 1:n + 1", "1:n -> 1:n - 1", "2 -> 3", "2 -> 1"} <= set(ops["shift"])
    assert {"min -> max", "np.argmax -> np.argmin"} <= set(ops["swap"])
    assert ops["sign"] == ["-x -> +x"]


def test_deleting_a_definition_renumbers_no_key_in_another():
    # f and g hold the same mutants "1 -> 2" and "1 -> 0"; numbered over the
    # whole module, g's keys would shift when f is deleted.
    f = "def f(s):\n    return s.split('x', 1)\n\n\n"
    g = "class G:\n    def g(self, s):\n        return s.split('#', 1)\n"

    def keys(source, first_line):
        return sorted((r["text"], r["key"]) for r in mutants.mutants("m", source) if r["line"] >= first_line)

    assert keys(f + g, 5) == keys(g, 1)


def test_runner_refuses_a_work_directory_inside_the_checkout(tmp_path, monkeypatch):
    for inside in (mutants.ROOT, mutants.ROOT / "tests"):
        with pytest.raises(ValueError, match="inside the checkout"):
            mutants.check_workdir(inside)
        monkeypatch.setenv("TMPDIR", str(inside))
        monkeypatch.setattr(tempfile, "tempdir", None)  # so that gettempdir reads TMPDIR again
        with pytest.raises(ValueError, match="inside the checkout"):
            mutants.main(["run", str(tmp_path / "out.json")])
    assert mutants.check_workdir(tmp_path) == tmp_path.resolve()
    assert not (tmp_path / "out.json").exists()


def test_profile_fails_at_the_first_failing_example():
    before = settings.default
    mutants.pytest_configure(None)
    try:
        assert Phase.generate in settings.default.phases and Phase.shrink not in settings.default.phases
    finally:
        settings.register_profile("before", before)
        settings.load_profile("before")


def test_recheck_keeps_a_kill_only_while_nothing_it_read_changed():
    records = list(mutants.mutants("m", SOURCE))
    survivor = {**records[0], "status": "survived", "killer": None}
    unnamed = {**records[1], "status": "killed", "killer": None}  # pytest stopped before any test
    killed = [{**r, "status": "killed", "killer": "tests/test_m.py::test_f"} for r in records[2:]]
    old = {"context": "c", "tests": {"test_m.py": "h", "test_n.py": "h"}, "mutants": [survivor, unnamed, *killed]}

    def plan(context, tests):
        kept, work = mutants._plan(old, {"m": SOURCE}, context, tests)
        return [r["index"] for r in kept], [(r["index"], files) for r, files in work]

    everything = [r["index"] for r in records]
    assert plan("c", old["tests"]) == (everything, [])
    # Another test file changed: the survivor runs against that file, the
    # kill without a killer against the whole suite.
    assert plan("c", {**old["tests"], "test_n.py": "x"}) == (everything[2:], [(0, ["tests/test_n.py"]), (1, None)])
    # The killer's file changed or is gone: its kills run the whole suite.
    rerun = [(i, None) for i in everything[1:]]
    assert plan("c", {**old["tests"], "test_m.py": "x"}) == ([], [(0, ["tests/test_m.py"])] + rerun)
    assert plan("c", {"test_n.py": "h"}) == ([0], rerun)
    # A module, perfbench/, pyproject.toml or a helper changed: everything runs.
    assert plan("d", old["tests"]) == ([], [(i, None) for i in everything])
