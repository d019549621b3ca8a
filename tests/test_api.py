"""The package's public names: each resolves, the engine's parts are
imported from their own modules, and the deleted one-thread helpers stay
deleted. No engine function takes a thread's state beside the thread."""
import inspect

import pytest

import tabukit
from tabukit import control, core, hillclimb, memory, multithread
from tabukit.hillclimb import MoveSet
from tabukit.memory import TabuList

#: Helpers that only tests used; ``tests/reference.py`` states their rules now.
DELETED = [
    (core, "evaluate_block"),
    (control, "fresh_state"),
    (TabuList, "screen"),
    (TabuList, "entries"),
    (MoveSet, "x"),
    (MoveSet, "sign"),
    (hillclimb, "pattern_move"),
    (control, "ThreadState"),
    (control, "Stack"),
    (control, "fresh_states"),
    (core, "_evaluate_fn"),
    (multithread, "thread_rngs"),
]


@pytest.mark.parametrize("name", tabukit.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(tabukit, name) is not None


#: Engine parts that the package does not export, with their modules.
ENGINE = [
    (hillclimb, "IMPROVED"),
    (hillclimb, "NOT_IMPROVED"),
    (hillclimb, "STALLED"),
    (hillclimb, "explore"),
    (hillclimb, "hj_step"),
    (control, "Threads"),
    (control, "apply_action"),
    (control, "control_decision"),
    (control, "detect_collision"),
    (core, "clamp"),
    (memory, "TabuList"),
    (memory, "IntermediateMemory"),
]


def test_engine_parts_are_imported_from_their_modules():
    assert [name for _, name in ENGINE if name in tabukit.__all__ or hasattr(tabukit, name)] == []
    assert [name for module, name in ENGINE if not hasattr(module, name)] == []


@pytest.mark.parametrize("owner, name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_helper_stays_deleted(owner, name):
    assert not hasattr(owner, name)
    assert name not in tabukit.__all__
    assert not hasattr(tabukit, name)


#: Parameter names for what the thread table holds itself (its ``memory`` and
#: a thread's ``rng``) and for the generator factory that runs no longer take.
THREAD_STATE = {"memory", "shared", "rng", "seed_rngs"}


def defined_functions(module):
    """(name, function) of each function that ``module`` defines, and of
    each method of the classes that it defines but their constructors:
    ``Threads``'s takes the state that the table then holds."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            methods = vars(value).items()
            yield from ((f"{name}.{attr}", f) for attr, f in methods if inspect.isfunction(f) and attr != "__init__")


@pytest.mark.parametrize("module", [control, hillclimb], ids=lambda module: module.__name__)
def test_no_function_takes_thread_state_as_a_parameter(module):
    functions = dict(defined_functions(module))
    assert {"hj_stage", "apply_action", "Threads.adopt"} & functions.keys()
    taking = {
        f"{name}({parameter})"
        for name, fn in functions.items()
        for parameter in inspect.signature(fn).parameters
        if parameter in THREAD_STATE
    }
    assert taking == set()
