"""The package's public names: each resolves, and the deleted one-thread
helpers stay deleted."""
import pytest

import tabukit
from tabukit import control, core
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
]


@pytest.mark.parametrize("name", tabukit.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(tabukit, name) is not None


@pytest.mark.parametrize("owner, name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_helper_stays_deleted(owner, name):
    assert not hasattr(owner, name)
    assert name not in tabukit.__all__
    assert not hasattr(tabukit, name)
