"""Every seeded run of the digest corpus (``corpus.py``) keeps its digest.

The corpus pins the trajectories at K = 1 to 4 and over three configs,
where the golden traces and the workload digests pin only a few runs.
"""
from tabukit.control import EVAL_BUDGET, STEP_FLOOR

import corpus


def test_every_corpus_run_keeps_its_digest():
    want = corpus.load()
    got, endings = {}, set()
    for key, result in corpus.runs():
        got[key] = corpus.digest(result)
        endings.add(result.terminated_by)
    assert list(got) == list(want), "the corpus runs changed; regenerate with python tests/corpus.py --write"
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} runs moved, the first {moved[0]}: {want[moved[0]]} -> {got[moved[0]]}"
    assert endings == {EVAL_BUDGET, STEP_FLOOR}
