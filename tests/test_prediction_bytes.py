"""Byte gate: the benchmark workloads' outputs, pinned in a committed JSON.

For each benchmark workload (inputs from ``perfbench/workloads.py``) at
seeds 1 and 7, ``prediction_bytes.json`` records the sha256 of the
written predictions, the retained trees as ``to_sexpr``, the discovered
lemmas with their round, and the merge log (kept, absorbed,
``score.hex()``).  A change that moves any of these bytes fails here and
has to say which bytes moved and why.  The predictions must also keep
their sha256 when the lines of the lemma file or of the corpus are
shuffled: row order is not an input.

Regenerating the JSON is a deliberate step, taken only when a change is
meant to alter output bytes::

    PYTHONPATH=src python tests/test_prediction_bytes.py --write

and the regenerated file is committed with the change that explains it.
"""

import hashlib
import json
import os
import random
import sys
import tempfile

import pytest

from paracomp.config import Config
from paracomp.edit_tree import to_sexpr
from paracomp.pipeline import run_pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "prediction_bytes.json")
SEEDS = (1, 7)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, write_workload  # noqa: E402


def shuffle_lines(path: str, seed: int) -> None:
    """Rewrite a file with its lines in a seeded random order."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    shuffled = list(lines)
    random.Random(seed).shuffle(shuffled)
    assert shuffled != lines
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(shuffled) + "\n")


def record(name: str, seed: int, shuffled: str | None = None) -> dict:
    """Run one workload's pipeline call and describe its output bytes.

    ``shuffled`` names an input ("lemmas" or "corpus") whose lines are
    shuffled before the run.
    """
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_workload(workload, seed, tmp)["paths"]
        if shuffled is not None:
            shuffle_lines(paths[shuffled], seed)
        out = os.path.join(tmp, "predictions.tsv")
        result = run_pipeline(Config(mode=workload.mode), paths["corpus"],
                              paths["lemmas"], paths["gold"], out)
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return {
        "predictions_sha256": digest,
        "trees": [to_sexpr(tree) for tree in result.trees],
        "discovered": [[entry.lemma, entry.iteration]
                       for entry in result.lexicon if entry.iteration > 0],
        "merges": [[event.kept, event.absorbed, event.score.hex()]
                   for event in result.merge_log],
    }


def _cases():
    return [(name, seed) for name in sorted(WORKLOADS) for seed in SEEDS]


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_workload_and_seed():
    assert sorted(_golden()) == sorted(f"{n}:{s}" for n, s in _cases())


@pytest.mark.parametrize("name,seed", _cases())
def test_outputs_match_committed_bytes(name, seed):
    assert record(name, seed) == _golden()[f"{name}:{seed}"]


@pytest.mark.parametrize("shuffled", ["lemmas", "corpus"])
@pytest.mark.parametrize("name,seed", _cases())
def test_row_order_does_not_change_predictions(name, seed, shuffled):
    got = record(name, seed, shuffled)["predictions_sha256"]
    assert got == _golden()[f"{name}:{seed}"]["predictions_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    golden = {f"{n}:{s}": record(n, s) for n, s in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, ensure_ascii=False, indent=1, sort_keys=True)
        handle.write("\n")
