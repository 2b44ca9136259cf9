"""Byte gate: the benchmark workloads' outputs, pinned in a committed JSON.

For each benchmark workload (inputs from ``perfbench/workloads.py``) at
seeds 1 and 7, ``prediction_bytes.json`` records the sha256 of the
written predictions, the retained trees as ``to_sexpr``, the discovered
lemmas with their round, the merge log (kept, absorbed,
``score.hex()``), and the macro and micro scores with the macro matching
(gold slot, predicted slot, ``accuracy.hex()``).  A change that moves
any of these bytes fails here and has to say which bytes moved and why.
The predictions must also keep their sha256 when the lines of the lemma
file or of the corpus are shuffled: row order is not an input.  Two more
invariants are checked on the same inputs: ``paracomp run`` writes the
same bytes under two string-hash seeds, and relabelling the alphabet
relabels the predictions.

Regenerating the JSON is a deliberate step, taken only when a change is
meant to alter output bytes::

    PYTHONPATH=src python tests/test_prediction_bytes.py --write

and the regenerated file is committed with the change that explains it.
"""

import hashlib
import json
import os
import random
import subprocess
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

from workloads import WORKLOADS, build_language, write_workload  # noqa: E402


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
        "macro": result.scores.macro.hex(),
        "micro": result.scores.micro.hex(),
        "pairs": [[gold, pred, accuracy.hex()]
                  for gold, pred, accuracy in result.scores.pairs],
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


@pytest.mark.parametrize("name,seed,mode", [
    pytest.param(name, 1, None, id=f"{name}-1") for name in sorted(WORKLOADS)
] + [
    pytest.param("sparse-seed", 1, mode, id=f"sparse-seed-1-{mode}")
    for mode in ("pcs-i", "pcs-ii-a", "pcs-iii", "lb", "conll17-k")
])
def test_predictions_match_across_processes_and_hash_seeds(
    tmp_path, name, seed, mode
):
    # The determinism contract across processes: ``paracomp run`` under
    # two string-hash seeds writes the same bytes both times, and in the
    # workload's own mode (``mode`` None) the committed bytes.
    workload = WORKLOADS[name]
    paths = write_workload(workload, seed, str(tmp_path))["paths"]
    src = os.path.join(ROOT, "src")
    digests = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"predictions-{hash_seed}.tsv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "paracomp.cli", "run",
             "--mode", mode or workload.mode,
             "--corpus", paths["corpus"], "--lemmas", paths["lemmas"],
             "--gold", paths["gold"], "--out", str(out)],
            env=env, capture_output=True, check=True, timeout=300,
        )
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    if mode is None:
        assert digests[0] == _golden()[f"{name}:{seed}"]["predictions_sha256"]


def test_tagger_seed_does_not_change_predictions(tmp_path):
    # The tagger starts from anchor words, not from the seeded Dirichlet
    # draws, so on a workload with anchors the seed moves no output.
    paths = write_workload(WORKLOADS["short-sentences"], 1, str(tmp_path))["paths"]
    digests = set()
    for seed in range(4):
        out = tmp_path / f"predictions-{seed}.tsv"
        run_pipeline(Config(mode="pcs-ii+iii", seed=seed), paths["corpus"],
                     paths["lemmas"], paths["gold"], str(out))
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == {_golden()["short-sentences:1"]["predictions_sha256"]}


def test_zipfian_fillers_keep_short_sentences_recovered(tmp_path):
    # Noise: about 1.5 filler tokens per sentence, drawn from 300 types
    # with Zipfian weights, inserted at random places.
    lang = build_language(WORKLOADS["short-sentences"], 1)
    rng = random.Random(20261020)
    fillers = [f"f{rank:03d}" for rank in range(300)]
    weights = [1 / rank for rank in range(1, 301)]
    for sentence in lang.sentences:
        for _ in range(rng.choice((1, 2))):
            sentence.insert(rng.randint(0, len(sentence)),
                            rng.choices(fillers, weights)[0])
    corpus, lemmas, gold = lang.write(str(tmp_path))
    result = run_pipeline(Config(mode="pcs-ii+iii"), corpus, lemmas, gold)
    assert result.scores.macro == 1.0


#: An order-preserving, caseless relabelling of a-z onto Hiragana.
KANA = str.maketrans({chr(ord("a") + i): chr(0x3041 + i) for i in range(26)})


@pytest.mark.parametrize("mode", [
    "pcs-i", "pcs-ii-a", "pcs-ii-b", "pcs-iii", "pcs-ii+iii", "lb", "conll17-k",
])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_relabelled_alphabet_gives_relabelled_predictions(tmp_path, name, mode):
    # Relabelling is a metamorphic check: no stage may depend on which
    # letters spell the words, only on their order and identity, and
    # the kana send non-ASCII text through every stage.
    paths = write_workload(WORKLOADS[name], 1, str(tmp_path))["paths"]
    kana = {}
    for key, path in paths.items():
        kana[key] = str(tmp_path / f"kana-{key}")
        with open(path, encoding="utf-8") as src, \
                open(kana[key], "w", encoding="utf-8", newline="\n") as dst:
            dst.write(src.read().translate(KANA))
    runs = []
    for inputs in (paths, kana):
        out = str(tmp_path / "predictions.tsv")
        result = run_pipeline(Config(mode=mode), inputs["corpus"],
                              inputs["lemmas"], inputs["gold"], out)
        with open(out, encoding="utf-8") as handle:
            runs.append((handle.read(), result.scores.macro))
    (plain, plain_macro), (relabelled, relabelled_macro) = runs
    assert relabelled == plain.translate(KANA)
    assert relabelled_macro == plain_macro


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    golden = {f"{n}:{s}": record(n, s) for n, s in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, ensure_ascii=False, indent=1, sort_keys=True)
        handle.write("\n")
