"""What a run loads: numpy and the tagger stages only for the modes that tag.

``import paracomp`` leaves the tagger, slot clustering and the synthetic
language generator unloaded; the package and ``paracomp.pipeline``
import them the first time one of their names is used.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import paracomp
from paracomp import pipeline
from paracomp.config import Config
from paracomp.synth import generate_language

SRC = os.path.dirname(os.path.dirname(os.path.abspath(paracomp.__file__)))

#: What ``paracomp/__init__.py`` exported before its tagger, clustering and
#: synth names became lazy, by defining module.
EXPORTS = {
    "bootstrap": ["BootstrapResult", "bootstrap", "discover_new_lemmas",
                  "min_discovery_evidence"],
    "config": ["MODES", "Config", "build_config", "parse_config_file"],
    "corpus_io": ["Corpus", "Vocabulary", "load_corpus", "load_gold",
                  "load_lexicon", "read_predictions", "write_predictions"],
    "discovery": ["TreeCensus", "find_candidates", "min_tree_support",
                  "retain_frequent_trees"],
    "edit_tree": ["IDENTITY", "EditTree", "Match", "Replace", "apply",
                  "construct", "longest_common_substring", "to_sexpr"],
    "evaluation": ["DEFAULT_BASELINE_SLOTS", "BmaccResult", "best_match",
                   "best_match_accuracy", "lemma_baseline",
                   "merge_syncretic_slots"],
    "inflection": ["RuleTable", "SlotRules", "dump_rules",
                   "extract_affix_rules", "inflect"],
    "lexicon": ["LexiconEntry", "WeightedLexicon"],
    "pipeline": ["PipelineResult", "StageError", "build_report", "run_pipeline"],
    "slot_clustering": ["MergeEvent", "SlotState", "context_counts",
                        "group_surface_changes"],
    "synth": ["SyntheticLanguage", "generate_language"],
    "tagger": ["HmmModel", "anchor_start", "load_model", "save_model",
               "tag_corpus", "train_hmm", "write_tagged"],
}

#: Loaded only by the modes that tag.
HEAVY = ["numpy", "paracomp.slot_clustering", "paracomp.synth", "paracomp.tagger"]

LOADS_SCRIPT = """
import contextlib, io, json, sys
corpus, lemmas, gold, out_dir, result_path = sys.argv[1:6]
loaded = {}
def note(step):
    loaded[step] = sorted(m for m in %r if m in sys.modules)
import paracomp
note("import paracomp")
import paracomp.cli
note("import paracomp.cli")
runs = [
    ["run", "--mode", mode, "--corpus", corpus, "--lemmas", lemmas, "--gold", gold,
     "--out", f"{out_dir}/{mode}.tsv"]
    for mode in ("pcs-i", "pcs-ii-a", "pcs-ii-b", "lb", "conll17-k")
]
runs.append(["eval", "--gold", gold, "--predictions", f"{out_dir}/pcs-i.tsv"])
runs.append(["run", "--mode", "pcs-ii+iii", "--corpus", corpus, "--lemmas", lemmas])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = paracomp.cli.main(argv)
    assert code == 0, argv
    note(" ".join(argv[:3]) if argv[0] == "run" else "eval")
with open(result_path, "w") as handle:
    json.dump(loaded, handle)
""" % (HEAVY,)

EXPORTS_SCRIPT = """
import importlib, json, sys
exports = json.loads(sys.argv[1])
failures = []
import paracomp
listed = set(dir(paracomp))
for module, names in exports.items():
    for name in names:
        defined = getattr(importlib.import_module("paracomp." + module), name)
        namespace = {}
        exec(f"from paracomp import {name}", namespace)
        if getattr(paracomp, name) is not defined or namespace[name] is not defined:
            failures.append(f"{name} is not paracomp.{module}.{name}")
        if name not in listed:
            failures.append(f"{name} missing from dir(paracomp)")
print(json.dumps(failures))
"""


def fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


@pytest.fixture(scope="module")
def lang_paths(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("lang")
    lang = generate_language(slots=3, lemmas=8, classes=2, tokens=2500, seed=3)
    return lang.write(str(out_dir))


def test_modes_without_a_tagger_never_load_numpy(lang_paths, tmp_path):
    result_path = tmp_path / "loaded.json"
    fresh_python("-c", LOADS_SCRIPT, *lang_paths, str(tmp_path), str(result_path))
    loaded = json.loads(result_path.read_text())
    steps = [
        "import paracomp", "import paracomp.cli",
        "run --mode pcs-i", "run --mode pcs-ii-a", "run --mode pcs-ii-b",
        "run --mode lb", "run --mode conll17-k", "eval",
    ]
    assert {step: loaded[step] for step in steps} == dict.fromkeys(steps, [])
    assert loaded["run --mode pcs-ii+iii"] == [
        "numpy", "paracomp.slot_clustering", "paracomp.tagger",
    ]


def test_every_export_resolves_to_its_defining_object():
    out = fresh_python("-c", EXPORTS_SCRIPT, json.dumps(EXPORTS))
    assert json.loads(out.stdout) == []


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        paracomp.no_such_name
    with pytest.raises(ImportError):
        from paracomp import no_such_name  # noqa: F401
    with pytest.raises(AttributeError, match="no_such_name"):
        pipeline.no_such_name


@pytest.mark.parametrize("name", ["train_hmm", "tag_corpus", "group_surface_changes"])
def test_run_calls_a_function_bound_on_the_pipeline_module(
    name, lang_paths, monkeypatch
):
    # As a tracer does: look the name up on paracomp.pipeline, which may
    # import it first, and bind a wrapper there before the run.
    monkeypatch.delitem(vars(pipeline), name, raising=False)
    original = getattr(pipeline, name)
    assert original is getattr(importlib.import_module(
        "paracomp." + pipeline._LAZY[name]), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, spy)
    corpus, lemmas, _ = lang_paths
    pipeline.run_pipeline(
        Config(mode="pcs-ii+iii"), corpus_path=corpus, lexicon_path=lemmas
    )
    assert calls == [name]
