"""Unsupervised morphological paradigm completion.

Given a raw tokenized corpus and a list of lemmas, the pipeline learns
surface changes (edit trees), groups them into paradigm slots by
distributional context, and generates a full inflection table per
lemma.  Includes a best-match evaluator and reference baselines.
"""

import importlib

from .bootstrap import (
    BootstrapResult,
    bootstrap,
    discover_new_lemmas,
    min_discovery_evidence,
)
from .config import MODES, Config, build_config, parse_config_file
from .corpus_io import (
    Corpus,
    Vocabulary,
    load_corpus,
    load_gold,
    load_lexicon,
    read_predictions,
    write_predictions,
)
from .discovery import (
    TreeCensus,
    find_candidates,
    min_tree_support,
    retain_frequent_trees,
)
from .edit_tree import (
    IDENTITY,
    EditTree,
    Match,
    Replace,
    apply,
    construct,
    longest_common_substring,
    to_sexpr,
)
from .evaluation import (
    DEFAULT_BASELINE_SLOTS,
    BmaccResult,
    best_match,
    best_match_accuracy,
    lemma_baseline,
    merge_syncretic_slots,
)
from .inflection import (
    RuleTable,
    SlotRules,
    dump_rules,
    extract_affix_rules,
    inflect,
)
from .lexicon import LexiconEntry, WeightedLexicon
from .pipeline import PipelineResult, StageError, build_report, run_pipeline

#: Exports from the modules that load numpy, and the generator of synthetic
#: languages, each imported the first time it is accessed.
_LAZY = {
    **dict.fromkeys(
        ("MergeEvent", "SlotState", "context_counts", "group_surface_changes"),
        "slot_clustering",
    ),
    **dict.fromkeys(("SyntheticLanguage", "generate_language"), "synth"),
    **dict.fromkeys(
        ("HmmModel", "anchor_start", "load_model", "save_model", "tag_corpus",
         "train_hmm", "write_tagged"),
        "tagger",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
