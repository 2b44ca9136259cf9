"""Unsupervised morphological paradigm completion.

Given a raw tokenized corpus and a list of lemmas, the pipeline learns
surface changes (edit trees), groups them into paradigm slots by
distributional context, and generates a full inflection table per
lemma.  Includes a best-match evaluator and reference baselines.
"""

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
from .slot_clustering import (
    MergeEvent,
    SlotState,
    context_counts,
    extract_slot_features,
    group_surface_changes,
    slot_similarity,
    window_index,
)
from .synth import SyntheticLanguage, generate_language
from .tagger import (
    HmmModel,
    load_model,
    save_model,
    tag_corpus,
    train_hmm,
    write_tagged,
)

__version__ = "0.1.0"
