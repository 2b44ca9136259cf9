"""End-to-end runs: load inputs, run the requested stages, write outputs.

Modes
-----
pcs-i       discovery only; each retained tree becomes one slot
pcs-ii-a    discovery plus one lemma-retrieval round
pcs-ii-b    discovery plus two lemma-retrieval rounds
pcs-iii     discovery, tagging, slot clustering, rule-based generation
pcs-ii+iii  the full pipeline (bootstrap_rounds controls retrieval)
lb          copy-the-lemma baseline over a fixed slot count
conll17-k   supervised skyline: affix rules from `shots` sampled gold paradigms
eval        score an existing prediction file against a gold table

Any failure is wrapped in StageError naming the stage that died.
"""

from __future__ import annotations

import importlib
import random
from collections.abc import Callable, Hashable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING

from .bootstrap import BootstrapResult, bootstrap
from .config import Config
from .corpus_io import (
    Corpus,
    load_corpus,
    load_gold,
    load_lexicon,
    read_predictions,
    write_predictions,
)
from .discovery import TreeCensus
from .edit_tree import EditTree, apply
from .evaluation import BmaccResult, best_match_accuracy, lemma_baseline
from .inflection import RuleTable, SlotRules, extract_affix_rules, inflect
from .lexicon import WeightedLexicon

if TYPE_CHECKING:
    import numpy as np

    from .slot_clustering import MergeEvent, SlotState
    from .tagger import HmmModel

#: Functions of the tagger and clustering stages, which load numpy: each is
#: imported on first use, so the modes without a tagger never load them.
#: They stay attributes of this module, where a caller can replace them.
_LAZY = {
    "anchor_start": "tagger",
    "train_hmm": "tagger",
    "tag_corpus": "tagger",
    "group_surface_changes": "slot_clustering",
    "windowed_positions": "slot_clustering",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _bind_lazy() -> None:
    """Bind every name in ``_LAZY`` that is not bound yet, keeping bound ones."""
    for name in _LAZY:
        if name not in globals():
            __getattr__(name)


_TREE_MODES = ("pcs-i", "pcs-ii-a", "pcs-ii-b")
_FULL_MODES = ("pcs-iii", "pcs-ii+iii")
_ROUNDS = {"pcs-i": 0, "pcs-ii-a": 1, "pcs-ii-b": 2, "pcs-iii": 0}


class StageError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


@dataclass
class PipelineResult:
    mode: str
    predictions: dict[str, dict[int, str]]
    slot_count: int
    timings: list[tuple[str, float]]
    trees: list[EditTree] = field(default_factory=list)
    slots: list[SlotState] = field(default_factory=list)
    merge_log: list[MergeEvent] = field(default_factory=list)
    rules: RuleTable | None = None
    model: HmmModel | None = None
    tags: np.ndarray | None = None
    lexicon: WeightedLexicon | None = None
    #: Every tree discovery built, with its weighted support.
    census: TreeCensus | None = None
    #: Tokens with a full clustering window inside their sentence.
    windowed_tokens: int | None = None
    scores: BmaccResult | None = None
    report: str = ""


@contextmanager
def _stage(name: str, timings: list[tuple[str, float]]):
    started = perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        timings.append((name, perf_counter() - started))


def _require(value, stage: str, message: str) -> None:
    """Fail ``stage`` with ``message`` if ``value`` is None."""
    if value is None:
        raise StageError(stage, ValueError(message))


def run_pipeline(
    config: Config,
    corpus_path: str | None = None,
    lexicon_path: str | None = None,
    gold_path: str | None = None,
    out_path: str | None = None,
    predictions_path: str | None = None,
) -> PipelineResult:
    """Run one mode end to end and optionally write predictions."""
    config.validate()
    mode = config.mode
    timings: list[tuple[str, float]] = []
    result = PipelineResult(mode, {}, 0, timings)
    if mode != "eval":  # every other mode reads a lemma list
        _require(lexicon_path, "load", f"{mode} mode needs a lemma file")

    gold = None
    if gold_path is not None:
        with _stage("load-gold", timings):
            gold = load_gold(gold_path)

    if mode == "eval":
        _require(gold, "load-gold", "eval mode needs a gold table")
        _require(
            predictions_path, "load-predictions", "eval mode needs a prediction file"
        )
        with _stage("load-predictions", timings):
            result.predictions = read_predictions(predictions_path)
        result.slot_count = len(
            {slot for row in result.predictions.values() for slot in row}
        )
    elif mode == "lb":
        with _stage("load", timings):
            lemmas = load_lexicon(lexicon_path)
        with _stage("baseline", timings):
            if config.baseline_truth:
                _require(gold, "baseline", "baseline_truth needs a gold table")
                slot_count = len({slot for row in gold.values() for slot in row})
            else:
                slot_count = config.baseline_slots
            result.predictions = lemma_baseline(lemmas, slot_count)
            result.slot_count = slot_count
    elif mode == "conll17-k":
        with _stage("load", timings):
            lemmas = load_lexicon(lexicon_path)
        _require(gold, "load-gold", "conll17-k mode needs a gold table")
        with _stage("sample", timings):
            pool = sorted(gold)
            if config.shots > len(pool):
                raise ValueError(
                    f"cannot sample {config.shots} paradigms from {len(pool)}"
                )
            rng = random.Random(config.seed)
            sampled = rng.sample(pool, config.shots)
        with _stage("rules", timings):
            examples: dict[str, dict[str, str]] = {}
            for lemma in sampled:
                for label, form in gold[lemma].items():
                    examples.setdefault(label, {})[lemma] = form
            labels = sorted(examples)
            result.rules = _rules(examples, lambda lemma: 1.0)
        with _stage("generate", timings):
            result.predictions = _generate_predictions(result.rules, lemmas, labels)
            result.slot_count = len(labels)
    elif mode in _TREE_MODES or mode in _FULL_MODES:
        _require(corpus_path, "load", f"{mode} mode needs a corpus file")
        with _stage("load", timings):
            corpus, vocab = load_corpus(corpus_path)
            seed_lemmas = load_lexicon(lexicon_path)
            lexicon = WeightedLexicon.from_lemmas(seed_lemmas)
        rounds = _ROUNDS.get(mode, config.bootstrap_rounds)
        with _stage("discover", timings):
            boot: BootstrapResult = bootstrap(
                vocab,
                lexicon,
                candidate_ratio=config.candidate_ratio,
                tree_support_factor=config.tree_support_factor,
                lemma_evidence_factor=config.lemma_evidence_factor,
                lemma_decay=config.lemma_decay,
                rounds=rounds,
            )
            result.trees = boot.trees
            result.lexicon = boot.lexicon
            result.census = boot.census
        if mode in _TREE_MODES:
            with _stage("generate", timings):
                result.predictions = _trees_to_predictions(
                    boot.trees, boot.lexicon.gold_lemmas()
                )
                result.slot_count = len(boot.trees)
        else:
            with _stage("tag", timings):
                _bind_lazy()
                result.model = train_tagger(corpus, config)
                result.tags = tag_corpus(result.model, corpus)
            with _stage("cluster", timings):
                positions = windowed_positions(corpus, config.context_window)
                result.windowed_tokens = len(positions)
                result.slots, result.merge_log = group_surface_changes(
                    boot.trees,
                    corpus,
                    result.tags,
                    boot.lexicon,
                    merge_threshold=config.merge_threshold,
                    window=config.context_window,
                    positions=positions,
                )
            with _stage("generate", timings):
                result.rules = _rules(
                    {i: slot.lemma_forms for i, slot in enumerate(result.slots, 1)},
                    boot.lexicon.weight,
                )
                result.predictions = _generate_predictions(
                    result.rules,
                    boot.lexicon.gold_lemmas(),
                    range(1, len(result.slots) + 1),
                )
                result.slot_count = len(result.slots)
    else:  # pragma: no cover - guarded by config.validate()
        raise StageError("setup", ValueError(f"unhandled mode {mode!r}"))

    if gold is not None:
        with _stage("score", timings):
            result.scores = best_match_accuracy(gold, result.predictions)

    if out_path is not None:
        with _stage("write", timings):
            write_predictions(result.predictions, out_path)

    result.report = build_report(result, config)
    return result


def train_tagger(corpus: Corpus, config: Config) -> HmmModel:
    """The tagger as the pipeline trains it: the anchor fit, then Baum-Welch.

    The fit has at most ``config.hmm_states`` states, fewer where the
    corpus has fewer anchors, over the types seen at least
    ``config.unk_threshold`` times; ``config.hmm_iterations`` caps the
    passes from it.  ``Config`` holds the defaults of both stages.
    """
    _bind_lazy()
    init = anchor_start(corpus, config.hmm_states, config.unk_threshold)
    return train_hmm(corpus, init, config.hmm_iterations)


def _trees_to_predictions(
    trees: list[EditTree], lemmas: list[str]
) -> dict[str, dict[int, str]]:
    """One slot per tree; a cell is filled where the tree applies."""
    predictions: dict[str, dict[int, str]] = {}
    for lemma in lemmas:
        row = {}
        for slot_id, tree in enumerate(trees, start=1):
            form = apply(tree, lemma)
            if form is not None:
                row[slot_id] = form
        predictions[lemma] = row
    return predictions


def _rules(
    examples: dict[Hashable, dict[str, str]], weight: Callable[[str], float]
) -> RuleTable:
    """Affix rules per label from {lemma: form} examples; every label gets a slot."""
    table = extract_affix_rules(
        (label, lemma, forms[lemma], weight(lemma))
        for label, forms in examples.items()
        for lemma in sorted(forms)
    )
    for label in examples:
        table.slots.setdefault(label, SlotRules())
    return table


def _generate_predictions(
    rules: RuleTable, lemmas: list[str], labels: Sequence
) -> dict[str, dict[int, str]]:
    """Every lemma inflected for every slot: id i uses the rules of labels[i-1]."""
    return {
        lemma: {
            slot_id: inflect(rules, label, lemma)
            for slot_id, label in enumerate(labels, start=1)
        }
        for lemma in lemmas
    }


def build_report(result: PipelineResult, config: Config) -> str:
    """Human-readable run summary plus a machine-readable score block."""
    lines = [f"mode: {result.mode}"]
    if result.lexicon is not None:
        seed = len(result.lexicon.gold_lemmas())
        lines.append(
            f"lexicon: {seed} seed lemmas, "
            f"{len(result.lexicon) - seed} discovered"
        )
    if result.census is not None:
        lines.append(
            f"retained trees: {len(result.trees)} of "
            f"{len(result.census.weights)} built, "
            f"support cutoff {result.census.cutoff:.2f}"
        )
        near = result.census.cutoff / 2
        dropped = [
            weight for weight in result.census.weights.values()
            if weight < result.census.cutoff
        ]
        lines.append(
            f"dropped trees near the cutoff: "
            f"{sum(weight >= near for weight in dropped)} of {len(dropped)} "
            f"(support >= {near:.2f})"
        )
    lines.append(f"predicted slots: {result.slot_count}")
    if result.windowed_tokens is not None:
        lines.append(
            f"windowed tokens: {result.windowed_tokens} of {len(result.tags)}"
        )
        if result.windowed_tokens == 0:
            lines.append(
                f"warning: no sentence holds a full {config.context_window}-tag "
                "window, so slots cannot be told apart by context"
            )
    if result.model is not None:
        lls = result.model.log_likelihoods
        line = (
            f"tagger: {result.model.states} states from anchors "
            f"({config.hmm_states} requested), "
            f"EM passes: {len(lls)} of at most {config.hmm_iterations}"
        )
        if lls:
            line += f", final log-likelihood {lls[-1]:.4f}"
        lines.append(line)
    if result.merge_log:
        merges = " | ".join(
            f"{event.kept}+{event.absorbed} score={event.score:.4f}"
            for event in result.merge_log
        )
        lines.append(f"merges: {merges}")
    for name, seconds in result.timings:
        lines.append(f"time {name}: {seconds:.2f}s")
    scores = result.scores
    if scores is not None:
        m = scores.predicted_slots
        lines.append(f"bmacc macro: {100 * scores.macro:.2f} ({m})")
        lines.append(f"bmacc micro: {100 * scores.micro:.2f} ({m})")
        if scores.pairs:
            matched = " | ".join(
                f"{gold_slot}->{pred_slot} acc={acc:.3f}"
                for gold_slot, pred_slot, acc in scores.pairs
            )
            lines.append(f"macro matching: {matched}")
        lines.append("[scores]")
        lines.append(f"macro={scores.macro:.6f}")
        lines.append(f"micro={scores.micro:.6f}")
        lines.append(f"gold_slots={scores.gold_slots}")
        lines.append(f"predicted_slots={scores.predicted_slots}")
    return "\n".join(lines) + "\n"
