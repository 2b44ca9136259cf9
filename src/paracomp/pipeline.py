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

import random
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from .bootstrap import BootstrapResult, bootstrap
from .config import Config
from .corpus_io import (
    load_corpus,
    load_gold,
    load_lexicon,
    read_predictions,
    write_predictions,
)
from .edit_tree import EditTree, apply
from .evaluation import BmaccResult, best_match_accuracy, lemma_baseline
from .inflection import RuleTable, SlotRules, dump_rules, extract_affix_rules, inflect
from .lexicon import WeightedLexicon
from .slot_clustering import MergeEvent, SlotState, group_surface_changes, windowed_tokens
from .tagger import HmmModel, tag_corpus, train_hmm

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
    tags: list[int] | None = None
    lexicon: WeightedLexicon | None = None
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
            triples = []
            for lemma in sampled:
                for slot_label in sorted(gold[lemma]):
                    triples.append((slot_label, lemma, gold[lemma][slot_label], 1.0))
            result.rules = extract_affix_rules(triples)
            labels = sorted(result.rules.slots, key=str)
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
        if mode in _TREE_MODES:
            with _stage("generate", timings):
                result.predictions = _trees_to_predictions(
                    boot.trees, boot.lexicon.gold_lemmas()
                )
                result.slot_count = len(boot.trees)
        else:
            with _stage("tag", timings):
                result.model = train_hmm(
                    corpus,
                    states=config.hmm_states,
                    iterations=config.hmm_iterations,
                    seed=config.seed,
                    unk_threshold=config.unk_threshold,
                )
                result.tags = tag_corpus(result.model, corpus)
            with _stage("cluster", timings):
                result.windowed_tokens = windowed_tokens(
                    corpus, config.context_window
                )
                result.slots, result.merge_log = group_surface_changes(
                    boot.trees,
                    corpus,
                    result.tags,
                    boot.lexicon,
                    merge_threshold=config.merge_threshold,
                    window=config.context_window,
                )
            with _stage("generate", timings):
                result.rules = _slot_rules(result.slots, boot.lexicon)
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


def _slot_rules(slots: list[SlotState], lexicon: WeightedLexicon) -> RuleTable:
    """Affix rules per output slot id (1-based, in slot id order)."""
    triples = []
    for slot_id, slot in enumerate(slots, start=1):
        for lemma in sorted(slot.lemma_forms):
            triples.append(
                (slot_id, lemma, slot.lemma_forms[lemma], lexicon.weight(lemma))
            )
    table = extract_affix_rules(triples)
    for slot_id in range(1, len(slots) + 1):
        table.slots.setdefault(slot_id, SlotRules())
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
    if result.trees:
        lines.append(f"retained trees: {len(result.trees)}")
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


def dump_pipeline_rules(result: PipelineResult, path: str) -> None:
    if result.rules is None:
        raise ValueError(f"mode {result.mode!r} produced no rule table")
    dump_rules(result.rules, path)
