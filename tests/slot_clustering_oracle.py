"""Dense-vector slot clustering: the reference for the Gram-matrix merge.

This is the code ``paracomp.slot_clustering`` ran before slots lost
their feature vectors, kept verbatim so the tests can check the new
merge loop against it.  Every slot carries a dense vector over all
``states ** window`` tag windows, indexed in mixed radix, and every
pair is re-scored with ``slot_similarity`` after each merge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from paracomp.corpus_io import Corpus
from paracomp.edit_tree import EditTree, apply
from paracomp.lexicon import WeightedLexicon
from paracomp.slot_clustering import MergeEvent, _check_window, _form_weights


@dataclass(eq=False)
class SlotState:
    """One (possibly merged) slot: its trees, lemma->form map and features."""

    id: int
    trees: tuple[EditTree, ...]
    lemma_forms: dict[str, str]
    features: np.ndarray


def window_index(tags: list[int], center: int, radius: int, states: int) -> int:
    """Mixed-radix index of the state tuple around ``center``."""
    idx = 0
    for tag in tags[center - radius:center + radius + 1]:
        idx = idx * states + tag
    return idx


def context_counts(
    corpus: Corpus, tags: list[int], radius: int, states: int
) -> dict[str, Counter]:
    """Window-index counts per word type.

    Only positions whose full window fits inside one sentence count;
    boundary-straddling windows are skipped entirely.
    """
    counts: dict[str, Counter] = {}
    for start, end in zip([0, *corpus.sentence_boundaries], corpus.sentence_boundaries):
        for pos in range(start + radius, end - radius):
            idx = window_index(tags, pos, radius, states)
            token = corpus.tokens[pos]
            bucket = counts.get(token)
            if bucket is None:
                bucket = counts[token] = Counter()
            bucket[idx] += 1
    return counts


def tuple_context_counts(
    corpus: Corpus, tags: list[int], radius: int
) -> dict[str, Counter]:
    """Tag-window counts per word type, keyed by the tuple of states.

    Only positions whose full window fits inside one sentence count;
    boundary-straddling windows are skipped entirely.
    """
    counts: dict[str, Counter] = {}
    for start, end in zip([0, *corpus.sentence_boundaries], corpus.sentence_boundaries):
        for pos in range(start + radius, end - radius):
            token = corpus.tokens[pos]
            bucket = counts.get(token)
            if bucket is None:
                bucket = counts[token] = Counter()
            bucket[tuple(tags[pos - radius:pos + radius + 1])] += 1
    return counts


def _features_from_counts(
    lemma_forms: dict[str, str],
    counts: dict[str, Counter],
    lexicon: WeightedLexicon,
    dim: int,
) -> np.ndarray:
    vec = np.zeros(dim)
    weights = _form_weights(lemma_forms, lexicon)
    for form in sorted(weights):
        bucket = counts.get(form)
        if not bucket:
            continue
        w = weights[form]
        for idx, n in bucket.items():
            vec[idx] += w * n
    return vec


def extract_slot_features(
    corpus: Corpus,
    tags: list[int],
    slot: SlotState,
    lexicon: WeightedLexicon,
    window: int = 3,
    states: int = 8,
) -> np.ndarray:
    """Context vector of a slot, by direct corpus scan.

    Every in-sentence occurrence of one of the slot's forms bumps the
    coordinate of its surrounding state tuple by the summed weight of
    the lemmas producing that form.
    """
    radius = _check_window(window)
    if len(tags) != len(corpus):
        raise ValueError(
            f"tag count {len(tags)} does not match corpus length {len(corpus)}"
        )
    weights = _form_weights(slot.lemma_forms, lexicon)
    vec = np.zeros(states ** window)
    for start, end in zip([0, *corpus.sentence_boundaries], corpus.sentence_boundaries):
        for pos in range(start + radius, end - radius):
            w = weights.get(corpus.tokens[pos])
            if w is None:
                continue
            vec[window_index(tags, pos, radius, states)] += w
    return vec


def slot_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector is all zero."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(1.0, float(np.dot(a, b)) / (norm_a * norm_b))


def group_surface_changes(
    trees: list[EditTree],
    corpus: Corpus,
    tags: list[int],
    lexicon: WeightedLexicon,
    merge_threshold: float = 0.3,
    window: int = 3,
    states: int = 8,
    vocab=None,
) -> tuple[list[SlotState], list[MergeEvent]]:
    """Greedy slot merging.

    Starts with one slot per tree (keeping only lemmas whose rewritten
    form is attested), then repeatedly merges the highest-similarity
    pair of lemma-disjoint slots while that similarity is strictly
    above the threshold.  Ties take the lowest id pair.  The kept slot
    inherits the smaller id and its features are recomputed from the
    merged form set, not added together.
    """
    radius = _check_window(window)
    if not 0.0 <= merge_threshold <= 1.0:
        raise ValueError(
            f"merge threshold must be in [0, 1], got {merge_threshold}"
        )
    if len(tags) != len(corpus):
        raise ValueError(
            f"tag count {len(tags)} does not match corpus length {len(corpus)}"
        )
    attested = set(vocab.types) if vocab is not None else set(corpus.tokens)
    dim = states ** window
    counts = context_counts(corpus, tags, radius, states)

    slots: dict[int, SlotState] = {}
    for slot_id, tree in enumerate(trees, start=1):
        lemma_forms = {}
        for entry in lexicon:
            form = apply(tree, entry.lemma)
            if form is not None and form in attested:
                lemma_forms[entry.lemma] = form
        slots[slot_id] = SlotState(
            slot_id,
            (tree,),
            lemma_forms,
            _features_from_counts(lemma_forms, counts, lexicon, dim),
        )

    log: list[MergeEvent] = []
    while len(slots) > 1:
        ids = sorted(slots)
        best_score = None
        best_pair = None
        for a_pos, id_a in enumerate(ids):
            a = slots[id_a]
            for id_b in ids[a_pos + 1:]:
                b = slots[id_b]
                if not a.lemma_forms.keys().isdisjoint(b.lemma_forms):
                    continue
                score = slot_similarity(a.features, b.features)
                if best_score is None or score > best_score:
                    best_score = score
                    best_pair = (id_a, id_b)
        if best_pair is None or best_score <= merge_threshold:
            break
        id_a, id_b = best_pair
        a = slots[id_a]
        b = slots.pop(id_b)
        merged_forms = dict(a.lemma_forms)
        merged_forms.update(b.lemma_forms)
        slots[id_a] = SlotState(
            id_a,
            a.trees + b.trees,
            merged_forms,
            _features_from_counts(merged_forms, counts, lexicon, dim),
        )
        log.append(MergeEvent(id_a, id_b, best_score))
    return [slots[slot_id] for slot_id in sorted(slots)], log
