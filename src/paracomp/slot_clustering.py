"""Grouping surface changes into paradigm slots by distributional context.

Each retained edit tree starts as its own slot, carrying the lemmas it
applies to and the attested forms it produces.  A slot is described by
a vector over the tag windows observed around its forms: every corpus
occurrence of one of its forms adds the producing lemmas' weights to
the coordinate of the tuple of tagger states around that occurrence.
The vectors are the rows of one matrix whose columns are the distinct
windows around any slot's forms, in sorted order, and slots are scored
from its Gram matrix.  Slots whose vectors point the same way are
merged greedily, but never when they share a lemma: one lemma cannot
fill the same paradigm slot twice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus_io import Corpus
from .edit_tree import EditTree, apply
from .lexicon import WeightedLexicon


@dataclass(eq=False)
class SlotState:
    """One (possibly merged) slot: its trees and lemma->form map."""

    id: int
    trees: tuple[EditTree, ...]
    lemma_forms: dict[str, str]


@dataclass(frozen=True)
class MergeEvent:
    kept: int
    absorbed: int
    score: float


def _check_window(window: int) -> int:
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    return window // 2


def context_counts(
    corpus: Corpus, tags: list[int], radius: int
) -> dict[str, Counter]:
    """Tag-window counts per word type, keyed by the tuple of states.

    Only positions whose full window fits inside one sentence count;
    boundary-straddling windows are skipped entirely.
    """
    counts: dict[str, Counter] = {}
    for start, end in corpus.sentences():
        for pos in range(start + radius, end - radius):
            token = corpus.tokens[pos]
            bucket = counts.get(token)
            if bucket is None:
                bucket = counts[token] = Counter()
            bucket[tuple(tags[pos - radius:pos + radius + 1])] += 1
    return counts


def windowed_tokens(corpus: Corpus, window: int) -> int:
    """Tokens whose full window of ``window`` tags fits inside one sentence."""
    radius = _check_window(window)
    return sum(
        max(0, end - start - 2 * radius) for start, end in corpus.sentences()
    )


def _form_weights(
    lemma_forms: dict[str, str], lexicon: WeightedLexicon
) -> dict[str, float]:
    """form -> summed weight of the lemmas producing it, in sorted lemma order."""
    producers: dict[str, list[str]] = {}
    for lemma in sorted(lemma_forms):
        producers.setdefault(lemma_forms[lemma], []).append(lemma)
    return {
        form: sum(lexicon.weight(lemma) for lemma in lemmas)
        for form, lemmas in producers.items()
    }


def _cosines(gram: np.ndarray) -> np.ndarray:
    """Pairwise cosine from a Gram matrix, 0 where either vector is zero."""
    norms = np.sqrt(gram.diagonal())
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.minimum(1.0, gram / np.multiply.outer(norms, norms))
    zero = norms == 0.0
    cos[zero, :] = 0.0
    cos[:, zero] = 0.0
    return cos


def group_surface_changes(
    trees: list[EditTree],
    corpus: Corpus,
    tags: list[int],
    lexicon: WeightedLexicon,
    merge_threshold: float = 0.3,
    window: int = 3,
) -> tuple[list[SlotState], list[MergeEvent]]:
    """Greedy slot merging.

    Starts with one slot per tree (keeping only lemmas whose rewritten
    form is attested), then repeatedly merges the highest-cosine pair
    of lemma-disjoint slots while that cosine is strictly above the
    threshold.  Ties take the lowest id pair.  The kept slot inherits
    the smaller id and its vector is recomputed from the merged form
    set, in sorted form order, not added together.
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
    attested = set(corpus.tokens)
    counts = context_counts(corpus, tags, radius)

    slots = []
    for slot_id, tree in enumerate(trees, start=1):
        lemma_forms = {}
        for entry in lexicon:
            form = apply(tree, entry.lemma)
            if form is not None and form in attested:
                lemma_forms[entry.lemma] = form
        slots.append(SlotState(slot_id, (tree,), lemma_forms))

    forms = {form for slot in slots for form in slot.lemma_forms.values()}
    windows = sorted({key for form in forms for key in counts.get(form, ())})
    column = {key: j for j, key in enumerate(windows)}

    def row(lemma_forms: dict[str, str]) -> np.ndarray:
        vec = np.zeros(len(column))
        weights = _form_weights(lemma_forms, lexicon)
        for form in sorted(weights):
            for key, n in counts.get(form, {}).items():
                vec[column[key]] += weights[form] * n
        return vec

    n = len(slots)
    vectors = np.zeros((n, len(column)))
    owns = np.zeros((n, len(lexicon)), dtype=bool)
    lemma_ids = {entry.lemma: k for k, entry in enumerate(lexicon)}
    for i, slot in enumerate(slots):
        vectors[i] = row(slot.lemma_forms)
        owns[i, [lemma_ids[lemma] for lemma in slot.lemma_forms]] = True
    gram = vectors @ vectors.T
    overlap = owns.astype(np.float32)
    overlap = overlap @ overlap.T
    # Pairs that may still merge: both alive and lemma-disjoint.  Only
    # the strict upper triangle is open, so argmax scans pairs in id order.
    open_pair = np.triu(overlap == 0.0, 1)

    log: list[MergeEvent] = []
    while open_pair.any():
        scores = np.where(open_pair, _cosines(gram), -1.0)
        a, b = divmod(int(scores.argmax()), n)
        if scores[a, b] <= merge_threshold:
            break
        kept, absorbed = slots[a], slots[b]
        kept.trees += absorbed.trees
        kept.lemma_forms.update(absorbed.lemma_forms)
        slots[b] = None
        vectors[a] = row(kept.lemma_forms)
        gram[a] = gram[:, a] = vectors @ vectors[a]
        owns[a] |= owns[b]
        closed = (owns & owns[a]).any(axis=1)
        open_pair[a, closed] = open_pair[closed, a] = False
        open_pair[b, :] = open_pair[:, b] = False
        log.append(MergeEvent(kept.id, absorbed.id, float(scores[a, b])))
    return [slot for slot in slots if slot is not None], log
