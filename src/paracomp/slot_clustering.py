"""Grouping surface changes into paradigm slots by distributional context.

Each retained edit tree starts as its own slot, carrying the lemmas it
applies to and the attested forms it produces.  A slot is described by
a vector over the tag windows observed around its forms: every corpus
occurrence of one of its forms adds the producing lemmas' weights to
the coordinate of the tuple of tagger states around that occurrence.
The vectors are sums of rows of one form x window table, counted over
the windows around slot forms only.  Slots are scored from their Gram
matrix and merged greedily while their vectors point the same way, but
never when they share a lemma: one lemma cannot fill a slot twice.
"""

from __future__ import annotations

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


def windowed_positions(corpus: Corpus, window: int) -> np.ndarray:
    """Positions whose full window of ``window`` tags fits inside one sentence."""
    radius = _check_window(window)
    ends = np.array(corpus.sentence_boundaries, dtype=np.intp)
    lengths = np.diff(ends, prepend=0)
    offsets = np.arange(len(corpus)) - np.repeat(ends - lengths, lengths)
    keep = (offsets >= radius) & (offsets < np.repeat(lengths, lengths) - radius)
    return np.flatnonzero(keep)


def context_counts(
    corpus: Corpus,
    tags: np.ndarray,
    radius: int,
    type_ids: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """The ``type_ids`` x tag-window count table, for ascending type ids.

    Row r counts the windows around ``type_ids[r]`` at ``positions``,
    which must be ``windowed_positions(corpus, 2 * radius + 1)``, one
    column per distinct window around any of them, in sorted order.
    ``tags`` is ``tag_corpus``'s array; a list of ints works too.
    """
    positions = positions[np.isin(corpus.ids[positions], type_ids)]
    row = np.searchsorted(type_ids, corpus.ids[positions])
    tags = np.asarray(tags, dtype=np.intp)
    around = positions[:, None] + np.arange(-radius, radius + 1)
    # A window's column is its rank among the distinct windows.  It is
    # built one tag column at a time: the rank of the windows' first c
    # tags, times the distinct values of tag c, plus tag c's own rank,
    # ranks their first c + 1 tags in sorted order.  Ranks stay below
    # the row count, so the key never overflows.
    column = np.zeros(len(positions), dtype=np.intp)
    for values in tags[around].T:
        levels, rank = np.unique(values, return_inverse=True)
        keys, column = np.unique(column * len(levels) + rank, return_inverse=True)
    columns = len(keys)
    counts = np.bincount(row * columns + column, minlength=len(type_ids) * columns)
    return counts.reshape(len(type_ids), columns).astype(np.float64)


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
    tags: np.ndarray,
    lexicon: WeightedLexicon,
    merge_threshold: float,
    window: int,
    positions: np.ndarray | None = None,
) -> tuple[list[SlotState], list[MergeEvent]]:
    """Greedy slot merging.

    Starts with one slot per tree (keeping only lemmas whose rewritten
    form is attested), then repeatedly merges the highest-cosine pair
    of lemma-disjoint slots while that cosine is strictly above the
    threshold.  Ties take the lowest id pair.  The kept slot inherits
    the smaller id and its vector is recomputed from the merged form
    set, in sorted form order, not added together.  ``positions``, when
    given, must be ``windowed_positions(corpus, window)``; a caller that
    already has them saves finding them again.
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

    slots = []
    for slot_id, tree in enumerate(trees, start=1):
        lemma_forms = {}
        for entry in lexicon:
            form = apply(tree, entry.lemma)
            if form is not None and form in corpus.vocab:
                lemma_forms[entry.lemma] = form
        slots.append(SlotState(slot_id, (tree,), lemma_forms))

    forms = {form for slot in slots for form in slot.lemma_forms.values()}
    form_row = {form: r for r, form in enumerate(sorted(forms, key=corpus.vocab.get))}
    form_ids = np.array([corpus.vocab[form] for form in form_row], dtype=np.intp)
    positions = windowed_positions(corpus, window) if positions is None else positions
    table = context_counts(corpus, tags, radius, form_ids, positions)

    def row(lemma_forms: dict[str, str]) -> np.ndarray:
        vec = np.zeros(table.shape[1])
        weights = _form_weights(lemma_forms, lexicon)
        for form in sorted(weights):
            vec += weights[form] * table[form_row[form]]
        return vec

    n = len(slots)
    vectors = np.zeros((n, table.shape[1]))
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
