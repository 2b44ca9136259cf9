"""Lemma bootstrapping: grow the lexicon from the corpus itself.

A word outside the lexicon becomes a new lemma when strictly more than
a cutoff number of the retained edit trees map it onto attested corpus
words.  Newly found lemmas join the lexicon with a decayed weight and
the discovery step can be repeated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discovery import TreeCensus, find_candidates, retain_frequent_trees
from .edit_tree import EditTree, apply
from .lexicon import WeightedLexicon


def min_discovery_evidence(tree_count: int, evidence_factor: float) -> float:
    """Applicable-tree count a word must *exceed* to count as a new lemma."""
    return max(3.0, evidence_factor * tree_count)


def discover_new_lemmas(
    vocab,
    trees: list[EditTree],
    lexicon: WeightedLexicon,
    evidence_factor: float,
) -> list[str]:
    """Corpus words, sorted, that enough trees map into the vocabulary.

    A tree contributes one hit when it applies to the word and its
    output is itself an attested word; trees that do not fit contribute
    nothing.
    """
    if not trees:
        raise ValueError("cannot discover lemmas without retained trees")
    cutoff = min_discovery_evidence(len(trees), evidence_factor)
    found = []
    for word in sorted(vocab.types):
        if word in lexicon:
            continue
        hits = 0
        for tree in trees:
            out = apply(tree, word)
            if out is not None and out in vocab:
                hits += 1
                if hits > cutoff:
                    break
        if hits > cutoff:
            found.append(word)
    return found


@dataclass
class BootstrapResult:
    lexicon: WeightedLexicon
    trees: list[EditTree]
    candidates: dict[str, list[str]]
    census: TreeCensus


def bootstrap(
    vocab,
    lexicon: WeightedLexicon,
    *,
    candidate_ratio: float,
    tree_support_factor: float,
    lemma_evidence_factor: float,
    lemma_decay: float,
    rounds: int,
) -> BootstrapResult:
    """Candidate search plus ``rounds`` rounds of lemma retrieval.

    ``rounds=0`` runs the plain discovery stage.  Running one round and
    then feeding the result back in equals running two rounds at once:
    every round re-derives candidates and trees from the current
    lexicon, and new lemmas enter at iteration max+1.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    candidates = find_candidates(lexicon, vocab, candidate_ratio)
    trees, census = retain_frequent_trees(candidates, lexicon, tree_support_factor)
    for _ in range(rounds):
        if not trees:
            break
        new = discover_new_lemmas(vocab, trees, lexicon, lemma_evidence_factor)
        if not new:
            break
        lexicon = lexicon.add_discovered(
            new, lexicon.max_iteration() + 1, lemma_decay
        )
        candidates = find_candidates(lexicon, vocab, candidate_ratio)
        trees, census = retain_frequent_trees(
            candidates, lexicon, tree_support_factor
        )
    return BootstrapResult(lexicon, trees, candidates, census)
