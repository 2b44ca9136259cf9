"""Lemma retrieval by brute force: the reference for inverse-tree retrieval.

``discover_new_lemmas`` and ``bootstrap`` as ``paracomp.bootstrap`` ran
them before retrieval went through inverse trees and the tree census was
carried across rounds, kept verbatim so the tests can check the new code
against them.  Every retained tree is applied to every word outside the
lexicon, and every round re-derives candidates and trees from the whole
grown lexicon.
"""

from __future__ import annotations

from paracomp.bootstrap import BootstrapResult, min_discovery_evidence
from paracomp.discovery import find_candidates, retain_frequent_trees
from paracomp.edit_tree import EditTree, apply
from paracomp.lexicon import WeightedLexicon


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
