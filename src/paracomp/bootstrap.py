"""Lemma bootstrapping: grow the lexicon from the corpus itself.

A word outside the lexicon becomes a new lemma when strictly more than
a cutoff number of the retained edit trees map it onto attested corpus
words.  Newly found lemmas join the lexicon with a decayed weight and
the discovery step can be repeated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .discovery import TreeCensus, find_candidates, retain_frequent_trees
from .edit_tree import EditTree, apply, inverse, last_literal
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
    nothing.  The hits are counted from the output side: a tree's
    output ends in its rightmost target literal, so each attested word
    ``v`` is tried only against the trees whose literal ends ``v``, and
    the single word such a tree could map onto ``v`` is the inverse
    tree's output.  A duplicate tree in ``trees`` counts twice.

    A tree that applies to any word equals the inverse of its inverse,
    and so maps every output of its inverse back onto that output's
    input: the word found from ``v`` is one the tree maps onto ``v``.
    A tree with ``inverse(inverse(t)) != t`` applies to nothing and
    contributes no hit, though it still counts towards the cutoff.
    """
    if not trees:
        raise ValueError("cannot discover lemmas without retained trees")
    cutoff = min_discovery_evidence(len(trees), evidence_factor)
    buckets: dict[str, list[EditTree]] = {}
    for tree in trees:
        back = inverse(tree)
        if inverse(back) == tree:
            buckets.setdefault(last_literal(tree), []).append(back)
    lengths = sorted({len(literal) for literal in buckets})
    hits: Counter = Counter()
    for out in vocab.types:
        for k in lengths:
            if k > len(out):
                break
            for back in buckets.get(out[len(out) - k:], ()):
                word = apply(back, out)
                if word is not None and word in vocab and word not in lexicon:
                    hits[word] += 1
    return sorted(word for word, count in hits.items() if count > cutoff)


@dataclass
class BootstrapResult:
    lexicon: WeightedLexicon
    trees: list[EditTree]
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

    ``rounds=0`` runs the plain discovery stage.  New lemmas are appended
    to the lexicon at iteration max+1, and a word's candidates do not
    depend on the other lemmas, so each round searches candidates for
    the new lemmas only, adds only their pairs to the tree census it
    carries, and re-applies the support cutoff for the grown lexicon.
    The census sums every tree's support in lexicon order, as a search
    over the whole grown lexicon would, so running one round and then
    feeding the result back in equals running two rounds at once.
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
        counted = len(lexicon)
        lexicon = lexicon.add_discovered(
            new, lexicon.max_iteration() + 1, lemma_decay
        )
        fresh = find_candidates(
            WeightedLexicon(lexicon.entries[counted:]), vocab, candidate_ratio
        )
        trees, census = retain_frequent_trees(
            fresh, lexicon, tree_support_factor, census
        )
    return BootstrapResult(lexicon, trees, census)
