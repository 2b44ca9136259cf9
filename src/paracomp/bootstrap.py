"""Lemma bootstrapping: grow the lexicon from the corpus itself.

A word outside the lexicon becomes a new lemma when strictly more than
a cutoff number of the retained edit trees map it onto attested corpus
words.  Newly found lemmas join the lexicon with a decayed weight and
the discovery step can be repeated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .discovery import GramIndex, TreeCensus, find_candidates, retain_frequent_trees
from .edit_tree import IDENTITY, EditTree, Match, Replace, apply, inverse, last_literal
from .lexicon import WeightedLexicon


def min_discovery_evidence(tree_count: int, evidence_factor: float) -> float:
    """Applicable-tree count a word must *exceed* to count as a new lemma."""
    return max(3.0, evidence_factor * tree_count)


def _sources(vocab, trees) -> dict[EditTree, list[str]]:
    """For each distinct tree, the attested words it maps onto attested words.

    The words are found from the output side: a tree's output ends in
    its rightmost target literal, so one pass over the vocabulary
    buckets the attested words ``v`` by the literals that end them, and
    each tree is tried only on its bucket.  The single word a tree
    could map onto ``v`` is the inverse tree's output.  Each tree's
    words come in the vocabulary order of the ``v`` they map onto.

    A tree that applies to any word equals the inverse of its inverse,
    and so maps every output of its inverse back onto that output's
    input: the word found from ``v`` is one the tree maps onto ``v``.
    A tree with ``inverse(inverse(t)) != t`` applies to nothing and
    gets no words.  ``IDENTITY`` maps every word onto itself.  An affix
    tree, whose inverse is a ``Match`` of two leaves, maps its bucket
    with ``apply``'s checks inlined; every other tree calls ``apply``.
    """
    found: dict[EditTree, list[str]] = {tree: [] for tree in trees}
    backs: dict[EditTree, tuple[str, EditTree]] = {}
    for tree in found:
        if tree == IDENTITY:
            found[tree] = list(vocab.types)
            continue
        back = inverse(tree)
        if inverse(back) == tree:
            backs[tree] = (last_literal(tree), back)
    buckets: dict[str, list[str]] = {literal: [] for literal, _ in backs.values()}
    lengths = sorted({len(literal) for literal in buckets})
    for out in vocab.types:
        for k in lengths:
            if k > len(out):
                break
            bucket = buckets.get(out[len(out) - k:])
            if bucket is not None:
                bucket.append(out)
    for tree, (literal, back) in backs.items():
        bucket = buckets[literal]
        if (isinstance(back, Match) and isinstance(back.left, Replace)
                and isinstance(back.right, Replace)):
            i, j, (head_old, head), (tail_old, tail) = back
            found[tree] = [
                word for out in bucket
                if len(out) - j >= i and out[:i] == head_old
                and out[len(out) - j:] == tail_old
                and (word := head + out[i:len(out) - j] + tail) in vocab
            ]
        else:
            found[tree] = [
                word for out in bucket
                if (word := apply(back, out)) is not None and word in vocab
            ]
    return found


def discover_new_lemmas(
    vocab,
    trees: list[EditTree],
    lexicon: WeightedLexicon,
    evidence_factor: float,
    sources: dict[EditTree, list[str]] | None = None,
) -> list[str]:
    """Corpus words, sorted, that enough trees map into the vocabulary.

    A tree contributes one hit when it applies to the word and its
    output is itself an attested word; trees that do not fit contribute
    nothing, though they still count towards the cutoff.  A duplicate
    tree in ``trees`` counts twice, and words in ``lexicon`` get none.

    ``sources`` carries each tree's attested words (``_sources``) from
    call to call over one ``vocab``: only the trees it lacks are
    searched, and their words are added to it.  The lexicon filter and
    the cutoff apply when the hits are counted, so a bootstrap round
    whose trees were all retained before searches nothing and finds
    what a fresh search would.
    """
    if not trees:
        raise ValueError("cannot discover lemmas without retained trees")
    cutoff = min_discovery_evidence(len(trees), evidence_factor)
    if sources is None:
        sources = {}
    unseen = [tree for tree in trees if tree not in sources]
    if unseen:
        sources.update(_sources(vocab, unseen))
    hits = Counter(chain.from_iterable(sources[tree] for tree in trees))
    return sorted(
        word for word, count in hits.items()
        if count > cutoff and word not in lexicon
    )


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

    ``rounds=0`` runs the plain discovery stage.  The vocabulary does
    not change between rounds, so each round carries three things to
    the next: the candidate search's k-gram indexes, each built once;
    every retained tree's attested words, so that retrieval searches
    only the trees no earlier round retained; and the tree census.  New
    lemmas are appended to the lexicon at iteration max+1, and a word's
    candidates do not depend on the other lemmas, so each round searches
    candidates for the new lemmas only, adds only their pairs to the
    census, and re-applies the support cutoff for the grown lexicon.
    The census sums every tree's support in lexicon order, as a search
    over the whole grown lexicon would, so running one round and then
    feeding the result back in equals running two rounds at once.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    grams = GramIndex(vocab)
    sources: dict[EditTree, list[str]] = {}
    candidates = find_candidates(lexicon, vocab, candidate_ratio, grams=grams)
    trees, census = retain_frequent_trees(candidates, lexicon, tree_support_factor)
    for _ in range(rounds):
        if not trees:
            break
        new = discover_new_lemmas(
            vocab, trees, lexicon, lemma_evidence_factor, sources
        )
        if not new:
            break
        counted = len(lexicon)
        lexicon = lexicon.add_discovered(
            new, lexicon.max_iteration() + 1, lemma_decay
        )
        fresh = find_candidates(
            WeightedLexicon(lexicon.entries[counted:]),
            vocab,
            candidate_ratio,
            grams=grams,
        )
        trees, census = retain_frequent_trees(
            fresh, lexicon, tree_support_factor, census
        )
    return BootstrapResult(lexicon, trees, census)
