"""Paradigm candidate discovery: which corpus words may inflect which lemmas.

A word is a candidate for a lemma when their longest common substring
covers more than ``ratio_threshold`` of the lemma.  Candidates come from
an exact k-gram index over the vocabulary rather than a pairwise scan.
Each (lemma, candidate) pair yields an edit tree; trees are kept when
their weighted support across the lexicon clears a size-dependent cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

from .edit_tree import EditTree, construct, to_sexpr
from .lexicon import WeightedLexicon


def min_tree_support(effective_lexicon_size: float, support_factor: float) -> float:
    """Weighted support a tree needs to be kept; never below 2."""
    return max(2.0, support_factor * effective_lexicon_size)


def _gram_index(words: list[str], k: int) -> dict[str, list[int]]:
    """Map each k-gram to the ascending indices of the words containing it."""
    index: dict[str, list[int]] = {}
    for i, word in enumerate(words):
        for j in range(len(word) - k + 1):
            gram = word[j:j + k]
            hits = index.get(gram)
            if hits is None:
                index[gram] = [i]
            # A gram repeated within the word is already listed for it.
            elif hits[-1] != i:
                hits.append(i)
    return index


class GramIndex:
    """A vocabulary's words, sorted, and their k-gram indexes by k.

    Each k's index is built on first use and kept, so candidate searches
    that share one ``GramIndex`` build it once.
    """

    def __init__(self, vocab):
        self.words: list[str] = sorted(vocab.types)
        self._by_k: dict[int, dict[str, list[int]]] = {}

    def for_k(self, k: int) -> dict[str, list[int]]:
        """Each k-gram -> the ascending indices of the words containing it."""
        if k not in self._by_k:
            self._by_k[k] = _gram_index(self.words, k)
        return self._by_k[k]


def find_candidates(
    lexicon: WeightedLexicon,
    vocab,
    ratio_threshold: float,
    workers: int = 1,
    grams: GramIndex | None = None,
) -> dict[str, list[str]]:
    """Candidate forms per lemma, each list sorted, lemmas in lexicon order.

    A word qualifies iff lcs(lemma, word) > need = ratio_threshold *
    len(lemma).  The common substring length is an integer, so that is
    lcs >= k with k = floor(need) + 1, which holds iff the word contains
    one of the lemma's k-grams (Ukkonen 1992).  The search is therefore
    an exact lookup in a gram -> words index, built once per distinct k.
    ``grams``, when given, must index ``vocab``; the indexes this call
    builds are added to it, so a later call with it (a later bootstrap
    round) only builds the k it has not seen.
    """
    # workers is ignored: the benchmark's traced run still reads it.
    if not 0.0 <= ratio_threshold < 1.0:
        raise ValueError(
            f"ratio threshold must be in [0, 1), got {ratio_threshold}"
        )
    lemmas = lexicon.lemmas()
    for lemma in lemmas:
        if not lemma:
            raise ValueError("cannot search candidates for an empty lemma")
    if grams is None:
        grams = GramIndex(vocab)
    words = grams.words
    result: dict[str, list[str]] = {}
    for lemma in lemmas:
        need = ratio_threshold * len(lemma)
        k = int(need) + 1
        index = grams.for_k(k)
        hits: set[int] = set()
        for j in range(len(lemma) - k + 1):
            hits.update(index.get(lemma[j:j + k], ()))
        result[lemma] = [words[i] for i in sorted(hits)]
    return result


@dataclass
class TreeCensus:
    """Bookkeeping from tree extraction.

    ``weights`` maps every constructed tree to its weighted support;
    ``cutoff`` is the support a tree needed to be kept.
    """

    weights: dict[EditTree, float]
    cutoff: float = 0.0


def retain_frequent_trees(
    candidates: dict[str, list[str]],
    lexicon: WeightedLexicon,
    support_factor: float,
    census: TreeCensus | None = None,
) -> tuple[list[EditTree], TreeCensus]:
    """Build trees from all (lemma, candidate) pairs and keep the frequent ones.

    A tree's support is the sum of the weights of the lemmas it was
    built from (one increment per candidate pair), added in lexicon
    order.  Given a ``census``, the pairs in ``candidates`` are added to
    it in place, so they must be pairs it has not counted yet, of
    lemmas after the ones it has.  The cutoff is always taken from the
    whole ``lexicon``, and is stored as ``census.cutoff``.  Kept trees
    are ordered by descending support, then by serialized form.
    """
    if census is None:
        census = TreeCensus({})
    weights = census.weights
    for entry in lexicon:
        for word in candidates.get(entry.lemma, ()):
            tree = construct(entry.lemma, word)
            weights[tree] = weights.get(tree, 0.0) + entry.weight
    census.cutoff = cutoff = min_tree_support(lexicon.effective_size(), support_factor)
    kept = [tree for tree, weight in weights.items() if weight >= cutoff]
    kept.sort(key=lambda tree: (-weights[tree], to_sexpr(tree)))
    return kept, census
