"""Brute-force candidate search: the reference for the k-gram index.

This is the scan ``paracomp.discovery.find_candidates`` ran before it
became an index lookup, kept verbatim (minus the process pool, which
split the lemmas into chunks and merged them back in lexicon order) so
the tests can check the index against it.  Every (lemma, word) pair is
compared with a dynamic-programming longest common substring.
"""

from __future__ import annotations

from paracomp.lexicon import WeightedLexicon


def lcs_length(x: str, y: str) -> int:
    """Length of the longest common substring, without offsets."""
    if len(x) > len(y):
        x, y = y, x
    if not x:
        return 0
    best = 0
    n = len(x)
    prev = [0] * (n + 1)
    cur = [0] * (n + 1)
    for cy in y:
        for i in range(n):
            if x[i] == cy:
                v = prev[i] + 1
                cur[i + 1] = v
                if v > best:
                    best = v
            else:
                cur[i + 1] = 0
        prev, cur = cur, prev
    return best


def _candidates_for(
    lemma: str,
    words: list[str],
    charsets: list[frozenset[str]],
    threshold: float,
) -> list[str]:
    # need is exclusive: a word qualifies iff lcs > threshold * |lemma|.
    need = threshold * len(lemma)
    lemma_chars = set(lemma)
    out = []
    for word, chars in zip(words, charsets):
        if min(len(word), len(lemma)) <= need:
            continue
        if lemma_chars.isdisjoint(chars):
            continue
        if lcs_length(lemma, word) > need:
            out.append(word)
    return out


def find_candidates(
    lexicon: WeightedLexicon,
    vocab,
    ratio_threshold: float,
) -> dict[str, list[str]]:
    """Candidate forms per lemma, each list sorted."""
    if not 0.0 <= ratio_threshold < 1.0:
        raise ValueError(
            f"ratio threshold must be in [0, 1), got {ratio_threshold}"
        )
    lemmas = lexicon.lemmas()
    for lemma in lemmas:
        if not lemma:
            raise ValueError("cannot search candidates for an empty lemma")
    words = sorted(vocab.types)
    result: dict[str, list[str]] = {}
    charsets = [frozenset(w) for w in words]
    for lemma in lemmas:
        result[lemma] = _candidates_for(lemma, words, charsets, ratio_threshold)
    return result
