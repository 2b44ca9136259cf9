"""Edit trees: reusable string-rewrite operations learned from word pairs.

An edit tree records how a source string turns into a target string.
It is built by anchoring on the longest common substring of the pair
and recursing on the flanking segments; leaves rewrite one fixed string
into another.  Once built, a tree is a partial function on arbitrary
strings: it applies wherever its structural constraints hold and
returns None everywhere else, so a tree learned from one word pair can
be tried on any other word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Replace:
    """Leaf node: rewrite exactly ``old`` into ``new``."""

    old: str
    new: str


@dataclass(frozen=True)
class Match:
    """Inner node: a kept middle segment with subtrees for the prefix and suffix.

    ``prefix_len`` and ``suffix_len`` are measured on the *source* string;
    whatever lies between them passes through unchanged.
    """

    prefix_len: int
    suffix_len: int
    left: EditTree
    right: EditTree


EditTree = Replace | Match

#: Tree that maps every string to itself.
IDENTITY: EditTree = Match(0, 0, Replace("", ""), Replace("", ""))


def longest_common_substring(x: str, y: str) -> tuple[int, int, int]:
    """Return (length, start_x, start_y) of the longest common substring.

    Ties are broken toward the smallest start in ``x``, then the smallest
    start in ``y``.  Returns (0, 0, 0) when the strings share nothing.
    """
    if not x or not y:
        return 0, 0, 0
    best_len = 0
    best_x = 0
    best_y = 0
    m = len(y)
    prev = [0] * (m + 1)
    cur = [0] * (m + 1)
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            if cx == cy:
                run = prev[j] + 1
                cur[j + 1] = run
                # Strict > keeps the first maximum found in row-major
                # order, which is exactly the smallest (start_x, start_y).
                if run > best_len:
                    best_len = run
                    best_x = i + 1 - run
                    best_y = j + 1 - run
            else:
                cur[j + 1] = 0
        prev, cur = cur, prev
    return best_len, best_x, best_y


def construct(source: str, target: str) -> EditTree:
    """Build the edit tree that rewrites ``source`` into ``target``."""
    length, sx, sy = longest_common_substring(source, target)
    if length == 0:
        return Replace(source, target)
    return Match(
        sx,
        len(source) - sx - length,
        construct(source[:sx], target[:sy]),
        construct(source[sx + length:], target[sy + length:]),
    )


def apply(tree: EditTree, text: str) -> str | None:
    """Apply ``tree`` to ``text``; None when the tree does not fit."""
    if isinstance(tree, Replace):
        return tree.new if text == tree.old else None
    i = tree.prefix_len
    j = tree.suffix_len
    if len(text) < i + j:
        return None
    head = apply(tree.left, text[:i])
    if head is None:
        return None
    tail = apply(tree.right, text[len(text) - j:])
    if tail is None:
        return None
    return head + text[i:len(text) - j] + tail


def _output_len(tree: EditTree, input_len: int) -> int:
    """Length of the output of ``tree`` on any input of ``input_len`` chars."""
    if isinstance(tree, Replace):
        return len(tree.new)
    i = tree.prefix_len
    j = tree.suffix_len
    return (_output_len(tree.left, i) + input_len - i - j
            + _output_len(tree.right, j))


def inverse(tree: EditTree) -> EditTree:
    """The tree that undoes ``tree``.

    Leaves swap ``old`` and ``new``; an inner node inverts both children
    and measures its prefix and suffix on the output side, whose lengths
    are fixed by the children's input lengths.  An edit tree is
    injective, so ``apply(inverse(t), apply(t, w)) == w`` wherever ``t``
    applies.
    """
    if isinstance(tree, Replace):
        return Replace(tree.new, tree.old)
    return Match(
        _output_len(tree.left, tree.prefix_len),
        _output_len(tree.right, tree.suffix_len),
        inverse(tree.left),
        inverse(tree.right),
    )


def last_literal(tree: EditTree) -> str:
    """The rightmost leaf's ``new``: a suffix of every output of ``tree``."""
    while isinstance(tree, Match):
        tree = tree.right
    return tree.new


def to_sexpr(tree: EditTree) -> str:
    """Serialize a tree to a stable s-expression, for logs and dumps."""
    if isinstance(tree, Replace):
        old = json.dumps(tree.old, ensure_ascii=False)
        new = json.dumps(tree.new, ensure_ascii=False)
        return f"(rep {old} {new})"
    left = to_sexpr(tree.left)
    right = to_sexpr(tree.right)
    return f"(match {tree.prefix_len} {tree.suffix_len} {left} {right})"
