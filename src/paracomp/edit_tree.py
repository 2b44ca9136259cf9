"""Edit trees: reusable string-rewrite operations learned from word pairs.

An edit tree records how a source string turns into a target string.
It is built by anchoring on the longest common substring of the pair
and recursing on the flanking segments; leaves rewrite one fixed string
into another.  Once built, a tree is a partial function on arbitrary
strings: it applies wherever its structural constraints hold and
returns None everywhere else, so a tree learned from one word pair can
be tried on any other word.

Trees are immutable named tuples, so building, hashing and comparing
them runs in C.  A node equals the plain tuple of its fields:
``Replace("y", "ied") == ("y", "ied")``.  A ``Replace`` (two fields)
never equals a ``Match`` (four).

The longest common substring is found by a search over its length
rather than a table: a common substring of length L contains one of
every shorter length, so the longest length is the last L at which
some slice of ``x`` occurs in ``y``.  Each probe scans the starts of
``x`` in ascending order and looks each slice up with ``str.find``, so
the first hit is the smallest start in ``x``, then in ``y``, as a
row-major table fill would give.  The search tries the full length
n = min(len(x), len(y)) first and then bisects, so it makes at most
1 + log2(n) probes of at most ``len(x)`` C-level searches each, where a
scan down from n could make a probe per length.
"""

from __future__ import annotations

import json
from typing import NamedTuple


class Replace(NamedTuple):
    """Leaf node: rewrite exactly ``old`` into ``new``."""

    old: str
    new: str


class Match(NamedTuple):
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


def _first_common(x: str, y: str, length: int) -> tuple[int, int] | None:
    """Smallest (start_x, start_y) of a common substring of ``length``."""
    find = y.find
    for i in range(len(x) - length + 1):
        j = find(x[i:i + length])
        if j >= 0:
            return i, j
    return None


def longest_common_substring(x: str, y: str) -> tuple[int, int, int]:
    """Return (length, start_x, start_y) of the longest common substring.

    Ties are broken toward the smallest start in ``x``, then the smallest
    start in ``y``.  Returns (0, 0, 0) when the strings share nothing.
    """
    high = min(len(x), len(y))
    if high == 0:
        return 0, 0, 0
    hit = _first_common(x, y, high)
    if hit is not None:
        return high, *hit
    # A common substring of length ``low`` exists; none of length ``high``.
    low = 0
    best = (0, 0, 0)
    while high - low > 1:
        mid = (low + high) // 2
        hit = _first_common(x, y, mid)
        if hit is None:
            high = mid
        else:
            low = mid
            best = (mid, *hit)
    return best


def contained_flanks(source: str, target: str) -> tuple[str, str, str, str] | None:
    """The strings around the shared part, when one side contains the other.

    The longest common substring is then the shorter side at its first
    occurrence in the longer, as the search finds it, so one
    ``str.find`` places it.  Returns (source before, target before,
    source after, target after), which fix ``construct``'s tree; None
    when neither side contains the other or one is empty.
    """
    if source and target:
        j = target.find(source)
        if j >= 0:
            return "", target[:j], "", target[j + len(source):]
        i = source.find(target)
        if i >= 0:
            return source[:i], "", source[i + len(target):], ""
    return None


def construct(source: str, target: str) -> EditTree:
    """Build the edit tree that rewrites ``source`` into ``target``."""
    # An empty side shares nothing, and most flanks of a suffixing pair
    # are empty, so those skip the search.  So does a pair where one side
    # contains the other.
    if source and target:
        flanks = contained_flanks(source, target)
        if flanks is not None:
            source_before, target_before, source_after, target_after = flanks
            return Match(len(source_before), len(source_after),
                         Replace(source_before, target_before),
                         Replace(source_after, target_after))
        length, sx, sy = longest_common_substring(source, target)
        if length:
            return Match(
                sx,
                len(source) - sx - length,
                construct(source[:sx], target[:sy]),
                construct(source[sx + length:], target[sy + length:]),
            )
    return Replace(source, target)


def apply(tree: EditTree, text: str) -> str | None:
    """Apply ``tree`` to ``text``; None when the tree does not fit.

    Most children are leaves, so a leaf child is read in place rather
    than by a recursive call.
    """
    if isinstance(tree, Replace):
        return tree.new if text == tree.old else None
    i, j, left, right = tree
    end = len(text) - j
    if end < i:
        return None
    if isinstance(left, Replace):
        if text[:i] != left.old:
            return None
        head = left.new
    else:
        head = apply(left, text[:i])
        if head is None:
            return None
    if isinstance(right, Replace):
        if text[end:] != right.old:
            return None
        tail = right.new
    else:
        tail = apply(right, text[end:])
        if tail is None:
            return None
    return head + text[i:end] + tail


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
