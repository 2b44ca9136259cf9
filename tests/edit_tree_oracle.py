"""Dynamic-programming longest common substring: the reference for the length search.

This is the table ``paracomp.edit_tree.longest_common_substring`` filled
before it became a binary search over ``str.find``, kept verbatim so the
tests can check the search against it, together with a ``construct``
that builds its trees on this table.
"""

from __future__ import annotations

from paracomp.edit_tree import EditTree, Match, Replace


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
