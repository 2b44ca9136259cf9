import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discovery_oracle import lcs_length
from paracomp.edit_tree import (
    IDENTITY,
    Match,
    Replace,
    apply,
    construct,
    longest_common_substring,
    to_sexpr,
)


def brute_lcs(x: str, y: str) -> tuple[int, int, int]:
    """Quadratic-ish reference: longest common substring, ties toward
    the smallest start in x, then in y."""
    best = (0, 0, 0)
    for i in range(len(x)):
        for j in range(len(y)):
            k = 0
            while i + k < len(x) and j + k < len(y) and x[i + k] == y[j + k]:
                k += 1
            if k > best[0]:
                best = (k, i, j)
    return best


def test_lcs_known_values():
    assert longest_common_substring("najtrudniejszy", "trudny") == (5, 3, 0)
    assert longest_common_substring("study", "studied") == (4, 0, 0)
    assert longest_common_substring("walk", "walked") == (4, 0, 0)
    assert longest_common_substring("abc", "xyz") == (0, 0, 0)
    assert longest_common_substring("", "abc") == (0, 0, 0)
    assert longest_common_substring("abc", "") == (0, 0, 0)


def test_lcs_tie_breaking():
    # "ab" occurs at x-starts 0 and 3; the smaller start wins.
    assert longest_common_substring("abXab", "ab") == (2, 0, 0)
    # equal x-start, two y occurrences: smaller y-start wins.
    assert longest_common_substring("ab", "abYab") == (2, 0, 0)
    assert longest_common_substring("XabYab", "Zab") == (2, 1, 1)


def test_lcs_against_brute_force():
    rng = random.Random(20240817)
    for _ in range(2000):
        x = "".join(rng.choice("aabbc") for _ in range(rng.randrange(0, 9)))
        y = "".join(rng.choice("aabbc") for _ in range(rng.randrange(0, 9)))
        expected = brute_lcs(x, y)
        assert longest_common_substring(x, y) == expected, (x, y)
        assert lcs_length(x, y) == expected[0], (x, y)


def test_construct_known_tree():
    tree = construct("najtrudniejszy", "trudny")
    assert tree == Match(
        3, 6,
        Replace("naj", ""),
        Match(5, 0, Replace("iejsz", ""), Replace("", "")),
    )
    assert construct("walk", "walked") == Match(
        0, 0, Replace("", ""), Replace("", "ed")
    )
    assert construct("study", "studied") == Match(
        0, 1, Replace("", ""), Replace("y", "ied")
    )
    assert construct("abc", "xyz") == Replace("abc", "xyz")


def test_construct_identity():
    assert construct("walk", "walk") == IDENTITY
    assert apply(IDENTITY, "anything") == "anything"
    assert apply(IDENTITY, "") == ""


def test_apply_transfers_to_new_words():
    tree = construct("najtrudniejszy", "trudny")
    assert apply(tree, "najappleiejszs") == "apples"
    # too short for prefix 3 + suffix 6:
    assert apply(tree, "trudny") is None
    assert apply(construct("walk", "walked"), "talk") == "talked"


def test_apply_leaf_partiality():
    tree = Replace("abc", "xyz")
    assert apply(tree, "abc") == "xyz"
    assert apply(tree, "abd") is None
    assert apply(tree, "") is None


def test_apply_checks_inner_segments():
    # prefix subtree demands the literal "naj".
    tree = construct("najtrudniejszy", "trudny")
    assert apply(tree, "nojtrudniejszy") is None


def test_to_sexpr_golden():
    tree = construct("najtrudniejszy", "trudny")
    assert to_sexpr(tree) == (
        '(match 3 6 (rep "naj" "") (match 5 0 (rep "iejsz" "") (rep "" "")))'
    )
    assert to_sexpr(Replace('a"b', "c")) == '(rep "a\\"b" "c")'


def test_trees_are_hashable_values():
    a = construct("walk", "walked")
    b = construct("work", "worked")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=14), st.text(max_size=14))
def test_round_trip_property(x, y):
    assert apply(construct(x, y), x) == y


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
def test_apply_is_total_partial_function(x, y, z):
    out = apply(construct(x, y), z)
    assert out is None or isinstance(out, str)


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=12))
def test_identity_construction(x):
    assert construct(x, x) == IDENTITY
