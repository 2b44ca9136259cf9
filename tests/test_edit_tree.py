import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edit_tree_oracle
import paracomp
from discovery_oracle import lcs_length
from paracomp import edit_tree
from paracomp.discovery import retain_frequent_trees
from paracomp.edit_tree import (
    IDENTITY,
    Match,
    Replace,
    apply,
    construct,
    inverse,
    last_literal,
    longest_common_substring,
    to_sexpr,
)
from paracomp.lexicon import WeightedLexicon


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


_TIE_TEXT = st.one_of(
    st.text(alphabet="ab", max_size=12),
    st.text(alphabet="abc", max_size=12),
    st.text(max_size=12),
)


@settings(max_examples=500, deadline=None)
@given(_TIE_TEXT, _TIE_TEXT)
def test_lcs_matches_dynamic_programming_oracle(x, y):
    # Two- and three-letter alphabets force repeats and ties; arbitrary
    # text and empty strings cover the rest.
    assert longest_common_substring(x, y) == (
        edit_tree_oracle.longest_common_substring(x, y)
    )


@settings(max_examples=300, deadline=None)
@given(_TIE_TEXT, _TIE_TEXT)
def test_construct_matches_oracle_construct(x, y):
    assert to_sexpr(construct(x, y)) == to_sexpr(edit_tree_oracle.construct(x, y))


@st.composite
def contained_pairs(draw):
    """(x, y) with one inside the other, at any offset, maybe repeated.

    The outer string is ``base`` with the inner one inserted at a drawn
    offset, and ``base`` may hold more copies of it, as "ab" in "xabab".
    """
    inner = draw(_TIE_TEXT.filter(bool))
    chunk = st.just(inner) | st.text(alphabet="abx", max_size=3)
    base = "".join(draw(st.lists(chunk, max_size=4)))
    at = draw(st.integers(0, len(base)))
    outer = base[:at] + inner + base[at:]
    return draw(st.sampled_from([(inner, outer), (outer, inner), (inner, inner)]))


@settings(max_examples=500, deadline=None)
@given(contained_pairs())
def test_contained_pairs_match_oracle_construct(pair):
    x, y = pair
    assert to_sexpr(construct(x, y)) == to_sexpr(edit_tree_oracle.construct(x, y))


@pytest.mark.parametrize(
    "inner, base", [("ab", "xabab"), ("a", "aba"), ("é", "xé")],
    ids=["repeated", "overlapping", "non-ascii"],
)
def test_contained_pairs_skip_the_search_at_every_offset(inner, base, monkeypatch):
    searched = []
    monkeypatch.setattr(
        edit_tree, "longest_common_substring",
        lambda x, y: searched.append((x, y)),
    )
    for at in range(len(base) + 1):
        outer = base[:at] + inner + base[at:]
        for x, y in ((inner, outer), (outer, inner)):
            assert construct(x, y) == edit_tree_oracle.construct(x, y)
    assert searched == []


def _random_pair(alphabet: str, size: int, seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    x = "".join(rng.choice(alphabet) for _ in range(size))
    y = "".join(rng.choice(alphabet) for _ in range(size))
    return x, y


@pytest.mark.parametrize(
    "x, y",
    [
        (("abc" * 667)[:2000], ("xyz" * 667)[:2000]),
        _random_pair("ab", 400, seed=3),
    ],
    ids=["disjoint-2000", "ab-400"],
)
def test_lcs_worst_cases_bisect_the_length(x, y, monkeypatch):
    expected = edit_tree_oracle.longest_common_substring(x, y)
    probes: list[int] = []
    probe = edit_tree._first_common

    def counted(x, y, length):
        probes.append(length)
        return probe(x, y, length)

    monkeypatch.setattr(edit_tree, "_first_common", counted)
    assert longest_common_substring(x, y) == expected
    # The full length, then a bisection: a descending scan would probe
    # every length from 400 or 2000 down to the answer.
    assert len(probes) <= 1 + math.ceil(math.log2(min(len(x), len(y))))


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


def test_trees_are_tuples_of_their_fields():
    assert Replace("y", "ied") == ("y", "ied")
    assert IDENTITY == (0, 0, ("", ""), ("", ""))
    leaves = [Replace("", ""), Replace("a", "b"), Replace("ab", "")]
    inner = [IDENTITY, construct("walk", "walked"), Match(1, 1, *leaves[:2])]
    for leaf in leaves:
        for node in inner:
            assert leaf != node
            assert node != leaf


def test_equal_trees_share_one_census_key():
    lexicon = WeightedLexicon.from_lemmas(["walk", "talk"])
    _, census = retain_frequent_trees(
        {"walk": ["walked"], "talk": ["talked"]}, lexicon, 0.0
    )
    assert census.weights == {construct("walk", "walked"): 2.0}


@pytest.mark.parametrize("tree, field", [
    (Replace("a", "b"), "old"),
    (Replace("a", "b"), "new"),
    (IDENTITY, "prefix_len"),
    (IDENTITY, "right"),
])
def test_tree_fields_cannot_be_assigned(tree, field):
    with pytest.raises(AttributeError):
        setattr(tree, field, getattr(tree, field))


def test_tree_repr_is_stable():
    assert repr(construct("walk", "walked")) == (
        "Match(prefix_len=0, suffix_len=0, left=Replace(old='', new=''), "
        "right=Replace(old='', new='ed'))"
    )


def test_package_exports_tree_types():
    assert paracomp.Replace is Replace
    assert paracomp.Match is Match
    assert paracomp.EditTree is edit_tree.EditTree
    assert paracomp.IDENTITY is IDENTITY


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


def test_inverse_known_trees():
    tree = construct("najtrudniejszy", "trudny")
    assert inverse(tree) == Match(
        0, 1,
        Replace("", "naj"),
        Match(0, 0, Replace("", "iejsz"), Replace("", "")),
    )
    assert apply(inverse(tree), "apples") == "najappleiejszs"
    assert inverse(Replace("abc", "xyz")) == Replace("xyz", "abc")
    assert inverse(IDENTITY) == IDENTITY
    study = construct("study", "studied")
    assert inverse(study) == Match(0, 3, Replace("", ""), Replace("ied", "y"))
    assert last_literal(study) == "ied"
    assert last_literal(Replace("a", "b")) == "b"


_UNICODE = st.text(alphabet="abcαжщ汉🦉\u0301", max_size=10)


@settings(max_examples=400, deadline=None)
@given(_UNICODE, _UNICODE, st.lists(_UNICODE, max_size=4))
def test_inverse_round_trip_property(x, y, targets):
    tree = construct(x, y)
    back = inverse(tree)
    for word in [x, *targets]:
        out = apply(tree, word)
        if out is None:
            continue
        assert apply(back, out) == word
        assert out.endswith(last_literal(tree))
    assert inverse(back) == tree


_TWO_LETTERS = st.text(alphabet="ab", max_size=8)


@settings(max_examples=400, deadline=None)
@given(_TWO_LETTERS, _TWO_LETTERS, st.lists(_TWO_LETTERS, max_size=6))
def test_constructed_trees_undo_their_inverse(x, y, outputs):
    # Lemma retrieval credits a word found by a tree's inverse without
    # applying the tree forward: a tree equal to the inverse of its
    # inverse maps every word its inverse produces back onto its input.
    tree = construct(x, y)
    back = inverse(tree)
    assert inverse(back) == tree
    for out in [y, *outputs]:
        word = apply(back, out)
        if word is not None:
            assert apply(tree, word) == out


#: Hand-built trees, most of whose lengths fit no input.
_SHORT = st.text(alphabet="ab", max_size=2)
_HAND_TREES = st.recursive(
    st.builds(Replace, _SHORT, _SHORT),
    lambda children: st.builds(
        Match, st.integers(0, 3), st.integers(0, 3), children, children
    ),
    max_leaves=4,
)
_ALL_SHORT_WORDS = [
    "".join(letters) for n in range(7) for letters in itertools.product("ab", repeat=n)
]


@settings(max_examples=300, deadline=None)
@given(_HAND_TREES)
def test_trees_that_apply_are_the_inverse_of_their_inverse(tree):
    # Lemma retrieval drops the trees this fails for: they apply to nothing.
    if inverse(inverse(tree)) != tree:
        assert all(apply(tree, word) is None for word in _ALL_SHORT_WORDS)
