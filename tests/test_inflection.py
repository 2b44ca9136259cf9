import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inflection_oracle as oracle
from paracomp.inflection import (
    RuleTable,
    SlotRules,
    dump_rules,
    extract_affix_rules,
    inflect,
)


def test_rules_from_plain_suffix_pair():
    table = extract_affix_rules([(1, "work", "worked", 1.0)])
    rules = table.slots[1]
    assert rules.prefix == {("", ""): 1.0}
    # One suffix rule per split point, from the bare affix back through
    # the whole stem.
    assert rules.suffix == {
        ("", "ed"): 1.0,
        ("k", "ked"): 1.0,
        ("rk", "rked"): 1.0,
        ("ork", "orked"): 1.0,
        ("work", "worked"): 1.0,
    }


def test_rules_when_the_change_consumes_source_material():
    table = extract_affix_rules([(1, "continue", "continued", 1.0)])
    # Stem "continue", so the bare suffix rule maps "" -> "d"; the "e"
    # boundary variant appears one split further in.
    assert ("", "d") in table.slots[1].suffix
    assert ("e", "ed") in table.slots[1].suffix
    assert table.slots[1].prefix == {("", ""): 1.0}


def test_inflect_applies_learned_suffix():
    table = extract_affix_rules(
        [(1, "work", "worked", 1.0), (1, "walk", "walked", 1.0)]
    )
    assert inflect(table, 1, "walk") == "walked"
    assert inflect(table, 1, "work") == "worked"
    assert inflect(table, 1, "talk") == "talked"


def test_longest_matching_old_wins():
    table = extract_affix_rules(
        [(1, "love", "loved", 5.0), (1, "work", "worked", 1.0)]
    )
    # "love" matches both "" -> "ed" and "love" -> "loved"; the whole
    # word is the longer old side and wins regardless of support.
    assert inflect(table, 1, "love") == "loved"
    assert inflect(table, 1, "move") == "moved"
    assert inflect(table, 1, "talk") == "talked"


def test_bare_affix_rule_still_fires_on_unseen_stems():
    table = extract_affix_rules([(1, "continue", "continued", 1.0)])
    # The "" -> "d" rule matches every string, so even a disjoint stem
    # gets the affix. Generation never falls back to a plain copy here.
    assert inflect(table, 1, "xyz") == "xyzd"


def test_copy_fallback_when_no_rule_matches():
    table = extract_affix_rules([(1, "abc", "abd", 1.0)])
    # Stem "ab": olds are "c", "bc", "abc", none empty, none a suffix
    # of "xyz".
    assert table.slots[1].suffix == {
        ("c", "d"): 1.0,
        ("bc", "bd"): 1.0,
        ("abc", "abd"): 1.0,
    }
    assert inflect(table, 1, "xyz") == "xyz"
    assert inflect(table, 1, "abc") == "abd"


def test_support_breaks_ties_between_equal_length_olds():
    table = extract_affix_rules(
        [
            (1, "do", "dox", 1.0),
            (1, "go", "gox", 1.0),
            (1, "ra", "ray", 1.0),
        ]
    )
    # On "zz" only the bare rules apply: "" -> "x" carries support 2,
    # "" -> "y" support 1.
    assert table.slots[1].suffix[("", "x")] == 2.0
    assert table.slots[1].suffix[("", "y")] == 1.0
    assert inflect(table, 1, "zz") == "zzx"


def test_alphabetical_target_breaks_exact_ties():
    table = extract_affix_rules(
        [(1, "do", "doy", 1.0), (1, "ra", "rax", 1.0)]
    )
    assert table.slots[1].suffix[("", "x")] == table.slots[1].suffix[("", "y")]
    assert inflect(table, 1, "zz") == "zzx"


def test_prefix_rules_transfer():
    table = extract_affix_rules([(1, "happy", "unhappy", 1.0)])
    rules = table.slots[1]
    assert rules.prefix == {("", "un"): 1.0}
    assert ("", "") in rules.suffix
    assert inflect(table, 1, "happy") == "unhappy"
    assert inflect(table, 1, "kind") == "unkind"


def test_weights_accumulate_per_rule():
    table = extract_affix_rules(
        [(1, "walk", "walked", 0.5), (1, "talk", "talked", 0.25)]
    )
    assert table.slots[1].suffix[("", "ed")] == 0.75
    assert table.slots[1].suffix[("walk", "walked")] == 0.5
    assert table.slots[1].prefix[("", "")] == 0.75


def test_slots_are_learned_independently():
    table = extract_affix_rules(
        [(1, "walk", "walked", 1.0), (2, "walk", "walks", 1.0)]
    )
    assert inflect(table, 1, "talk") == "talked"
    assert inflect(table, 2, "talk") == "talks"


def test_unknown_slot_is_an_error():
    table = extract_affix_rules([(1, "walk", "walked", 1.0)])
    with pytest.raises(ValueError, match="unknown slot"):
        inflect(table, 9, "walk")


def test_disjoint_pair_is_skipped_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="paracomp.inflection"):
        table = extract_affix_rules(
            [(1, "go", "went", 1.0), (1, "walk", "walked", 1.0)]
        )
    assert "pair skipped" in caplog.text
    assert ("go", "went") not in table.slots[1].suffix
    assert inflect(table, 1, "walk") == "walked"


def test_empty_table_for_no_usable_pairs():
    table = extract_affix_rules([(1, "ab", "xyz", 1.0)])
    assert table.slots == {}


def test_dump_rules_layout(tmp_path):
    table = RuleTable(
        {
            2: SlotRules(suffix={("", "s"): 2.0}),
            1: SlotRules(prefix={("", ""): 1.5}, suffix={("", "ed"): 1.5}),
        }
    )
    out = tmp_path / "rules.tsv"
    dump_rules(table, str(out))
    assert out.read_text(encoding="utf-8") == (
        "1\tprefix\t\t\t1.5\n"
        "1\tsuffix\t\ted\t1.5\n"
        "2\tsuffix\t\ts\t2\n"
    )


@pytest.mark.parametrize("rules,lemma,expected", [
    # Equal supports, different new: the smallest new wins, in either
    # insertion order.
    (SlotRules(suffix={("", "y"): 1.0, ("", "x"): 1.0}), "zz", "zzx"),
    (SlotRules(suffix={("", "x"): 1.0, ("", "y"): 1.0}), "zz", "zzx"),
    (SlotRules(prefix={("", "ü"): 2.0, ("", "u"): 2.0}), "zz", "uzz"),
    # An empty old loses to a longer applicable one, whatever its support,
    # and still fires where the longer one does not apply.
    (SlotRules(suffix={("", "s"): 5.0, ("k", "ked"): 1.0}), "walk", "walked"),
    (SlotRules(suffix={("", "s"): 5.0, ("k", "ked"): 1.0}), "run", "runs"),
    (SlotRules(prefix={("", "x"): 5.0, ("ab", "y"): 1.0}), "abc", "yc"),
    # The prefix rule "ab" matches only the suffix rewrite of "a".
    (SlotRules(prefix={("", "u"): 3.0, ("ab", "c"): 1.0},
               suffix={("a", "ab"): 1.0}), "a", "c"),
    (SlotRules(prefix={("", "u"): 3.0, ("ab", "c"): 1.0},
               suffix={("a", "ab"): 1.0}), "b", "ub"),
    # The whole word as old, and an empty slot that copies.
    (SlotRules(suffix={("go", "went"): 1.0, ("", "es"): 4.0}), "go", "went"),
    (SlotRules(), "é", "é"),
])
def test_hand_built_rules_match_scan_oracle(rules, lemma, expected):
    table = RuleTable({1: rules})
    assert oracle.inflect(table, 1, lemma) == expected
    assert inflect(table, 1, lemma) == expected


def test_winners_hold_one_new_per_old():
    rules = SlotRules(suffix={("", "y"): 1.0, ("", "x"): 1.0, ("k", "ked"): 2.0,
                              ("k", "kt"): 0.5})
    assert rules.suffix_winners == {"": "x", "k": "ked"}
    assert rules.prefix_winners == {}


TEXT = st.text(alphabet="abcé", max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([1, 2]), TEXT, TEXT,
                  st.sampled_from([0.5, 1.0, 2.0])),
        max_size=8,
    ),
    lemmas=st.lists(TEXT, max_size=6),
)
def test_inflect_matches_scan_oracle_property(pairs, lemmas):
    table = extract_affix_rules(pairs)
    # Every training word is a lemma too, so the longer olds get hit.
    words = lemmas + [word for _, lemma, form, _ in pairs for word in (lemma, form)]
    for slot in table.slots:
        for word in words:
            assert inflect(table, slot, word) == oracle.inflect(table, slot, word)
