"""Affix-editing rules: turning slot examples into a string rewriter.

From every (lemma, form) training pair the longest common substring is
taken as the stem.  The material before it yields one prefix rule; the
material after it yields a family of suffix rules, one per split point
walking from the stem boundary back into the stem, so both "" -> "ed"
and "work" -> "worked" are learned from a single pair.  Generation
applies the longest matching suffix rule, then the longest matching
prefix rule, and falls back to copying the lemma.  Of the rules of one
``old`` the heaviest wins, then the smallest ``new``; each slot picks
these winners once, so generation only looks them up.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable

from .edit_tree import longest_common_substring

log = logging.getLogger(__name__)

Rule = tuple[str, str]


@dataclass
class SlotRules:
    """One slot's weighted rules, fixed once ``inflect`` has read them."""

    prefix: dict[Rule, float] = field(default_factory=dict)
    suffix: dict[Rule, float] = field(default_factory=dict)

    @cached_property
    def prefix_winners(self) -> dict[str, str]:
        return _winners(self.prefix)

    @cached_property
    def suffix_winners(self) -> dict[str, str]:
        return _winners(self.suffix)


def _winners(rules: dict[Rule, float]) -> dict[str, str]:
    """Each old mapped to the new of its heaviest rule, smallest new on ties."""
    winners: dict[str, str] = {}
    for (old, new), _ in sorted(rules.items(), key=lambda kv: (-kv[1], kv[0][1])):
        winners.setdefault(old, new)
    return winners


@dataclass
class RuleTable:
    slots: dict[Hashable, SlotRules] = field(default_factory=dict)


def extract_affix_rules(
    triples: Iterable[tuple[Hashable, str, str, float]],
) -> RuleTable:
    """Learn weighted prefix/suffix rules from (slot, lemma, form, weight).

    Pairs with no common substring cannot be split into affixes and
    are skipped with a warning.
    """
    table = RuleTable()
    for slot, source, target, weight in triples:
        length, sx, sy = longest_common_substring(source, target)
        if length == 0:
            log.warning(
                "no common substring in %r -> %r, pair skipped", source, target
            )
            continue
        rules = table.slots.setdefault(slot, SlotRules())
        prefix_rule = (source[:sx], target[:sy])
        rules.prefix[prefix_rule] = rules.prefix.get(prefix_rule, 0.0) + weight
        stem = source[sx:sx + length]
        source_suffix = source[sx + length:]
        target_suffix = target[sy + length:]
        for cut in range(length + 1):
            rule = (stem[length - cut:] + source_suffix,
                    stem[length - cut:] + target_suffix)
            rules.suffix[rule] = rules.suffix.get(rule, 0.0) + weight
    return table


def inflect(table: RuleTable, slot: Hashable, lemma: str) -> str:
    """Rewrite ``lemma`` into its form for ``slot``.

    Total: when no rule matches, the lemma is returned unchanged.
    An unknown slot is an error.
    """
    if slot not in table.slots:
        raise ValueError(f"unknown slot {slot!r}")
    rules = table.slots[slot]
    result = lemma
    # Longest old first: two applicable olds of one length are one string.
    for cut in range(len(result) + 1):
        new = rules.suffix_winners.get(result[cut:])
        if new is not None:
            result = result[:cut] + new
            break
    for cut in range(len(result), -1, -1):
        new = rules.prefix_winners.get(result[:cut])
        if new is not None:
            return new + result[cut:]
    return result


def dump_rules(table: RuleTable, path: str) -> None:
    """Write slot<TAB>kind<TAB>old<TAB>new<TAB>support rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for slot in sorted(table.slots, key=str):
            rules = table.slots[slot]
            for kind, bucket in (("prefix", rules.prefix),
                                 ("suffix", rules.suffix)):
                for old, new in sorted(bucket):
                    support = bucket[(old, new)]
                    handle.write(
                        f"{slot}\t{kind}\t{old}\t{new}\t{support:g}\n"
                    )
