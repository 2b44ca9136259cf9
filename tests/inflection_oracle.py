"""Rule choice by scanning every rule: the reference for ``inflect``.

``_pick`` and the ``inflect`` built on it as ``paracomp.inflection`` ran
them before each slot's winning rule per ``old`` was looked up, kept
verbatim so the tests can check the new code against them.  Every cell
scans all of its slot's suffix rules, then all of its prefix rules.
"""

from __future__ import annotations

from typing import Hashable

from paracomp.inflection import Rule, RuleTable


def _pick(rules: dict[Rule, float], text: str, at_end: bool) -> Rule | None:
    """Best applicable rule: longest old, then heaviest, then smallest new.

    Two applicable olds of equal length are the same string (both are
    the same slice of ``text``), so ties reduce to competing news.
    """
    best: tuple[str, str, float] | None = None
    for (old, new), support in rules.items():
        if at_end:
            if not text.endswith(old):
                continue
        elif not text.startswith(old):
            continue
        if best is None:
            best = (old, new, support)
            continue
        b_old, b_new, b_support = best
        if len(old) > len(b_old):
            best = (old, new, support)
        elif len(old) == len(b_old):
            if support > b_support or (support == b_support and new < b_new):
                best = (old, new, support)
    if best is None:
        return None
    return best[0], best[1]


def inflect(table: RuleTable, slot: Hashable, lemma: str) -> str:
    """Rewrite ``lemma`` into its form for ``slot``.

    Total: when no rule matches, the lemma is returned unchanged.
    An unknown slot is an error.
    """
    if slot not in table.slots:
        raise ValueError(f"unknown slot {slot!r}")
    rules = table.slots[slot]
    result = lemma
    picked = _pick(rules.suffix, result, at_end=True)
    if picked is not None:
        old, new = picked
        result = result[:len(result) - len(old)] + new
    picked = _pick(rules.prefix, result, at_end=False)
    if picked is not None:
        old, new = picked
        result = new + result[len(old):]
    return result
