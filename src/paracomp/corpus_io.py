"""Readers and writers for corpora, lemma lists, gold tables and predictions.

All text is treated as UTF-8 and lowercased on the way in, so the rest
of the package never has to think about case.  A corpus file holds one
pre-tokenized sentence per line, tokens separated by whitespace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Corpus:
    """Token stream with sentence boundaries.

    ``sentence_boundaries`` holds the exclusive end offset of each
    sentence, strictly increasing, last entry == len(tokens).
    """

    tokens: list[str]
    sentence_boundaries: list[int]

    def __len__(self) -> int:
        return len(self.tokens)

    def sentences(self) -> list[tuple[int, int]]:
        """(start, end) token spans, one per sentence."""
        spans = []
        start = 0
        for end in self.sentence_boundaries:
            spans.append((start, end))
            start = end
        return spans


@dataclass
class Vocabulary:
    """Distinct word types of a corpus with their token counts."""

    counts: Counter = field(default_factory=Counter)

    def __contains__(self, word: str) -> bool:
        return word in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def types(self):
        return self.counts.keys()


def load_corpus(path: str) -> tuple[Corpus, Vocabulary]:
    """Read a one-sentence-per-line corpus file.

    Blank lines are skipped.  Invalid UTF-8 is rejected with the
    offending line number in the message.
    """
    tokens: list[str] = []
    boundaries: list[int] = []
    counts: Counter = Counter()
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            words = line.lower().split()
            if not words:
                continue
            tokens.extend(words)
            counts.update(words)
            boundaries.append(len(tokens))
    return Corpus(tokens, boundaries), Vocabulary(counts)


def load_lexicon(path: str) -> list[str]:
    """Read a lemma list, one lemma per line.

    Duplicates keep their first occurrence, blank lines are skipped,
    and an empty result is an error.  A lemma containing whitespace is
    an error too: it could never match a whitespace-split corpus token,
    and its row in the predictions would not read back.
    """
    lemmas: list[str] = []
    seen: set[str] = set()
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            lemma = line.strip().lower()
            if not lemma:
                continue
            if len(lemma.split()) > 1:
                raise ValueError(
                    f"{path}: line {lineno}: lemma {lemma!r} contains whitespace"
                )
            if lemma in seen:
                continue
            seen.add(lemma)
            lemmas.append(lemma)
    if not lemmas:
        raise ValueError(f"{path}: lexicon is empty")
    return lemmas


def load_gold(path: str) -> dict[str, dict[str, str]]:
    """Read a gold inflection table: lemma<TAB>form<TAB>slot-label rows.

    Returns {lemma: {slot_label: form}}.  A duplicate (lemma, slot)
    pair is an error reported with its row number.
    """
    table: dict[str, dict[str, str]] = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, "
                    f"got {len(fields)}"
                )
            lemma, form, slot = fields
            lemma = lemma.strip().lower()
            form = form.strip().lower()
            slot = slot.strip()
            if not lemma or not form or not slot:
                raise ValueError(f"{path}: line {lineno}: empty field")
            row = table.setdefault(lemma, {})
            if slot in row:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate entry for "
                    f"({lemma!r}, {slot!r})"
                )
            row[slot] = form
    if not table:
        raise ValueError(f"{path}: gold table is empty")
    return table


def write_predictions(predictions: dict[str, dict[int, str]], path: str) -> None:
    """Write predictions as lemma<TAB>form<TAB>slot-id rows.

    Rows are sorted by lemma, then slot id, so identical predictions
    always serialize to identical bytes.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for lemma in sorted(predictions):
            row = predictions[lemma]
            for slot in sorted(row):
                handle.write(f"{lemma}\t{row[slot]}\t{slot}\n")


def read_predictions(path: str) -> dict[str, dict[int, str]]:
    """Inverse of write_predictions."""
    table: dict[str, dict[int, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, "
                    f"got {len(fields)}"
                )
            lemma, form, slot_text = fields
            # An empty form is a legal prediction; an empty lemma is not.
            if not lemma:
                raise ValueError(f"{path}: line {lineno}: empty lemma")
            try:
                slot = int(slot_text)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: slot id {slot_text!r} is not an integer"
                ) from None
            row = table.setdefault(lemma, {})
            if slot in row:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate entry for ({lemma!r}, {slot})"
                )
            row[slot] = form
    return table
