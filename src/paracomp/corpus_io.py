"""Readers and writers for corpora, lemma lists, gold tables and predictions.

All text is treated as UTF-8 and lowercased on the way in, so the rest
of the package never has to think about case.  A corpus file holds one
pre-tokenized sentence per line, tokens separated by whitespace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


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


def _lines(path: str):
    """Yield (line number, text) for each line of a UTF-8 file.

    Only a newline ends a line, and the line keeps it; a lone carriage
    return does not.  Invalid UTF-8 is an error naming the file and line.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: invalid UTF-8 ({exc.reason})"
                ) from exc
            yield lineno, line


def load_corpus(path: str) -> tuple[Corpus, Vocabulary]:
    """Read a one-sentence-per-line corpus file.

    Blank lines are skipped.  Invalid UTF-8 is rejected with the
    offending line number in the message.
    """
    tokens: list[str] = []
    boundaries: list[int] = []
    for _, line in _lines(path):
        words = line.lower().split()
        if words:
            tokens.extend(words)
            boundaries.append(len(tokens))
    return Corpus(tokens, boundaries), Vocabulary(Counter(tokens))


def load_lexicon(path: str) -> list[str]:
    """Read a lemma list, one lemma per line.

    Duplicates keep their first occurrence, blank lines are skipped,
    and an empty result is an error.  A lemma containing whitespace is
    an error too: it could never match a whitespace-split corpus token,
    and its row in the predictions would not read back.
    """
    lemmas: list[str] = []
    seen: set[str] = set()
    for lineno, line in _lines(path):
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


def _read_table(path: str, cell) -> dict[str, dict]:
    """Read lemma<TAB>form<TAB>slot rows into {lemma: {slot: form}}.

    ``cell`` checks and converts the fields of a row.  Bad rows, and a
    repeated (lemma, slot) pair, are errors naming the file and line.
    """
    table: dict[str, dict] = {}
    for lineno, line in _lines(path):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(
                f"{where}: expected 3 tab-separated fields, got {len(fields)}"
            )
        try:
            lemma, form, slot = cell(*fields)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        row = table.setdefault(lemma, {})
        if slot in row:
            raise ValueError(f"{where}: duplicate entry for ({lemma!r}, {slot!r})")
        row[slot] = form
    return table


def _gold_cell(lemma: str, form: str, slot: str) -> tuple[str, str, str]:
    lemma, form, slot = lemma.strip().lower(), form.strip().lower(), slot.strip()
    if not lemma or not form or not slot:
        raise ValueError("empty field")
    return lemma, form, slot


def load_gold(path: str) -> dict[str, dict[str, str]]:
    """Read a gold inflection table: lemma<TAB>form<TAB>slot-label rows.

    Returns {lemma: {slot_label: form}}.  Fields are stripped and must
    not be empty; a duplicate (lemma, slot) pair is an error.
    """
    table = _read_table(path, _gold_cell)
    if not table:
        raise ValueError(f"{path}: gold table is empty")
    return table


def write_predictions(predictions: dict[str, dict[Any, str]], path: str) -> None:
    """Write lemma<TAB>form<TAB>slot rows; a slot is an id or a gold label.

    Rows are sorted by lemma, then slot, so identical tables always
    serialize to identical bytes.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for lemma in sorted(predictions):
            row = predictions[lemma]
            for slot in sorted(row):
                handle.write(f"{lemma}\t{row[slot]}\t{slot}\n")


def _prediction_cell(lemma: str, form: str, slot: str) -> tuple[str, str, int]:
    # An empty form is a legal prediction; an empty lemma is not.
    if not lemma:
        raise ValueError("empty lemma")
    try:
        return lemma.lower(), form.lower(), int(slot)
    except ValueError:
        raise ValueError(f"slot id {slot!r} is not an integer") from None


def read_predictions(path: str) -> dict[str, dict[int, str]]:
    """Inverse of write_predictions; the lemma and form are lowercased."""
    return _read_table(path, _prediction_cell)
