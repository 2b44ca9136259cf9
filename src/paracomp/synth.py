"""Synthetic language generator for end-to-end sanity checks.

The language is small but structurally honest: every lemma is a CV
stem, every slot past the first appends a suffix, and the suffix shape
depends on the stem's final vowel (allomorphy classes), so one slot is
realized by several distinct surface changes.  Each sentence is
``marker form end`` where the marker type identifies the slot, giving
the tagger an easy but real distributional cue.

Stems are rejection-sampled so that no stem shares a 4-gram with
another lemma's forms; with the default candidate ratio 0.5 on 6-char
stems this guarantees the discovery stage sees exactly the intended
(lemma, form) pairs and nothing else.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .corpus_io import write_predictions

_CONSONANTS = "bdgklmnprstv"
_VOWELS = "aeiou"
#: Marker word per slot (slot s uses _MARKERS[s-1]).
_MARKERS = ("xa", "xe", "xi", "xo", "xu", "xy")
#: Sentence-final word.
_END = "we"
#: Consonant of the suffix for inflected slot s (s >= 2).
_SLOT_CONSONANTS = "lnrst"

MAX_SLOTS = len(_MARKERS)
MAX_CLASSES = len(_VOWELS)


def _ngrams(text: str, n: int = 4) -> set[str]:
    return {text[i:i + n] for i in range(len(text) - n + 1)}


@dataclass
class SyntheticLanguage:
    sentences: list[list[str]]
    lexicon: list[str]
    gold: dict[str, dict[str, str]]
    #: suffixes[slot_index][class_index]; slot_index 0 is the bare stem.
    suffixes: list[list[str]]

    @property
    def token_count(self) -> int:
        return sum(len(sentence) for sentence in self.sentences)

    def write(self, out_dir: str) -> tuple[str, str, str]:
        """Write corpus.txt, lemmas.txt, gold.tsv; returns their paths."""
        os.makedirs(out_dir, exist_ok=True)
        corpus_path = os.path.join(out_dir, "corpus.txt")
        lexicon_path = os.path.join(out_dir, "lemmas.txt")
        gold_path = os.path.join(out_dir, "gold.tsv")
        with open(corpus_path, "w", encoding="utf-8", newline="\n") as handle:
            for sentence in self.sentences:
                handle.write(" ".join(sentence) + "\n")
        with open(lexicon_path, "w", encoding="utf-8", newline="\n") as handle:
            for lemma in self.lexicon:
                handle.write(lemma + "\n")
        write_predictions(self.gold, gold_path)
        return corpus_path, lexicon_path, gold_path


def generate_language(
    slots: int = 4,
    lemmas: int = 30,
    classes: int = 2,
    tokens: int = 20000,
    seed: int = 7,
) -> SyntheticLanguage:
    """Build a deterministic synthetic corpus, lemma list and gold table.

    Every (lemma, slot) form is guaranteed to occur at least once; the
    rest of the token budget is filled with uniformly sampled cells.
    """
    if slots < 2:
        raise ValueError(f"need at least 2 slots, got {slots}")
    if slots > MAX_SLOTS:
        raise ValueError(f"at most {MAX_SLOTS} slots supported, got {slots}")
    if classes < 2:
        raise ValueError(f"need at least 2 allomorphy classes, got {classes}")
    if classes > MAX_CLASSES:
        raise ValueError(
            f"at most {MAX_CLASSES} classes supported, got {classes}"
        )
    if lemmas < 2 * classes:
        raise ValueError(
            f"need at least {2 * classes} lemmas for {classes} classes "
            f"(two per class), got {lemmas}"
        )
    coverage_tokens = lemmas * slots * 3
    if tokens < coverage_tokens:
        raise ValueError(
            f"token budget {tokens} cannot cover {lemmas * slots} cells "
            f"(needs at least {coverage_tokens})"
        )

    rng = random.Random(seed)
    class_vowels = [_VOWELS[c::classes] for c in range(classes)]
    # suffixes[0] is the identity slot; later slots get consonant+vowel
    # suffixes whose vowel marks the class.
    suffixes = [[""] * classes]
    for s in range(1, slots):
        suffixes.append(
            [_SLOT_CONSONANTS[s - 1] + class_vowels[c][0] for c in range(classes)]
        )

    stems: list[str] = []
    stem_classes: list[int] = []
    stem_grams: set[str] = set()
    form_grams: set[str] = set()
    used: set[str] = set()
    for i in range(lemmas):
        cls = i % classes
        for _ in range(100000):
            syllables = [
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(2)
            ]
            syllables.append(
                rng.choice(_CONSONANTS) + rng.choice(class_vowels[cls])
            )
            stem = "".join(syllables)
            forms = [stem + suffixes[s][cls] for s in range(slots)]
            if stem in used:
                continue
            if not _ngrams(stem).isdisjoint(form_grams):
                continue
            new_form_grams = set().union(*(_ngrams(form) for form in forms))
            if not stem_grams.isdisjoint(new_form_grams):
                continue
            stems.append(stem)
            stem_classes.append(cls)
            used.add(stem)
            stem_grams |= _ngrams(stem)
            form_grams |= new_form_grams
            break
        else:
            raise RuntimeError("could not sample a stem; space exhausted")

    def sentence(lemma_index: int, slot_index: int) -> list[str]:
        form = stems[lemma_index] + suffixes[slot_index][stem_classes[lemma_index]]
        return [_MARKERS[slot_index], form, _END]

    sentences = [
        sentence(i, s) for i in range(lemmas) for s in range(slots)
    ]
    total = sum(len(s) for s in sentences)
    while total < tokens:
        extra = sentence(rng.randrange(lemmas), rng.randrange(slots))
        sentences.append(extra)
        total += len(extra)
    rng.shuffle(sentences)

    gold = {
        stems[i]: {
            f"slot{s + 1}": stems[i] + suffixes[s][stem_classes[i]]
            for s in range(slots)
        }
        for i in range(lemmas)
    }
    return SyntheticLanguage(sentences, list(stems), gold, suffixes)
