import pytest

from paracomp.corpus_io import load_corpus, load_gold, load_lexicon
from paracomp.synth import MAX_CLASSES, MAX_SLOTS, generate_language


def test_generation_is_deterministic():
    a = generate_language(slots=3, lemmas=8, classes=2, tokens=300, seed=5)
    b = generate_language(slots=3, lemmas=8, classes=2, tokens=300, seed=5)
    assert a.sentences == b.sentences
    assert a.lexicon == b.lexicon
    assert a.gold == b.gold
    c = generate_language(slots=3, lemmas=8, classes=2, tokens=300, seed=6)
    assert c.lexicon != a.lexicon


def test_token_budget_is_met_with_full_coverage():
    lang = generate_language(slots=3, lemmas=8, classes=2, tokens=500, seed=5)
    assert lang.token_count >= 500
    # Three-token sentences never overshoot by a full sentence.
    assert lang.token_count < 500 + 3
    seen = {sentence[1] for sentence in lang.sentences}
    for lemma, row in lang.gold.items():
        for form in row.values():
            assert form in seen


def test_sentences_are_marker_form_end():
    lang = generate_language(slots=4, lemmas=8, classes=2, tokens=300, seed=1)
    all_forms = {
        form for row in lang.gold.values() for form in row.values()
    }
    for sentence in lang.sentences:
        assert len(sentence) == 3
        marker, form, end = sentence
        assert marker in {"xa", "xe", "xi", "xo"}
        assert form in all_forms
        assert end == "we"


def test_gold_has_one_row_per_lemma_and_slot():
    lang = generate_language(slots=4, lemmas=10, classes=2, tokens=300, seed=2)
    assert sorted(lang.gold) == sorted(lang.lexicon)
    assert len(lang.lexicon) == 10
    for lemma, row in lang.gold.items():
        assert sorted(row) == ["slot1", "slot2", "slot3", "slot4"]
        assert row["slot1"] == lemma
        for slot in ("slot2", "slot3", "slot4"):
            assert row[slot].startswith(lemma)
            assert len(row[slot]) == len(lemma) + 2


def test_allomorphy_classes_use_distinct_suffixes():
    lang = generate_language(slots=3, lemmas=12, classes=3, tokens=400, seed=3)
    for slot_suffixes in lang.suffixes[1:]:
        assert len(set(slot_suffixes)) == 3
        consonants = {suffix[0] for suffix in slot_suffixes}
        assert len(consonants) == 1
    # The identity slot is suffixless for every class.
    assert lang.suffixes[0] == ["", "", ""]
    # Stems are assigned round-robin, so every class is populated.
    suffix_variants = {row["slot2"][-1] for row in lang.gold.values()}
    assert len(suffix_variants) == 3


def test_stems_avoid_each_others_forms():
    lang = generate_language(slots=4, lemmas=30, classes=2, tokens=400, seed=7)
    forms_by_lemma = {
        lemma: set(row.values()) for lemma, row in lang.gold.items()
    }
    all_forms = set().union(*forms_by_lemma.values())
    assert len(all_forms) == 30 * 4
    for lemma in lang.lexicon:
        for form in all_forms - forms_by_lemma[lemma]:
            assert lemma not in form


def test_validation_errors():
    with pytest.raises(ValueError, match="at least 2 slots"):
        generate_language(slots=1, lemmas=8, classes=2, tokens=300)
    with pytest.raises(ValueError, match=f"at most {MAX_SLOTS} slots"):
        generate_language(slots=MAX_SLOTS + 1, lemmas=8, classes=2, tokens=300)
    with pytest.raises(ValueError, match="at least 2 allomorphy"):
        generate_language(slots=3, lemmas=8, classes=1, tokens=300)
    with pytest.raises(ValueError, match=f"at most {MAX_CLASSES} classes"):
        generate_language(
            slots=3, lemmas=20, classes=MAX_CLASSES + 1, tokens=300
        )
    with pytest.raises(ValueError, match="lemmas"):
        generate_language(slots=3, lemmas=3, classes=2, tokens=300)
    with pytest.raises(ValueError, match="budget"):
        generate_language(slots=3, lemmas=8, classes=2, tokens=10)
    with pytest.raises(ValueError, match="cannot sample 2500 stems"):
        generate_language(slots=2, lemmas=2500, classes=2, tokens=20000)


def test_written_files_round_trip(tmp_path):
    lang = generate_language(slots=3, lemmas=8, classes=2, tokens=300, seed=4)
    corpus_path, lexicon_path, gold_path = lang.write(str(tmp_path))
    corpus, vocab = load_corpus(corpus_path)
    assert len(corpus) == lang.token_count
    assert corpus.tokens[:3] == lang.sentences[0]
    assert load_lexicon(lexicon_path) == lang.lexicon
    assert load_gold(gold_path) == lang.gold
    all_forms = {form for row in lang.gold.values() for form in row.values()}
    assert all_forms <= set(vocab.types)
