import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracomp.config import Config, parse_config_file
from paracomp.corpus_io import (
    Corpus,
    Vocabulary,
    _lines,
    load_corpus,
    load_gold,
    load_lexicon,
    read_predictions,
    write_predictions,
)
from paracomp.inflection import extract_affix_rules, inflect
from paracomp.pipeline import run_pipeline


def test_load_corpus_basic(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("The cat SAT .\n\n  dogs bark\n", encoding="utf-8")
    corpus, vocab = load_corpus(str(path))
    assert corpus.tokens == ["the", "cat", "sat", ".", "dogs", "bark"]
    assert corpus.sentence_boundaries == [4, 6]
    assert len(corpus) == 6
    assert "cat" in vocab and "dogs" in vocab
    assert "missing" not in vocab
    assert list(vocab.types) == corpus.tokens
    assert len(vocab) == 6


def test_corpus_ids_index_first_seen_types(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("b ä b\nc\nä a b\n", encoding="utf-8")
    corpus, _ = load_corpus(str(path))
    same = Corpus(list(corpus.tokens), list(corpus.sentence_boundaries))
    # Computed on first use only, and never part of equality.
    assert "ids" not in vars(corpus)
    types = list(corpus.vocab)
    assert types == ["b", "ä", "c", "a"]
    assert corpus.ids.dtype == np.intp
    assert corpus.ids.tolist() == [0, 1, 0, 2, 1, 3, 0]
    assert [types[i] for i in corpus.ids] == corpus.tokens
    assert corpus == same and same == corpus
    assert corpus != Corpus(corpus.tokens, [3, 7])
    assert same.ids.tolist() == corpus.ids.tolist() and corpus == same
    assert Corpus([], []).ids.shape == (0,)


def test_load_corpus_repeats_share_one_id(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b a\na\n", encoding="utf-8")
    corpus, vocab = load_corpus(str(path))
    assert vocab == {"a": 0, "b": 1}
    assert corpus.ids.tolist() == [0, 1, 0, 0]
    assert corpus.sentence_boundaries == [3, 4]


# Lowercase-stable, non-whitespace characters, with a combining accent.
_tokens = st.lists(
    st.text(alphabet="aäßαжщ汉🦉\u0301", min_size=1, max_size=4), max_size=30
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_tokens, max_size=6))
def test_vocab_is_the_one_type_table(tmp_path_factory, sentences):
    path = tmp_path_factory.mktemp("vocab") / "corpus.txt"
    path.write_text("".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8")
    corpus, vocab = load_corpus(str(path))
    assert vocab is corpus.vocab
    assert "ids" not in vars(corpus)
    assert corpus.tokens == [token for s in sentences for token in s]
    types = list(corpus.vocab)
    for i, token in enumerate(types):
        assert corpus.vocab[token] == i
    assert [types[i] for i in corpus.ids] == corpus.tokens


def test_load_corpus_rejects_bad_utf8(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"good line\n\xff\xfe broken\n")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(str(path))


def load_by_lines(path):
    """The corpus as ``_lines`` reads it: the reference for ``load_corpus``."""
    tokens, boundaries = [], []
    for _, line in _lines(path):
        words = line.lower().split()
        if words:
            tokens.extend(words)
            boundaries.append(len(tokens))
    return Corpus(tokens, boundaries)


def corpus_or_error(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


_VALID = [
    b"a", b"Bc", " İé".encode(), b" ", b"\t", b"\n", b"\r\n", b"\r", b"\x0b",
    b"\x1c", "\x85".encode(), "\u2028".encode(), "\ufeff".encode(),
]
#: A stray byte and multi-byte characters cut short.
_INVALID = [b"\xff", b"\xc3", b"\xe2\x80"]


@st.composite
def corpus_bytes(draw):
    """Lines of awkward text, maybe a filler past the first 8 KiB, maybe bad bytes."""
    parts = draw(st.lists(st.sampled_from(_VALID * 4 + _INVALID), max_size=12))
    if draw(st.booleans()):
        size = draw(st.sampled_from([8191, 8192, 9000]))
        parts.insert(draw(st.integers(0, len(parts))), (b"ab cd\n" * 1600)[:size])
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(_INVALID)))
    return b"".join(parts)


@settings(max_examples=300, deadline=None)
@given(corpus_bytes())
def test_load_corpus_matches_the_line_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        got = corpus_or_error(lambda p: load_corpus(p)[0], path)
        assert got == corpus_or_error(load_by_lines, path)


def test_load_lexicon_dedup_keeps_first(tmp_path):
    path = tmp_path / "lemmas.txt"
    path.write_text("Walk\n\nwork\nwalk\nWORK\n", encoding="utf-8")
    assert load_lexicon(str(path)) == ["walk", "work"]


def test_load_lexicon_empty_is_error(tmp_path):
    path = tmp_path / "lemmas.txt"
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_lexicon(str(path))


@pytest.mark.parametrize("line", ["walk\tverb", "ice cream", "a\u00a0b"])
def test_load_lexicon_rejects_whitespace_in_lemma(tmp_path, line):
    path = tmp_path / "lemmas.txt"
    path.write_text(f"run\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: lemma .* contains whitespace"):
        load_lexicon(str(path))


def test_load_gold(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text(
        "walk\twalked\tPST\nwalk\twalks\tPRS;3;SG\nrun\tran\tPST\n",
        encoding="utf-8",
    )
    gold = load_gold(str(path))
    assert gold == {
        "walk": {"PST": "walked", "PRS;3;SG": "walks"},
        "run": {"PST": "ran"},
    }


def test_load_gold_duplicate_cell_is_error(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("walk\twalked\tPST\nwalk\twalkt\tPST\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_gold(str(path))


def test_load_gold_wrong_field_count(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("walk\twalked\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 tab-separated"):
        load_gold(str(path))


def test_load_gold_lowercases_lemma_and_form(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("Walk\tWalked\tPST\n", encoding="utf-8")
    assert load_gold(str(path)) == {"walk": {"PST": "walked"}}


def test_predictions_round_trip_and_stable_bytes(tmp_path):
    predictions = {
        "zebra": {2: "zebras", 1: "zebra"},
        "ant": {1: "ant", 3: "ants"},
    }
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    write_predictions(predictions, str(p1))
    assert read_predictions(str(p1)) == predictions
    # same table, different insertion order -> identical bytes
    shuffled = {"ant": {3: "ants", 1: "ant"}, "zebra": {1: "zebra", 2: "zebras"}}
    write_predictions(shuffled, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8").splitlines()[0] == "ant\tant\t1"


def test_read_predictions_bad_slot_id(tmp_path):
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit one as 1.
    path = tmp_path / "pred.tsv"
    for slot in ("first", "1_0", "\u0661"):
        path.write_text(f"walk\twalked\t{slot}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an integer"):
            read_predictions(str(path))


def test_read_predictions_reads_every_written_id(tmp_path):
    ids = [-12, 0, 7, 10, 10**20]
    path = tmp_path / "pred.tsv"
    write_predictions({"walk": {slot: "walked" for slot in ids}}, str(path))
    assert read_predictions(str(path)) == {"walk": {slot: "walked" for slot in ids}}
    # Spaces around an id are allowed.
    path.write_text("walk\twalked\t +3 \n", encoding="utf-8")
    assert read_predictions(str(path)) == {"walk": {3: "walked"}}


def test_read_predictions_rejects_empty_lemma(tmp_path):
    path = tmp_path / "pred.tsv"
    path.write_text("walk\twalked\t1\n\tx\t2\nwalk\t\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"pred\.tsv: line 2: empty lemma"):
        read_predictions(str(path))


def test_empty_predicted_form_round_trips(tmp_path):
    # A suffix rule learned from xyab -> xy deletes the whole lemma "ab".
    rules = extract_affix_rules([(1, "xyab", "xy", 1.0)])
    predictions = {"ab": {1: inflect(rules, 1, "ab")}, "walk": {1: "walked"}}
    assert predictions["ab"] == {1: ""}
    path = tmp_path / "pred.tsv"
    write_predictions(predictions, str(path))
    assert read_predictions(str(path)) == predictions


def test_read_predictions_lowercases_lemma_and_form(tmp_path):
    pred = tmp_path / "pred.tsv"
    pred.write_text("Walk\tWalked\t1\n", encoding="utf-8")
    assert read_predictions(str(pred)) == {"walk": {1: "walked"}}
    gold = tmp_path / "gold.tsv"
    gold.write_text("walk\twalked\tPST\n", encoding="utf-8")
    result = run_pipeline(
        Config(mode="eval"), gold_path=str(gold), predictions_path=str(pred)
    )
    assert result.scores.macro == 1.0


@pytest.mark.parametrize(
    "reader",
    [load_corpus, load_lexicon, load_gold, read_predictions, parse_config_file],
)
def test_readers_name_path_and_line_of_bad_utf8(tmp_path, reader):
    path = tmp_path / "input.tsv"
    path.write_bytes(b"\n\xff\xfe\tx\t1\n")
    with pytest.raises(ValueError, match=r"input\.tsv: line 2: invalid UTF-8"):
        reader(str(path))


BOM = "\ufeff"


@pytest.mark.parametrize("reader,text", [
    (load_corpus, "walk talk\nran\n"),
    (load_lexicon, "walk\ntalk\n"),
    (load_gold, "walk\twalked\tPST\n"),
    (read_predictions, "walk\twalked\t1\n"),
    (parse_config_file, "seed = 3\nmode = pcs-i\n"),
])
def test_readers_drop_a_leading_byte_order_mark(tmp_path, reader, text):
    plain = tmp_path / "plain.txt"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_text(BOM + text, encoding="utf-8")
    assert reader(str(marked)) == reader(str(plain))


@pytest.mark.parametrize("reader,text,expected", [
    (load_corpus, f"{BOM}{BOM}walk talk\nr{BOM}an\n", (
        Corpus([f"{BOM}walk", "talk", f"r{BOM}an"], [2, 3]),
        Vocabulary({f"{BOM}walk": 0, "talk": 1, f"r{BOM}an": 2}),
    )),
    (load_lexicon, f"{BOM}{BOM}walk\n{BOM}talk\n", [f"{BOM}walk", f"{BOM}talk"]),
    (load_gold, f"{BOM}{BOM}walk\twalked\tPST\ntalk\ttalked{BOM}\tPST\n", {
        f"{BOM}walk": {"PST": "walked"}, "talk": {"PST": f"talked{BOM}"},
    }),
    (read_predictions, f"{BOM}{BOM}walk\twalked\t1\ntalk\t{BOM}talked\t1\n", {
        f"{BOM}walk": {1: "walked"}, "talk": {1: f"{BOM}talked"},
    }),
    (parse_config_file, f"{BOM}seed = 3\nmode = {BOM}pcs-i\n",
     {"seed": 3, "mode": f"{BOM}pcs-i"}),
])
def test_readers_keep_every_other_byte_order_mark(tmp_path, reader, text, expected):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert reader(str(path)) == expected


def test_read_predictions_splits_rows_at_newlines_only(tmp_path):
    path = tmp_path / "pred.tsv"
    path.write_bytes(b"walk\twalked\t1\r\ntalk\ttalked\t1\rtalk\ttalks\t2\n")
    with pytest.raises(ValueError, match="line 2: expected 3 tab-separated"):
        read_predictions(str(path))


def test_config_file_splits_lines_at_newlines_only(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 3\r\nhmm_states = 5  # CRLF\r\n\r\nshots = 2\n")
    assert parse_config_file(str(path)) == {"seed": 3, "hmm_states": 5, "shots": 2}
    # A lone carriage return is part of the line, as in every other input.
    path.write_bytes(b"seed = 3\rshots = 2\n")
    with pytest.raises(ValueError, match=r"run\.cfg: line 1: invalid literal"):
        parse_config_file(str(path))
