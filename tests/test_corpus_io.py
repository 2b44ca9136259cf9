import pytest

from paracomp.config import Config, parse_config_file
from paracomp.corpus_io import (
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
    assert corpus.sentences() == [(0, 4), (4, 6)]
    assert len(corpus) == 6
    assert "cat" in vocab and "dogs" in vocab
    assert "missing" not in vocab
    assert vocab.counts["the"] == 1
    assert len(vocab) == 6


def test_load_corpus_counts_repeats(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b a\na\n", encoding="utf-8")
    corpus, vocab = load_corpus(str(path))
    assert vocab.counts["a"] == 3
    assert vocab.counts["b"] == 1
    assert corpus.sentence_boundaries == [3, 4]


def test_load_corpus_rejects_bad_utf8(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"good line\n\xff\xfe broken\n")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(str(path))


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
    path = tmp_path / "pred.tsv"
    path.write_text("walk\twalked\tfirst\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not an integer"):
        read_predictions(str(path))


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
