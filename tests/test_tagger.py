import os
import random
import sys
import tracemalloc
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagger_oracle as oracle
from tagger_oracle import dirichlet_start
from paracomp import tagger
from paracomp.config import Config
from paracomp.corpus_io import Corpus, load_corpus
from paracomp.pipeline import train_tagger
from paracomp.synth import generate_language
from paracomp.tagger import (
    EM_TOLERANCE,
    HmmModel,
    anchor_start,
    load_model,
    save_model,
    tag_corpus,
    train_hmm,
    write_tagged,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

from workloads import WORKLOADS, build_language, repack  # noqa: E402


def corpus_from_text(tmp_path, text):
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    corpus, _ = load_corpus(str(path))
    return corpus


@pytest.fixture
def mini_corpus(tmp_path):
    # Deterministic mini-language: marker, content word, closer.
    lines = []
    for i in range(120):
        word = ["cat", "dog", "owl"][i % 3]
        marker = ["xa", "xe"][i % 2]
        lines.append(f"{marker} {word} we\n")
    return corpus_from_text(tmp_path, "".join(lines))


def test_train_requires_two_tokens(tmp_path):
    corpus = corpus_from_text(tmp_path, "one\n")
    with pytest.raises(ValueError, match="at least 2 tokens"):
        train_hmm(corpus, dirichlet_start(corpus, 8), 1)


def test_degenerate_corpus_gets_exact_probabilities(tmp_path):
    corpus = corpus_from_text(tmp_path, "a a\n")
    model = train_hmm(corpus, dirichlet_start(corpus, 1, 0, 1), 3)
    assert model.symbols == ["a"]
    # No smoothing: the single state emits "a" with probability exactly 1,
    # and the unseen UNK symbol with probability exactly 0.
    assert model.emissions[0, 0] == 1.0
    assert model.emissions[0, 1] == 0.0
    assert model.transitions[0, 0] == 1.0
    assert model.start[0] == 1.0


def test_em_rows_are_stochastic(mini_corpus):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 4, 0), 10)
    assert abs(model.start.sum() - 1.0) <= 1e-9
    assert np.all(np.abs(model.transitions.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(np.abs(model.emissions.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(model.transitions >= 0)
    assert np.all(model.emissions >= 0)


def test_em_log_likelihood_non_decreasing(mini_corpus):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 4, 1), 15)
    ll = model.log_likelihoods
    # EM runs the full 15 passes or stops at the first flat one.
    floor = len(mini_corpus)
    flat = [
        abs(b - a) <= EM_TOLERANCE * max(abs(a), floor) for a, b in zip(ll, ll[1:])
    ]
    assert len(ll) == 15 or flat[-1]
    assert not any(flat[:-1])
    for before, after in zip(ll, ll[1:]):
        assert after >= before - 1e-6


def test_training_is_deterministic(mini_corpus):
    a = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 3, 42), 5)
    b = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 3, 42), 5)
    assert np.array_equal(a.start, b.start)
    assert np.array_equal(a.transitions, b.transitions)
    assert np.array_equal(a.emissions, b.emissions)
    assert a.log_likelihoods == b.log_likelihoods
    c = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 3, 43), 5)
    assert not np.array_equal(a.emissions, c.emissions)


def assert_stochastic(model):
    for rows in (model.start[None, :], model.transitions, model.emissions):
        assert np.all(rows >= 0)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)


def test_anchor_start_picks_the_marker_words(mini_corpus):
    # Each position of "marker word we" has one context, so one symbol
    # of each position anchors a state, and each state emits the symbols
    # of its position only, in proportion to their counts.
    start = anchor_start(mini_corpus, states=3, unk_threshold=2)
    assert start.symbols == ["cat", "dog", "owl", "we", "xa", "xe"]
    assert_stochastic(start)
    assert np.all(start.transitions == 1 / 3)
    emitted = {
        tuple(np.flatnonzero(row > 1e-12).tolist()): row for row in start.emissions
    }
    assert sorted(emitted) == [(0, 1, 2), (3,), (4, 5)]
    np.testing.assert_allclose(emitted[(0, 1, 2)][:3], 1 / 3, rtol=1e-12)
    np.testing.assert_allclose(emitted[(4, 5)][4:6], 1 / 2, rtol=1e-12)
    # Only three distinct contexts exist, so a fourth anchor does not,
    # and asking for four states fits the same three.
    fewer = anchor_start(mini_corpus, states=4, unk_threshold=2)
    assert fewer.states == 3
    for name in ("start", "transitions", "emissions"):
        assert np.array_equal(getattr(fewer, name), getattr(start, name))


def test_anchor_start_needs_symbols_above_the_count_floor(tmp_path):
    # No type occurs 5 times: there are no anchors, so one state emits
    # each symbol in proportion to its count, and the pipeline tags with it.
    corpus = corpus_from_text(tmp_path, "a b c\nb c d\nc d a\nd a b\n")
    start = anchor_start(corpus, states=2, unk_threshold=1)
    assert start.states == 1
    assert_stochastic(start)
    np.testing.assert_array_equal(start.emissions, [[0.25, 0.25, 0.25, 0.25, 0.0]])
    config = Config(mode="pcs-iii", hmm_states=2, unk_threshold=1)
    trained = train_tagger(corpus, config)
    for name in ("start", "transitions", "emissions"):
        assert np.array_equal(getattr(trained, name), getattr(start, name))
    assert trained.log_likelihoods == []
    assert tag_corpus(trained, corpus).tolist() == [0] * len(corpus)


@pytest.mark.parametrize("width", [2, 5], ids=["narrow", "wide"])
def test_a_model_must_fit_its_symbols(mini_corpus, width):
    # Three symbols need four emission columns, the last for UNK: with
    # two, "owl" and UNK would be clipped onto the column of "dog", and
    # a fifth column would never be read.
    model = HmmModel(
        start=np.full(2, 1 / 2),
        transitions=np.full((2, 2), 1 / 2),
        emissions=np.full((2, width), 1 / width),
        symbols=["cat", "dog", "owl"],
    )
    for iterations in (0, 1):
        with pytest.raises(ValueError, match="init: start, transitions and emissions"):
            train_hmm(mini_corpus, model, iterations)
    with pytest.raises(ValueError, match="model: start, transitions and emissions"):
        tag_corpus(model, mini_corpus)


@pytest.mark.parametrize("symbols", [["a", "a"], ["b", "a"]], ids=["repeated", "unsorted"])
def test_a_model_needs_sorted_distinct_symbols(tmp_path, symbols):
    # With "a" twice, every "a" would map to the later column and the
    # earlier one would never be read.
    corpus = corpus_from_text(tmp_path, "a b a\nb a\n")
    model = HmmModel(
        start=np.full(2, 1 / 2),
        transitions=np.full((2, 2), 1 / 2),
        emissions=np.full((2, 3), 1 / 3),
        symbols=symbols,
    )
    for iterations in (0, 1):
        with pytest.raises(ValueError, match="init: symbols must be sorted and distinct"):
            train_hmm(corpus, model, iterations)
    with pytest.raises(ValueError, match="model: symbols must be sorted and distinct"):
        tag_corpus(model, corpus)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    with pytest.raises(ValueError, match=r"model\.npz: symbols must be sorted"):
        load_model(str(path))


def test_tag_corpus_returns_one_intp_per_token(mini_corpus):
    uniform = anchor_start(mini_corpus, states=3, unk_threshold=2)
    trained = train_hmm(mini_corpus, uniform, 2)
    assert not np.all(trained.transitions == trained.transitions[0, 0])
    # The uniform chain is a lookup; the trained one runs the band Viterbi.
    for model, banded in ((uniform, False), (trained, True)):
        with mock.patch.object(tagger, "_batches", wraps=tagger._batches) as bands:
            tags = tag_corpus(model, mini_corpus)
        assert bands.called == banded
        assert isinstance(tags, np.ndarray)
        assert tags.dtype == np.intp and tags.shape == (len(mini_corpus),)


@pytest.mark.parametrize("states", [0, -3])
def test_anchor_start_needs_a_state(mini_corpus, states):
    with pytest.raises(ValueError, match="states must be >= 1"):
        anchor_start(mini_corpus, states=states, unk_threshold=2)


def test_em_stops_at_the_first_flat_pass(mini_corpus):
    start = anchor_start(mini_corpus, states=3, unk_threshold=2)
    unfitted = train_hmm(mini_corpus, start, 0)
    assert unfitted.log_likelihoods == []
    for name in ("start", "transitions", "emissions"):
        assert np.array_equal(getattr(unfitted, name), getattr(start, name))
    model = train_hmm(mini_corpus, start, 50)
    ll = model.log_likelihoods
    floor = len(mini_corpus)
    flat = [
        abs(b - a) <= EM_TOLERANCE * max(abs(a), floor) for a, b in zip(ll, ll[1:])
    ]
    assert 2 <= len(ll) < 50
    assert flat[-1] and not any(flat[:-1])
    assert_stochastic(model)
    # The last log-likelihood evaluated the returned parameters: they are
    # the ones one pass fewer returns, and a pass from them scores it.
    capped = train_hmm(mini_corpus, start, len(ll) - 1)
    assert capped.log_likelihoods == ll[:-1]
    for name in ("start", "transitions", "emissions"):
        assert np.array_equal(getattr(capped, name), getattr(model, name))
    again = train_hmm(mini_corpus, model, 1)
    assert again.log_likelihoods == ll[-1:]
    # The cap holds from either start.
    once = train_hmm(mini_corpus, start, 1)
    assert len(once.log_likelihoods) == 1
    seeded = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 4, 1), 3)
    assert len(seeded.log_likelihoods) <= 3


def test_rare_words_collapse_to_unk(tmp_path):
    corpus = corpus_from_text(tmp_path, "a b a b a b\nrare a b\n")
    model = train_hmm(corpus, anchor_start(corpus, states=2, unk_threshold=2), 5)
    assert "rare" not in model.symbols
    assert model.symbols == ["a", "b"]
    tags = tag_corpus(model, corpus)
    assert len(tags) == 9


def test_viterbi_ties_take_lowest_state(tmp_path):
    corpus = corpus_from_text(tmp_path, "a b a\n")
    states = 3
    model = HmmModel(
        start=np.full(states, 1 / states),
        transitions=np.full((states, states), 1 / states),
        emissions=np.full((states, 3), 1 / 3),
        symbols=["a", "b"],
    )
    assert tag_corpus(model, corpus).tolist() == [0, 0, 0]
    assert oracle.tag_corpus(model, corpus) == [0, 0, 0]


def test_decoding_survives_unseen_symbol_columns(tmp_path):
    corpus = corpus_from_text(tmp_path, "b b b\n")
    model = HmmModel(
        start=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.1, 0.9]]),
        # "b" has zero probability everywhere; treated as uniform.
        emissions=np.array([[0.7, 0.0, 0.3], [0.6, 0.0, 0.4]]),
        symbols=["a", "b"],
    )
    tags = tag_corpus(model, corpus).tolist()
    assert tags == [0, 0, 0]
    assert oracle.tag_corpus(model, corpus) == tags


def test_tags_align_with_sentences(mini_corpus):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 4, 0), 5)
    tags = tag_corpus(model, mini_corpus)
    assert len(tags) == len(mini_corpus)
    assert all(0 <= t < 4 for t in tags)


def test_model_save_load_round_trip(mini_corpus, tmp_path):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 4, 0), 5)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.start, model.start)
    assert np.array_equal(loaded.transitions, model.transitions)
    assert np.array_equal(loaded.emissions, model.emissions)
    assert loaded.symbols == model.symbols
    assert loaded.log_likelihoods == model.log_likelihoods
    assert np.array_equal(
        tag_corpus(loaded, mini_corpus), tag_corpus(model, mini_corpus)
    )


def test_a_model_without_symbols_round_trips(mini_corpus, tmp_path):
    # Every type falls below the count floor, so the UNK column is the
    # model's only column.
    model = anchor_start(mini_corpus, states=2, unk_threshold=len(mini_corpus) + 1)
    assert model.symbols == []
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.symbols == []
    assert np.array_equal(loaded.emissions, model.emissions)
    assert np.array_equal(
        tag_corpus(loaded, mini_corpus), tag_corpus(model, mini_corpus)
    )


def test_load_rejects_unknown_version(mini_corpus, tmp_path):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 2, 0), 2)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    data = dict(np.load(str(path), allow_pickle=False))
    data["version"] = np.array([99])
    with open(path, "wb") as handle:
        np.savez(handle, **data)
    with pytest.raises(ValueError, match="version"):
        load_model(str(path))


@pytest.mark.parametrize("name,reshape", [
    ("emissions", lambda a: a[:, :-1]),  # no UNK column
    ("emissions", lambda a: a[:-1]),
    ("transitions", lambda a: a[:, :-1]),
    ("start", lambda a: a[:0]),
    ("start", lambda a: a[None, :]),
])
def test_load_rejects_bad_array_shapes(mini_corpus, tmp_path, name, reshape):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 2, 0), 2)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    data = dict(np.load(str(path), allow_pickle=False))
    data[name] = reshape(data[name])
    with open(path, "wb") as handle:
        np.savez(handle, **data)
    with pytest.raises(ValueError, match=r"model\.npz: start, transitions and emissions"):
        load_model(str(path))


def _without_start(path):
    data = dict(np.load(str(path), allow_pickle=False))
    del data["start"]
    with open(path, "wb") as handle:
        np.savez(handle, **data)


def _empty_version(path):
    data = dict(np.load(str(path), allow_pickle=False))
    data["version"] = data["version"][:0]
    with open(path, "wb") as handle:
        np.savez(handle, **data)


def _text_version(path):
    data = dict(np.load(str(path), allow_pickle=False))
    data["version"] = np.array(["one"])
    with open(path, "wb") as handle:
        np.savez(handle, **data)


def _plain_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.zeros(3))


def _truncated(path):
    path.write_bytes(path.read_bytes()[:100])


@pytest.mark.parametrize("spoil", [
    _without_start,
    _empty_version,
    _text_version,
    _plain_npy,
    lambda path: path.write_bytes(b""),
    lambda path: path.write_text("hello"),
    _truncated,
], ids=["missing-array", "empty-version", "text-version", "plain-npy",
        "empty-file", "text-file", "truncated"])
def test_load_rejects_files_that_are_not_saved_models(mini_corpus, tmp_path, spoil):
    model = train_hmm(mini_corpus, dirichlet_start(mini_corpus, 2, 0), 2)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    spoil(path)
    with pytest.raises(ValueError, match=r"model\.npz: not a saved model"):
        load_model(str(path))


def test_write_tagged_format(tmp_path):
    corpus = corpus_from_text(tmp_path, "a b\nc\n")
    out = tmp_path / "tags.tsv"
    write_tagged(corpus, [1, 0, 2], str(out))
    assert out.read_text(encoding="utf-8") == "a\t1\nb\t0\n\nc\t2\n"
    with pytest.raises(ValueError, match="does not match"):
        write_tagged(corpus, [1, 0], str(out))


def test_write_tagged_writes_the_same_bytes_for_an_array_or_a_list(
    mini_corpus, tmp_path
):
    tags = tag_corpus(anchor_start(mini_corpus, states=3, unk_threshold=2), mini_corpus)
    assert tags.max() > 0
    array, listed = tmp_path / "array.tsv", tmp_path / "list.tsv"
    for given in (tags, tags * 10):  # one- and two-digit states
        write_tagged(mini_corpus, given, str(array))
        write_tagged(mini_corpus, given.tolist(), str(listed))
        assert array.read_bytes() == listed.read_bytes()


# The batched tagger against the per-sentence loop in tagger_oracle.  The
# batched sums run in another order, so the log-likelihoods and
# parameters agree to rounding only; Viterbi uses the same arithmetic per
# sentence, so tags from one model must match exactly.  The absolute
# log-likelihood floor covers corpora whose likelihood is exactly 1
# (every token UNK), where both versions read rounding noise near 0.
LL_RTOL = 1e-8
LL_ATOL = 1e-8
PARAM_ATOL = 1e-12

INTERLEAVED = (
    "a b c\nd\na c e b d\nb b a\ne\n"
    "c a b\na\nd e a b c\na a b\nd\n"
)


def assert_models_agree(batched, loop):
    assert batched.symbols == loop.symbols
    assert len(batched.log_likelihoods) == len(loop.log_likelihoods)
    np.testing.assert_allclose(
        batched.log_likelihoods, loop.log_likelihoods, rtol=LL_RTOL, atol=LL_ATOL
    )
    for name in ("start", "transitions", "emissions"):
        np.testing.assert_allclose(
            getattr(batched, name), getattr(loop, name), rtol=0, atol=PARAM_ATOL
        )


def assert_matches_oracle(corpus, states, iterations, seed, unk_threshold=2):
    init = dirichlet_start(corpus, states, seed, unk_threshold)
    batched = train_hmm(corpus, init, iterations)
    loop = oracle.train_hmm(corpus, init, iterations)
    assert_models_agree(batched, loop)
    for model in (batched, loop):
        assert tag_corpus(model, corpus).tolist() == oracle.tag_corpus(model, corpus)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"states": 4, "iterations": 10, "seed": 0},
        {"states": 1, "iterations": 5, "seed": 2},
        {"states": 3, "iterations": 5, "seed": 1, "unk_threshold": 10**6},
    ],
    ids=["four-states", "one-state", "all-unk"],
)
def test_batched_training_matches_loop_on_mini_corpus(mini_corpus, kwargs):
    assert_matches_oracle(mini_corpus, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"states": 3, "iterations": 8, "seed": 0},
        {"states": 1, "iterations": 4, "seed": 0},
        {"states": 2, "iterations": 4, "seed": 5, "unk_threshold": 100},
    ],
    ids=["three-states", "one-state", "all-unk"],
)
def test_batched_training_matches_loop_on_interleaved_lengths(tmp_path, kwargs):
    # Lengths 3, 1, 5, 3, 1, ...: one band mixes them out of corpus order.
    corpus = corpus_from_text(tmp_path, INTERLEAVED)
    assert_matches_oracle(corpus, **kwargs)


def test_batched_viterbi_matches_loop_on_ties_and_dead_columns(tmp_path):
    corpus = corpus_from_text(tmp_path, "b a b\nb\na b b a b\nb a b\na\n")
    tied = HmmModel(
        start=np.full(3, 1 / 3),
        transitions=np.full((3, 3), 1 / 3),
        emissions=np.full((3, 3), 1 / 3),
        symbols=["a", "b"],
    )
    dead = HmmModel(
        start=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.1, 0.9]]),
        emissions=np.array([[0.7, 0.0, 0.3], [0.6, 0.0, 0.4]]),
        symbols=["a", "b"],
    )
    assert tag_corpus(tied, corpus).tolist() == oracle.tag_corpus(tied, corpus) == [0] * 13
    assert tag_corpus(dead, corpus).tolist() == oracle.tag_corpus(dead, corpus)


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_batches_split_across_chunks_agree(tmp_path, monkeypatch, budget):
    corpus = corpus_from_text(tmp_path, INTERLEAVED * 3)
    whole = train_hmm(corpus, dirichlet_start(corpus, 3, 4, 1), 6)
    whole_tags = tag_corpus(whole, corpus)
    assert len(tagger._batches(corpus, [])) == 1  # one band of 78 tokens

    monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
    assert len(tagger._batches(corpus, [])) > 1
    split = train_hmm(corpus, dirichlet_start(corpus, 3, 4, 1), 6)
    assert_models_agree(split, whole)
    assert np.array_equal(tag_corpus(whole, corpus), whole_tags)
    assert np.array_equal(tag_corpus(split, corpus), whole_tags)


def clause_corpus(seed=7, tokens=2000):
    """Sentences of 1-12 three-token clauses, as in a long-sentence corpus.

    Lengths are the multiples of 3 from 3 to 36, mixed in corpus order,
    with a few rare words so that UNK occurs.
    """
    rng = random.Random(seed)
    sentences = []
    while sum(map(len, sentences)) < tokens:
        sentence = []
        for _ in range(rng.randint(1, 12)):
            word = rng.choice(["cat", "dog", "owl", "elk"]) + rng.choice(["", "s", "ed"])
            if rng.random() < 0.02:
                word += str(rng.randrange(1000))
            sentence += [rng.choice(["xa", "xe", "xi"]), word, "we"]
        sentences.append(sentence)
    tokens = [token for sentence in sentences for token in sentence]
    return Corpus(tokens, list(accumulate(map(len, sentences))))


def test_clause_corpus_has_every_length():
    corpus = clause_corpus()
    lengths = np.diff([0, *corpus.sentence_boundaries])
    assert set(lengths) == set(range(3, 37, 3))
    assert 2000 <= len(corpus) < 2036
    assert len(tagger._batches(corpus, [])) == 1  # within the default budget


@pytest.mark.parametrize(
    "budget", [None, 20, 7], ids=["default-budget", "below-longest", "budget-7"]
)
@pytest.mark.parametrize(
    "kwargs",
    [
        {"states": 4, "iterations": 6, "seed": 0},
        {"states": 1, "iterations": 3, "seed": 1},
        {"states": 3, "iterations": 4, "seed": 2, "unk_threshold": 10**6},
    ],
    ids=["four-states", "one-state", "all-unk"],
)
def test_batched_training_matches_loop_on_ragged_bands(monkeypatch, budget, kwargs):
    if budget is not None:
        monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
    assert_matches_oracle(clause_corpus(), **kwargs)


def noisy_corpus(seed=3, tokens=2500):
    """A generated language with Zipfian fillers, in sentences of 1-4 clauses.

    About one filler in three clauses, drawn from 300 types with
    Zipfian weights and inserted at a random place, so rare types fall
    to UNK and no sentence length dominates.
    """
    lang = generate_language(slots=4, lemmas=30, classes=2, tokens=tokens, seed=seed)
    rng = random.Random(seed)
    fillers = [f"f{rank:03d}" for rank in range(300)]
    weights = [1 / rank for rank in range(1, 301)]
    for sentence in lang.sentences:
        if rng.random() < 1 / 3:
            sentence.insert(rng.randint(0, len(sentence)), rng.choices(fillers, weights)[0])
    sentences = repack(lang.sentences, 4, rng)
    return Corpus([token for sentence in sentences for token in sentence],
                  list(accumulate(map(len, sentences))))


def test_em_from_the_anchor_fit_on_noisy_input_matches_loop():
    corpus = noisy_corpus()
    lengths = set(np.diff([0, *corpus.sentence_boundaries]).tolist())
    assert len(lengths) >= 10
    default = Config()
    start = anchor_start(corpus, default.hmm_states, default.unk_threshold)
    assert start.states > 1
    model = train_hmm(corpus, start, 20)
    assert_models_agree(model, oracle.train_hmm(corpus, start, 20))
    ll = model.log_likelihoods
    assert len(ll) >= 2
    for before, after in zip(ll, ll[1:]):
        assert after >= before - 1e-6
    assert_stochastic(model)
    assert tag_corpus(model, corpus).tolist() == oracle.tag_corpus(model, corpus)


def assert_bands_partition(corpus, budget):
    """Check ``_batches`` against its contract at one token budget."""
    index = {"a": 0, "b": 1, "cat": 2, "we": 3}
    unk = len(index)
    ends = np.array(corpus.sentence_boundaries)
    starts = np.concatenate([[0], ends[:-1]])
    order = np.argsort(starts - ends, kind="stable")  # longest first
    starts, lengths = starts[order], (ends - starts)[order]
    codes = np.array([index.get(token, unk) for token in corpus.tokens])
    with mock.patch.object(tagger, "BATCH_TOKENS", budget):
        bands = tagger._batches(corpus, list(index))

    seen = []
    taken = 0
    for positions, symbols, counts in bands:
        rows = counts[0]
        band_starts = starts[taken : taken + rows]
        band_lengths = lengths[taken : taken + rows]
        taken += rows
        # Stable sort by length, then greedy by real tokens: no band
        # could take the next sentence.
        tokens = int(band_lengths.sum())
        assert positions.shape == symbols.shape == (tokens,)
        assert tokens <= budget or rows == 1
        if taken < len(lengths):
            assert tokens + lengths[taken] > budget
        # Block t holds step t of the counts[t] sentences still running,
        # which are the band's first counts[t].
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        longest = band_lengths[0]
        assert counts == [np.count_nonzero(band_lengths > t) for t in range(longest)]
        blocks = np.split(positions, np.cumsum(counts)[:-1])
        assert blocks[0].tolist() == band_starts.tolist()
        for before, block in zip(blocks, blocks[1:]):
            assert block.tolist() == (before[: len(block)] + 1).tolist()
        assert symbols.tolist() == codes[positions].tolist()
        seen += positions.tolist()
    assert taken == len(lengths)
    assert sorted(seen) == list(range(len(corpus)))


@pytest.mark.parametrize("budget", [1, 2, 7, 20, 64, 2048])
def test_bands_cover_every_position_once(tmp_path, budget):
    assert_bands_partition(clause_corpus(), budget)
    assert_bands_partition(corpus_from_text(tmp_path, INTERLEAVED * 3), budget)


@pytest.mark.parametrize("budget", [1, 2, 7, 64, 2048])
def test_uniform_lengths_give_unmasked_length_groups(budget):
    sentences = 50
    corpus = Corpus(["a", "b", "cat"] * sentences, list(range(3, 3 * sentences + 1, 3)))
    with mock.patch.object(tagger, "BATCH_TOKENS", budget):
        bands = tagger._batches(corpus, ["a", "b"])
    # Corpus order, budget // length sentences a band, three full blocks each.
    rows = max(1, budget // 3)
    firsts = np.arange(0, 3 * sentences, 3)
    assert len(bands) == -(-sentences // rows)
    for i, (positions, symbols, counts) in enumerate(bands):
        chunk = firsts[i * rows : (i + 1) * rows]
        assert counts == [chunk.shape[0]] * 3
        assert positions.tolist() == (chunk + np.arange(3)[:, None]).ravel().tolist()
        assert symbols.tolist() == np.repeat([0, 1, 2], chunk.shape[0]).tolist()


def test_sentences_ending_early_in_a_band_match_loop(tmp_path, monkeypatch):
    # Lengths 2, 5 and 1 share the second band, so two sentences end
    # while the longest still runs; the first band leaves its values in
    # the workspace rows where they end.
    corpus = corpus_from_text(tmp_path, "b b\na a a a a\nb\nb a b a b a b a\n")
    monkeypatch.setattr(tagger, "BATCH_TOKENS", 8)
    assert [counts for *_, counts in tagger._batches(corpus, [])] == [
        [1] * 8, [3, 2, 1, 1, 1]
    ]
    # Sticky states that each prefer one symbol: the sentences of b end
    # in state 1 while the longest ends in state 0.
    sticky = HmmModel(
        start=np.array([0.5, 0.5]),
        transitions=np.array([[0.6, 0.4], [0.4, 0.6]]),
        emissions=np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1]]),
        symbols=["a", "b"],
    )
    tags = tag_corpus(sticky, corpus).tolist()
    assert tags == oracle.tag_corpus(sticky, corpus)
    assert tags[:8] == [1, 1, 0, 0, 0, 0, 0, 1]
    for kwargs in (
        {"states": 2, "iterations": 6, "seed": 0, "unk_threshold": 1},
        {"states": 3, "iterations": 6, "seed": 3, "unk_threshold": 1},
        {"states": 1, "iterations": 3, "seed": 1, "unk_threshold": 1},
    ):
        assert_matches_oracle(corpus, **kwargs)


@st.composite
def random_corpora(draw):
    sentences = draw(
        st.lists(
            st.lists(st.sampled_from("abcde"), min_size=1, max_size=40),
            min_size=1,
            max_size=8,
        ).filter(lambda s: sum(map(len, s)) >= 2)
    )
    tokens = [token for sentence in sentences for token in sentence]
    return Corpus(tokens, list(accumulate(map(len, sentences))))


@settings(max_examples=60, deadline=None)
@given(
    corpus=random_corpora(),
    states=st.integers(1, 4),
    iterations=st.integers(0, 4),
    seed=st.integers(0, 3),
    unk_threshold=st.integers(1, 4),
    budget=st.sampled_from([1, 2, 7, 64, 2048]),
)
def test_batched_tagger_matches_loop_on_random_corpora(
    corpus, states, iterations, seed, unk_threshold, budget
):
    # mock.patch.object, since Hypothesis rejects function-scoped fixtures.
    with mock.patch.object(tagger, "BATCH_TOKENS", budget):
        assert_matches_oracle(
            corpus,
            states=states,
            iterations=iterations,
            seed=seed,
            unk_threshold=unk_threshold,
        )


@st.composite
def uniform_chains(draw):
    """A random corpus and a model for it whose start and transitions are flat.

    Emissions come from a few small integers, so columns tie and some
    are all zero; the kept symbols are a subset, so UNK occurs.  Start
    and transitions are 1/K, or all zero, which is flat but not a chain.
    """
    corpus = draw(random_corpora())
    states = draw(st.integers(1, 4))
    symbols = sorted(draw(st.sets(st.sampled_from(sorted(set(corpus.tokens))))))
    width = len(symbols) + 1
    cells = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]),
                          min_size=states * width, max_size=states * width))
    emissions = np.array(cells, dtype=float).reshape(states, width)
    sums = emissions.sum(axis=1, keepdims=True)
    emissions = np.divide(emissions, sums, out=emissions, where=sums > 0)
    start, trans = (draw(st.sampled_from([1 / states, 0.0])) for _ in range(2))
    model = HmmModel(np.full(states, start), np.full((states, states), trans),
                     emissions, symbols)
    return corpus, model


@settings(max_examples=100, deadline=None)
@given(chain=uniform_chains())
def test_viterbi_on_a_uniform_chain_is_a_lookup(chain):
    corpus, model = chain
    expected = oracle.tag_corpus(model, corpus)
    if model.start[0] > 0 and model.transitions[0, 0] > 0:
        # The lookup never bands the corpus.
        with mock.patch.object(tagger, "_batches", side_effect=AssertionError):
            assert tag_corpus(model, corpus).tolist() == expected
    else:
        assert tag_corpus(model, corpus).tolist() == expected


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_anchor_fit_of_each_workload_tags_as_the_oracle(name, seed):
    sentences = build_language(WORKLOADS[name], seed).sentences
    corpus = Corpus([token for sentence in sentences for token in sentence],
                    list(accumulate(map(len, sentences))))
    default = Config()
    model = anchor_start(corpus, default.hmm_states, default.unk_threshold)
    assert tag_corpus(model, corpus).tolist() == oracle.tag_corpus(model, corpus)


def test_training_memory_is_bounded_by_the_band_budget(monkeypatch):
    budget, states = 256, 64
    monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
    corpus = clause_corpus(tokens=8192)
    assert len(tagger._batches(corpus, [])) >= 20
    # Sixteen band-sized float arrays.  One float array of corpus tokens x
    # states would not fit, so working memory must not grow with the corpus.
    bound = 16 * budget * states * 8
    assert len(corpus) * states * 8 > bound
    init = dirichlet_start(corpus, states, 0)
    tracemalloc.start()
    try:
        train_hmm(corpus, init, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_viterbi_memory_is_bounded_by_the_band_budget(monkeypatch):
    budget, states = 256, 64
    monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
    # Two-token sentences put the most sentences in one band: 128 here.
    corpus = Corpus(["a", "b"] * 4000, list(range(2, 8001, 2)))
    rng = np.random.default_rng(0)
    model = HmmModel(
        start=rng.dirichlet(np.ones(states)),
        transitions=rng.dirichlet(np.ones(states), size=states),
        emissions=rng.dirichlet(np.ones(3), size=states),
        symbols=["a", "b"],
    )
    # Sixteen band-sized float arrays, as in training.  A scores array of
    # a band's sentences x states x states would not fit.
    bound = 16 * budget * states * 8
    assert (budget // 2) * states * states * 8 > bound
    tags = tag_corpus(model, corpus)  # a first call, so lazy set-up is done
    tracemalloc.start()
    try:
        tag_corpus(model, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert tags.tolist() == oracle.tag_corpus(model, corpus)
