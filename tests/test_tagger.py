import random
import tracemalloc
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagger_oracle as oracle
from paracomp import tagger
from paracomp.corpus_io import Corpus, load_corpus
from paracomp.tagger import (
    HmmModel,
    load_model,
    save_model,
    tag_corpus,
    train_hmm,
    write_tagged,
)


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
        train_hmm(corpus)


def test_degenerate_corpus_gets_exact_probabilities(tmp_path):
    corpus = corpus_from_text(tmp_path, "a a\n")
    model = train_hmm(corpus, states=1, iterations=3, seed=0, unk_threshold=1)
    assert model.symbols == ["a"]
    # No smoothing: the single state emits "a" with probability exactly 1,
    # and the unseen UNK symbol with probability exactly 0.
    assert model.emissions[0, 0] == 1.0
    assert model.emissions[0, 1] == 0.0
    assert model.transitions[0, 0] == 1.0
    assert model.start[0] == 1.0


def test_em_rows_are_stochastic(mini_corpus):
    model = train_hmm(mini_corpus, states=4, iterations=10, seed=0)
    assert abs(model.start.sum() - 1.0) <= 1e-9
    assert np.all(np.abs(model.transitions.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(np.abs(model.emissions.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(model.transitions >= 0)
    assert np.all(model.emissions >= 0)


def test_em_log_likelihood_non_decreasing(mini_corpus):
    model = train_hmm(mini_corpus, states=4, iterations=15, seed=1)
    ll = model.log_likelihoods
    assert len(ll) == 15
    for before, after in zip(ll, ll[1:]):
        assert after >= before - 1e-6


def test_training_is_deterministic(mini_corpus):
    a = train_hmm(mini_corpus, states=3, iterations=5, seed=42)
    b = train_hmm(mini_corpus, states=3, iterations=5, seed=42)
    assert np.array_equal(a.start, b.start)
    assert np.array_equal(a.transitions, b.transitions)
    assert np.array_equal(a.emissions, b.emissions)
    assert a.log_likelihoods == b.log_likelihoods
    c = train_hmm(mini_corpus, states=3, iterations=5, seed=43)
    assert not np.array_equal(a.emissions, c.emissions)


def test_rare_words_collapse_to_unk(tmp_path):
    corpus = corpus_from_text(tmp_path, "a b a b a b\nrare a b\n")
    model = train_hmm(corpus, states=2, iterations=5, seed=0, unk_threshold=2)
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
    assert tag_corpus(model, corpus) == [0, 0, 0]
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
    tags = tag_corpus(model, corpus)
    assert tags == [0, 0, 0]
    assert oracle.tag_corpus(model, corpus) == tags


def test_tags_align_with_sentences(mini_corpus):
    model = train_hmm(mini_corpus, states=4, iterations=5, seed=0)
    tags = tag_corpus(model, mini_corpus)
    assert len(tags) == len(mini_corpus)
    assert all(0 <= t < 4 for t in tags)


def test_model_save_load_round_trip(mini_corpus, tmp_path):
    model = train_hmm(mini_corpus, states=4, iterations=5, seed=0)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.start, model.start)
    assert np.array_equal(loaded.transitions, model.transitions)
    assert np.array_equal(loaded.emissions, model.emissions)
    assert loaded.symbols == model.symbols
    assert loaded.log_likelihoods == model.log_likelihoods
    assert tag_corpus(loaded, mini_corpus) == tag_corpus(model, mini_corpus)


def test_load_rejects_unknown_version(mini_corpus, tmp_path):
    model = train_hmm(mini_corpus, states=2, iterations=2, seed=0)
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    data = dict(np.load(str(path), allow_pickle=False))
    data["version"] = np.array([99])
    with open(path, "wb") as handle:
        np.savez(handle, **data)
    with pytest.raises(ValueError, match="version"):
        load_model(str(path))


def test_write_tagged_format(tmp_path):
    corpus = corpus_from_text(tmp_path, "a b\nc\n")
    out = tmp_path / "tags.tsv"
    write_tagged(corpus, [1, 0, 2], str(out))
    assert out.read_text(encoding="utf-8") == "a\t1\nb\t0\n\nc\t2\n"
    with pytest.raises(ValueError, match="does not match"):
        write_tagged(corpus, [1, 0], str(out))


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


def assert_matches_oracle(corpus, **kwargs):
    batched = train_hmm(corpus, **kwargs)
    loop = oracle.train_hmm(corpus, **kwargs)
    assert_models_agree(batched, loop)
    for model in (batched, loop):
        assert tag_corpus(model, corpus) == oracle.tag_corpus(model, corpus)


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
    assert tag_corpus(tied, corpus) == oracle.tag_corpus(tied, corpus) == [0] * 13
    assert tag_corpus(dead, corpus) == oracle.tag_corpus(dead, corpus)


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_batches_split_across_chunks_agree(tmp_path, monkeypatch, budget):
    corpus = corpus_from_text(tmp_path, INTERLEAVED * 3)
    whole = train_hmm(corpus, states=3, iterations=6, seed=4, unk_threshold=1)
    whole_tags = tag_corpus(whole, corpus)
    assert len(tagger._batches(corpus, {}, 0, 1)) == 1  # one padded band

    monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
    assert len(tagger._batches(corpus, {}, 0, 1)) > 1
    split = train_hmm(corpus, states=3, iterations=6, seed=4, unk_threshold=1)
    assert_models_agree(split, whole)
    assert tag_corpus(whole, corpus) == whole_tags
    assert tag_corpus(split, corpus) == whole_tags


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


def assert_bands_partition(corpus, budget):
    """Check ``_batches`` against its contract at one token budget."""
    index = {"a": 0, "b": 1, "cat": 2, "we": 3}
    unk = len(index)
    pad = unk + 1
    ends = np.array(corpus.sentence_boundaries)
    starts = np.concatenate([[0], ends[:-1]])
    order = np.argsort(ends - starts, kind="stable")
    starts, lengths = starts[order], (ends - starts)[order]
    codes = np.array([index.get(token, unk) for token in corpus.tokens])
    with mock.patch.object(tagger, "BATCH_TOKENS", budget):
        bands = tagger._batches(corpus, index, unk, pad)

    seen = []
    taken = 0
    for positions, symbols, finished in bands:
        length, rows = positions.shape  # time-major: one row per step
        # Stable sort by length, then greedy: no band could take the next one.
        assert positions[0].tolist() == starts[taken : taken + rows].tolist()
        band_lengths = lengths[taken : taken + rows]
        taken += rows
        assert length == band_lengths.max()
        assert rows * length <= budget or rows == 1
        if taken < len(lengths):
            assert (rows + 1) * lengths[taken] > budget
        assert len(finished) == length
        # At step t the first finished[t] columns have ended.
        mask = np.arange(rows) >= np.array(finished)[:, None]
        assert positions.shape == symbols.shape
        assert mask.sum(axis=0).tolist() == band_lengths.tolist()
        assert (mask[:-1] >= mask[1:]).all()  # real tokens first
        assert (np.diff(positions, axis=0)[mask[1:]] == 1).all()
        assert (np.diff(positions, axis=0)[~mask[1:]] == 0).all()  # padding repeats
        assert ((0 <= positions) & (positions < len(corpus))).all()
        assert symbols[mask].tolist() == codes[positions[mask]].tolist()
        assert (symbols[~mask] == pad).all()  # padded cells hold pad
        seen += positions[mask].tolist()
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
        bands = tagger._batches(corpus, {"a": 0, "b": 1}, 2, 3)
    # The exact-length grouping: corpus order, budget // length rows a batch.
    rows = max(1, budget // 3)
    firsts = np.arange(0, 3 * sentences, 3)
    assert len(bands) == -(-sentences // rows)
    for i, (positions, symbols, finished) in enumerate(bands):
        assert finished == [0] * positions.shape[0]  # nothing padded
        # Time-major: row t holds step t of every sentence in the band.
        chunk = firsts[i * rows : (i + 1) * rows] + np.arange(3)[:, None]
        assert positions.tolist() == chunk.tolist()
        assert symbols.tolist() == [[code] * chunk.shape[1] for code in (0, 1, 2)]


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


def test_training_memory_is_bounded_by_the_band_budget(monkeypatch):
    budget, states = 256, 64
    monkeypatch.setattr(tagger, "BATCH_TOKENS", budget)
    corpus = clause_corpus(tokens=8192)
    assert len(tagger._batches(corpus, {}, 0, 1)) >= 20
    # Sixteen band-sized float arrays.  One float array of corpus tokens x
    # states would not fit, so working memory must not grow with the corpus.
    bound = 16 * budget * states * 8
    assert len(corpus) * states * 8 > bound
    tracemalloc.start()
    try:
        train_hmm(corpus, states=states, iterations=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
