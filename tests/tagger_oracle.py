"""Per-sentence Baum-Welch and Viterbi: the reference for the batched tagger.

This is the loop ``paracomp.tagger`` ran before it learned to process
all sentences of one length at once, kept verbatim so the tests can
check the batched code against it.  It walks one sentence and one time
step at a time, so it is slow but obviously follows the textbook
recurrences.
"""

from __future__ import annotations

import numpy as np

from paracomp.corpus_io import Corpus
from paracomp.tagger import EM_TOLERANCE, HmmModel


def _encode(corpus: Corpus, index: dict[str, int], unk: int) -> list[np.ndarray]:
    """Sentences as arrays of emission indices, OOV mapped to UNK."""
    encoded = []
    for start, end in zip([0, *corpus.sentence_boundaries], corpus.sentence_boundaries):
        encoded.append(
            np.array(
                [index.get(token, unk) for token in corpus.tokens[start:end]],
                dtype=np.intp,
            )
        )
    return encoded


def dirichlet_start(
    corpus: Corpus, states: int, seed: int = 0, unk_threshold: int = 2
) -> HmmModel:
    """A random start: Dirichlet draws of one generator seeded with ``seed``.

    The symbols are the types seen at least ``unk_threshold`` times,
    sorted, as ``paracomp.tagger.anchor_start`` keeps them.
    """
    if states < 1:
        raise ValueError(f"states must be >= 1, got {states}")
    counts: dict[str, int] = {}
    for token in corpus.tokens:
        counts[token] = counts.get(token, 0) + 1
    symbols = sorted(t for t, c in counts.items() if c >= unk_threshold)
    width = len(symbols) + 1

    rng = np.random.default_rng(seed)
    start = rng.dirichlet(np.ones(states))
    transitions = np.vstack([rng.dirichlet(np.ones(states)) for _ in range(states)])
    emissions = np.vstack([rng.dirichlet(np.ones(width)) for _ in range(states)])
    return HmmModel(start, transitions, emissions, symbols)


def train_hmm(corpus: Corpus, init: HmmModel, iterations: int = 20) -> HmmModel:
    """Fit an HMM to the corpus with Baum-Welch, starting from ``init``.

    The recorded log-likelihood list holds one entry per iteration,
    each evaluating the parameters *before* that iteration's update, so
    the sequence is non-decreasing.  No smoothing is applied in the
    M-step: probabilities the data does not support go to exactly zero.
    """
    if len(corpus) < 2:
        raise ValueError("corpus too small to train on (need at least 2 tokens)")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")

    symbols = init.symbols
    index = {symbol: i for i, symbol in enumerate(symbols)}
    unk = len(symbols)
    states, width = init.emissions.shape
    sentences = _encode(corpus, index, unk)
    start, transitions, emissions = init.start, init.transitions, init.emissions

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        start_acc = np.zeros(states)
        trans_acc = np.zeros((states, states))
        emit_acc_t = np.zeros((width, states))  # transposed for add.at
        ll = 0.0
        for obs in sentences:
            length = obs.shape[0]
            emit = emissions[:, obs]  # (K, T)
            alpha = np.empty((length, states))
            scale = np.empty(length)
            vec = start * emit[:, 0]
            scale[0] = vec.sum()
            alpha[0] = vec / scale[0]
            for t in range(1, length):
                vec = (alpha[t - 1] @ transitions) * emit[:, t]
                scale[t] = vec.sum()
                alpha[t] = vec / scale[t]
            beta = np.empty((length, states))
            beta[length - 1] = 1.0
            for t in range(length - 2, -1, -1):
                beta[t] = (
                    transitions @ (emit[:, t + 1] * beta[t + 1])
                ) / scale[t + 1]
            gamma = alpha * beta
            gamma /= gamma.sum(axis=1, keepdims=True)

            ll += float(np.log(scale).sum())
            start_acc += gamma[0]
            np.add.at(emit_acc_t, obs, gamma)
            if length > 1:
                # sum_t outer(alpha_t, emit_{t+1} * beta_{t+1} / c_{t+1}),
                # masked by the transition matrix, is the xi total.
                weighted = (emit[:, 1:] * beta[1:].T) / scale[1:]
                trans_acc += (alpha[:-1].T @ weighted.T) * transitions
        flat = bool(log_likelihoods) and abs(ll - log_likelihoods[-1]) <= (
            EM_TOLERANCE * max(abs(log_likelihoods[-1]), len(corpus))
        )
        log_likelihoods.append(ll)
        if flat:
            break

        start = start_acc / start_acc.sum()
        trans_rows = trans_acc.sum(axis=1, keepdims=True)
        emit_acc = emit_acc_t.T
        emit_rows = emit_acc.sum(axis=1, keepdims=True)
        # A state the data never visits gets a uniform row rather than 0/0.
        transitions = np.where(
            trans_rows > 0, trans_acc / np.where(trans_rows > 0, trans_rows, 1.0),
            1.0 / states,
        )
        emissions = np.where(
            emit_rows > 0, emit_acc / np.where(emit_rows > 0, emit_rows, 1.0),
            1.0 / width,
        )

    return HmmModel(start, transitions, emissions, symbols, log_likelihoods)


def tag_corpus(model: HmmModel, corpus: Corpus) -> list[int]:
    """Viterbi state indices, one per corpus token.

    Ties take the lower state index.  An emission column that is all
    zero (a symbol this model has never expected) is treated as
    uniform so decoding stays defined.
    """
    states = model.states
    index = {symbol: i for i, symbol in enumerate(model.symbols)}
    unk = len(model.symbols)
    with np.errstate(divide="ignore"):
        log_start = np.log(model.start)
        log_trans = np.log(model.transitions)
        log_emit = np.log(model.emissions)
    uniform = np.full(states, -np.log(states))
    dead = ~np.isfinite(log_emit).any(axis=0)  # all-zero emission columns

    tags: list[int] = []
    for obs in _encode(corpus, index, unk):
        length = obs.shape[0]
        back = np.empty((length, states), dtype=np.intp)
        col = uniform if dead[obs[0]] else log_emit[:, obs[0]]
        delta = log_start + col
        for t in range(1, length):
            scores = delta[:, None] + log_trans
            back[t] = scores.argmax(axis=0)
            col = uniform if dead[obs[t]] else log_emit[:, obs[t]]
            delta = scores.max(axis=0) + col
        state = int(delta.argmax())
        path = [state]
        for t in range(length - 1, 0, -1):
            state = int(back[t, state])
            path.append(state)
        tags.extend(reversed(path))
    return tags
