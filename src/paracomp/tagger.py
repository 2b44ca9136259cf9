"""Unsupervised HMM tagger: coarse syntactic states learned from raw text.

A first-order hidden Markov model with a small state inventory is
trained by expectation-maximization (Baum-Welch) on the corpus, one
chain per sentence, and decoded with Viterbi.  The states carry no
names; they only need to be consistent enough that words used the same
way end up tagged the same way.

Both algorithms run on bands of sentences padded to a common length,
so the Python loop over time steps runs once per band rather than once
per sentence.  A band is laid out time-major, (steps, sentences), so
each step of a recursion reads and writes one contiguous (sentences,
states) slice.  The sentences of a band ascend in length, so at each
step those that have already ended are a leading block of columns;
padded steps leave the recursions unchanged and add nothing to the
sums.

Each call allocates its float working arrays once, sized for the
largest band, and every band and EM pass reuses them, so working memory
is bounded by ``BATCH_TOKENS`` x states whatever the corpus size.  Each
recursion step runs as a few ufuncs that write into that workspace.
Row sums are a product with a ones vector, which costs less per call
than ``sum(axis=...)`` at this size but sums in the linear algebra
library's order: trained parameters, and the saved models, depend in
their last digits on that library as well as on ``BATCH_TOKENS``.

Rare word types are collapsed into a single UNK symbol before
training.  All randomness comes from one seeded generator, so training
is reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import Corpus

_SAVE_VERSION = 1

# Most padded tokens (steps x sentences) one band may hold.  The
# tagger's working arrays are sized for the largest band, so this
# bounds its working memory whatever the corpus size.
BATCH_TOKENS = 2048


@dataclass
class HmmModel:
    start: np.ndarray        # (K,)
    transitions: np.ndarray  # (K, K), rows sum to 1
    emissions: np.ndarray    # (K, W+1), last column is UNK
    symbols: list[str]       # vocabulary kept for emission, sorted
    log_likelihoods: list[float] = field(default_factory=list)

    @property
    def states(self) -> int:
        return int(self.start.shape[0])

    def symbol_index(self) -> dict[str, int]:
        return {symbol: i for i, symbol in enumerate(self.symbols)}


def _batches(
    corpus: Corpus, index: dict[str, int], unk: int, pad: int
) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Time-major length bands of padded sentences: (positions, symbols, finished).

    The sentences are sorted by length, stably so that equal lengths
    keep corpus order, and packed greedily into bands of at most
    ``BATCH_TOKENS`` padded tokens (longest x sentences); a sentence
    longer than that is a band of its own.  The columns of a band
    therefore ascend in length, so at step t the sentences that have
    already ended are its first ``finished[t]`` columns.

    ``positions`` and ``symbols`` are (L, N): row t holds step t of
    every sentence, as corpus offsets and as emission indices, OOV
    mapped to ``unk``.  Padded cells hold ``pad`` and repeat the
    sentence's last position, so positions stay valid indices.
    """
    codes = np.array([index.get(token, unk) for token in corpus.tokens], dtype=np.intp)
    ends = np.array(corpus.sentence_boundaries, dtype=np.intp)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    order = np.argsort(ends - starts, kind="stable")
    starts, ends = starts[order], ends[order]
    lengths = ends - starts
    count = lengths.shape[0]
    batches = []
    first = 0
    while first < count:
        # Padded size of the band holding sentences first .. first+r-1,
        # for every r that could fit; lengths ascend, so it only grows.
        rows = np.arange(1, min(count - first, BATCH_TOKENS) + 1)
        padded = rows * lengths[first : first + rows.shape[0]]
        last = first + max(1, int(np.count_nonzero(padded <= BATCH_TOKENS)))
        steps = np.arange(lengths[last - 1])[:, None]
        real = steps < lengths[first:last]
        positions = np.where(real, starts[first:last] + steps, ends[first:last] - 1)
        symbols = np.where(real, codes[positions], pad)
        finished = (last - first - np.count_nonzero(real, axis=1)).tolist()
        batches.append((positions, symbols, finished))
        first = last
    return batches


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading part of a flat workspace buffer, viewed as ``shape``."""
    return buffer[: math.prod(shape)].reshape(shape)


def train_hmm(
    corpus: Corpus,
    states: int = 8,
    iterations: int = 20,
    seed: int = 0,
    unk_threshold: int = 2,
) -> HmmModel:
    """Fit an HMM to the corpus with Baum-Welch.

    The recorded log-likelihood list holds one entry per iteration,
    each evaluating the parameters *before* that iteration's update, so
    the sequence is non-decreasing.  No smoothing is applied in the
    M-step: probabilities the data does not support go to exactly zero.
    """
    if len(corpus) < 2:
        raise ValueError("corpus too small to train on (need at least 2 tokens)")
    if states < 1:
        raise ValueError(f"states must be >= 1, got {states}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")

    counts = Counter(corpus.tokens)
    symbols = sorted(t for t, c in counts.items() if c >= unk_threshold)
    index = {symbol: i for i, symbol in enumerate(symbols)}
    unk = len(symbols)
    width = unk + 1
    # Padding reads as symbol ``width``, which every state emits with
    # probability 1: alpha moves on through it unchanged.
    bands = _batches(corpus, index, unk, width)

    # One workspace for every band and pass: the emission probabilities
    # of the band's symbols, the scaled forward and backward variables,
    # the backward products emit * beta / scale (kept for the xi sum),
    # and the scales.
    size = max(obs.size for _, obs, _ in bands)
    emit_buf, alpha_buf, beta_buf, weighted_buf = (
        np.empty(size * states) for _ in range(4)
    )
    scale_buf = np.empty(size)
    emit_table = np.ones((width + 1, states))  # (symbol, state); last row: padding
    ones = np.ones((states, 1))  # x @ ones sums the rows of x
    offsets = np.arange(states)

    rng = np.random.default_rng(seed)
    start = rng.dirichlet(np.ones(states))
    transitions = np.vstack([rng.dirichlet(np.ones(states)) for _ in range(states)])
    emissions = np.vstack([rng.dirichlet(np.ones(width)) for _ in range(states)])

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        start_acc = np.zeros(states)
        trans_acc = np.zeros((states, states))
        emit_acc_t = np.zeros((width, states))  # (symbol, state), as bincount fills it
        emit_table[:width] = emissions.T
        transitions_t = transitions.T
        ll = 0.0
        for _, obs, finished in bands:
            length, rows = obs.shape
            shape = (length, rows, states)
            emit = _view(emit_buf, shape)
            alpha = _view(alpha_buf, shape)
            beta = _view(beta_buf, shape)
            weighted = _view(weighted_buf, shape)
            scale = _view(scale_buf, (length, rows, 1))
            np.take(emit_table, obs, axis=0, out=emit, mode="clip")

            np.multiply(start, emit[0], out=alpha[0])
            np.dot(alpha[0], ones, out=scale[0])
            np.divide(alpha[0], scale[0], out=alpha[0])
            for t in range(1, length):
                now = alpha[t]
                np.dot(alpha[t - 1], transitions, out=now)
                np.multiply(now, emit[t], out=now)
                np.dot(now, ones, out=scale[t])
                if finished[t]:
                    scale[t, : finished[t]] = 1.0  # padding adds no likelihood
                np.divide(now, scale[t], out=now)
            beta[length - 1] = 1.0
            for t in range(length - 1, 0, -1):
                step = weighted[t]
                np.multiply(emit[t], beta[t], out=step)
                np.divide(step, scale[t], out=step)
                before = beta[t - 1]
                np.dot(step, transitions_t, out=before)
                if finished[t]:
                    # A sentence ends at its last real step: beta is 1
                    # there, and no transition leads into padding.
                    before[: finished[t]] = 1.0
                    step[: finished[t]] = 0.0

            if length > 1:
                # sum_t outer(alpha_t, emit_{t+1} * beta_{t+1} / c_{t+1}),
                # masked by the transition matrix, is the xi total; one
                # matmul sums it over every step of every sentence.
                trans_acc += (
                    alpha[:-1].reshape(-1, states).T
                    @ weighted[1:].reshape(-1, states)
                ) * transitions
            ll += float(np.log(scale, out=scale).sum())

            gamma = np.multiply(alpha, beta, out=beta)
            flat = gamma.reshape(-1, states)
            # ll and trans_acc have read the scales, so their buffer is
            # free to hold gamma's normaliser; keep this after both.
            norm = scale.reshape(-1, 1)
            np.dot(flat, ones, out=norm)
            np.divide(flat, norm, out=flat)
            start_acc += gamma[0].sum(axis=0)
            # Padded cells fall into the bins past width * states, dropped here.
            cells = obs[:, :, None] * states + offsets
            emit_acc_t += np.bincount(
                cells.ravel(), weights=gamma.ravel(), minlength=width * states
            )[: width * states].reshape(width, states)
        log_likelihoods.append(ll)

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
    index = model.symbol_index()
    unk = len(model.symbols)
    with np.errstate(divide="ignore"):
        log_start = np.log(model.start)
        log_trans = np.log(model.transitions)
        log_emit = np.log(model.emissions)
    dead = ~np.isfinite(log_emit).any(axis=0)  # all-zero emission columns
    log_emit[:, dead] = -np.log(states)
    emit_table = np.ascontiguousarray(log_emit.T)  # (W+1, K)

    # Padded cells read as UNK; the recursion leaves their delta as it is.
    bands = _batches(corpus, index, unk, unk)
    size = max((obs.size for _, obs, _ in bands), default=0)
    widest = max((obs.shape[1] for _, obs, _ in bands), default=0)
    emit_buf = np.empty(size * states)
    back_buf = np.empty(size * states, dtype=np.intp)
    scores_buf = np.empty(widest * states * states)

    tags = np.empty(len(corpus), dtype=np.intp)
    for positions, obs, finished in bands:
        length, rows = obs.shape
        emit = _view(emit_buf, (length, rows, states))
        back = _view(back_buf, (length, rows, states))
        scores = _view(scores_buf, (rows, states, states))  # (N, previous, next)
        delta = np.empty((rows, states, 1))
        now = delta[:, :, 0]
        step = np.empty((rows, states))
        # Flat offset of scores[n, 0, j], for reading each maximum at its argmax.
        corner = np.arange(rows)[:, None] * states * states + np.arange(states)
        pick = np.empty_like(corner)
        np.take(emit_table, obs, axis=0, out=emit, mode="clip")
        np.add(log_start, emit[0], out=now)
        for t in range(1, length):
            np.add(delta, log_trans, out=scores)
            np.argmax(scores, axis=1, out=back[t])  # first maximum: lower state
            np.multiply(back[t], states, out=pick)
            np.add(pick, corner, out=pick)
            np.take(scores_buf, pick, out=step)  # scores[n, back[t, n, j], j]
            np.add(step, emit[t], out=step)
            # Past a sentence's end its delta stays as the end left it.
            f = finished[t]
            now[f:] = step[f:]
        path = np.empty((length, rows), dtype=np.intp)
        np.argmax(now, axis=1, out=path[length - 1])
        every = np.arange(rows)
        for t in range(length - 1, 0, -1):
            path[t - 1] = back[t][every, path[t]]
            f = finished[t]
            if f:
                path[t - 1, :f] = path[t, :f]
        # A padded cell repeats its sentence's last position, and the
        # backtrace copied that position's state through it.
        tags[positions] = path
    return tags.tolist()


def save_model(model: HmmModel, path: str) -> None:
    """Persist a model to an .npz file."""
    symbols = np.array(model.symbols, dtype=str)
    if symbols.size == 0:
        symbols = symbols.astype("<U1")
    with open(path, "wb") as handle:
        np.savez(
            handle,
            version=np.array([_SAVE_VERSION]),
            start=model.start,
            transitions=model.transitions,
            emissions=model.emissions,
            symbols=symbols,
            log_likelihoods=np.array(model.log_likelihoods, dtype=float),
        )


def load_model(path: str) -> HmmModel:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != _SAVE_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        return HmmModel(
            start=data["start"],
            transitions=data["transitions"],
            emissions=data["emissions"],
            symbols=[str(s) for s in data["symbols"]],
            log_likelihoods=[float(v) for v in data["log_likelihoods"]],
        )


def write_tagged(corpus: Corpus, tags: list[int], path: str) -> None:
    """Dump token<TAB>state lines, one blank line between sentences."""
    if len(tags) != len(corpus):
        raise ValueError(
            f"tag count {len(tags)} does not match corpus length {len(corpus)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        first = True
        for start, end in corpus.sentences():
            if not first:
                handle.write("\n")
            first = False
            for pos in range(start, end):
                handle.write(f"{corpus.tokens[pos]}\t{tags[pos]}\n")
