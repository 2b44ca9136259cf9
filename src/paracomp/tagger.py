"""Unsupervised HMM tagger: coarse syntactic states learned from raw text.

A first-order hidden Markov model with a small state inventory is
trained by expectation-maximization (Baum-Welch) on the corpus, one
chain per sentence, and decoded with Viterbi.  The states carry no
names; they only need to be consistent enough that words used the same
way end up tagged the same way.

Both algorithms run on bands of sentences padded to a common length,
so the Python loop over time steps runs once per band rather than once
per sentence.  A boolean mask marks the real tokens of a band whose
sentences differ in length; padded steps leave the recursions unchanged
and add nothing to the sums.

Rare word types are collapsed into a single UNK symbol before
training.  All randomness comes from one seeded generator, so training
is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus_io import Corpus

_SAVE_VERSION = 1

# Most padded tokens (rows x longest sentence) one band may hold.
# Training keeps a few float arrays of band tokens x states alive at
# once, so this bounds the tagger's working memory whatever the corpus
# size.
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
    corpus: Corpus, index: dict[str, int], unk: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Sentences padded into length bands, as (positions, symbols, mask).

    The sentences are sorted by length, stably so that equal lengths
    keep corpus order, and packed greedily into bands of at most
    ``BATCH_TOKENS`` padded tokens (rows x longest); a sentence longer
    than that is a band of its own.  The rows of a band therefore
    ascend in length, which ``train_hmm`` relies on.

    ``positions`` and ``symbols`` are (N, L): corpus offsets and
    emission indices, OOV mapped to UNK.  ``mask`` is (N, L), true at
    real tokens, or None when every sentence of the band has length L.
    Padded cells repeat the sentence's last position and symbol, so
    both arrays stay valid indices; ``positions[mask]`` lists each
    corpus offset once.
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
        length = int(lengths[last - 1])
        positions = starts[first:last, None] + np.arange(length)
        mask = None
        if lengths[first] != length:
            mask = positions < ends[first:last, None]
            positions = np.minimum(positions, ends[first:last, None] - 1)
        batches.append((positions, codes[positions], mask))
        first = last
    return batches


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

    counts: dict[str, int] = {}
    for token in corpus.tokens:
        counts[token] = counts.get(token, 0) + 1
    symbols = sorted(t for t, c in counts.items() if c >= unk_threshold)
    index = {symbol: i for i, symbol in enumerate(symbols)}
    unk = len(symbols)
    width = unk + 1
    batches = [(obs, mask) for _, obs, mask in _batches(corpus, index, unk)]

    rng = np.random.default_rng(seed)
    start = rng.dirichlet(np.ones(states))
    transitions = np.vstack([rng.dirichlet(np.ones(states)) for _ in range(states)])
    emissions = np.vstack([rng.dirichlet(np.ones(width)) for _ in range(states)])

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        start_acc = np.zeros(states)
        trans_acc = np.zeros((states, states))
        emit_acc_t = np.zeros((width, states))  # (symbol, state), as bincount fills it
        ll = 0.0
        for obs, mask in batches:
            rows, length = obs.shape
            emit = emissions.T[obs]  # (N, L, K)
            if mask is not None:
                emit[~mask] = 1.0  # padded steps: alpha moves on, scale stays 1
                # Rows ascend in length, so at step t the first
                # finished[t] sentences have already ended.
                finished = rows - np.count_nonzero(mask, axis=0)
            alpha = np.empty((rows, length, states))
            scale = np.empty((rows, length))
            vec = start * emit[:, 0]
            scale[:, 0] = vec.sum(axis=1)
            alpha[:, 0] = vec / scale[:, 0, None]
            for t in range(1, length):
                vec = (alpha[:, t - 1] @ transitions) * emit[:, t]
                scale[:, t] = vec.sum(axis=1)
                alpha[:, t] = vec / scale[:, t, None]
            beta = np.empty((rows, length, states))
            beta[:, length - 1] = 1.0
            for t in range(length - 2, -1, -1):
                beta[:, t] = (
                    (emit[:, t + 1] * beta[:, t + 1]) @ transitions.T
                ) / scale[:, t + 1, None]
                if mask is not None:
                    # A sentence ends at its last real step: beta is 1 there.
                    beta[: finished[t + 1], t] = 1.0
            gamma = alpha * beta
            gamma /= gamma.sum(axis=2, keepdims=True)
            log_scale = np.log(scale)
            if mask is not None:
                gamma[~mask] = 0.0
                log_scale[~mask] = 0.0

            ll += float(log_scale.sum())
            start_acc += gamma[:, 0].sum(axis=0)
            cells = obs[:, :, None] * states + np.arange(states)
            emit_acc_t += np.bincount(
                cells.ravel(), weights=gamma.ravel(), minlength=width * states
            ).reshape(width, states)
            if length > 1:
                # sum_t outer(alpha_t, emit_{t+1} * beta_{t+1} / c_{t+1}),
                # masked by the transition matrix, is the xi total; one
                # matmul sums it over every step of every sentence.
                weighted = (emit[:, 1:] * beta[:, 1:]) / scale[:, 1:, None]
                if mask is not None:
                    weighted[~mask[:, 1:]] = 0.0  # no step into padding
                trans_acc += (
                    alpha[:, :-1].reshape(-1, states).T
                    @ weighted.reshape(-1, states)
                ) * transitions
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
    emit_t = log_emit.T  # (W+1, K)

    tags = np.empty(len(corpus), dtype=np.intp)
    for positions, obs, mask in _batches(corpus, index, unk):
        rows, length = obs.shape
        back = np.empty((rows, length, states), dtype=np.intp)
        delta = log_start + emit_t[obs[:, 0]]
        for t in range(1, length):
            scores = delta[:, :, None] + log_trans  # (N, previous, next)
            back[:, t] = scores.argmax(axis=1)  # first maximum: lower state
            step = scores.max(axis=1) + emit_t[obs[:, t]]
            # Past a sentence's end its delta stays as the end left it.
            delta = step if mask is None else np.where(mask[:, t, None], step, delta)
        state = delta.argmax(axis=1)
        every = np.arange(rows)
        path = np.empty((rows, length), dtype=np.intp)
        path[:, length - 1] = state
        for t in range(length - 1, 0, -1):
            step = back[every, t, state]
            state = step if mask is None else np.where(mask[:, t], step, state)
            path[:, t - 1] = state
        if mask is None:
            tags[positions] = path
        else:
            tags[positions[mask]] = path[mask]
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
