"""Unsupervised HMM tagger: coarse syntactic states learned from raw text.

A first-order hidden Markov model with a small state inventory is fit
to the corpus, one chain per sentence, and decoded with Viterbi.  The
states carry no names; they only need to be consistent enough that
words used the same way end up tagged the same way.  ``anchor_start``
fits the model from anchor words, with uniform start and transitions,
and the pipeline tags with that fit as it is by default; ``train_hmm``
refines a start with expectation-maximization (Baum-Welch).  On a
uniform chain, Viterbi reduces to each token's most likely state.

Baum-Welch, and Viterbi on other chains, run on bands of sentences that
step through time together, so the Python loop over time steps runs
once per band rather than once per sentence: a pass takes as many
steps as the longest sentences of the bands add up to.  A band is
ragged and time-major.  Its sentences descend in length, and block t of
its rows holds step t of the sentences still running, which are always
its first few.  So the predecessors of block t are the leading rows of
block t-1, and each recursion step reads and writes two contiguous
(sentences, states) slices.  No cell is padding: every row is a real
token.

Each call allocates its working arrays once, sized for the largest
band, and every band and EM pass reuses them, so working memory is
bounded by ``BATCH_TOKENS`` x states whatever the corpus size.  Each
recursion step runs as a few ufuncs that write into that workspace.
Row sums are a product with a ones vector, which costs less per call
than ``sum(axis=...)`` at this size but sums in the linear algebra
library's order: trained parameters, and the saved models, depend in
their last digits on that library as well as on ``BATCH_TOKENS``.

``anchor_start`` keeps as emission symbols the word types seen at least
``unk_threshold`` times and collapses rarer ones into a single UNK
symbol.  EM starts from the model it is given and keeps its states and
symbols.  It stops once the log-likelihood is flat to ``EM_TOLERANCE``;
from the anchor start that takes a few passes on the synthetic
languages.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import Corpus

_SAVE_VERSION = 1

# Most tokens one band may hold.  The tagger's working arrays are sized
# for the largest band, so this bounds its working memory whatever the
# corpus size.
BATCH_TOKENS = 2048

# Baum-Welch stops at the first pass whose log-likelihood moved by at
# most this fraction of the previous pass's, or by at most this many nats
# per token if that is more: where the model predicts every token with
# certainty, the log-likelihood is 0 plus rounding noise, which a
# relative test alone cannot tell from a change.
EM_TOLERANCE = 1e-9

# The anchor start describes a symbol by its neighbours among this many
# most frequent symbols, and takes its anchors among the symbols seen at
# least this often (and at least the median count).
_ANCHOR_CONTEXTS = 64
_ANCHOR_MIN_COUNT = 5


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


def _check_shapes(model: HmmModel, name: str) -> None:
    """Raise ValueError unless the arrays fit the states and sorted, distinct symbols."""
    states = model.start.shape[0] if model.start.ndim == 1 else 0
    got = (model.start.shape, model.transitions.shape, model.emissions.shape)
    need = ((states,), (states, states), (states, len(model.symbols) + 1))
    if states < 1 or got != need:
        raise ValueError(
            f"{name}: start, transitions and emissions have shapes {got}; "
            f"need {need} with at least one state"
        )
    if not all(a < b for a, b in zip(model.symbols, model.symbols[1:])):
        raise ValueError(f"{name}: symbols must be sorted and distinct")


def _codes(corpus: Corpus, symbols: list[str]) -> np.ndarray:
    """Each token's index into ``symbols``; ``len(symbols)``, UNK, if absent."""
    index = {symbol: i for i, symbol in enumerate(symbols)}
    unk = len(symbols)
    return np.array([index.get(t, unk) for t in corpus.vocab], dtype=np.intp)[corpus.ids]


def _batches(
    corpus: Corpus, symbols: list[str]
) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Ragged time-major bands of sentences: (positions, symbols, counts).

    The sentences are sorted longest first, stably so that equal lengths
    keep corpus order, and packed greedily into bands of at most
    ``BATCH_TOKENS`` tokens; a sentence longer than that is a band of
    its own.

    ``positions`` and ``symbols`` are flat, one entry per token of the
    band, as corpus offsets and as indices into ``symbols``, a token not
    in it mapped to ``len(symbols)``, the UNK column.  They run in
    blocks: block t holds step t of the ``counts[t]`` sentences longer
    than t, which are the band's first ``counts[t]`` sentences, in band
    order.  ``counts`` is therefore non-increasing, and its length is
    the band's longest sentence.
    """
    codes = _codes(corpus, symbols)
    ends = np.array(corpus.sentence_boundaries, dtype=np.intp)
    lengths = np.diff(ends, prepend=0)
    starts = ends - lengths
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    filled = np.cumsum(lengths)  # tokens in the sentences up to each one
    batches = []
    first = 0
    while first < lengths.shape[0]:
        before = int(filled[first - 1]) if first else 0
        last = max(
            first + 1,
            int(np.searchsorted(filled, before + BATCH_TOKENS, side="right")),
        )
        steps = np.arange(lengths[first])[:, None]
        running = steps < lengths[first:last]  # (step, sentence)
        positions = (starts[first:last] + steps)[running]
        batches.append(
            (positions, codes[positions], np.count_nonzero(running, axis=1).tolist())
        )
        first = last
    return batches


def _normalise(counts: np.ndarray, axis: int) -> np.ndarray:
    """Scale each line of ``counts`` along ``axis`` to sum to 1; a line of
    zeros becomes uniform, ``1 / counts.shape[axis]`` in every cell."""
    total = counts.sum(axis=axis, keepdims=True)
    return np.where(
        total > 0, counts / np.where(total > 0, total, 1.0), 1.0 / counts.shape[axis]
    )


def _steps(counts: list[int]) -> list[tuple[int, int, int, int]]:
    """Row bounds ``(prev, mid, lo, hi)`` of every block after the first.

    Block t is rows ``lo:hi`` of its band and its predecessors are rows
    ``prev:mid`` of block t-1; rows ``mid:lo`` are the sentences that
    end at step t-1.
    """
    bounds = []
    prev = 0
    for before, count in zip(counts, counts[1:]):
        lo = prev + before
        bounds.append((prev, prev + count, lo, lo + count))
        prev = lo
    return bounds


def anchor_start(corpus: Corpus, states: int, unk_threshold: int) -> HmmModel:
    """A deterministic HMM of at most ``states`` states, fit from anchor words.

    An anchor is a symbol that one state alone emits (Arora et al.,
    ICML 2013; Stratos, Collins and Hsu, TACL 2016).  Each symbol is
    described by its previous-symbol and next-symbol counts over its own
    count, the contexts being the most frequent symbols, all other
    symbols and the sentence boundary.  Among the frequent symbols, the
    anchors are picked greedily, each the row farthest from the affine
    span of those already picked, until there are ``states`` of them or
    every frequent row lies in their span; one state is fit per anchor.
    Every row is then fit by least squares as a combination of the anchor
    rows; the coefficients, clipped at 0 and normalised, estimate
    P(state | symbol), so state k emits symbol w in proportion to
    coefficient k times count(w).  With no symbol frequent enough to be
    an anchor, the one state emits each symbol in proportion to its
    count.  Start and transitions are uniform.  The symbols are the types
    seen at least ``unk_threshold`` times, sorted.
    """
    if states < 1:
        raise ValueError(f"states must be >= 1, got {states}")
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    type_counts = np.bincount(corpus.ids).tolist()
    symbols = sorted(t for t, c in zip(corpus.vocab, type_counts) if c >= unk_threshold)
    width = len(symbols) + 1
    codes = _codes(corpus, symbols)
    counts = np.bincount(codes, minlength=width)
    candidates = np.flatnonzero(counts >= max(_ANCHOR_MIN_COUNT, np.median(counts)))
    if candidates.shape[0] == 0:
        return HmmModel(
            np.ones(1), np.ones((1, 1)), _normalise(counts[None, :], 1), symbols
        )

    top = np.argsort(-counts, kind="stable")[:_ANCHOR_CONTEXTS]
    column = np.full(width, top.shape[0])  # every other symbol shares one column
    column[top] = np.arange(top.shape[0])
    boundary = top.shape[0] + 1
    contexts = boundary + 1
    ends = np.array(corpus.sentence_boundaries[:-1], dtype=np.intp)
    context = column[codes]
    before = np.concatenate([[boundary], context[:-1]])
    before[ends] = boundary
    after = np.concatenate([context[1:], [boundary]])
    after[ends - 1] = boundary
    cells = np.concatenate([before, after + contexts])
    cells += np.tile(codes * (2 * contexts), 2)
    rows = np.bincount(cells, minlength=width * 2 * contexts).reshape(width, -1)

    points = rows[candidates] / counts[candidates, None]
    picked = [int(np.argmax(np.einsum("ij,ij->i", points, points)))]
    residual = points - points[picked[0]]
    shift = np.empty_like(residual)
    for _ in range(min(states, candidates.shape[0]) - 1):
        norms = np.einsum("ij,ij->i", residual, residual)
        best = int(np.argmax(norms))
        if norms[best] <= 1e-12:  # every row is in the span, up to rounding
            break
        direction = residual[best] / np.sqrt(norms[best])
        residual -= np.outer(residual @ direction, direction, out=shift)
        picked.append(best)

    # The normal equations of every row at once.  The rows are fit as
    # counts, which scales each row's coefficients by its count until
    # they are normalised.  A K x K solve and einsum keep to one thread,
    # where lstsq, an SVD or a large matmul would start BLAS threads.
    states = len(picked)
    anchors = points[picked]
    solved = np.linalg.solve(anchors @ anchors.T, anchors)
    weights = np.einsum("kd,wd->kw", solved, rows)  # (K, W+1)
    np.maximum(weights, 0.0, out=weights)
    emissions = _normalise(_normalise(weights, 0) * counts, 1)
    uniform = np.full(states, 1.0 / states)
    return HmmModel(uniform, np.tile(uniform, (states, 1)), emissions, symbols)


def train_hmm(corpus: Corpus, init: HmmModel, iterations: int) -> HmmModel:
    """Refine ``init`` on the corpus with Baum-Welch.

    The model keeps the states and symbols of ``init``, such as
    ``anchor_start`` fits them.  EM runs at most ``iterations`` passes,
    and stops at the first pass whose log-likelihood moved by at most
    ``EM_TOLERANCE`` times the one before (or times the token count, if
    larger), returning the parameters that pass evaluated.  Only a pass
    needs two tokens, so at 0 passes the start comes back on a shorter
    corpus too.

    The recorded log-likelihood list holds one entry per pass, each
    evaluating the parameters *before* that pass's update, so the
    sequence is non-decreasing up to rounding.  No smoothing is applied
    in the M-step: probabilities the data does not support go to exactly
    zero.
    """
    if iterations > 0 and len(corpus) < 2:
        raise ValueError("corpus too small to train on (need at least 2 tokens)")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    _check_shapes(init, "init")

    symbols = init.symbols
    states, width = init.emissions.shape
    start, transitions, emissions = init.start, init.transitions, init.emissions
    if iterations == 0:
        return HmmModel(start, transitions, emissions, symbols)

    bands = []
    for _, obs, running in _batches(corpus, symbols):
        head = obs.shape[0] - running[-1]
        bands.append((obs, running[0], head, _steps(running)))

    # One workspace for every band and pass: the emission probabilities
    # of the band's symbols, the scaled forward and backward variables,
    # the backward products emit * beta / scale (each in the row of its
    # predecessor, kept for the xi sum), and the scales.
    size = max(obs.shape[0] for obs, *_ in bands)
    workspace = [np.empty((size, states)) for _ in range(4)] + [np.empty((size, 1))]
    ones = np.ones((states, 1))  # x @ ones sums the rows of x
    offsets = np.arange(states)

    log_likelihoods: list[float] = []
    for _ in range(iterations):
        start_acc = np.zeros(states)
        trans_acc = np.zeros((states, states))
        emit_acc_t = np.zeros((width, states))  # (symbol, state), as bincount fills it
        emit_table = np.ascontiguousarray(emissions.T)
        transitions_t = transitions.T
        ll = 0.0
        for obs, first, head, steps in bands:
            emit, alpha, beta, weighted, scale = (buf[: obs.shape[0]] for buf in workspace)
            np.take(emit_table, obs, axis=0, out=emit, mode="clip")

            now = alpha[:first]
            np.multiply(start, emit[:first], out=now)
            np.dot(now, ones, out=scale[:first])
            np.divide(now, scale[:first], out=now)
            for prev, mid, lo, hi in steps:
                now = alpha[lo:hi]
                np.dot(alpha[prev:mid], transitions, out=now)
                np.multiply(now, emit[lo:hi], out=now)
                np.dot(now, ones, out=scale[lo:hi])
                np.divide(now, scale[lo:hi], out=now)
            # A sentence's last row has beta 1 and, with no transition
            # leaving it, a zero row in the xi sum, which stops at
            # ``head``, the last block; the backward steps fill the rest.
            beta.fill(1.0)
            weighted.fill(0.0)
            for prev, mid, lo, hi in reversed(steps):
                step = weighted[prev:mid]
                np.multiply(emit[lo:hi], beta[lo:hi], out=step)
                np.divide(step, scale[lo:hi], out=step)
                np.dot(step, transitions_t, out=beta[prev:mid])

            if head:
                # sum_t outer(alpha_t, emit_{t+1} * beta_{t+1} / c_{t+1}),
                # masked by the transition matrix, is the xi total; one
                # matmul sums it over every step of every sentence.
                trans_acc += (alpha[:head].T @ weighted[:head]) * transitions
            ll += float(np.log(scale, out=scale).sum())

            gamma = np.multiply(alpha, beta, out=beta)
            # ll and trans_acc have read the scales, so their buffer is
            # free to hold gamma's normaliser; keep this after both.
            np.dot(gamma, ones, out=scale)
            np.divide(gamma, scale, out=gamma)
            start_acc += gamma[:first].sum(axis=0)
            cells = obs[:, None] * states + offsets
            emit_acc_t += np.bincount(
                cells.ravel(), weights=gamma.ravel(), minlength=width * states
            ).reshape(width, states)
        flat = bool(log_likelihoods) and abs(ll - log_likelihoods[-1]) <= (
            EM_TOLERANCE * max(abs(log_likelihoods[-1]), len(corpus))
        )
        log_likelihoods.append(ll)
        if flat:
            break

        # A state the data never visits gets a uniform row rather than 0/0.
        start = _normalise(start_acc, 0)
        transitions = _normalise(trans_acc, 1)
        emissions = _normalise(emit_acc_t.T, 1)

    return HmmModel(start, transitions, emissions, symbols, log_likelihoods)


def tag_corpus(model: HmmModel, corpus: Corpus) -> np.ndarray:
    """Viterbi state indices, one per corpus token, as an ``np.intp`` array.

    Ties take the lower state index.  An emission column that is all
    zero (a symbol this model has never expected) is treated as
    uniform so decoding stays defined.

    When start and transitions are uniform, as ``anchor_start`` fits
    them, every path gets the same start and transition scores, so the
    best path takes each token's best state: one lookup per token
    instead of a pass through the chain.  (The pass adds each token's
    scores to a running total, where two scores that differ only in
    their last bits can round to a tie; the lookup compares them
    unrounded.)
    """
    _check_shapes(model, "model")
    states = model.states
    with np.errstate(divide="ignore"):
        log_start = np.log(model.start)
        log_trans = np.log(model.transitions)
        log_emit = np.log(model.emissions)
    dead = ~np.isfinite(log_emit).any(axis=0)  # all-zero emission columns
    log_emit[:, dead] = -np.log(states)
    # A start or transitions of all zeros is flat too, but every path
    # then scores -inf and the pass below tags every token 0.
    if (
        np.all(log_start == log_start[0])
        and np.all(log_trans == log_trans[0, 0])
        and np.isfinite(log_start[0] + log_trans[0, 0])
    ):
        best = np.argmax(log_emit, axis=0)  # first maximum: lower state
        return best[_codes(corpus, model.symbols)]
    emit_table = np.ascontiguousarray(log_emit.T)  # (W+1, K)

    bands = _batches(corpus, model.symbols)
    size = max((obs.shape[0] for _, obs, _ in bands), default=0)
    widest = max((running[0] for _, _, running in bands), default=0)
    # A block steps in chunks of rows, so the (rows, states, states)
    # scores stay within BATCH_TOKENS x states floats like the rest.
    chunk = max(1, BATCH_TOKENS // states)
    rows = min(widest, chunk)
    emit_buf = np.empty((size, states))
    back_buf = np.empty((size, states), dtype=np.intp)
    path = np.empty(size, dtype=np.intp)
    scores_buf = np.empty(rows * states * states)
    scores = scores_buf.reshape(rows, states, states)  # (N, previous, next)
    delta = np.empty((widest, states, 1))
    now = delta[:, :, 0]
    # Flat offset of scores[n, 0, j], for reading each maximum at its argmax.
    corner = np.arange(rows)[:, None] * states * states + np.arange(states)
    pick = np.empty_like(corner)
    # Flat offset of back[n, 0] within a block, for the backtrace.
    row_base = np.arange(widest) * states
    state = np.empty(widest, dtype=np.intp)
    cell = np.empty(widest, dtype=np.intp)

    tags = np.empty(len(corpus), dtype=np.intp)
    for positions, obs, running in bands:
        first = running[0]
        steps = _steps(running)
        emit = emit_buf[: obs.shape[0]]
        np.take(emit_table, obs, axis=0, out=emit, mode="clip")
        np.add(log_start, emit[:first], out=now[:first])
        # Only the running sentences step, so a finished one keeps the
        # delta of its last step.
        for _, _, lo, hi in steps:
            for a in range(0, hi - lo, chunk):
                b = min(a + chunk, hi - lo)
                n = b - a
                block = scores[:n]
                np.add(delta[a:b], log_trans, out=block)
                back = back_buf[lo + a : lo + b]
                np.argmax(block, axis=1, out=back)  # first maximum: lower state
                np.multiply(back, states, out=pick[:n])
                np.add(pick[:n], corner[:n], out=pick[:n])
                # now[n, j] = scores[n, back[n, j], j]
                np.take(scores_buf, pick[:n], out=now[a:b], mode="clip")
                np.add(now[a:b], emit[lo + a : lo + b], out=now[a:b])
        np.argmax(now[:first], axis=1, out=state[:first])
        for _, _, lo, hi in reversed(steps):
            n = hi - lo
            path[lo:hi] = state[:n]
            np.add(row_base[:n], state[:n], out=cell[:n])
            np.take(back_buf[lo:], cell[:n], out=state[:n], mode="clip")
        path[:first] = state[:first]
        tags[positions] = path[: obs.shape[0]]
    return tags


def save_model(model: HmmModel, path: str) -> None:
    """Persist a model to an .npz file."""
    symbols = np.array(model.symbols, dtype=str)
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
    """Read a model that ``save_model`` wrote; any other file is a ValueError."""
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            version = int(data["version"][0])
            if version == _SAVE_VERSION:
                model = HmmModel(
                    start=data["start"],
                    transitions=data["transitions"],
                    emissions=data["emissions"],
                    symbols=[str(s) for s in data["symbols"]],
                    log_likelihoods=[float(v) for v in data["log_likelihoods"]],
                )
    except (
        EOFError, IndexError, KeyError, TypeError, ValueError, zipfile.BadZipFile
    ) as exc:
        raise ValueError(f"{path}: not a saved model: {exc}") from exc
    if version != _SAVE_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    _check_shapes(model, path)
    return model


def write_tagged(corpus: Corpus, tags: np.ndarray, path: str) -> None:
    """Dump ``tag_corpus``'s tags as token<TAB>state lines, one blank line
    between sentences; a list of the same ints writes the same bytes."""
    if len(tags) != len(corpus):
        raise ValueError(
            f"tag count {len(tags)} does not match corpus length {len(corpus)}"
        )
    # One string per state, gathered per token: no numpy scalar is formatted.
    states = int(np.max(tags, initial=-1)) + 1
    names = np.array([str(k) for k in range(states)], dtype=object)[tags]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        start = 0
        for end in corpus.sentence_boundaries:
            if start:
                handle.write("\n")
            for pos in range(start, end):
                handle.write(f"{corpus.tokens[pos]}\t{names[pos]}\n")
            start = end
