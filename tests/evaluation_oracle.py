"""scipy-backed best match: the reference for the in-house solver.

This is the code ``paracomp.evaluation`` ran before it solved the
assignment problem itself, kept verbatim so the tests can check the
pure-Python solver and the bound-pruned ``best_match`` against it.  It
runs one ``scipy.optimize.linear_sum_assignment`` per (row, candidate
column), with no pruning.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def _assignment_value(weights: np.ndarray) -> float:
    if weights.shape[0] == 0 or weights.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


def best_match(weights) -> list[tuple[int, int]]:
    """Max-weight full matching between rows and columns.

    Returns min(N, M) (row, column) pairs sorted by row.  Among
    matchings of maximal total weight the lexicographically smallest
    pair list is chosen: each row in turn takes the smallest column
    that still allows an optimal completion, and with more rows than
    columns a row is left out only when skipping it costs nothing.

    Cost is one assignment solve per (row, candidate column); fine for
    slot counts into the low hundreds.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be 2-D, got shape {w.shape}")
    n_rows, n_cols = w.shape
    if n_rows == 0 or n_cols == 0:
        return []
    if not np.isfinite(w).all():
        raise ValueError("weight matrix contains non-finite values")
    if (w < 0).any():
        raise ValueError("weight matrix contains negative values")

    size = min(n_rows, n_cols)
    pairs: list[tuple[int, int]] = []
    free_cols = list(range(n_cols))
    for row in range(n_rows):
        remaining = size - len(pairs)
        if remaining == 0:
            break
        rows_after = list(range(row + 1, n_rows))
        # Candidate options in preference order: columns ascending,
        # skipping the row last.  Strict > keeps the preferred option
        # among equals.
        best_value = None
        best_col = None
        for col in free_cols:
            rest = [c for c in free_cols if c != col]
            value = w[row, col] + _assignment_value(w[np.ix_(rows_after, rest)])
            if best_value is None or value > best_value:
                best_value = value
                best_col = col
        if len(rows_after) >= remaining:
            skip_value = _assignment_value(w[np.ix_(rows_after, free_cols)])
            if skip_value > best_value:
                best_value = skip_value
                best_col = None
        if best_col is not None:
            pairs.append((row, best_col))
            free_cols.remove(best_col)
    return pairs
