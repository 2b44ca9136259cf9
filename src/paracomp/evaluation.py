"""Best-match scoring of predicted inflection tables against gold tables.

Predicted slots carry arbitrary ids, so scoring first finds the
max-weight one-to-one matching between gold and predicted slots, then
reads accuracy off the matched pairs.  Slots that are identical across
every lemma (syncretic columns) are collapsed on each side
independently before any matching, so neither side is rewarded or
punished for how it counts indistinguishable columns.

The matching is one solve per table, in pure Python, with the shortest
augmenting path algorithm for rectangular assignment (Crouse 2016, "On
implementing 2D rectangular assignment algorithms", IEEE TAES), the
algorithm behind ``scipy.optimize.linear_sum_assignment``, with the same
tie rules, so it returns the same assignment without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

#: Column count of the fixed-size lemma baseline.
DEFAULT_BASELINE_SLOTS = 48


def merge_syncretic_slots(table: dict) -> dict:
    """Collapse slots whose whole column of forms is identical.

    Column identity is transitive, so all mutually identical slots
    collapse into the first one in sorted order.  Works on gold tables
    (str slot labels) and predictions (int slot ids) alike.
    """
    rows = [table[lemma] for lemma in sorted(table)]
    slots = sorted({slot for row in rows for slot in row})
    first_with_column: dict[tuple, Hashable] = {}
    keep: list = []
    for slot in slots:
        column = tuple([row.get(slot) for row in rows])
        if column not in first_with_column:
            first_with_column[column] = slot
            keep.append(slot)
    keep_set = set(keep)
    return {
        lemma: {slot: form for slot, form in row.items() if slot in keep_set}
        for lemma, row in table.items()
    }


def _assignment(weights: list[list[float]]) -> list[tuple[int, int]]:
    """Max-weight assignment of a non-empty matrix as (row, column) pairs.

    Returns min(N, M) pairs sorted by row, the same assignment that
    ``linear_sum_assignment(weights, maximize=True)`` returns: costs are
    negated weights, a tall matrix is solved transposed, remaining
    columns are scanned in reverse order, and among equal path costs a
    free column is preferred.
    """
    transpose = len(weights[0]) < len(weights)
    if transpose:
        cost = [[-x for x in column] for column in zip(*weights)]
    else:
        cost = [[-x for x in row] for row in weights]
    n_rows, n_cols = len(cost), len(cost[0])
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur in range(n_rows):
        # Dijkstra-style search for the shortest augmenting path from cur.
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            seen_rows.append(i)
            row_cost = cost[i]
            u_i = u[i]
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                r = min_val + row_cost[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the duals of the visited rows and columns, then flip the
        # matched and unmatched edges along the path.
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(col4row))


def _rows(weights) -> list[list[float]]:
    """A 2-D weight matrix, nested lists or an array, as lists of floats."""
    shape = getattr(weights, "shape", None)
    rows = None
    if shape is None or len(shape) == 2:
        try:
            rows = [[float(x) for x in row] for row in weights]
        except TypeError:  # a row that is a number, or holds sequences
            pass
    # A bare [] is 1-D, as numpy reads it; an array of shape (0, m) is not.
    if rows is None or (not rows and shape is None) or len(set(map(len, rows))) > 1:
        raise ValueError("weight matrix must be 2-D, with rows of one length")
    return rows


def best_match(weights) -> list[tuple[int, int]]:
    """Max-weight full matching between rows and columns.

    Returns min(N, M) (row, column) pairs sorted by row: one assignment
    solve, so among equally good matchings the one
    ``linear_sum_assignment(weights, maximize=True)`` returns.
    """
    rows = _rows(weights)
    if not rows or not rows[0]:
        return []
    values = [x for row in rows for x in row]
    if not all(map(math.isfinite, values)):
        raise ValueError("weight matrix contains non-finite values")
    if min(values) < 0:
        raise ValueError("weight matrix contains negative values")
    return _assignment(rows)


@dataclass
class BmaccResult:
    macro: float
    micro: float
    gold_slots: int
    predicted_slots: int
    #: (gold label, predicted id, per-slot accuracy) from the macro matching.
    pairs: list[tuple[Hashable, Hashable, float]]


def best_match_accuracy(
    gold: dict[str, dict], predictions: dict[str, dict]
) -> BmaccResult:
    """Macro and micro best-match accuracy of predictions against gold.

    Both tables are syncretism-collapsed first.  Macro averages
    per-gold-slot accuracies under an accuracy-optimal matching and
    divides by max(N, M); micro pools correct cells over attested cells
    under a separately optimized count matching, scaled by N/max(N, M).
    An empty prediction table scores 0 on both.
    """
    if not gold:
        raise ValueError("gold table is empty")
    g = merge_syncretic_slots(gold)
    p = merge_syncretic_slots(predictions)
    gold_slots = sorted({slot for row in g.values() for slot in row})
    pred_slots = sorted({slot for row in p.values() for slot in row})
    n_gold = len(gold_slots)
    n_pred = len(pred_slots)
    if n_gold == 0:
        raise ValueError("gold table has no slots")

    pred_index = {slot: j for j, slot in enumerate(pred_slots)}
    counts = [0] * n_gold
    cells = [[0] * n_pred for _ in range(n_gold)]
    for lemma in sorted(g):
        row = g[lemma]
        pred_row = p.get(lemma, {})
        by_form: dict[str, list[int]] = {}
        for slot, form in pred_row.items():
            by_form.setdefault(form, []).append(pred_index[slot])
        for i, slot in enumerate(gold_slots):
            form = row.get(slot)
            if form is None:
                continue
            counts[i] += 1
            hits = cells[i]
            for j in by_form.get(form, ()):
                hits[j] += 1
    denominator = max(n_gold, n_pred)
    accuracy = [[hits / count for hits in row] for row, count in zip(cells, counts)]
    macro_pairs = best_match(accuracy)
    macro = math.fsum(accuracy[i][j] for i, j in macro_pairs) / denominator
    micro_pairs = best_match(cells)
    micro = (
        n_gold / denominator
        * math.fsum(cells[i][j] for i, j in micro_pairs)
        / math.fsum(counts)
    )
    pairs = [
        (gold_slots[i], pred_slots[j], accuracy[i][j]) for i, j in macro_pairs
    ]
    return BmaccResult(macro, micro, n_gold, n_pred, pairs)


def lemma_baseline(lemmas, slot_count: int) -> dict[str, dict[int, str]]:
    """Predict the lemma itself in every one of ``slot_count`` slots;
    a run passes ``Config.baseline_slots`` or the gold table's slot count."""
    if slot_count < 1:
        raise ValueError(f"slot count must be >= 1, got {slot_count}")
    return {
        lemma: {slot: lemma for slot in range(1, slot_count + 1)}
        for lemma in lemmas
    }
