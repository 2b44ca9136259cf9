import itertools
import math
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from paracomp import evaluation
from paracomp.config import Config
from paracomp.evaluation import (
    DEFAULT_BASELINE_SLOTS,
    _assignment,
    best_match,
    best_match_accuracy,
    lemma_baseline,
    merge_syncretic_slots,
)


def brute_force_best(weights):
    """The max matched weight over all min(N, M)-pair matchings, by enumeration."""
    w = np.asarray(weights, dtype=float)
    n_rows, n_cols = w.shape
    k = min(n_rows, n_cols)
    return max(
        math.fsum(w[r, c] for r, c in zip(rows, cols))
        for rows in itertools.combinations(range(n_rows), k)
        for cols in itertools.permutations(range(n_cols), k)
    )


def is_full_matching(pairs, shape):
    """Rows ascending, no row or column twice, and min(N, M) pairs."""
    rows = [r for r, _ in pairs]
    cols = [c for _, c in pairs]
    return (
        len(pairs) == min(shape)
        and rows == sorted(set(rows))
        and len(set(cols)) == len(cols)
        and all(0 <= r < shape[0] and 0 <= c < shape[1] for r, c in pairs)
    )


def scipy_pairs(w):
    rows, cols = linear_sum_assignment(w, maximize=True)
    return list(zip(rows.tolist(), cols.tolist()))


def best_match_and_solves(w):
    """``best_match(w)`` and the number of assignment solves it ran."""
    with mock.patch.object(
        evaluation, "_assignment", wraps=evaluation._assignment
    ) as solve:
        pairs = best_match(w)
    return pairs, solve.call_count


class TestMergeSyncreticSlots:
    def test_identical_columns_collapse_to_first(self):
        table = {
            "a": {"s1": "x", "s2": "x", "s3": "y"},
            "b": {"s1": "u", "s2": "u", "s3": "v"},
        }
        assert merge_syncretic_slots(table) == {
            "a": {"s1": "x", "s3": "y"},
            "b": {"s1": "u", "s3": "v"},
        }

    def test_collapse_is_transitive(self):
        table = {"a": {"s1": "x", "s2": "x", "s3": "x"}}
        assert merge_syncretic_slots(table) == {"a": {"s1": "x"}}

    def test_missing_cells_distinguish_columns(self):
        table = {
            "a": {"s1": "x", "s2": "x"},
            "b": {"s1": "u"},
        }
        # s2 is absent for "b", so the columns differ and both stay.
        assert merge_syncretic_slots(table) == table

    def test_distinct_columns_untouched(self):
        table = {"a": {1: "x", 2: "y"}, "b": {1: "u", 2: "v"}}
        assert merge_syncretic_slots(table) == table

    def test_integer_ids_collapse_to_lowest(self):
        table = {"a": {3: "x", 1: "x"}, "b": {3: "u", 1: "u"}}
        assert merge_syncretic_slots(table) == {"a": {1: "x"}, "b": {1: "u"}}


class TestBestMatch:
    def test_empty_matrix(self):
        assert best_match(np.zeros((0, 3))) == []
        assert best_match(np.zeros((3, 0))) == []

    def test_simple_diagonal(self):
        assert best_match([[2.0, 0.0], [0.0, 2.0]]) == [(0, 0), (1, 1)]

    def test_anti_diagonal(self):
        assert best_match([[0.0, 2.0], [2.0, 0.0]]) == [(0, 1), (1, 0)]

    def test_all_ties_take_smallest_columns(self):
        assert best_match(np.ones((2, 2))) == [(0, 0), (1, 1)]
        assert best_match(np.zeros((3, 2))) == [(0, 0), (1, 1)]

    def test_wide_matrix_takes_best_column(self):
        assert best_match([[1.0, 2.0, 3.0]]) == [(0, 2)]

    def test_tall_matrix_leaves_out_worthless_rows(self):
        assert best_match([[0.0], [7.0]]) == [(1, 0)]
        assert best_match([[0.0, 0.0], [5.0, 0.0], [0.0, 0.0]]) == [(0, 1), (1, 0)]

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            best_match(np.zeros(3))
        with pytest.raises(ValueError, match="2-D"):
            best_match([1.0, 2.0])
        with pytest.raises(ValueError, match="2-D"):
            best_match(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="2-D"):
            best_match([[[1.0], [2.0]]])
        with pytest.raises(ValueError, match="2-D"):
            best_match([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="non-finite"):
            best_match([[float("nan"), 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            best_match([[float("inf"), 0.0]])
        with pytest.raises(ValueError, match="negative"):
            best_match([[1.0, -0.5]])

    def test_matches_brute_force_on_random_matrices(self):
        rng = random.Random(20240817)
        for _ in range(150):
            n_rows = rng.randint(1, 4)
            n_cols = rng.randint(1, 4)
            w = np.array(
                [
                    [float(rng.randint(0, 3)) for _ in range(n_cols)]
                    for _ in range(n_rows)
                ]
            )
            pairs = best_match(w)
            assert is_full_matching(pairs, w.shape), w
            assert math.fsum(w[r, c] for r, c in pairs) == brute_force_best(w)


@st.composite
def weight_matrices(draw, max_side=9):
    """Wide, tall and square non-negative matrices, rich in exact ties."""
    n_rows = draw(st.integers(1, max_side))
    n_cols = draw(st.integers(1, max_side))
    kind = draw(st.sampled_from(["ints", "rationals", "floats", "zeros", "constant"]))
    if kind == "ints":
        cell = st.integers(0, 3).map(float)
    elif kind == "rationals":
        n = draw(st.integers(1, 9))
        cell = st.integers(0, n).map(lambda k: k / n)
    elif kind == "floats":
        cell = st.floats(0.0, 1.0)
    elif kind == "zeros":
        cell = st.just(0.0)
    else:
        cell = st.just(draw(st.sampled_from([1.0, 1 / 3, 0.1, 7.0])))
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    return np.array(rows, dtype=float)


def matched_value(w, pairs):
    return math.fsum(w[r, c] for r, c in pairs)


class TestAssignment:
    """The pure-Python solver against ``scipy.optimize.linear_sum_assignment``."""

    @settings(max_examples=300, deadline=None)
    @given(w=weight_matrices())
    def test_optimal_value_matches_scipy(self, w):
        rows, cols = linear_sum_assignment(w, maximize=True)
        pairs = _assignment(w.tolist())
        assert len(pairs) == min(w.shape)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
        expected = matched_value(w, zip(rows, cols))
        if (w == np.floor(w)).all():
            assert matched_value(w, pairs) == expected
        else:
            assert matched_value(w, pairs) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(w=weight_matrices())
    def test_assignment_matches_scipy(self, w):
        # Same tie rules, so the same pairs and not just the same value.
        assert _assignment(w.tolist()) == scipy_pairs(w)


class TestBestMatchAgainstOracle:
    """``best_match`` against scipy's ``linear_sum_assignment``: one solve each."""

    @settings(max_examples=400, deadline=None)
    @given(w=weight_matrices())
    def test_pairs_match_oracle(self, w):
        assert best_match_and_solves(w) == (scipy_pairs(w), 1)

    def test_wide_table_matches_oracle(self):
        rng = np.random.RandomState(6300)
        accuracy = rng.randint(0, 26, size=(6, 300)) / 25
        counts = rng.randint(0, 4, size=(6, 300)).astype(float)
        # Tall tables: more gold than predicted slots.
        sparse = rng.randint(1, 26, size=(48, 10)) * (rng.rand(48, 10) < 0.2) / 25
        uniform = rng.rand(300, 6)
        for w in accuracy, counts, sparse, uniform:
            assert best_match_and_solves(w) == (scipy_pairs(w), 1)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(evaluation.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, paracomp; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestBestMatchAccuracy:
    def test_perfect_predictions(self):
        gold = {
            "walk": {"past": "walked", "3sg": "walks"},
            "talk": {"past": "talked", "3sg": "talks"},
        }
        predictions = {
            "walk": {1: "walked", 2: "walks"},
            "talk": {1: "talked", 2: "talks"},
        }
        result = best_match_accuracy(gold, predictions)
        assert result.macro == 1.0
        assert result.micro == 1.0
        assert result.gold_slots == 2
        assert result.predicted_slots == 2
        assert result.pairs == [("3sg", 2, 1.0), ("past", 1, 1.0)]

    def test_half_right_single_column(self):
        gold = {
            "a": {"s1": "a1", "s2": "a2"},
            "b": {"s1": "b1", "s2": "b2"},
        }
        predictions = {
            "a": {1: "a1", 2: "zz"},
            "b": {1: "b1", 2: "yy"},
        }
        result = best_match_accuracy(gold, predictions)
        assert result.macro == 0.5
        assert result.micro == 0.5
        assert result.pairs == [("s1", 1, 1.0), ("s2", 2, 0.0)]

    def test_two_of_three_cells(self):
        gold = {"a": {"s1": "a1", "s2": "a2", "s3": "a3"}}
        predictions = {"a": {1: "a1", 2: "a2", 3: "zz"}}
        result = best_match_accuracy(gold, predictions)
        assert result.macro == pytest.approx(2 / 3)
        assert result.micro == pytest.approx(2 / 3)

    def test_extra_predicted_slots_cost_macro_and_micro(self):
        gold = {
            "walk": {"past": "walked", "3sg": "walks"},
            "talk": {"past": "talked", "3sg": "talks"},
        }
        predictions = {
            "walk": {1: "walked", 2: "walks", 9: "j1"},
            "talk": {1: "talked", 2: "talks", 9: "j2"},
        }
        result = best_match_accuracy(gold, predictions)
        assert result.predicted_slots == 3
        assert result.macro == pytest.approx(2 / 3)
        assert result.micro == pytest.approx(2 / 3)

    def test_gold_syncretism_is_not_punished(self):
        gold = {
            "a": {"nom": "ax", "voc": "ax"},
            "b": {"nom": "bx", "voc": "bx"},
        }
        predictions = {"a": {1: "ax"}, "b": {1: "bx"}}
        result = best_match_accuracy(gold, predictions)
        assert result.gold_slots == 1
        assert result.macro == 1.0
        assert result.micro == 1.0

    def test_prediction_syncretism_is_not_punished(self):
        gold = {"a": {"nom": "ax"}, "b": {"nom": "bx"}}
        predictions = {
            "a": {1: "ax", 2: "ax"},
            "b": {1: "bx", 2: "bx"},
        }
        result = best_match_accuracy(gold, predictions)
        assert result.predicted_slots == 1
        assert result.macro == 1.0
        assert result.micro == 1.0

    @pytest.mark.parametrize("predictions", [{}, {"a": {}}], ids=["none", "empty-row"])
    def test_empty_predictions_score_zero(self, predictions):
        gold = {"a": {"s1": "x"}}
        result = best_match_accuracy(gold, predictions)
        assert result.macro == 0.0
        assert result.micro == 0.0
        assert result.gold_slots == 1
        assert result.predicted_slots == 0
        assert result.pairs == []

    def test_scores_do_not_depend_on_slot_ids(self):
        gold = {
            "a": {"s1": "a1", "s2": "a2"},
            "b": {"s1": "b1", "s2": "b2"},
        }
        predictions = {
            "a": {1: "a1", 2: "a2"},
            "b": {1: "b2", 2: "b1"},
        }
        relabeled = {
            lemma: {{1: 7, 2: 3}[slot]: form for slot, form in row.items()}
            for lemma, row in predictions.items()
        }
        first = best_match_accuracy(gold, predictions)
        second = best_match_accuracy(gold, relabeled)
        assert first.macro == second.macro
        assert first.micro == second.micro

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            best_match_accuracy({}, {"a": {1: "x"}})
        with pytest.raises(ValueError, match="no slots"):
            best_match_accuracy({"a": {}}, {"a": {1: "x"}})


class TestLemmaBaseline:
    def test_default_width(self):
        table = lemma_baseline(["walk", "talk"], Config().baseline_slots)
        assert set(table) == {"walk", "talk"}
        assert len(table["walk"]) == DEFAULT_BASELINE_SLOTS == 48
        assert set(table["walk"].values()) == {"walk"}
        assert sorted(table["walk"]) == list(range(1, 49))

    def test_columns_collapse_to_one(self):
        table = lemma_baseline(["walk", "talk"], slot_count=5)
        merged = merge_syncretic_slots(table)
        assert merged == {"walk": {1: "walk"}, "talk": {1: "talk"}}

    def test_bad_slot_count(self):
        with pytest.raises(ValueError, match="slot count"):
            lemma_baseline(["walk"], slot_count=0)
