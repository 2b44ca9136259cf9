"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one
PASS/FAIL line per criterion.
"""

import filecmp
import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from paracomp.bootstrap import min_discovery_evidence
from paracomp.config import Config
from paracomp.corpus_io import load_corpus
from paracomp.discovery import min_tree_support
from paracomp.edit_tree import apply, construct
from paracomp.evaluation import (
    best_match,
    best_match_accuracy,
    lemma_baseline,
    merge_syncretic_slots,
)
from paracomp.lexicon import WeightedLexicon
from paracomp.pipeline import run_pipeline, train_tagger
from paracomp.synth import generate_language
from paracomp.tagger import EM_TOLERANCE, train_hmm
from tagger_oracle import dirichlet_start


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


_POOL = (
    "abcdefgh"
    "αβγδ"
    "жщдя"
    "汉字漢語"
    "🦉🌊"
    "́̈"
    " -'"
)


@pytest.fixture(scope="module")
def big_lang(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("accept_lang")
    lang = generate_language(slots=4, lemmas=30, classes=2, tokens=20000, seed=7)
    corpus_path, lexicon_path, gold_path = lang.write(str(out_dir))
    return {
        "corpus": corpus_path,
        "lemmas": lexicon_path,
        "gold": gold_path,
        "out_dir": out_dir,
    }


@pytest.fixture(scope="module")
def big_run(big_lang):
    started = time.perf_counter()
    result = run_pipeline(
        Config(mode="pcs-ii+iii"),
        corpus_path=big_lang["corpus"],
        lexicon_path=big_lang["lemmas"],
        gold_path=big_lang["gold"],
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_acceptance_1_edit_tree_fidelity():
    with criterion(1, "edit-tree fidelity"):
        tree = construct("najtrudniejszy", "trudny")
        assert apply(tree, "najappleiejszs") == "apples"
        assert apply(tree, "trudny") is None

        rng = random.Random(20260817)
        started = time.perf_counter()
        failures = 0
        for _ in range(10000):
            x = "".join(
                rng.choice(_POOL) for _ in range(rng.randint(0, 12))
            )
            y = "".join(
                rng.choice(_POOL) for _ in range(rng.randint(0, 12))
            )
            if apply(construct(x, y), x) != y:
                failures += 1
        elapsed = time.perf_counter() - started
        assert failures == 0
        assert elapsed < 10.0


def test_acceptance_2_threshold_arithmetic():
    with criterion(2, "threshold arithmetic"):
        assert min_tree_support(100, 0.05) == 5.0
        assert min_tree_support(10, 0.05) == 2.0
        assert min_discovery_evidence(10, 0.2) == 3.0
        assert min_discovery_evidence(40, 0.2) == 8.0
        lexicon = (
            WeightedLexicon.from_lemmas(["seed"])
            .add_discovered(["first"], iteration=1, decay=0.5)
            .add_discovered(["second"], iteration=2, decay=0.5)
        )
        assert [entry.weight for entry in lexicon] == [1.0, 0.5, 0.25]
        assert Config().lemma_decay == 0.5


def test_acceptance_3_matching_oracle():
    with criterion(3, "matching oracle"):
        rng = random.Random(3)
        started = time.perf_counter()
        for _ in range(1000):
            n_rows = rng.randint(1, 6)
            n_cols = rng.randint(1, 6)
            w = np.array(
                [
                    [float(rng.randint(0, 9)) for _ in range(n_cols)]
                    for _ in range(n_rows)
                ]
            )
            total = math.fsum(w[r, c] for r, c in best_match(w))
            # Zero-padding to a square lets plain permutations cover
            # every min(N, M)-pair matching without changing the max.
            size = max(n_rows, n_cols)
            padded = np.zeros((size, size))
            padded[:n_rows, :n_cols] = w
            brute = max(
                math.fsum(padded[i, p[i]] for i in range(size))
                for p in itertools.permutations(range(size))
            )
            assert total == brute
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0


def test_acceptance_4_metric_sanity():
    with criterion(4, "metric sanity"):
        gold = {
            "walk": {"past": "walked", "3sg": "walks"},
            "talk": {"past": "talked", "3sg": "talks"},
        }
        perfect = {
            "walk": {1: "walked", 2: "walks"},
            "talk": {1: "talked", 2: "talks"},
        }
        result = best_match_accuracy(gold, perfect)
        assert result.macro == 1.0
        assert result.micro == 1.0

        junk = {
            "walk": {1: "qq", 2: "zz"},
            "talk": {1: "vv", 2: "uu"},
        }
        result = best_match_accuracy(gold, junk)
        assert result.macro == 0.0
        assert result.micro == 0.0

        relabeled = {
            lemma: {{1: 12, 2: 5}[slot]: form for slot, form in row.items()}
            for lemma, row in perfect.items()
        }
        first = best_match_accuracy(gold, perfect)
        second = best_match_accuracy(gold, relabeled)
        assert first.macro == second.macro
        assert first.micro == second.micro


def test_acceptance_5_lemma_baseline_width():
    with criterion(5, "lemma baseline width"):
        assert Config().baseline_slots == 48
        table = lemma_baseline(["walk", "talk"], Config().baseline_slots)
        assert all(len(row) == 48 for row in table.values())
        merged = merge_syncretic_slots(table)
        assert all(len(row) == 1 for row in merged.values())
        gold = {
            "walk": {"past": "walked", "bare": "walk"},
            "talk": {"past": "talked", "bare": "talk"},
        }
        assert best_match_accuracy(gold, table).predicted_slots == 1


def test_acceptance_6_synthetic_recovery(big_run):
    with criterion(6, "end-to-end synthetic recovery"):
        result, elapsed = big_run
        assert result.scores is not None
        assert result.scores.predicted_slots == 4
        assert result.scores.micro >= 0.9
        assert elapsed < 120.0


def test_acceptance_7_scale_smoke(tmp_path):
    with criterion(7, "100k-token smoke"):
        lang = generate_language(
            slots=4, lemmas=200, classes=2, tokens=100000, seed=11
        )
        corpus_path, lexicon_path, _ = lang.write(str(tmp_path))
        started = time.perf_counter()
        result = run_pipeline(
            Config(mode="pcs-i"),
            corpus_path=corpus_path,
            lexicon_path=lexicon_path,
        )
        elapsed = time.perf_counter() - started
        assert len(result.predictions) == 200
        assert elapsed < 300.0
        readme = (
            Path(__file__).resolve().parent.parent / "README.md"
        ).read_text(encoding="utf-8")
        flattened = " ".join(readme.lower().split())
        assert "not reproducible" in flattened


def test_acceptance_8_em_tagger_properties(big_lang, tmp_path):
    with criterion(8, "EM tagger properties"):
        small = generate_language(
            slots=3, lemmas=8, classes=2, tokens=300, seed=5
        )
        corpus_path, _, _ = small.write(str(tmp_path))
        small_corpus, _ = load_corpus(corpus_path)
        # The pipeline runs no EM pass by default; these are the passes
        # it runs from its anchor start when asked for up to 20.
        big_corpus, _ = load_corpus(big_lang["corpus"])
        em = Config(mode="pcs-ii+iii", hmm_iterations=20)
        models = [
            (train_tagger(big_corpus, em), len(big_corpus)),
            (
                train_hmm(
                    small_corpus, dirichlet_start(small_corpus, 8), em.hmm_iterations
                ),
                len(small_corpus),
            ),
        ]
        for model, tokens in models:
            ll = model.log_likelihoods
            # EM runs the full 20 passes or stops at the first flat one.
            flat = [
                abs(b - a) <= EM_TOLERANCE * max(abs(a), tokens)
                for a, b in zip(ll, ll[1:])
            ]
            assert len(ll) == 20 or flat[-1]
            assert not any(flat[:-1])
            for before, after in zip(ll, ll[1:]):
                assert after >= before - 1e-6
            assert abs(model.start.sum() - 1.0) <= 1e-9
            assert np.all(np.abs(model.transitions.sum(axis=1) - 1.0) <= 1e-9)
            assert np.all(np.abs(model.emissions.sum(axis=1) - 1.0) <= 1e-9)


def test_acceptance_9_determinism(big_lang, tmp_path):
    with criterion(9, "run determinism"):
        out_first = tmp_path / "first.tsv"
        out_second = tmp_path / "second.tsv"
        for out in (out_first, out_second):
            run_pipeline(
                Config(mode="pcs-ii+iii"),
                corpus_path=big_lang["corpus"],
                lexicon_path=big_lang["lemmas"],
                out_path=str(out),
            )
        assert filecmp.cmp(str(out_first), str(out_second), shallow=False)
        assert out_first.read_bytes() == out_second.read_bytes()
