import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slot_clustering_oracle as oracle
from paracomp.corpus_io import Corpus
from paracomp.edit_tree import Match, Replace, construct
from paracomp.lexicon import WeightedLexicon
from paracomp.slot_clustering import (
    MergeEvent,
    context_counts,
    group_surface_changes,
    windowed_tokens,
)

APPEND_ED = Match(0, 0, Replace("", ""), Replace("", "ed"))


def corpus_of(*sentences):
    tokens = []
    boundaries = []
    for sentence in sentences:
        tokens.extend(sentence)
        boundaries.append(len(tokens))
    return Corpus(tokens, boundaries)


def assert_matches_oracle(trees, corpus, tags, lexicon, states, **kwargs):
    """Same slots and merge log (scores bit for bit) as the dense oracle."""
    slots, log = group_surface_changes(trees, corpus, tags, lexicon, **kwargs)
    want_slots, want_log = oracle.group_surface_changes(
        trees, corpus, tags, lexicon, states=states, **kwargs
    )
    assert [(s.id, s.trees, s.lemma_forms) for s in slots] == [
        (s.id, s.trees, s.lemma_forms) for s in want_slots
    ]
    assert [(e.kept, e.absorbed, e.score.hex()) for e in log] == [
        (e.kept, e.absorbed, e.score.hex()) for e in want_log
    ]
    return want_slots


def test_window_index_is_mixed_radix():
    window_index = oracle.window_index
    assert window_index([2, 1, 3], center=1, radius=1, states=8) == 139
    assert window_index([5], center=0, radius=0, states=8) == 5
    assert window_index([0, 0, 0], center=1, radius=1, states=8) == 0
    assert window_index([7, 7, 7], center=1, radius=1, states=8) == 511


def test_context_counts_skip_sentence_boundaries():
    corpus = corpus_of(["a", "b", "c"], ["d", "e"])
    tags = [1, 2, 3, 0, 1]
    counts = context_counts(corpus, tags, radius=1)
    # Only "b" has a full window inside its sentence; the two-token
    # sentence contributes nothing at radius 1.
    assert counts == {"b": {(1, 2, 3): 1}}


def test_context_counts_radius_zero_counts_everything():
    corpus = corpus_of(["a", "b"], ["a"])
    counts = context_counts(corpus, [3, 1, 2], radius=0)
    assert counts == {"a": {(3,): 1, (2,): 1}, "b": {(1,): 1}}


def test_slot_features_weight_occurrences_by_lemma_weight():
    corpus = corpus_of(
        ["xa", "walked", "we"],
        ["xa", "talked", "we"],
        ["walked", "we"],  # too short for a full window, must not count
    )
    tags = [0, 1, 2, 0, 1, 2, 1, 2]
    lexicon = WeightedLexicon.from_lemmas(["walk"]).add_discovered(
        ["talk"], iteration=1, decay=0.5
    )
    slot = oracle.SlotState(
        1,
        (APPEND_ED,),
        {"walk": "walked", "talk": "talked"},
        np.zeros(64),
    )
    vec = oracle.extract_slot_features(
        corpus, tags, slot, lexicon, window=3, states=4
    )
    expected = np.zeros(64)
    expected[0 * 16 + 1 * 4 + 2] = 1.0 + 0.5
    assert np.array_equal(vec, expected)


def test_grouping_features_match_direct_scan():
    corpus = corpus_of(
        ["xa", "walked", "we"],
        ["xe", "talked", "wo"],
        ["xa", "walked", "wo"],
    )
    tags = [0, 1, 2, 3, 1, 2, 0, 1, 3]
    lexicon = WeightedLexicon.from_lemmas(["walk", "talk"])
    slots, log = group_surface_changes(
        [APPEND_ED], corpus, tags, lexicon, window=3
    )
    assert log == []
    assert len(slots) == 1
    assert slots[0].lemma_forms == {"walk": "walked", "talk": "talked"}
    want = assert_matches_oracle(
        [APPEND_ED], corpus, tags, lexicon, states=4, window=3
    )
    rescanned = oracle.extract_slot_features(
        corpus, tags, want[0], lexicon, window=3, states=4
    )
    assert np.array_equal(want[0].features, rescanned)


def test_slot_similarity_values():
    slot_similarity = oracle.slot_similarity
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    assert slot_similarity(a, b) == pytest.approx(1 / math.sqrt(2))
    assert slot_similarity(a, a) == pytest.approx(1.0)
    assert slot_similarity(a, 2 * a) == pytest.approx(1.0)
    assert slot_similarity(a, np.zeros(3)) == 0.0
    assert slot_similarity(np.zeros(3), np.zeros(3)) == 0.0


def test_same_context_slots_merge():
    corpus = corpus_of(["xa", "ni", "we"], ["xa", "mi", "we"], ["xa", "nu", "we"])
    tags = [0, 1, 2, 0, 1, 2, 3, 1, 3]
    lexicon = WeightedLexicon.from_lemmas(["na", "mo"])
    trees = [
        Replace("na", "ni"),
        Replace("na", "nu"),
        Replace("mo", "mi"),
    ]
    slots, log = group_surface_changes(
        trees, corpus, tags, lexicon, window=3
    )
    # Slots 1 (ni) and 3 (mi) share a context and no lemma; slot 2 (nu)
    # shares the lemma "na" with slot 1 and a context with nobody.
    assert log == [MergeEvent(kept=1, absorbed=3, score=pytest.approx(1.0))]
    assert [slot.id for slot in slots] == [1, 2]
    merged = slots[0]
    assert merged.trees == (trees[0], trees[2])
    assert merged.lemma_forms == {"na": "ni", "mo": "mi"}
    want = assert_matches_oracle(trees, corpus, tags, lexicon, states=4, window=3)
    expected = np.zeros(64)
    expected[0 * 16 + 1 * 4 + 2] = 2.0
    assert np.array_equal(want[0].features, expected)


def test_shared_lemma_blocks_merging():
    corpus = corpus_of(["xa", "ni", "we"], ["xa", "nu", "we"])
    tags = [0, 1, 2, 0, 1, 2]
    lexicon = WeightedLexicon.from_lemmas(["na"])
    trees = [Replace("na", "ni"), Replace("na", "nu")]
    slots, log = group_surface_changes(
        trees, corpus, tags, lexicon, window=3
    )
    # Identical contexts, cosine 1.0, but both rewrite the same lemma.
    assert log == []
    assert [slot.id for slot in slots] == [1, 2]


def test_merge_threshold_is_strict():
    corpus = corpus_of(["xa", "aa", "we"], ["xa", "bb", "we"])
    tags = [0, 1, 2, 0, 1, 2]
    lexicon = WeightedLexicon.from_lemmas(["na", "mo"])
    trees = [Replace("na", "aa"), Replace("mo", "bb")]
    slots, log = group_surface_changes(
        trees, corpus, tags, lexicon, merge_threshold=1.0, window=3
    )
    assert log == []
    assert len(slots) == 2
    slots, log = group_surface_changes(
        trees, corpus, tags, lexicon, merge_threshold=0.999, window=3
    )
    assert len(slots) == 1
    assert log == [MergeEvent(kept=1, absorbed=2, score=pytest.approx(1.0))]


def test_tied_merges_take_lowest_id_pair():
    corpus = corpus_of(["xa", "fa", "we"], ["xa", "fe", "we"], ["xa", "fo", "we"])
    tags = [0, 1, 2] * 3
    lexicon = WeightedLexicon.from_lemmas(["na", "mo", "ka"])
    trees = [Replace("na", "fa"), Replace("mo", "fe"), Replace("ka", "fo")]
    slots, log = group_surface_changes(
        trees, corpus, tags, lexicon, window=3
    )
    # All three pairs tie at cosine 1.0: (1, 2) merges first, then the
    # survivor absorbs 3.
    assert [(event.kept, event.absorbed) for event in log] == [(1, 2), (1, 3)]
    assert len(slots) == 1
    assert slots[0].lemma_forms == {"na": "fa", "mo": "fe", "ka": "fo"}


def test_merges_respect_lemmas_gained_earlier():
    corpus = corpus_of(["xa", "aa", "we"], ["xa", "bb", "we"], ["xa", "cc", "we"])
    tags = [0, 1, 2] * 3
    lexicon = WeightedLexicon.from_lemmas(["na", "mo"])
    trees = [Replace("na", "aa"), Replace("mo", "bb"), Replace("mo", "cc")]
    slots, log = group_surface_changes(
        trees, corpus, tags, lexicon, window=3
    )
    # 2 and 3 both rewrite "mo", so they can never share a slot.  After
    # 1 absorbs 2, the merged slot owns "mo" too and 3 stays out.
    assert [(event.kept, event.absorbed) for event in log] == [(1, 2)]
    assert [slot.id for slot in slots] == [1, 3]
    assert slots[0].lemma_forms == {"na": "aa", "mo": "bb"}
    assert slots[1].lemma_forms == {"mo": "cc"}


def test_unattested_forms_are_dropped():
    corpus = corpus_of(["xa", "aa", "we"])
    tags = [0, 1, 2]
    lexicon = WeightedLexicon.from_lemmas(["na", "mo"])
    trees = [Replace("na", "aa"), Replace("mo", "qq")]
    slots, _ = group_surface_changes(trees, corpus, tags, lexicon, window=3)
    assert slots[0].lemma_forms == {"na": "aa"}
    assert slots[1].lemma_forms == {}
    want = assert_matches_oracle(trees, corpus, tags, lexicon, states=4, window=3)
    assert not want[1].features.any()


def test_argument_validation():
    corpus = corpus_of(["a", "b", "c"])
    tags = [0, 1, 2]
    lexicon = WeightedLexicon.from_lemmas(["na"])
    with pytest.raises(ValueError, match="odd"):
        group_surface_changes([], corpus, tags, lexicon, window=0)
    with pytest.raises(ValueError, match="threshold"):
        group_surface_changes(
            [], corpus, tags, lexicon, merge_threshold=1.5, window=3
        )
    with pytest.raises(ValueError, match="does not match"):
        group_surface_changes([], corpus, [0], lexicon, window=3)


@st.composite
def clustering_cases(draw):
    """A tiny corpus, its tags and trees, with windows that often do not fit."""
    word = st.text(alphabet="ab", min_size=1, max_size=3)
    lemmas = draw(st.lists(word, min_size=1, max_size=5, unique=True))
    found = draw(st.lists(word, max_size=4, unique=True))
    found = [lemma for lemma in found if lemma not in lemmas]
    decay = draw(st.sampled_from([1.0, 0.5, 0.25]))
    lexicon = WeightedLexicon.from_lemmas(lemmas).add_discovered(
        found[:2], iteration=1, decay=decay
    ).add_discovered(found[2:], iteration=2, decay=decay)
    sentences = draw(st.lists(
        st.lists(word, min_size=1, max_size=6), min_size=1, max_size=8
    ))
    corpus = corpus_of(*sentences)
    states = draw(st.integers(1, 4))
    tags = draw(st.lists(
        st.integers(0, states - 1), min_size=len(corpus), max_size=len(corpus)
    ))
    # Rewrite lemmas into corpus words, so that most slots have forms; a
    # whole-word Replace applies to one lemma only, so it can merge more.
    tree = st.builds(
        lambda build, lemma, form: build(lemma, form),
        st.sampled_from([construct, Replace]),
        st.sampled_from(lexicon.lemmas()),
        st.sampled_from(sorted(corpus.tokens)),
    )
    count = draw(st.sampled_from([8, 4, 2, 0]))
    trees = draw(st.lists(tree, min_size=count, max_size=count))
    return trees, corpus, tags, lexicon, states


@settings(max_examples=300, deadline=None)
@given(
    case=clustering_cases(),
    window=st.sampled_from([1, 3, 5]),
    threshold=st.sampled_from([0.0, 0.3, 0.999]),
)
def test_grouping_matches_dense_oracle(case, window, threshold):
    trees, corpus, tags, lexicon, states = case
    assert_matches_oracle(
        trees, corpus, tags, lexicon, states,
        merge_threshold=threshold, window=window,
    )


def test_windowed_tokens_counts_the_positions_context_counts_uses():
    corpus = corpus_of(["a"], ["a", "b", "c"], ["a", "b", "c", "d", "e"])
    tags = [0] * len(corpus)
    for window in (1, 3, 5, 7):
        counted = context_counts(corpus, tags, window // 2)
        assert windowed_tokens(corpus, window) == sum(
            sum(bucket.values()) for bucket in counted.values()
        )
    assert [windowed_tokens(corpus, w) for w in (1, 3, 5, 7)] == [9, 4, 1, 0]
    with pytest.raises(ValueError, match="odd"):
        windowed_tokens(corpus, 2)
