import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discovery_oracle as oracle
from paracomp.corpus_io import Corpus, Vocabulary, load_corpus
from paracomp.discovery import (
    find_candidates,
    min_tree_support,
    retain_frequent_trees,
)
from paracomp.edit_tree import IDENTITY, Match, Replace, construct, to_sexpr
from paracomp.lexicon import WeightedLexicon
from paracomp.synth import generate_language

APPEND_ED = Match(0, 0, Replace("", ""), Replace("", "ed"))


def vocab_of(*words) -> Vocabulary:
    return Corpus(list(words), [len(words)]).vocab


def test_min_tree_support_values():
    assert min_tree_support(100, 0.05) == 5.0
    assert min_tree_support(10, 0.05) == 2.0
    assert min_tree_support(0, 0.05) == 2.0
    assert min_tree_support(200, 0.1) == 20.0


def test_find_candidates_toy():
    vocab = vocab_of("walk", "work", "walked", "worked")
    lexicon = WeightedLexicon.from_lemmas(["walk", "work"])
    assert find_candidates(lexicon, vocab, 0.5) == {
        "walk": ["walk", "walked"],
        "work": ["work", "worked"],
    }


def test_find_candidates_threshold_is_strict():
    # |lcs| / |lemma| must be strictly greater than the threshold.
    lexicon = WeightedLexicon.from_lemmas(["abcd"])
    at_half = vocab_of("abzz")   # lcs 2 -> ratio 0.5, excluded
    over = vocab_of("abcz")      # lcs 3 -> ratio 0.75, included
    assert find_candidates(lexicon, at_half, 0.5) == {"abcd": []}
    assert find_candidates(lexicon, over, 0.5) == {"abcd": ["abcz"]}


def test_find_candidates_zero_threshold_single_shared_char():
    lexicon = WeightedLexicon.from_lemmas(["xy"])
    assert find_candidates(lexicon, vocab_of("ya", "qq"), 0.0) == {"xy": ["ya"]}


def test_find_candidates_validates_threshold():
    lexicon = WeightedLexicon.from_lemmas(["walk"])
    with pytest.raises(ValueError, match="ratio threshold"):
        find_candidates(lexicon, vocab_of("walk"), 1.0)
    with pytest.raises(ValueError, match="ratio threshold"):
        find_candidates(lexicon, vocab_of("walk"), -0.1)


def test_find_candidates_rejects_empty_lemma():
    class Fake:
        def lemmas(self):
            return [""]

    with pytest.raises(ValueError, match="empty lemma"):
        find_candidates(Fake(), vocab_of("walk"), 0.5)


#: A small language and one the size of the sparse-seed benchmark workload.
LANGUAGES = {
    "small": dict(slots=3, lemmas=8, classes=2, tokens=600, seed=4),
    "sparse-seed": dict(slots=6, lemmas=200, classes=3, tokens=5000, seed=7),
}
RATIOS = (0.0, 0.3, 0.5, 0.75, 0.9)


@pytest.fixture(scope="module", params=sorted(LANGUAGES))
def language(request, tmp_path_factory):
    lang = generate_language(**LANGUAGES[request.param])
    corpus_path, _, _ = lang.write(str(tmp_path_factory.mktemp(request.param)))
    _, vocab = load_corpus(corpus_path)
    return WeightedLexicon.from_lemmas(lang.lexicon), vocab


def assert_same_candidates(found, expected):
    # Same keys in the same order, and each list in the same order.
    assert list(found.items()) == list(expected.items())


@pytest.mark.parametrize("ratio", RATIOS)
def test_find_candidates_matches_scan_oracle(language, ratio):
    lexicon, vocab = language
    assert_same_candidates(
        find_candidates(lexicon, vocab, ratio),
        oracle.find_candidates(lexicon, vocab, ratio),
    )


@settings(max_examples=300, deadline=None)
@given(
    lemmas=st.lists(
        st.text(alphabet="abcçé", min_size=1, max_size=8),
        min_size=1, max_size=6, unique=True,
    ),
    words=st.lists(st.text(alphabet="abcçéß", min_size=1, max_size=8), max_size=25),
    ratio=st.one_of(
        # 0.125, 0.25, 0.5 and 0.75 make need an exact integer for lemma
        # lengths 4 and 8, where > and >= part ways.
        st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
)
def test_find_candidates_matches_scan_oracle_property(lemmas, words, ratio):
    lexicon = WeightedLexicon.from_lemmas(lemmas)
    vocab = vocab_of(*words, *lemmas[::2])
    assert_same_candidates(
        find_candidates(lexicon, vocab, ratio),
        oracle.find_candidates(lexicon, vocab, ratio),
    )


def test_find_candidates_gram_length_follows_need():
    # At 0.9, need is 0.9 for "a" (grams of length 1) and 1.8 for "ab"
    # (grams of length 2, so "ba" shares too little).
    lexicon = WeightedLexicon.from_lemmas(["a", "ab"])
    assert find_candidates(lexicon, vocab_of("a", "ba", "b", "xab"), 0.9) == {
        "a": ["a", "ba", "xab"],
        "ab": ["xab"],
    }


def test_retain_frequent_trees_toy():
    vocab = vocab_of("walk", "work", "walked", "worked")
    lexicon = WeightedLexicon.from_lemmas(["walk", "work"])
    candidates = find_candidates(lexicon, vocab, 0.5)
    trees, census = retain_frequent_trees(candidates, lexicon, 0.05)
    # cutoff is max(2, 0.05*2) = 2; both trees sit exactly at 2 and are kept.
    assert trees == [IDENTITY, APPEND_ED]
    assert census.weights == {IDENTITY: 2.0, APPEND_ED: 2.0}


def test_retain_cutoff_excludes_below():
    vocab = vocab_of("walk", "walked", "work")
    lexicon = WeightedLexicon.from_lemmas(["walk", "work"])
    candidates = find_candidates(lexicon, vocab, 0.5)
    trees, census = retain_frequent_trees(candidates, lexicon, 0.05)
    # identity supported by both lemmas; append-ed only by walk (1 < 2).
    assert trees == [IDENTITY]
    assert census.weights[APPEND_ED] == 1.0


def test_census_counts_weighted_lemmas():
    vocab = vocab_of("walk", "walked", "talk", "talked")
    lexicon = WeightedLexicon.from_lemmas(["walk"]).add_discovered(
        ["talk"], iteration=1, decay=0.5
    )
    candidates = find_candidates(lexicon, vocab, 0.5)
    _, census = retain_frequent_trees(candidates, lexicon, 0.05)
    assert census.weights[APPEND_ED] == 1.5
    assert census.weights[IDENTITY] == 1.5
    for tree, weight in census.weights.items():
        producers = [
            lemma for lemma, words in candidates.items()
            for word in words if construct(lemma, word) == tree
        ]
        assert weight == pytest.approx(
            sum(lexicon.weight(lemma) for lemma in producers)
        )


def test_retained_trees_ordered_by_weight_then_serialization():
    vocab = vocab_of("walk", "work", "talk", "walked", "worked")
    lexicon = WeightedLexicon.from_lemmas(["walk", "work", "talk"])
    candidates = find_candidates(lexicon, vocab, 0.5)
    trees, _ = retain_frequent_trees(candidates, lexicon, 0.05)
    # identity has support 3, append-ed support 2.
    assert trees == [IDENTITY, APPEND_ED]
    ident_first = to_sexpr(trees[0]) < to_sexpr(trees[1])
    assert ident_first  # also holds lexicographically here
