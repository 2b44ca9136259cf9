import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bootstrap_oracle
from paracomp.bootstrap import (
    _sources,
    bootstrap,
    discover_new_lemmas,
    min_discovery_evidence,
)
from paracomp.config import Config
from paracomp.corpus_io import Corpus, Vocabulary
from paracomp.discovery import min_tree_support
from paracomp.edit_tree import IDENTITY, Match, Replace, apply, construct, to_sexpr
from paracomp.lexicon import LexiconEntry, WeightedLexicon
from paracomp.synth import generate_language

APPEND_ED = Match(0, 0, Replace("", ""), Replace("", "ed"))
APPEND_S = Match(0, 0, Replace("", ""), Replace("", "s"))
APPEND_ING = Match(0, 0, Replace("", ""), Replace("", "ing"))
FOUR_TREES = [IDENTITY, APPEND_ED, APPEND_S, APPEND_ING]


def vocab_of(*words) -> Vocabulary:
    return Corpus(list(words), [len(words)]).vocab


def census_bits(census):
    """Census weights as float.hex, in insertion order."""
    return [
        (to_sexpr(tree), weight.hex()) for tree, weight in census.weights.items()
    ]


def test_min_discovery_evidence_values():
    assert min_discovery_evidence(10, 0.2) == 3.0
    assert min_discovery_evidence(40, 0.2) == 8.0
    assert min_discovery_evidence(0, 0.2) == 3.0


def test_lexicon_weights_decay_geometrically():
    lexicon = WeightedLexicon.from_lemmas(["walk"])
    lexicon = lexicon.add_discovered(["talk"], iteration=1, decay=0.5)
    lexicon = lexicon.add_discovered(["balk"], iteration=2, decay=0.5)
    assert [e.weight for e in lexicon] == [1.0, 0.5, 0.25]
    assert [e.iteration for e in lexicon] == [0, 1, 2]
    assert lexicon.gold_lemmas() == ["walk"]
    assert lexicon.effective_size() == 1.75
    assert lexicon.weight("balk") == 0.25


def test_lexicon_rejects_duplicates_and_empties():
    with pytest.raises(ValueError, match="duplicate"):
        WeightedLexicon.from_lemmas(["walk", "walk"])
    with pytest.raises(ValueError, match="empty"):
        WeightedLexicon.from_lemmas([""])
    with pytest.raises(ValueError, match="weight"):
        WeightedLexicon([LexiconEntry("walk", 0.0, 0)])


def test_discover_new_lemmas_toy():
    vocab = vocab_of("talk", "talked", "talks", "talking", "walk")
    lexicon = WeightedLexicon.from_lemmas(["walk"])
    # cutoff = max(3, 0.2*4) = 3; talk scores 4 hits, talked only 1.
    assert discover_new_lemmas(vocab, FOUR_TREES, lexicon, 0.2) == ["talk"]


def test_discover_cutoff_is_strict():
    # jump reaches exactly 3 hits (identity, +ed, +s) -- not enough.
    vocab = vocab_of("jump", "jumped", "jumps", "walk")
    lexicon = WeightedLexicon.from_lemmas(["walk"])
    assert discover_new_lemmas(vocab, FOUR_TREES, lexicon, 0.2) == []


def test_discover_skips_lexicon_members():
    vocab = vocab_of("talk", "talked", "talks", "talking")
    lexicon = WeightedLexicon.from_lemmas(["talk"])
    assert discover_new_lemmas(vocab, FOUR_TREES, lexicon, 0.2) == []


def test_discover_inapplicable_trees_never_count():
    # This tree requires a 10-char prefix; on short words it cannot fire.
    big = Match(10, 0, Replace("abcdefghij", ""), Replace("", ""))
    vocab = vocab_of("ab", "abed", "abs", "abing")
    lexicon = WeightedLexicon.from_lemmas(["zz"])
    trees = [big, APPEND_ED, APPEND_S, APPEND_ING]
    # ab: big is inapplicable, the three appends all hit -> 3, not > 3.
    assert discover_new_lemmas(vocab, trees, lexicon, 0.2) == []


def test_discover_ignores_trees_that_never_apply():
    # A 3-char prefix that must equal "ab" fits no word, but the inverse
    # tree (prepend "ab") maps "x" onto the attested "abx".
    never = Match(3, 0, Replace("ab", ""), Replace("", ""))
    vocab = vocab_of("x", "abx")
    lexicon = WeightedLexicon.from_lemmas(["zz"])
    assert discover_new_lemmas(vocab, [never] * 4, lexicon, 0.0) == []


def test_discover_requires_trees():
    with pytest.raises(ValueError, match="trees"):
        discover_new_lemmas(vocab_of("a"), [], WeightedLexicon.from_lemmas(["b"]), 0.2)


BOOT_WORDS = [
    base + suffix
    for base in ("walk", "work", "talk")
    for suffix in ("", "ed", "s", "ing")
]


def boot(lexicon, rounds):
    return bootstrap(
        vocab_of(*BOOT_WORDS),
        lexicon,
        candidate_ratio=0.5,
        tree_support_factor=0.05,
        lemma_evidence_factor=0.2,
        lemma_decay=0.5,
        rounds=rounds,
    )


def test_bootstrap_round_zero_is_plain_discovery():
    lexicon = WeightedLexicon.from_lemmas(["walk", "work"])
    result = boot(lexicon, 0)
    assert result.lexicon is lexicon
    assert IDENTITY in result.trees and APPEND_ED in result.trees


def test_bootstrap_discovers_and_decays():
    lexicon = WeightedLexicon.from_lemmas(["walk", "work"])
    result = boot(lexicon, 1)
    assert result.lexicon.lemmas() == ["walk", "work", "talk"]
    assert result.lexicon.weight("talk") == 0.5
    assert result.lexicon.max_iteration() == 1


def test_bootstrap_two_rounds_equal_one_plus_one():
    lexicon = WeightedLexicon.from_lemmas(["walk", "work"])
    two = boot(lexicon, 2)
    once = boot(lexicon, 1)
    again = boot(once.lexicon, 1)
    assert two.lexicon.entries == again.lexicon.entries
    assert two.trees == again.trees
    assert census_bits(two.census) == census_bits(again.census)
    assert two.census.cutoff == again.census.cutoff


def test_bootstrap_rejects_negative_rounds():
    with pytest.raises(ValueError, match="rounds"):
        boot(WeightedLexicon.from_lemmas(["walk"]), -1)


_ALPHABET = "abcαжщ汉🦉\u0301"
_words = st.text(alphabet=_ALPHABET, max_size=5)
_leaves = st.builds(Replace, _words, _words)
#: Hand-built trees, including ones whose lengths no input can satisfy.
_hand_trees = st.recursive(
    _leaves,
    lambda children: st.builds(
        Match, st.integers(0, 3), st.integers(0, 3), children, children
    ),
    max_leaves=4,
)


@st.composite
def retrieval_cases(draw):
    words = draw(st.lists(_words, min_size=1, max_size=30, unique=True))
    word = st.sampled_from(words)
    lemmas = draw(st.lists(
        word.filter(bool) | _words.filter(bool), max_size=6, unique=True
    ))
    pairs = draw(st.lists(st.tuples(word, word), max_size=8))
    pool = [construct(x, y) for x, y in pairs]
    pool += draw(st.lists(_hand_trees, max_size=3))
    pool += draw(st.lists(st.builds(Replace, word, word), max_size=2))
    pool += [
        Match(0, 0, Replace("", affix), Replace("", ""))
        for affix in draw(st.lists(_words, max_size=2))
    ]
    pool.append(IDENTITY)
    # Drawing from the pool with repetition gives duplicate trees.
    trees = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    factor = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return vocab_of(*words), trees, WeightedLexicon.from_lemmas(lemmas), factor


@settings(max_examples=400, deadline=None)
@given(retrieval_cases())
def test_discover_matches_oracle(case):
    vocab, trees, lexicon, factor = case
    want = bootstrap_oracle.discover_new_lemmas(vocab, trees, lexicon, factor)
    assert discover_new_lemmas(vocab, trees, lexicon, factor) == want
    # Carried from an earlier call with some of the trees and no lexicon.
    sources = {}
    discover_new_lemmas(vocab, trees[::2], WeightedLexicon([]), factor, sources)
    assert discover_new_lemmas(vocab, trees, lexicon, factor, sources) == want


def sources_by_apply(vocab, trees):
    """Each tree's words by applying it to every word, in its outputs' order."""
    position = {word: i for i, word in enumerate(vocab.types)}
    found = {}
    for tree in trees:
        hits = []
        for word in vocab.types:
            out = apply(tree, word)
            if out in position:
                hits.append((position[out], word))
        found[tree] = [word for _, word in sorted(hits)]
    return found


@st.composite
def affix_trees(draw, text):
    """Affix trees: half with leaves as long as their node says, half any."""
    head, tail = draw(text), draw(text)
    if draw(st.booleans()):
        i, j = len(head), len(tail)
    else:
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return Match(i, j, Replace(head, draw(text)), Replace(tail, draw(text)))


@st.composite
def source_cases(draw):
    # Two letters make words that share affixes, so trees find many words.
    text = draw(st.sampled_from([_words, st.text(alphabet="ab", max_size=5)]))
    words = draw(st.lists(text, min_size=1, max_size=30, unique=True))
    word = st.sampled_from(words)
    pairs = draw(st.lists(st.tuples(word, word), max_size=8))
    trees = [construct(x, y) for x, y in pairs]
    trees += draw(st.lists(affix_trees(text), max_size=4))
    trees += draw(st.lists(_hand_trees, max_size=3))
    trees += draw(st.lists(st.builds(Replace, word, word), max_size=2))
    trees.append(IDENTITY)
    return vocab_of(*words), draw(st.permutations(trees))


@settings(max_examples=400, deadline=None)
@given(source_cases())
def test_sources_match_applying_every_tree_to_every_word(case):
    vocab, trees = case
    want = sources_by_apply(vocab, dict.fromkeys(trees))
    assert list(_sources(vocab, trees).items()) == list(want.items())


@pytest.mark.parametrize("tree", [
    # Leaf ``old`` longer, then shorter, than the prefix and suffix lengths.
    Match(1, 0, Replace("ab", ""), Replace("", "s")),
    Match(0, 1, Replace("", "x"), Replace("", "s")),
    Match(3, 0, Replace("ab", "c"), Replace("", "")),
    Match(0, 0, Replace("a", "b"), Replace("s", "")),
    Match(1, 1, Replace("a", ""), Replace("s", "ed")),
    # "ab" starts with its inverse's prefix "ab" and ends with its
    # suffix "b", but is too short to hold both.
    Match(1, 1, Replace("x", "ab"), Replace("y", "b")),
    # Nested: "naj" + x + "iejsz" + c -> x + c.
    construct("najtrudniejszy", "trudny"),
])
def test_sources_of_hand_built_trees(tree):
    vocab = vocab_of(
        "abs", "s", "x", "xs", "cs", "bed", "as", "ab", "c", "b", "xy",
        "najtrudniejszy", "mlodny", "trudny", "najmlodniejszy",
    )
    assert _sources(vocab, [tree]) == sources_by_apply(vocab, [tree])


def test_duplicate_trees_count_twice():
    # Two copies of +ed and one +s make 3 hits: not above the cutoff of 3
    # without the duplicate counting, above it with a fourth copy.
    vocab = vocab_of("talk", "talked", "talks")
    lexicon = WeightedLexicon.from_lemmas(["walk"])
    trees = [APPEND_ED, APPEND_ED, APPEND_S]
    assert discover_new_lemmas(vocab, trees, lexicon, 0.0) == []
    assert discover_new_lemmas(vocab, trees + [APPEND_ED], lexicon, 0.0) == ["talk"]
    # The same when the trees' words were found by an earlier call.
    sources = {}
    assert discover_new_lemmas(vocab, [APPEND_ED], lexicon, 0.0, sources) == []
    assert discover_new_lemmas(vocab, trees, lexicon, 0.0, sources) == []
    assert discover_new_lemmas(
        vocab, trees + [APPEND_ED], lexicon, 0.0, sources
    ) == ["talk"]


def counting(monkeypatch, module_name, name):
    """Replace a module's ``name`` with a wrapper; returns its calls' args."""
    module = importlib.import_module(module_name)
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_retrieval_of_seen_trees_applies_nothing(monkeypatch):
    vocab = vocab_of(*BOOT_WORDS)
    sources = {}
    walk = WeightedLexicon.from_lemmas(["walk"])
    assert discover_new_lemmas(vocab, FOUR_TREES, walk, 0.2, sources) == [
        "talk", "work"
    ]
    grown = walk.add_discovered(["talk"], iteration=1, decay=0.5)
    fresh = discover_new_lemmas(vocab, FOUR_TREES, grown, 0.2)
    applied = counting(monkeypatch, "paracomp.bootstrap", "apply")
    assert discover_new_lemmas(vocab, FOUR_TREES, grown, 0.2, sources) == fresh
    assert fresh == ["work"] and applied == []


def matches_oracle(vocab, lexicon, rounds, settings_):
    """Run bootstrap and its oracle; every output must agree bit for bit."""
    got = bootstrap(vocab, lexicon, rounds=rounds, **settings_)
    want = bootstrap_oracle.bootstrap(vocab, lexicon, rounds=rounds, **settings_)
    assert got.lexicon.entries == want.lexicon.entries
    assert got.trees == want.trees
    assert census_bits(got.census) == census_bits(want.census)
    return got


def _sparse_seed_language(seed):
    """A language the size of the sparse-seed benchmark: a quarter seeded."""
    lang = generate_language(slots=6, lemmas=200, classes=3, tokens=5000, seed=seed)
    vocab = vocab_of(*(tok for sentence in lang.sentences for tok in sentence))
    return vocab, WeightedLexicon.from_lemmas(lang.lexicon[::4])


def _default_settings():
    """Every bootstrap setting but ``rounds``, as ``Config()`` sets it."""
    config = Config()
    return dict(
        candidate_ratio=config.candidate_ratio,
        tree_support_factor=config.tree_support_factor,
        lemma_evidence_factor=config.lemma_evidence_factor,
        lemma_decay=config.lemma_decay,
    )


@pytest.mark.parametrize("seed", [7, 29])
def test_bootstrap_matches_oracle_on_sparse_seed_language(seed):
    vocab, lexicon = _sparse_seed_language(seed)
    settings_ = _default_settings()
    grown = [
        len(matches_oracle(vocab, lexicon, rounds, settings_).lexicon)
        for rounds in range(4)
    ]
    # Round 1 finds every other lemma of the language.
    assert grown[0] < grown[1] == grown[3]


def test_census_cutoff_is_the_cutoff_of_the_returned_lexicon():
    # The run report prints census.cutoff, so it must be the cutoff for
    # the lexicon bootstrap returns, which round 1 grows on this language.
    vocab, lexicon = _sparse_seed_language(7)
    settings_ = _default_settings()
    factor = settings_["tree_support_factor"]
    results = [
        bootstrap(vocab, lexicon, rounds=rounds, **settings_) for rounds in range(3)
    ]
    for result in results:
        assert result.census.cutoff == min_tree_support(
            result.lexicon.effective_size(), factor
        )
    assert len(results[0].lexicon) < len(results[1].lexicon)
    assert results[0].census.cutoff < results[1].census.cutoff
    # One round fed back in equals two rounds at once, cutoff included.
    again = bootstrap(vocab, results[1].lexicon, rounds=1, **settings_)
    assert again.lexicon.entries == results[2].lexicon.entries
    assert again.trees == results[2].trees
    assert census_bits(again.census) == census_bits(results[2].census)
    assert again.census.cutoff == results[2].census.cutoff


def _chain_words():
    """Seeds show +xy once; round 1 lifts +xy over the cutoff for round 2."""
    words = [stem + suffix for stem in ("bimo", "kadu", "pefo", "ruzi")
             for suffix in ("", "ed", "s", "ing")]
    words.append("bimoxy")
    words += [stem + suffix for stem in ("sohe", "tugi", "vexa")
              for suffix in ("", "ed", "s", "ing", "xy")]
    words += ["wyno" + suffix for suffix in ("", "ed", "s", "xy")]
    return words


def test_bootstrap_builds_each_gram_index_once(monkeypatch):
    # Three candidate searches (seeds, round 1's and round 2's lemmas),
    # every lemma 4 characters long: one index, for k = 3.
    built = counting(monkeypatch, "paracomp.discovery", "_gram_index")
    lexicon = WeightedLexicon.from_lemmas(["bimo", "kadu", "pefo", "ruzi"])
    result = bootstrap(vocab_of(*_chain_words()), lexicon, candidate_ratio=0.5,
                       tree_support_factor=0.05, lemma_evidence_factor=0.2,
                       lemma_decay=0.5, rounds=3)
    assert result.lexicon.max_iteration() == 2
    assert [k for _, k in built] == [3]


@pytest.mark.parametrize("decay", [0.5, 0.7])
def test_bootstrap_matches_oracle_when_later_rounds_find_lemmas(decay):
    vocab = vocab_of(*_chain_words())
    lexicon = WeightedLexicon.from_lemmas(["bimo", "kadu", "pefo", "ruzi"])
    settings_ = dict(candidate_ratio=0.5, tree_support_factor=0.05,
                     lemma_evidence_factor=0.2, lemma_decay=decay)
    for rounds in range(4):
        got = matches_oracle(vocab, lexicon, rounds, settings_)
    assert [(e.lemma, e.iteration) for e in got.lexicon][4:] == [
        ("sohe", 1), ("tugi", 1), ("vexa", 1), ("wyno", 2)
    ]
