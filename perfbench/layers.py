"""Per-layer metrics of one traced run, computed from spans and return values.

A metric is None (reported as missing) when a function it is computed
from no longer exists under the traced name.  A layer that does not run
in a workload reports 0, so ``tagger.train_s`` is 0 on ``sparse-seed``.
"""

from __future__ import annotations

from tracing import Tracer

LOAD = ("paracomp.pipeline.load_corpus", "paracomp.pipeline.load_lexicon",
        "paracomp.pipeline.load_gold")
WRITE = ("paracomp.pipeline.write_predictions",)
FIND = ("paracomp.bootstrap.find_candidates",)
RETAIN = ("paracomp.bootstrap.retain_frequent_trees",)
CUTOFF = ("paracomp.discovery.min_tree_support",)
CONSTRUCT = ("paracomp.discovery.construct",)
APPLY = ("paracomp.bootstrap.apply", "paracomp.pipeline.apply",
         "paracomp.slot_clustering.apply")
BOOT = ("paracomp.pipeline.bootstrap",)
DISCOVER = ("paracomp.bootstrap.discover_new_lemmas",)
TRAIN = ("paracomp.pipeline.train_hmm",)
VITERBI = ("paracomp.pipeline.tag_corpus",)
GROUP = ("paracomp.pipeline.group_surface_changes",)
CONTEXT = ("paracomp.slot_clustering.context_counts",)
EXTRACT = ("paracomp.pipeline.extract_affix_rules",)
INFLECT = ("paracomp.pipeline.inflect",)
SCORE = ("paracomp.pipeline.best_match_accuracy",)


def _last(tracer: Tracer, name: str):
    spans = tracer.named(name)
    return spans[-1] if spans else None


def _tested_words(span) -> int:
    lexicon = span.args["lexicon"]
    return sum(1 for word in span.args["vocab"].types if word not in lexicon)


def layer_metrics(tracer: Tracer, result, pairs_skipped: int) -> dict:
    """Every per-layer metric of the traced run (trace overhead excluded)."""
    m: dict = {}

    def put(name, targets, compute):
        m[name] = compute() if tracer.installed(*targets) else None

    # corpus_io
    loaded = _last(tracer, "corpus_io.load_corpus")
    corpus, vocab = loaded.result if loaded else (None, None)
    put("corpus_io.load_s", LOAD, lambda: sum(
        tracer.total(n) for n in ("corpus_io.load_corpus",
                                  "corpus_io.load_lexicon",
                                  "corpus_io.load_gold")))
    put("corpus_io.write_s", WRITE, lambda: tracer.total("corpus_io.write"))
    put("corpus_io.tokens", LOAD, lambda: len(corpus) if corpus else 0)
    put("corpus_io.sentences", LOAD,
        lambda: len(corpus.sentence_boundaries) if corpus else 0)
    put("corpus_io.vocab_types", LOAD, lambda: len(vocab) if vocab else 0)

    # discovery
    finds = tracer.named("discovery.find_candidates")
    scanned = sum(len(s.args["lexicon"]) * len(s.args["vocab"]) for s in finds)
    found_pairs = sum(len(c) for s in finds for c in s.result.values())
    put("discovery.find_candidates_s", FIND,
        lambda: tracer.total("discovery.find_candidates"))
    put("discovery.find_candidates_calls", FIND, lambda: len(finds))
    put("discovery.pairs_scanned", FIND, lambda: scanned)
    put("discovery.candidate_pairs", FIND, lambda: found_pairs)
    put("discovery.candidate_yield", FIND,
        lambda: found_pairs / scanned if scanned else 0.0)
    put("discovery.retain_s", RETAIN, lambda: tracer.total("discovery.retain"))
    retained = _last(tracer, "discovery.retain")
    put("discovery.trees_built", RETAIN,
        lambda: len(retained.result[1].weights) if retained else 0)
    put("discovery.trees_retained", RETAIN,
        lambda: len(retained.result[0]) if retained else 0)
    cutoff = _last(tracer, "discovery.min_tree_support")
    put("discovery.support_cutoff", CUTOFF,
        lambda: cutoff.result if cutoff else 0.0)
    # The worker count is an argument of find_candidates; it is missing
    # once the search no longer takes one.
    if finds and "workers" in finds[0].args:
        m["discovery.workers"] = finds[0].args["workers"]
    else:
        m["discovery.workers"] = None if finds else 0

    # edit_tree
    put("edit_tree.construct_calls", CONSTRUCT,
        lambda: tracer.calls["edit_tree.construct"])
    put("edit_tree.apply_calls", APPLY, lambda: tracer.calls["edit_tree.apply"])

    # bootstrap
    rounds = tracer.named("bootstrap.discover_new_lemmas")
    put("bootstrap.self_s", BOOT + FIND + RETAIN + DISCOVER,
        lambda: tracer.self_time("bootstrap"))
    put("bootstrap.discover_new_lemmas_s", DISCOVER,
        lambda: tracer.total("bootstrap.discover_new_lemmas"))
    put("bootstrap.rounds_run", DISCOVER, lambda: len(rounds))
    for number in (1, 2):
        put(f"bootstrap.lemmas_found.r{number}", DISCOVER,
            lambda: len(rounds[number - 1].result) if len(rounds) >= number else 0)
    tested = sum(_tested_words(s) for s in rounds)
    put("bootstrap.lemma_yield", DISCOVER,
        lambda: sum(len(s.result) for s in rounds) / tested if tested else 0.0)

    # tagger
    trained = _last(tracer, "tagger.train")
    lls = list(trained.result.log_likelihoods) if trained else []
    train_s = tracer.total("tagger.train")
    put("tagger.train_s", TRAIN, lambda: train_s)
    put("tagger.em_iterations", TRAIN, lambda: len(lls))
    put("tagger.em_s_per_iteration", TRAIN,
        lambda: train_s / len(lls) if lls else 0.0)
    put("tagger.token_steps", TRAIN,
        lambda: len(trained.args["corpus"]) * len(lls) if trained else 0)
    put("tagger.ll_final", TRAIN, lambda: lls[-1] if lls else 0.0)
    put("tagger.ll_decreases", TRAIN,
        lambda: sum(1 for a, b in zip(lls, lls[1:]) if b < a))
    put("tagger.viterbi_s", VITERBI, lambda: tracer.total("tagger.viterbi"))
    put("tagger.symbols", TRAIN,
        lambda: len(trained.result.symbols) if trained else 0)

    # slot_clustering
    grouped = _last(tracer, "slot_clustering.group")
    slots, merges = grouped.result if grouped else ([], [])
    put("slot_clustering.group_s", GROUP,
        lambda: tracer.total("slot_clustering.group"))
    put("slot_clustering.context_counts_s", CONTEXT,
        lambda: tracer.total("slot_clustering.context_counts"))
    put("slot_clustering.initial_slots", GROUP,
        lambda: len(grouped.args["trees"]) if grouped else 0)
    put("slot_clustering.merges", GROUP, lambda: len(merges))
    put("slot_clustering.final_slots", GROUP, lambda: len(slots))
    put("slot_clustering.min_merge_score", GROUP,
        lambda: min(event.score for event in merges) if merges else 0.0)

    # inflection
    extracted = _last(tracer, "inflection.extract")
    put("inflection.extract_s", EXTRACT,
        lambda: tracer.total("inflection.extract"))
    put("inflection.rules", EXTRACT, lambda: sum(
        len(rules.prefix) + len(rules.suffix)
        for rules in extracted.result.slots.values()) if extracted else 0)
    put("inflection.pairs_skipped", EXTRACT, lambda: pairs_skipped)
    put("inflection.inflect_s", INFLECT,
        lambda: tracer.busy["inflection.inflect"])
    cells = [(lemma, form) for lemma, row in result.predictions.items()
             for form in row.values()]
    m["inflection.cells"] = len(cells)
    m["inflection.cells_equal_lemma"] = sum(1 for lemma, form in cells
                                            if form == lemma)

    # evaluation and the pipeline itself
    put("evaluation.score_s", SCORE, lambda: tracer.total("evaluation.score"))
    m["bmacc_macro"] = result.scores.macro
    m["bmacc_micro"] = result.scores.micro
    m["pipeline.traced_s"] = tracer.total("pipeline")
    m["pipeline.self_s"] = tracer.self_time("pipeline")
    return m
