"""Kernel timings for the traced pass, on the inputs the traced run used.

Each kernel is re-run with the arguments its first traced call received,
so the inputs come from the workload itself.  A kernel the workload's
mode never calls reports 0; one whose function is gone reports None.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from tracing import Tracer, resolve

#: Repeat a kernel until this many seconds or MAX_REPS runs, whichever first.
MIN_SECONDS = 1.0
MAX_REPS = 5


def time_kernel(call) -> float:
    """Median wall time of ``call()`` over a few repetitions."""
    times = []
    while len(times) < MAX_REPS and sum(times) < MIN_SECONDS:
        started = perf_counter()
        call()
        times.append(perf_counter() - started)
    return statistics.median(times)


def kernel_metrics(tracer: Tracer, result) -> dict:
    m: dict = {}

    def first(name):
        spans = tracer.named(name)
        return spans[0].args if spans else None

    def kernel(metric, targets, args, make):
        fns = [resolve(target)[2] for target in targets]
        if any(fn is None for fn in fns):
            m[metric] = None
        elif args is None:
            m[metric] = 0.0
        else:
            m[metric] = time_kernel(make(*fns))

    search = first("discovery.find_candidates")
    kernel("kernel.find_candidates_s", ["paracomp.bootstrap.find_candidates"],
           search, lambda fn: lambda: fn(**search))

    pairs = []
    if search is not None:
        found = tracer.named("discovery.find_candidates")[0].result
        pairs = [(lemma, word) for lemma in found for word in found[lemma]]
    kernel("kernel.construct_s", ["paracomp.edit_tree.construct"],
           search, lambda construct: lambda: [construct(l, w) for l, w in pairs])

    def apply_all(construct, apply):
        trees = [(construct(l, w), l) for l, w in pairs]
        return lambda: [apply(tree, lemma) for tree, lemma in trees]

    kernel("kernel.apply_s",
           ["paracomp.edit_tree.construct", "paracomp.edit_tree.apply"],
           search, apply_all)

    train = first("tagger.train")
    kernel("kernel.baum_welch_iteration_s", ["paracomp.pipeline.train_hmm"],
           train, lambda fn: lambda: fn(**{**train, "iterations": 1}))

    viterbi = first("tagger.viterbi")
    kernel("kernel.tag_corpus_s", ["paracomp.pipeline.tag_corpus"],
           viterbi, lambda fn: lambda: fn(**viterbi))

    group = first("slot_clustering.group")
    kernel("kernel.group_surface_changes_s",
           ["paracomp.pipeline.group_surface_changes"],
           group, lambda fn: lambda: fn(**group))

    rules = result.rules
    cells = [(slot, lemma) for lemma in result.predictions
             for slot in (rules.slots if rules else ())]
    kernel("kernel.inflect_s", ["paracomp.pipeline.inflect"],
           cells or None,
           lambda fn: lambda: [fn(rules, slot, lemma) for slot, lemma in cells])

    match = first("evaluation.best_match")
    kernel("kernel.best_match_s", ["paracomp.evaluation.best_match"],
           match, lambda fn: lambda: fn(**match))
    return m
