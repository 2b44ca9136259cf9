"""Tracing from outside the program: wrappers around paracomp's public names.

Each wrapper replaces a function at the module attribute where its
caller looks it up (``paracomp.pipeline.train_hmm``, not
``paracomp.tagger.train_hmm``), so the traced run executes exactly the
pipeline code of the timed runs.  Spans (name, start, end, parent) are
kept in memory; functions called too often for a span per call only
count calls, or count calls and sum their time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
from dataclasses import dataclass, field
from time import perf_counter


def resolve(target: str):
    """(module, attribute name, current value) of a dotted name; value None if gone."""
    module_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, attr, None
    return module, attr, getattr(module, attr, None)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: Bound arguments and return value of the wrapped call.
    args: dict = field(default_factory=dict, repr=False)
    result: object = field(default=None, repr=False)


class Tracer:
    """Installs wrappers, records spans and counts, and restores everything."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, args: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent, args=args or {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, result=None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.result = result
        self._stack.pop()

    # -- wrapping --------------------------------------------------------

    def _patch(self, target: str, make):
        module, attr, original = resolve(target)
        if original is None:
            self.missing.append(target)
            return
        wrapper = functools.wraps(original)(make(original))
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def span(self, target: str, name: str) -> None:
        """One span per call, holding the bound arguments and the result."""

        def make(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                index = self.open(name, dict(bound.arguments))
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    self.close(index, result)

            return wrapper

        self._patch(target, make)

    def count(self, target: str, name: str, timed: bool = False) -> None:
        """Count calls under ``name``; with ``timed``, also sum their time."""
        self.calls.setdefault(name, 0)
        if timed:
            self.busy.setdefault(name, 0.0)

        def make(original):
            calls = self.calls
            busy = self.busy

            if not timed:
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)
                return wrapper

            def wrapper(*args, **kwargs):
                started = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    busy[name] += perf_counter() - started
                    calls[name] += 1

            return wrapper

        self._patch(target, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def installed(self, *targets: str) -> bool:
        return not any(target in self.missing for target in targets)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.end - span.start for span in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children's."""
        own = {i for i, span in enumerate(self.spans) if span.name == name}
        children = sum(
            span.end - span.start for span in self.spans if span.parent in own
        )
        return self.total(name) - children

    def records(self) -> list[dict]:
        """Spans as plain JSON records, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
            }
            for span in self.spans
        ]


class WarningCounter(logging.Handler):
    """Counts WARNING records from one logger while attached."""

    def __init__(self, logger_name: str):
        super().__init__(logging.WARNING)
        self.logger = logging.getLogger(logger_name)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1

    def __enter__(self):
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)


#: (target, span name) for every function traced with one span per call.
SPANS = (
    ("paracomp.pipeline.load_corpus", "corpus_io.load_corpus"),
    ("paracomp.pipeline.load_lexicon", "corpus_io.load_lexicon"),
    ("paracomp.pipeline.load_gold", "corpus_io.load_gold"),
    ("paracomp.pipeline.write_predictions", "corpus_io.write"),
    ("paracomp.pipeline.bootstrap", "bootstrap"),
    ("paracomp.bootstrap.find_candidates", "discovery.find_candidates"),
    ("paracomp.bootstrap.retain_frequent_trees", "discovery.retain"),
    ("paracomp.discovery.min_tree_support", "discovery.min_tree_support"),
    ("paracomp.bootstrap.discover_new_lemmas", "bootstrap.discover_new_lemmas"),
    ("paracomp.pipeline.train_hmm", "tagger.train"),
    ("paracomp.pipeline.tag_corpus", "tagger.viterbi"),
    ("paracomp.pipeline.group_surface_changes", "slot_clustering.group"),
    ("paracomp.slot_clustering.context_counts", "slot_clustering.context_counts"),
    ("paracomp.pipeline.extract_affix_rules", "inflection.extract"),
    ("paracomp.pipeline.best_match_accuracy", "evaluation.score"),
    ("paracomp.evaluation.best_match", "evaluation.best_match"),
)

#: (target, counter name, timed) for functions called per word or per cell.
COUNTERS = (
    ("paracomp.discovery.construct", "edit_tree.construct", False),
    ("paracomp.bootstrap.apply", "edit_tree.apply", False),
    ("paracomp.pipeline.apply", "edit_tree.apply", False),
    ("paracomp.slot_clustering.apply", "edit_tree.apply", False),
    ("paracomp.pipeline.inflect", "inflection.inflect", True),
)


def install(tracer: Tracer) -> None:
    for target, name in SPANS:
        tracer.span(target, name)
    for target, name, timed in COUNTERS:
        tracer.count(target, name, timed)
