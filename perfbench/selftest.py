"""Fast self-test of the benchmark itself, at toy sizes.

    python3 perfbench/selftest.py

Covers the workload generator's determinism, the re-pack keeping the
token stream, the output check catching a corrupted prediction file,
and the tracing wrappers: the metric names they yield and the original
functions being restored afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, "_work")
sys.path.insert(0, os.path.join(ROOT, "src"))

import paracomp  # noqa: E402
import paracomp.pipeline  # noqa: E402

from check import check_predictions  # noqa: E402
from kernels import kernel_metrics  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import COUNTERS, SPANS, Tracer, WarningCounter, install, resolve  # noqa: E402
from workloads import WORKLOADS, build_language, write_workload  # noqa: E402

TOY = dict(slots=3, lemmas=12, classes=2, tokens=600)


def temp_dir() -> tempfile.TemporaryDirectory:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def toy(name: str):
    return dataclasses.replace(WORKLOADS[name], **TOY)


def tokens(lang) -> list[str]:
    return [token for sentence in lang.sentences for token in sentence]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files_other_seed_other_files(self):
        with temp_dir() as tmp:
            for name in WORKLOADS:
                first = write_workload(toy(name), 3, os.path.join(tmp, "a"))
                again = write_workload(toy(name), 3, os.path.join(tmp, "b"))
                other = write_workload(toy(name), 4, os.path.join(tmp, "c"))
                self.assertEqual(first["sha256"], again["sha256"], name)
                self.assertNotEqual(first["sha256"], other["sha256"], name)

    def test_repack_keeps_the_token_stream(self):
        short = build_language(toy("short-sentences"), 5)
        long = build_language(toy("long-sentences"), 5)
        self.assertEqual(tokens(short), tokens(long))
        self.assertLess(len(long.sentences), len(short.sentences))
        lengths = {len(sentence) for sentence in long.sentences}
        self.assertLessEqual(max(lengths), 3 * WORKLOADS["long-sentences"].max_clauses)

    def test_seed_subset_restricts_lexicon_and_gold(self):
        lang = build_language(toy("sparse-seed"), 5)
        self.assertEqual(len(lang.lexicon), TOY["lemmas"] // 4)
        self.assertEqual(sorted(lang.gold), sorted(lang.lexicon))


class CheckAndTraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = temp_dir()
        cls.paths = write_workload(toy("short-sentences"), 2, cls.tmp.name)["paths"]
        cls.out = os.path.join(cls.tmp.name, "predictions.tsv")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_pipeline(self):
        result = paracomp.run_pipeline(
            paracomp.Config(mode="pcs-ii+iii"), self.paths["corpus"],
            self.paths["lemmas"], self.paths["gold"], self.out,
        )
        return result, {
            "slot_count": result.slot_count,
            "bmacc_macro": result.scores.macro,
            "bmacc_micro": result.scores.micro,
        }

    def test_output_check_passes_then_catches_corruption(self):
        _, record = self.run_pipeline()
        self.assertEqual(check_predictions(record, self.paths, self.out), [])
        with open(self.out, encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        lemma, form, slot = rows[0].split("\t")
        corruptions = {
            "wrong form": [f"{lemma}\t{form}x\t{slot}"] + rows[1:],
            "missing cell": rows[1:],
        }
        for label, corrupted in corruptions.items():
            with open(self.out, "w", encoding="utf-8") as handle:
                handle.write("\n".join(corrupted) + "\n")
            self.assertNotEqual(
                check_predictions(record, self.paths, self.out), [], label
            )

    def test_wrappers_yield_every_metric_and_restore_originals(self):
        originals = {target: resolve(target)[2] for target, *_ in SPANS + COUNTERS}
        tracer = Tracer()
        install(tracer)
        self.assertEqual(tracer.missing, [])
        self.assertIsNot(paracomp.pipeline.train_hmm, originals["paracomp.pipeline.train_hmm"])
        try:
            with WarningCounter("paracomp.inflection") as skipped:
                span = tracer.open("pipeline")
                result, _ = self.run_pipeline()
                tracer.close(span)
        finally:
            tracer.restore()
        for target, original in originals.items():
            self.assertIs(resolve(target)[2], original, target)

        metrics = layer_metrics(tracer, result, skipped.count)
        metrics.update(kernel_metrics(tracer, result))
        metrics["trace_overhead_s"] = 0.0
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in spec["per_layer"]))
        self.assertNotIn(None, metrics.values())
        self.assertGreater(metrics["tagger.train_s"], 0)
        self.assertEqual(metrics["tagger.ll_decreases"], 0)
        for index, span in enumerate(tracer.spans):
            self.assertLessEqual(span.start, span.end)
            if span.parent is not None:
                self.assertLess(span.parent, index)

    def test_missing_target_is_reported_not_raised(self):
        tracer = Tracer()
        tracer.span("paracomp.pipeline.no_such_function", "gone")
        tracer.count("paracomp.no_such_module.f", "gone.calls")
        tracer.restore()
        self.assertEqual(tracer.missing, ["paracomp.pipeline.no_such_function",
                                          "paracomp.no_such_module.f"])
        self.assertFalse(tracer.installed("paracomp.pipeline.no_such_function"))


if __name__ == "__main__":
    unittest.main()
