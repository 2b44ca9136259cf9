"""Benchmark runs in a fresh interpreter.

    python3 child.py STARTED RESULT_JSON [MODE CORPUS LEMMAS GOLD OUT_DIR UNTIL|trace]

STARTED is the parent's ``time.perf_counter()`` just before it started
this process.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``setup_s`` spans interpreter start-up plus
``import paracomp``, and UNTIL is a deadline on the same clock.  With
only two arguments the process stops after the import.  Otherwise it
calls ``run_pipeline`` untraced, again and again, while another call
should end before UNTIL (at least once); or once under the tracing
wrappers when the last argument is ``trace``.  Call ``i`` writes its
predictions to ``OUT_DIR/predictions-i.tsv``.  The measurements go to
RESULT_JSON.
"""

import sys
import time

started = float(sys.argv[1])
import paracomp  # noqa: E402

setup_s = time.perf_counter() - started

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_call(config, paths, out, tracer=None, skipped=None) -> dict:
    """One ``run_pipeline`` call: wall and CPU time, scores, or the error."""
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall0 = time.perf_counter()
    try:
        if tracer is None:
            result = paracomp.run_pipeline(config, *paths, out)
        else:
            with skipped:
                span = tracer.open("pipeline")
                result = paracomp.run_pipeline(config, *paths, out)
                tracer.close(span)
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        return {"out": out, "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - wall0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "out": out,
        "pipeline_s": wall,
        # The candidate-search pool's workers are reaped inside the call.
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "bmacc_macro": result.scores.macro,
        "bmacc_micro": result.scores.micro,
        "slot_count": result.slot_count,
        "result": result,
    }


def run(mode, corpus, lemmas, gold, out_dir, until) -> dict:
    config = paracomp.Config(mode=mode)
    paths = (corpus, lemmas, gold)
    record = {"workers": getattr(config, "resolved_workers", lambda: None)()}
    calls = []
    if until == "trace":
        import kernels
        import layers
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        skipped = tracing.WarningCounter("paracomp.inflection")
        try:
            call = timed_call(config, paths, os.path.join(out_dir, "predictions-0.tsv"),
                              tracer, skipped)
        finally:
            tracer.restore()
        result = call.pop("result", None)
        calls.append(call)
        if result is not None:
            layer = layers.layer_metrics(tracer, result, skipped.count)
            layer.update(kernels.kernel_metrics(tracer, result))
            record["layers"] = layer
            record["spans"] = tracer.records()
            record["missing_targets"] = tracer.missing
    else:
        deadline = float(until)
        while True:
            began = time.perf_counter()
            out = os.path.join(out_dir, f"predictions-{len(calls)}.tsv")
            call = timed_call(config, paths, out)
            call.pop("result", None)
            calls.append(call)
            now = time.perf_counter()
            if now + (now - began) > deadline:
                break
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    kids_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = max(self_usage.ru_maxrss, kids_usage.ru_maxrss) / 1024.0
    record["calls"] = calls
    return record


def main() -> None:
    record = {"setup_s": setup_s}
    if len(sys.argv) > 3:
        record.update(run(*sys.argv[3:9]))
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
