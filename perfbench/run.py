"""paracomp benchmark: timed pipeline runs on synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload short-sentences --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 30]
    python3 perfbench/run.py --compare A.json B.json
    python3 perfbench/selftest.py

A workload run writes the workload's inputs from ``--seed``, then starts
one fresh interpreter that calls ``run_pipeline`` with tracing off again
and again, until ``--seconds`` would be exceeded (at least one call).
Every call's predictions are checked.  ``pipeline_s`` and ``cpu_s``
report the 90th percentile over the calls (see ``TAIL``), ``setup_s``
the median over that interpreter's start-up and some import-only ones,
and ``peak_rss_mb`` the timed process's own peak.  With ``--trace 1``
one more interpreter makes one call under the wrappers in
``tracing.py``, followed by the kernel timings, and the per-layer
metrics are reported instead of the end-to-end ones.  The last stdout line is one JSON
object; the full result set, with input hashes, samples, spans and
descriptors, goes to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
CHILD = os.path.join(BENCH_DIR, "child.py")
#: Interpreter start-ups measured per workload run: the timed process's
#: own, topped up with import-only processes.
SETUP_SAMPLES = 7
#: ``pipeline_s`` and ``cpu_s`` report this quantile of the calls in a
#: run.  A shared host runs the same code at two speeds, switching every
#: few seconds: its usual speed, and up to 1.5 times faster while its
#: neighbours idle.  How much of a run falls in the fast phases varies
#: from run to run, so the fastest call and the median call spread by
#: 20-40% across runs; the 90th percentile is the time at the usual speed
#: and spread by under 10%.
TAIL = 0.9
#: Children still running this many seconds after a workload run began
#: are killed, so that the run ends within 180 seconds.
TIME_LIMIT = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spawn(result_path: str, deadline: float, *args: str) -> tuple[dict | None, str]:
    """Run child.py; return its record, or None and the error text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    if os.path.exists(result_path):
        os.remove(result_path)
    started = time.perf_counter()
    # A session of its own, so a timeout also ends the candidate-search pool.
    proc = subprocess.Popen(
        [sys.executable, CHILD, repr(started), result_path, *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0:
        lines = stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        return None, lines[-1]
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), ""


def descriptors(workers) -> dict:
    import numpy

    # A benchmark checkout need not be a git repository.
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True,
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def tail(values: list[float]) -> float:
    """The TAIL quantile, interpolated between the nearest calls."""
    ordered = sorted(values)
    pos = TAIL * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def statistic(name: str):
    return tail if name in ("pipeline_s", "cpu_s") else statistics.median


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload run; returns the full result set."""
    from check import check_predictions
    from workloads import WORKLOADS, sha256_file, write_workload

    deadline = time.perf_counter() + TIME_LIMIT
    workload = WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-seed{seed}")
    inputs = write_workload(workload, seed, work)
    paths = inputs["paths"]
    record_path = os.path.join(work, "record.json")
    pipeline_args = (workload.mode, paths["corpus"], paths["lemmas"],
                     paths["gold"], work)

    # Warm-up: compiles bytecode and fills the file cache; not measured.
    warm, error = spawn(record_path, deadline)
    if warm is None:
        raise RuntimeError(f"cannot import paracomp: {error}")

    calls, errors, hashes = [], [], []
    setup, rss = [], []
    failed = 0

    def attempt(until: str) -> tuple[list[dict], dict | None]:
        """One child process; returns the calls that passed and its record."""
        nonlocal failed
        record, error = spawn(record_path, deadline, *pipeline_args, until)
        if record is None:
            failed += 1
            errors.append(error)
            return [], None
        setup.append(record["setup_s"])
        rss.append(record["peak_rss_mb"])
        passed = []
        for call in record["calls"]:
            out = call["out"]
            problems = [call["error"]] if "error" in call else []
            if not problems:
                try:
                    problems = check_predictions(call, paths, out)
                    digest = sha256_file(out)
                except (OSError, ValueError) as exc:
                    problems = [f"unreadable predictions: {exc}"]
                else:
                    if hashes and digest != hashes[0]:
                        problems.append(
                            f"predictions sha256 {digest} differs from {hashes[0]}")
                    hashes.append(digest)
            if os.path.exists(out):
                os.remove(out)
            if problems:
                failed += 1
                errors.extend(problems)
            else:
                passed.append(dict(call, workers=record["workers"]))
        return passed, record

    # One fresh process calls run_pipeline until the measured seconds end.
    calls, _ = attempt(repr(time.perf_counter() + seconds))
    while len(setup) < SETUP_SAMPLES:
        record, error = spawn(record_path, deadline)
        if record is None:
            raise RuntimeError(f"cannot import paracomp: {error}")
        setup.append(record["setup_s"])

    traced = None
    if trace:
        traced_calls, traced = attempt("trace")
        if not traced_calls:
            traced = None
    attempted = len(calls) + failed + (1 if traced else 0)

    samples = {
        "pipeline_s": [c["pipeline_s"] for c in calls],
        "cpu_s": [c["cpu_s"] for c in calls],
        "peak_rss_mb": rss[:1] if calls else [],
        "setup_s": setup,
        "bmacc_macro": [c["bmacc_macro"] for c in calls],
        "bmacc_micro": [c["bmacc_micro"] for c in calls],
    }
    metrics = {
        key: statistic(key)(values) for key, values in samples.items() if values
    }
    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        if calls:
            layers["trace_overhead_s"] = (
                layers["pipeline.traced_s"] - statistics.median(samples["pipeline_s"])
            )
    return {
        "workload": name,
        "why": workload.why,
        "mode": workload.mode,
        "seed": seed,
        "seconds": seconds,
        "inputs": inputs["sha256"],
        "predictions_sha256": hashes[0] if hashes else None,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "samples": samples,
        "metrics": metrics,
        "layers": layers,
        "missing_targets": traced["missing_targets"] if traced else [],
        "spans": traced["spans"] if traced else [],
        "descriptors": descriptors(calls[0]["workers"] if calls else None),
    }


def save(result: dict, label: str) -> str:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return path


def print_result(result: dict, spec: dict) -> None:
    print(f"== {result['workload']} (mode {result['mode']}, seed {result['seed']})")
    print(f"   {result['why']}")
    print(f"   failed/attempted: {result['failed']}/{result['attempted']}")
    for error in result["errors"]:
        print(f"   error: {error}")
    print(f"   predictions sha256: {result['predictions_sha256']}")
    for key, digest in result["inputs"].items():
        print(f"   input {key} sha256: {digest}")
    print("   descriptors: " + json.dumps(result["descriptors"]))
    # bmacc is per-seed quality: it repeats exactly for one seed, but its
    # spread across seeds is too wide to bound, so it is a per-layer metric.
    series = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    series += [("bmacc_macro", "ratio"), ("bmacc_micro", "ratio")]
    for name, unit in series:
        values = result["samples"].get(name, [])
        if not values:
            print(f"   {name}: no samples")
            continue
        q1, q2, q3 = quartiles(values)
        print(
            f"   {name:<14} {result['metrics'][name]:.6g} {unit} "
            f"({'p90' if statistic(name) is tail else 'median'} of n={len(values)}; "
            f"min {min(values):.6g}, q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g})"
        )
    layers = result["layers"]
    if layers is None:
        return
    for metric in spec["per_layer"]:
        value = layers.get(metric["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {metric['name']:<40} {shown} {metric['unit']}")
    traced = layers["pipeline.traced_s"]
    tagger = (layers["tagger.train_s"] or 0) + (layers["tagger.viterbi_s"] or 0)
    search = sum(layers[k] or 0 for k in layers
                 if k.split(".")[0] in ("discovery", "bootstrap") and k.endswith("_s"))
    print(f"   share of traced pipeline: tagger {tagger / traced:.1%}, "
          f"discovery+bootstrap {search / traced:.1%}")


def final_line(result: dict, spec: dict, trace: bool) -> str:
    if trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = result["layers"] or {}
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = result["metrics"]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in names
        if values.get(name) is not None
    }
    return json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Median change per end-to-end metric; refuses differing inputs.

    Exits 1 when the predictions changed or a metric got worse by more
    than its bound, 2 when the two result sets ran on different inputs.
    """
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    if a["workload"] != b["workload"] or a["inputs"] != b["inputs"]:
        print(f"refusing to compare: input hashes differ "
              f"({a['workload']} {a['inputs']} vs {b['workload']} {b['inputs']})",
              file=sys.stderr)
        return 2
    worse = 0
    if a["predictions_sha256"] != b["predictions_sha256"]:
        worse += 1
        print(f"predictions differ: {a['predictions_sha256']} -> "
              f"{b['predictions_sha256']}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        old, new = a["metrics"].get(name), b["metrics"].get(name)
        if old is None or new is None:
            print(f"{name}: missing")
            continue
        change = (new - old) / old
        regressed = (change if metric["better"] == "lower" else -change) > metric["bound"]
        worse += regressed
        print(f"{name}: {old:.6g} -> {new:.6g} {metric['unit']} ({change:+.2%})"
              + ("  WORSE than bound" if regressed else ""))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, every metric, one traced run each")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(SRC, "paracomp")):
        print(f"no paracomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.all:
        failed = 0
        for workload in spec["workloads"]:
            result = measure(workload["name"], args.seed, seconds, trace=True)
            save(result, f"{workload['name']}-seed{args.seed}-all")
            print_result(result, spec)
            failed += result["failed"]
        return 1 if failed else 0

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of the workloads in BENCHMARK.json")
    result = measure(args.workload, args.seed, seconds, bool(args.trace))
    path = save(result, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print_result(result, spec)
    print(f"   result set: {os.path.relpath(path, ROOT)}")
    print(final_line(result, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
