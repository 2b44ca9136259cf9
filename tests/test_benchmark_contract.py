"""The benchmark's output contract, checked on one short traced run.

``perfbench/run.py`` ends its output with one JSON line.  A traced run
must report every per-layer metric that ``BENCHMARK.json`` declares,
and nothing else; a metric the harness can no longer compute (because
a function it wraps changed name or signature) is a broken contract,
even if the predictions are right.  The run writes only under the
ignored ``perfbench/_work/``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_sparse_seed_run_reports_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "sparse-seed", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = [metric["name"] for metric in json.load(handle)["per_layer"]]
    assert len(declared) == 57
    assert sorted(last["metrics"]) == sorted(declared)
    missing = [name for name, m in last["metrics"].items() if m["value"] is None]
    assert missing == []
