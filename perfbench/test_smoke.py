"""Smoke test of the pipeline benchmark at N = 256.

Runs `run.py --workload all --tiny` untraced and traced, and checks that
every workload finishes without a failed operation and reports exactly the
metrics BENCHMARK.json declares for that mode.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_at_tiny_size(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, name
        assert {k: m["unit"] for k, m in res["metrics"].items()} == declared, name
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
