"""Checks on the benchmark itself (not collected by the repository suite).

Run from the root of a checkout::

    python -m pytest perfbench/check_traced_counts.py -q

* two traced runs with the same seed report identical counts -- the
  ledger's counts are a pure function of the seed, so a later change
  may rest a claim on them;
* ``BENCHMARK.json`` lists exactly the per-layer metrics the traced run
  reports, with the same units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from ledger import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from streams import WORKLOADS  # noqa: E402


def traced_metrics(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(workload):
    first = traced_metrics(workload, seed=7)
    second = traced_metrics(workload, seed=7)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["cache.lookups"] == first["traced.requests"]


def test_benchmark_json_lists_the_ledger():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
