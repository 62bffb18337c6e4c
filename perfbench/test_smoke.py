"""Smoke test of the benchmark: every workload at a tiny size.

Checks the result contract and metric names, not wall time:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((HERE / "baseline_per_layer.json").read_text(encoding="utf-8"))["workloads"]
INSTANCES = 1200  # half-size designs (600) still reliably contain unpacked instances
# May read 0 or less at this size: F1 is 0 when no held-out node crosses the
# threshold, and the tracing overhead of a few tiny operations is within noise.
MAY_BE_ZERO = {"heldout_f1", "trace.overhead_frac"}


def bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--instances", str(INSTANCES)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def check_result(result: dict, group: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    _, plain = bench(workload, trace=0)
    check_result(plain, "end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    # A traced run compares each traced operation's counts with an untraced
    # copy of it and counts a mismatch as failed, which check_result catches.
    traced_detail, traced = bench(workload, trace=1)
    check_result(traced, "per_layer")
    assert traced["metrics"]["trace.overhead_frac"]["value"] != 0
    # every layer the workload reached in the baseline is still reached
    reached = sorted(k for k, v in BASELINE[workload].items()
                     if v["value"] != 0 and k not in MAY_BE_ZERO)
    assert [k for k in reached if traced["metrics"][k]["value"] <= 0] == []

    again_detail, _ = bench(workload, trace=1)
    assert again_detail["exact_counts"] == traced_detail["exact_counts"]
