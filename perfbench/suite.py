"""Run every workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/suite.py --seeds 1-10 [--trace 0|1] [--out summary.json]

Each run is one `run.py` process with BENCHMARK.json's run_seconds. For
every workload and metric this prints the median, the quartiles (Python's
statistics.quantiles, n=4) and their distance as a share of the median,
next to the metric's bound, plus whether every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_one(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write the summary as JSON")
    args = p.parse_args(argv)
    group = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in SPEC[group]}
    summary = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run_one(workload, seed, args.trace) for seed in seed_list(args.seeds)]
        correct = all(r["correct"] for r in results)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            rows[name] = {**summarise(values), "unit": results[0]["metrics"][name]["unit"],
                          "bound": bound, "values": values}
            s = rows[name]
            print(f"{workload:13s} {name:30s} {s['median']:14.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" bound {bound}" if bound is not None else ""), flush=True)
        print(f"{workload:13s} correct {correct} runs {len(results)} "
              f"attempted {sum(r['attempted'] for r in results)} "
              f"failed {sum(r['failed'] for r in results)}", flush=True)
        summary[workload] = {"correct": correct, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
