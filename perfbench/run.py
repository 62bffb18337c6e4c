"""Benchmark of the imlg pipeline, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it inside a checkout of the repository; the program is imported from
the checkout's `src/` directory. The last line of stdout is the result
(see harness.py); the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# repeated from workloads.py, which imports numpy and so must wait for the BLAS pin
WORKLOAD_NAMES = ("prepare", "train_wide", "train_narrow", "infer_scan")
# One BLAS thread keeps a run on one core: two threads made train_wide 25%
# faster on two cores, but moved its throughput by 2.5% from run to run
# instead of 0.5%.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instances", type=int, default=5000,
                   help="size of the largest designs; smaller sizes are for the smoke test")
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "imlg" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a checkout of imlg (no src/imlg or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.setup_into:
        harness.setup_only(args)
    else:
        harness.run(args, ROOT, BLAS_THREADS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
