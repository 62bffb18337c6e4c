"""Set-up, timed loop, traced pass and result line of one benchmark run.

A run generates the workload's inputs from its seed in fresh processes
(set-up), then one closed-loop client repeats the workload's operation for
the given seconds with tracing off. With trace on, a traced pass then
repeats each of the first operations twice, untraced and then under the
wrappers of tracing.py.

The last stdout line is the result: `correct`, `attempted`, `failed` and
`metrics`, the latter holding the end_to_end metrics of BENCHMARK.json for
an untraced run and the per_layer metrics for a traced one. The line
before it is `{"detail": ...}`: environment, seeds, sample counts, the
end-to-end figures under their per-workload names and, when traced, the
exact counts.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import EXACT, Tracer
from workloads import WORKLOADS, CheckFailed, Context, StepClock

# the end-to-end figures under the names and units each workload's users know
NAMED = {
    "prepare": (("prepare_instances_per_s", "instances/s"), ("prepare_design_ms_p50", "ms"),
                ("prepare_design_ms_p90", "ms")),
    "train_wide": (("train_nodes_per_s", "node-epochs/s"), ("train_epoch_ms_p50", "ms"),
                   ("train_epoch_ms_p90", "ms")),
    "infer_scan": (("infer_nodes_per_s", "nodes/s"), ("infer_request_ms_p50", "ms"),
                   ("infer_request_ms_p90", "ms")),
}
NAMED["train_narrow"] = NAMED["train_wide"]
GENERIC = ("throughput_per_s", "latency_ms_p50", "latency_ms_p90")


def setup_only(args):
    """Set up in this process; print the design seeds used and the set-up's
    own time, which leaves out interpreter start-up and the harness imports."""
    ctx = Context(args.seed, args.instances, args.setup_into)
    start = time.perf_counter()
    WORKLOADS[args.workload].setup(ctx)
    seconds = time.perf_counter() - start
    print(json.dumps({"design_seeds": ctx.design_seeds, "seconds": seconds}))


def run_setup(args, workdir: Path) -> tuple[list[float], list[int]]:
    """Set up in fresh processes, so the run's peak RSS covers the timed phase
    only and no set-up reuses another's warm state. Returns the time each
    set-up reported and the design seeds they used."""
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--instances", str(args.instances),
            "--setup-into", str(workdir)]
    times = []
    for _ in range(WORKLOADS[args.workload].setup_repeats):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append(report["seconds"])
    return times, report["design_seeds"]


def measure(workload, ctx: Context, seconds: float, min_ops: int):
    """Closed loop: the next operation starts only after the previous one ends."""
    done, failed = {}, 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        try:
            done[i] = workload.op(ctx, i)
        except Exception:  # a failed operation is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
        i += 1
    return done, failed, i


def finish(workload, ctx: Context) -> tuple[dict, int]:
    """The workload's closing operation, if any: returns (quality, failed)."""
    try:
        last = workload.finish(ctx)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {}, 1
    return (last.quality if last is not None else {}), 0


def end_to_end(done: dict, setup: list[float]) -> dict:
    seconds = sum(r.seconds for r in done.values())
    items = sum(r.items for r in done.values())
    lat = [x for r in done.values() for x in r.latencies_ms] or [0.0]
    return {
        "throughput_per_s": items / seconds if seconds else 0.0,
        "latency_ms_p50": float(np.percentile(lat, 50)),
        "latency_ms_p90": float(np.percentile(lat, 90)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": float(np.median(setup)),
    }


def named_metrics(workload: str, metrics: dict, done: dict, failed_frac: float,
                  quality: dict) -> dict:
    """The end-to-end figures under per-workload names, each with its unit."""
    named = {name: (metrics[g], unit) for g, (name, unit) in zip(GENERIC, NAMED[workload])}
    steps = [x for r in done.values() for x in r.steps_ms]
    if steps:
        named["train_step_ms_p50"] = (float(np.percentile(steps, 50)), "ms")
        named["train_step_ms_p90"] = (float(np.percentile(steps, 90)), "ms")
    named["peak_rss_mib"] = (metrics["peak_rss_mib"], "MiB")
    named["setup_s"] = (metrics["setup_s"], "s")
    named["failed_frac"] = (failed_frac, "ratio")
    named.update({k: (v, "ratio") for k, v in quality.items()})
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def traced_pass(workload, ctx: Context):
    """Run each of the first operations untraced, then traced, so both are
    timed in the same warm state; returns (tracer, overhead, failed)."""
    tracer = Tracer()
    traced = untraced = 0.0
    failed = 0
    for i in range(workload.traced_ops):
        try:
            plain = workload.op(ctx, i)
            tracer.install()
            try:
                res = workload.op(ctx, i)
                workload.trace_extra(ctx, tracer, i)
            finally:
                tracer.uninstall()
            if res.counts != plain.counts:
                raise CheckFailed(f"traced operation {i}: counts {res.counts} != {plain.counts}")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        traced += res.seconds
        untraced += plain.seconds
    return tracer, traced / untraced - 1.0 if untraced else 0.0, failed


def compare_counts(path: Path, counts: dict) -> list[str]:
    """Names of exact counts that differ from an earlier run at the same seed and size."""
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        return sorted(k for k in counts if before.get(k, counts[k]) != counts[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return []


def run(args, root: Path, threads: int):
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    outdir = root / ".perfbench_out"
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup, setup_seeds = run_setup(args, workdir)
        ctx = Context(args.seed, args.instances, workdir)
        with StepClock(ctx):
            done, failed, attempted = measure(workload, ctx, args.seconds, workload.traced_ops)
            quality, finish_failed = finish(workload, ctx)
            attempted += workload.finishes
            failed += finish_failed
            metrics = end_to_end(done, setup)
            detail = {
                "workload": args.workload,
                "seed": args.seed,
                "design_seeds": setup_seeds + ctx.design_seeds,
                "instances": args.instances,
                "trace": args.trace,
                "env": {
                    "nproc": len(os.sched_getaffinity(0)),
                    "blas_threads": threads,
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                },
                "ops": len(done),
                "setup_runs_s": setup,
                "latency_samples": sum(len(r.latencies_ms) for r in done.values()),
                "step_samples": sum(len(r.steps_ms) for r in done.values()),
                "metrics": named_metrics(args.workload, metrics, done, failed / attempted, quality),
                "op_counts": [done[i].counts for i in range(workload.traced_ops) if i in done],
            }
            group = "end_to_end"
            if args.trace:
                tracer, overhead, traced_failed = traced_pass(workload, ctx)
                attempted += 2 * workload.traced_ops
                failed += traced_failed
                tracer.write(outdir / f"{args.workload}-seed{args.seed}-spans.json")
                metrics = {**tracer.layer_metrics(), **quality, "trace.overhead_frac": overhead}
                exact = {k: metrics.get(k, 0) for k in EXACT}
                detail["exact_counts"] = exact
                detail["counts_not_repeated"] = compare_counts(
                    outdir / f"counts-{args.workload}-seed{args.seed}-n{args.instances}.json", exact)
                group = "per_layer"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec[group]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and bool(done),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }))
