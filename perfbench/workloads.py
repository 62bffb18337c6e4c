"""The four benchmark workloads: input set-up, one closed-loop operation,
and the output checks that decide whether an operation failed.

Every operation drives the real `imlg` command line in-process through
`imlg.cli.main(argv)` with stdout captured. `imlg.cli` is looked up on each
call, so a traced run sees the wrappers it installs. Checks test invariants
of the outputs, never byte digests: summation order may change the last
digits of a float without changing what the program computes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SMALL = 600  # smaller designs can come out with no unpacked instance
CKPT_EPOCHS = 20  # epochs of the checkpoint infer_scan serves
# Epochs of train_narrow's quality checkpoint, trained on its four training
# graphs together: one 2500-node graph alone scores near chance held out
# (AUC 0.42-0.62 over seeds 1-4, even at 200 epochs); the four together
# reach 0.62-0.73 at 50 epochs.
QUALITY_EPOCHS = 50


class CheckFailed(Exception):
    """A CLI call returned non-zero or produced output that breaks an invariant."""


def derived_seed(seed: int, index: int) -> int:
    """Seed of a run's index-th design or training call; distinct across runs."""
    return seed * 100 + index


def run_cli(*argv) -> str:
    """One `imlg` call; returns its stdout, raises CheckFailed on non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = importlib.import_module("imlg.cli").main([str(a) for a in argv])
    if rc != 0:
        raise CheckFailed(f"imlg {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


@dataclass
class OpResult:
    seconds: float  # wall time of the CLI calls that make up the operation
    items: int  # instances prepared, node-epochs trained or nodes scored
    latencies_ms: list[float]  # per design, per epoch or per request
    counts: dict  # exact counts read from the outputs, compared across runs
    quality: dict | None = None
    steps_ms: list[float] = field(default_factory=list)  # between optimizer steps


@dataclass
class Context:
    seed: int
    instances: int
    workdir: Path
    step_times: list[float] = field(default_factory=list)  # filled by StepClock
    design_seeds: list[int] = field(default_factory=list)
    _names: dict = field(default_factory=dict)

    def prefix(self, tag: str) -> Path:
        return self.workdir / tag

    def design_names(self, prefix: Path) -> list[str]:
        """Instance names of a design file, read once per run."""
        if prefix not in self._names:
            self._names[prefix] = sorted(_instances(prefix))
        return self._names[prefix]


class StepClock:
    """Time stamp after every optimizer step; the only hook an untraced run has."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.adam = importlib.import_module("imlg.optim").Adam
        self.original = self.adam.step

    def __enter__(self):
        original, stamps = self.original, self.ctx.step_times

        def step(adam, grads):
            original(adam, grads)
            stamps.append(time.perf_counter())

        self.adam.step = step
        return self

    def __exit__(self, *exc):
        self.adam.step = self.original


# ---------------------------------------------------------------------------
# output checks


def _instances(prefix: Path) -> list[str]:
    text = Path(f"{prefix}.design").read_text(encoding="utf-8")
    return [line.split()[1] for line in text.splitlines() if line.startswith("INSTANCE ")]


def _expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def check_prepared(prefix: Path, instances: int) -> dict:
    """Design, labels and graph agree on the node count; every node is labelled."""
    names = _instances(prefix)
    _expect(len(names) == instances, f"{prefix}.design: {len(names)} instances, asked for {instances}")
    labels = Path(f"{prefix}.labels").read_text(encoding="utf-8").split()
    _expect(len(labels) == 2 * instances, f"{prefix}.labels: expected {instances} rows")
    _expect(set(labels[1::2]) <= {"0", "1"}, f"{prefix}.labels: label outside {{0, 1}}")
    lines = Path(f"{prefix}.graph").read_text(encoding="utf-8").splitlines()
    size = lines[1].split() if len(lines) > 1 else []
    _expect(size[:2] == ["N", str(instances)], f"{prefix}.graph: node count {size[1:2]} != {instances}")
    kinds = [line.split(" ", 1)[0] for line in lines[2:]]
    _expect(kinds.count("LABEL") == instances, f"{prefix}.graph: not one LABEL line per node")
    return {
        "nodes": instances,
        "edges": kinds.count("EDGE"),
        "minority": labels[1::2].count("1"),
    }


def check_train_log(log: Path, steps: int, epochs: int) -> dict:
    """One finite log row per optimizer step, covering every epoch."""
    rows = Path(log).read_text(encoding="utf-8").splitlines()[1:]
    _expect(len(rows) == steps, f"{log}: {len(rows)} rows for {steps} optimizer steps")
    seen = set()
    for row in rows:
        fields = row.split(",")
        _expect(len(fields) == 5, f"{log}: bad row {row!r}")
        _expect(all(math.isfinite(float(v)) for v in fields[2:]), f"{log}: non-finite loss {row!r}")
        seen.add(int(fields[0]))
    _expect(seen == set(range(1, epochs + 1)), f"{log}: epochs {sorted(seen)} != 1..{epochs}")
    return {"steps": steps}


def check_predictions(pred: Path, names: list[str]) -> dict:
    """Exactly one row per node, probabilities in [0, 1], labels in {0, 1}."""
    rows = [line.split(",") for line in Path(pred).read_text(encoding="utf-8").splitlines()]
    _expect(all(len(r) == 3 for r in rows), f"{pred}: row without three fields")
    _expect(sorted(r[0] for r in rows) == names, f"{pred}: rows do not match the design's instances")
    probs = np.array([float(r[1]) for r in rows])
    _expect(bool(np.all((probs >= 0.0) & (probs <= 1.0))), f"{pred}: probability outside [0, 1]")
    _expect({r[2] for r in rows} <= {"0", "1"}, f"{pred}: label outside {{0, 1}}")
    return {"predictions": len(rows), "flagged": sum(r[2] == "1" for r in rows)}


def parse_report(text: str) -> dict:
    """The eval report's machine lines, each required and finite."""
    found = dict(line.split(",", 1) for line in text.splitlines() if "," in line)
    quality = {}
    for key, name in (("auc", "heldout_auc"), ("tpr@20", "heldout_tpr20"), ("f1", "heldout_f1")):
        _expect(key in found, f"eval report has no '{key}' line")
        quality[name] = float(found[key])
        _expect(math.isfinite(quality[name]), f"eval report: {key} is not finite")
    return quality


# ---------------------------------------------------------------------------
# shared steps


def prepare_design(ctx: Context, tag: str, index: int, instances: int) -> Path:
    prefix = ctx.prefix(tag)
    seed = derived_seed(ctx.seed, index)
    if seed not in ctx.design_seeds:
        ctx.design_seeds.append(seed)
    run_cli("gen", "--instances", instances, "--seed", seed, "--out", prefix)
    run_cli("build-graph", "--design", f"{prefix}.design", "--labels", f"{prefix}.labels",
            "--out", f"{prefix}.graph")
    return prefix


def merge_graphs(parts: list[Path], prefix: Path) -> Path:
    """One graph file holding the given graphs side by side, no edges between them."""
    graphs = importlib.import_module("imlg.graphs")
    read = [graphs.read_graph(Path(f"{p}.graph").read_text(encoding="utf-8")) for p in parts]
    Path(f"{prefix}.graph").write_text(graphs.write_graph(graphs.disjoint_union(read)),
                                       encoding="utf-8")
    return prefix


def train_args(prefix: Path, epochs: int, cluster_size: int, seed: int, out: Path) -> list:
    return ["train", "--graph", f"{prefix}.graph", "--epochs", epochs, "--cluster-size",
            cluster_size, "--seed", seed, "--out", out, "--log", f"{out}.log"]


def request(ctx: Context, ckpt: Path, prefix: Path) -> OpResult:
    """One deployment request: score a snapshot, then evaluate the scores."""
    names = ctx.design_names(prefix)
    pred = Path(f"{prefix}.pred")
    start = time.perf_counter()
    run_cli("infer", "--ckpt", ckpt, "--graph", f"{prefix}.graph", "--design", f"{prefix}.design",
            "--out", pred)
    text = run_cli("eval", "--pred", pred, "--labels", f"{prefix}.labels")
    seconds = time.perf_counter() - start
    counts = check_predictions(pred, names)
    quality = parse_report(text)
    return OpResult(seconds, len(names), [seconds * 1000.0], counts, quality)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str
    setup_repeats = 1  # set-up processes per run; setup_s is their median
    traced_ops = 1  # operations a traced run repeats under the tracer
    finishes = 0  # closing operations after the timed loop

    def setup(self, ctx: Context):
        """Write the run's input files; runs in a process of its own."""

    def op(self, ctx: Context, i: int) -> OpResult:
        raise NotImplementedError

    def finish(self, ctx: Context) -> OpResult | None:
        """The closing operation, if any: untimed, it gives the quality figures."""
        return None

    def trace_extra(self, ctx: Context, tracer, i: int):
        """Calls a traced run makes after operation i, under spans of their own."""


class Prepare(Workload):
    """`imlg gen` then `imlg build-graph`, cycling over a fixed list of design
    seeds, so that two versions of the program time the same designs."""

    name = "prepare"
    designs = 8
    setup_repeats = 3  # set-up is a cold start, cheap enough to repeat

    def setup(self, ctx: Context):
        # No operation reads these files: the set-up times a fresh process's
        # first gen + build-graph, imports included.
        prepare_design(ctx, "warmup", 99, SMALL)

    def op(self, ctx: Context, i: int) -> OpResult:
        # Quarter size: the oracle bisection takes 3 to 7 calls depending on
        # the design, so a run must average over many designs; at 5000
        # instances one design takes 6-9 s.
        size = ctx.instances // 4
        start = time.perf_counter()
        prefix = prepare_design(ctx, f"design{i % self.designs}", i % self.designs, size)
        seconds = time.perf_counter() - start
        counts = check_prepared(prefix, size)
        return OpResult(seconds, size, [seconds * 1000.0], counts)

    def trace_extra(self, ctx: Context, tracer, i: int):
        """Each public edge rule on its own, on the design the operation wrote."""
        graphs = importlib.import_module("imlg.graphs")
        prefix = ctx.prefix(f"design{i % self.designs}")
        text = Path(f"{prefix}.design").read_text(encoding="utf-8")
        design = importlib.import_module("imlg.design").parse_design(text)
        congeneric = tracer.call("graphs.congeneric", graphs.build_congeneric_edges, design)
        correlation = tracer.call("graphs.correlation", graphs.build_correlation_edges, design)
        tracer.call("graphs.residual", graphs.build_residual_edges, design, congeneric | correlation)


class Train(Workload):
    """`imlg train`, repeated over the run's training graphs. With a held-out
    graph, set-up also trains a quality checkpoint on all training graphs
    together, and the run scores it once at the end."""

    def __init__(self, name: str, graphs: int, clusters: int, epochs: int, heldout: bool,
                 setup_repeats: int):
        self.name = name
        self.setup_repeats = setup_repeats
        self.graphs = graphs  # distinct training graphs, used in turn
        self.clusters = clusters  # each graph is cut into this many clusters
        self.epochs = epochs
        self.heldout = heldout
        self.finishes = int(heldout)

    def setup(self, ctx: Context):
        for g in range(self.graphs):
            prepare_design(ctx, f"train{g}", g, ctx.instances // 2)
        if self.heldout:
            prepare_design(ctx, "heldout", self.graphs, ctx.instances // 2)
            merged = merge_graphs([ctx.prefix(f"train{g}") for g in range(self.graphs)],
                                  ctx.prefix("merged"))
            run_cli(*train_args(merged, QUALITY_EPOCHS, ctx.instances // 2 // self.clusters,
                                ctx.seed, ctx.prefix("quality.ckpt")))

    def op(self, ctx: Context, i: int) -> OpResult:
        nodes = ctx.instances // 2
        ckpt = ctx.prefix(f"model{i}.ckpt")
        args = train_args(ctx.prefix(f"train{i % self.graphs}"), self.epochs, nodes // self.clusters,
                          derived_seed(ctx.seed, i), ckpt)
        ctx.step_times.clear()
        start = time.perf_counter()
        run_cli(*args)
        seconds = time.perf_counter() - start
        stamps = np.array(ctx.step_times)
        counts = check_train_log(Path(f"{ckpt}.log"), len(stamps), self.epochs)
        # Epoch times from the second epoch on: single steps swing between
        # clusters that run SMOTE and clusters that skip it, so their median
        # jumps with the partition; an epoch covers every cluster.
        per_epoch = len(stamps) // self.epochs
        epoch_ends = stamps[per_epoch - 1 :: per_epoch]
        return OpResult(seconds, self.epochs * nodes, list(np.diff(epoch_ends) * 1000.0), counts,
                        steps_ms=list(np.diff(stamps) * 1000.0))

    def finish(self, ctx: Context) -> OpResult | None:
        if not self.heldout:
            return None
        return request(ctx, ctx.prefix("quality.ckpt"), ctx.prefix("heldout"))


class InferScan(Workload):
    """Repeated infer + eval requests over held-out snapshots, one checkpoint."""

    name = "infer_scan"
    traced_ops = 4
    snapshots = 2
    setup_repeats = 1  # at about 15 s, set-up is too long to repeat within the time budget

    def setup(self, ctx: Context):
        # The checkpoint's own training graph is small: request cost does
        # not depend on what the weights learned, only on their shapes.
        small = max(ctx.instances // 5, SMALL)
        prefix = prepare_design(ctx, "train", 0, small)
        run_cli(*train_args(prefix, CKPT_EPOCHS, small // 2, ctx.seed, ctx.prefix("model.ckpt")))
        for s in range(self.snapshots):
            prepare_design(ctx, f"snapshot{s}", s + 1, ctx.instances)

    def op(self, ctx: Context, i: int) -> OpResult:
        return request(ctx, ctx.prefix("model.ckpt"), ctx.prefix(f"snapshot{i % self.snapshots}"))


WORKLOADS = {
    w.name: w
    for w in (
        Prepare(),
        # One 2500-node cluster: the batch size is set by the input, not by
        # how evenly a two-way partition happens to split the graph.
        Train("train_wide", graphs=1, clusters=1, epochs=5, heldout=False, setup_repeats=3),
        # Four graphs in turn: how many clusters hold enough minority nodes
        # to run SMOTE sets an epoch's cost, and varies from design to design.
        # One set-up per run: at about 25 s it is too long to repeat within the time budget.
        Train("train_narrow", graphs=4, clusters=5, epochs=20, heldout=True, setup_repeats=1),
        InferScan(),
    )
}
