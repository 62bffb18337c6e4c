"""Per-layer spans for a traced run, recorded from outside the program.

Each public function the pipeline calls is wrapped where its caller looks it
up: names bound with `from .x import y` are replaced in the importing module
(`imlg.cli.train`, `imlg.train.forward`, `imlg.graphs.build_feature_matrix`),
names reached through a module attribute in their own module
(`imlg.autodiff.matmul`, reached from `model` as `ad.matmul`), and methods on
their class (`Tensor.backward`, `Adam.step`). Nothing is hooked inside
`src/imlg`. Spans (name, start, end, parent) stay in memory until the run
ends; a span's self time is its duration minus its children's. tracemalloc
runs inside `train.train` only, for the per-step memory peak; it slows
Python-heavy code such as the partitioner several fold, which is one
reason end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

HOOK = "trace.hook"  # time spent in the tracer's own post-processing

AUTODIFF_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "scale", "concat_cols",
    "relu", "sigmoid", "log_softmax_rows", "sum_all",
)
MODEL_STAGES = (
    "encode", "smote_oversample", "apply_smote", "decode_scores", "loss_rec",
    "decode_adjacency", "classify", "loss_clf",
)
# (module, attribute, span) for wrappers without a post-processing hook
PLAIN = [("cli", "main", "cli.main")] + [
    ("cli", f"cmd_{c}", f"cli.{c}") for c in ("gen", "build_graph", "train", "infer", "eval")
] + [
    ("cli", "generate_labeled", "synth.generate_labeled"),
    ("synth", "packing_oracle", "synth.packing_oracle"),
    ("cli", "write_labels", "design.write_labels"),
    ("cli", "parse_design", "design.parse_design"),
    ("cli", "parse_labels", "design.parse_labels"),
    ("cli", "read_graph", "graphs.read_graph"),
    ("graphs", "build_feature_matrix", "features.build_feature_matrix"),
    ("cli", "infer", "train.infer"),
    ("cli", "load_checkpoint", "train.load_checkpoint"),
    ("cli", "save_checkpoint", "train.save_checkpoint"),
    ("cli", "write_predictions", "train.write_predictions"),
    ("cli", "read_predictions", "train.read_predictions"),
    ("cli", "report", "metrics.report"),
    ("metrics", "roc_curve", "metrics.roc_curve"),
    ("cli", "render_report", "metrics.render_report"),
] + [("model", s, f"model.{s}") for s in MODEL_STAGES if s != "smote_oversample"]

# per_layer metrics that must repeat exactly at a fixed seed
EXACT = (
    "synth.oracle_calls", "design.bytes", "graphs.edges", "graphs.file_bytes",
    "partition.k", "partition.cut", "model.batch_nodes", "model.minority_nodes",
    "model.synthetic_nodes", "model.smote_attempts", "model.smote_skipped",
    "model.synthetic_edges", "autodiff.ops", "autodiff.matmul_calls",
    "autodiff.matmul_gflop", "autodiff.nxn_arrays", "autodiff.nxn_mib",
    "optim.adam_steps", "heldout_auc", "heldout_tpr20", "heldout_f1",
)


def _module(name: str):
    # sys.modules entry: the package re-exports the train function over the
    # name of the imlg.train submodule
    return importlib.import_module(f"imlg.{name}")


def _shape(x) -> tuple:
    return np.shape(getattr(x, "data", x))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, float] = {}  # structural values of the latest call
        self.step_peak = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._batch = 0  # nodes in the batch being trained, 0 outside a step

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if post is not None:
                begin = time.perf_counter()
                post(args, result)
                spans.append([HOOK, begin, time.perf_counter(), parent])
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) under a span of its own."""
        return self._wrap(name, fn)(*args)

    def _patch(self, owner, attr, name, pre=None, post=None):
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, pre, post)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return original, wrapper

    def install(self):
        for module, attr, name in PLAIN:
            self._patch(_module(module), attr, name)
        cli, ad = _module("cli"), _module("autodiff")
        self._patch(cli, "write_design", "design.write_design", post=self._bytes("design.bytes"))
        self._patch(cli, "write_graph", "graphs.write_graph", post=self._bytes("graphs.file_bytes"))
        self._patch(cli, "build_graph", "graphs.build_graph", post=self._graph)
        self._patch(cli, "train", "train.train", pre=self._memory_on, post=self._memory_off)
        self._patch(_module("train"), "partition_graph", "partition.partition_graph", post=self._partition)
        self._patch(_module("train"), "forward", "model.forward", pre=self._step_start, post=self._forward)
        self._patch(_module("model"), "smote_oversample", "model.smote_oversample", post=self._smote)
        swapped = {}
        for op in AUTODIFF_OPS:
            original, wrapper = self._patch(ad, op, f"autodiff.{op}",
                                            post=self._matmul if op == "matmul" else self._op)
            swapped[id(original)] = wrapper
        # default arguments such as encode(activation=ad.relu) were bound at import
        for stage in MODEL_STAGES:
            fn = next(orig for owner, attr, orig in self._undo if attr == stage)
            if fn.__defaults__:
                self._undo.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(swapped.get(id(d), d) for d in fn.__defaults__)
        self._patch(ad.Tensor, "backward", "autodiff.backward")
        self._patch(_module("optim").Adam, "step", "optim.adam_step", post=self._step_end)

    def uninstall(self):
        tracemalloc.stop()  # in case train.train raised
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- post-processing hooks: counts read from arguments and return values --

    def _bytes(self, key):
        def post(args, text):
            self.counts[key] += len(text.encode("utf-8"))
        return post

    def _graph(self, args, graph):
        self.counts["graphs.edges"] += graph.n_edges

    def _partition(self, args, part):
        graph = args[0]
        self.last["partition.k"] = part.k
        self.last["partition.cut"] = part.cut
        self.last["partition.cut_frac"] = part.cut / graph.n_edges if graph.n_edges else 0.0
        if graph.labels is not None:
            sizes = np.bincount(part.assignment, minlength=part.k)
            minority = np.bincount(part.assignment, weights=graph.labels, minlength=part.k)
            self.last["partition.minority_max_frac"] = float(np.max(minority / np.maximum(sizes, 1)))

    def _memory_on(self, args):
        tracemalloc.start()

    def _memory_off(self, args, result):
        tracemalloc.stop()

    def _step_start(self, args):
        self._batch = _shape(args[0])[0]
        tracemalloc.reset_peak()

    def _forward(self, args, res):
        m = res.plan.m
        n = len(res.y_aug) - m
        c = self.counts
        c["model.batch_nodes"] += n
        c["model.minority_nodes"] += int(np.sum(res.y_aug[:n] == 1))
        c["model.synthetic_nodes"] += m
        if m and res.a_aug is not None:
            c["model.synthetic_edges"] += int(np.count_nonzero(res.a_aug[n:]))

    def _smote(self, args, plan):
        self.counts["model.smote_attempts"] += 1
        self.counts["model.smote_skipped"] += int(plan.skipped)
        self.counts["model.smote_useful"] += int(plan.m > 0)

    def _op(self, args, out):
        self.counts["autodiff.ops"] += 1
        if self._batch and out.data.size >= self._batch * self._batch:
            self.counts["autodiff.nxn_arrays"] += 1
            self.counts["autodiff.nxn_bytes"] += out.data.nbytes

    def _matmul(self, args, out):
        self._op(args, out)
        rows, cols = out.data.shape
        self.counts["autodiff.matmul_flop"] += 2 * rows * _shape(args[0])[-1] * cols

    def _step_end(self, args, result):
        self.step_peak = max(self.step_peak, tracemalloc.get_traced_memory()[1])
        self._batch = 0

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this trace can give; absent layers read 0."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _parent), inner in zip(self.spans, children):
            total[name] += end - start
            own[name] += end - start - inner
            calls[name] += 1
        c = self.counts
        steps = calls["optim.adam_step"]
        per_step = 1.0 / steps if steps else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{name}_s": t for name, t in total.items() if name != HOOK}
        out.update(self.last)
        out.update({
            "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.")),
            "synth.nets_s": own["synth.generate_labeled"],
            "synth.oracle_calls": calls["synth.packing_oracle"],
            "synth.oracle_useful_ratio": ratio(calls["synth.generate_labeled"], calls["synth.packing_oracle"]),
            "design.bytes": c["design.bytes"],
            "graphs.edges": c["graphs.edges"],
            "graphs.file_bytes": c["graphs.file_bytes"],
            "train.batch_s": own["train.train"],
            "train.step_peak_mib": self.step_peak / 2**20,
            "model.batch_nodes": c["model.batch_nodes"] * per_step,
            "model.minority_nodes": c["model.minority_nodes"] * per_step,
            "model.synthetic_nodes": c["model.synthetic_nodes"] * per_step,
            "model.smote_attempts": c["model.smote_attempts"],
            "model.smote_skipped": c["model.smote_skipped"],
            "model.smote_useful_ratio": ratio(c["model.smote_useful"], c["model.smote_attempts"]),
            "model.synthetic_edges": c["model.synthetic_edges"] * per_step,
            "model.synthetic_mean_degree": ratio(c["model.synthetic_edges"], c["model.synthetic_nodes"]),
            "autodiff.ops": c["autodiff.ops"] * per_step,
            "autodiff.matmul_calls": calls["autodiff.matmul"] * per_step,
            "autodiff.matmul_gflop": c["autodiff.matmul_flop"] / 1e9 * per_step,
            "autodiff.nxn_arrays": c["autodiff.nxn_arrays"] * per_step,
            "autodiff.nxn_mib": c["autodiff.nxn_bytes"] / 2**20 * per_step,
            "optim.adam_steps": steps,
        })
        return out

    def write(self, path: Path):
        """Spans as [name, start, end, parent] rows, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - origin, 9), round(e - origin, 9), p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows), encoding="utf-8")
