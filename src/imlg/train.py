"""Mini-batch training over a cluster partition, plus whole-graph inference.

Training partitions the graph, then per epoch visits the clusters in a
seeded random order, taking one optimizer step per batch on the induced
subgraph (cross-cluster edges are dropped), cut as a CSR adjacency out of
the whole graph's. Inference runs the same encoder and classifier over the
whole graph's adjacency with no oversampling or decoding, so it scales by
edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .design import DocumentError, fmt_float
from .graphs import CircuitGraph
from .model import HyperParams, classify, encode, forward, init_params, predicted_labels
from .optim import Adam, ParamStore
from .partition import partition_graph
from .sparse import Adjacency


class CheckpointError(DocumentError):
    """Malformed IMLG-CKPT document."""


class PredictionError(DocumentError):
    """Malformed prediction file."""


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr: float = 1e-3
    weight_decay: float = 5e-4
    cluster_size: int = 10000
    clusters_per_batch: int = 1
    seed: int = 0
    baseline_mode: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.clusters_per_batch < 1:
            raise ValueError(f"clusters_per_batch must be >= 1, got {self.clusters_per_batch}")


@dataclass
class TrainLog:
    rows: list[tuple[int, int, float, float, float]] = field(default_factory=list)
    seed: int = 0
    wall_clock: float = 0.0
    smote_skipped: int = 0

    def to_csv(self) -> str:
        lines = ["epoch,cluster,l_clf,l_rec,objective"]
        for epoch, cluster, l_clf, l_rec, obj in self.rows:
            lines.append(
                f"{epoch},{cluster},{format(l_clf, '.17g')},"
                f"{format(l_rec, '.17g')},{format(obj, '.17g')}"
            )
        return "\n".join(lines) + "\n"


def train(
    graph: CircuitGraph,
    hp: HyperParams = HyperParams(),
    cfg: TrainConfig = TrainConfig(),
) -> tuple[ParamStore, TrainLog]:
    """Trains on the graph's own labels; returns the trained parameters and
    the full per-iteration log."""
    if graph.labels is None:
        raise ValueError("graph carries no labels")
    y = np.asarray(graph.labels, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("training needs both classes present in the labels")
    if graph.features is None:
        raise ValueError("graph carries no features")
    start = time.monotonic()
    part = partition_graph(graph, cfg.cluster_size, seed=cfg.seed)
    cluster_nodes = [np.flatnonzero(part.assignment == c) for c in range(part.k)]
    params = init_params(graph.features.shape[1], hp, seed=cfg.seed)
    adam = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, 2])
    log = TrainLog(seed=cfg.seed)
    batch_cache: dict[tuple, tuple[np.ndarray, Adjacency]] = {}
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(part.k)
        for at in range(0, part.k, cfg.clusters_per_batch):
            group = order[at : at + cfg.clusters_per_batch]
            key = tuple(sorted(int(c) for c in group))
            if key not in batch_cache:
                nodes = np.sort(np.concatenate([cluster_nodes[c] for c in group]))
                batch_cache[key] = (nodes, graph.adj.subgraph(nodes))
            nodes, a = batch_cache[key]
            try:
                res = forward(
                    a,
                    graph.features[nodes],
                    y[nodes],
                    params,
                    hp,
                    rng=rng,
                    baseline=cfg.baseline_mode,
                )
                params.zero_grads()
                res.objective.backward()
                grads = params.grads()
            except NonFiniteError as err:
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} cluster {int(group[0])}: {err}"
                ) from err
            adam.step(grads)
            if res.plan.skipped:
                log.smote_skipped += 1
            log.rows.append(
                (epoch, int(group[0]), res.l_clf, res.l_rec, float(res.objective.data))
            )
            del res, grads  # free this step's graph before the next forward
    log.wall_clock = time.monotonic() - start
    return params, log


def infer(graph: CircuitGraph, params: ParamStore) -> tuple[np.ndarray, np.ndarray]:
    """Minority-class probability and argmax label per node, running the
    encoder and classifier over the raw graph only. The weights enter as
    constants, so no op keeps its inputs for a backward pass."""
    if graph.features is None:
        raise ValueError("graph carries no features")
    w1 = params.get("Enc", "W1").data
    if graph.features.shape[1] * 3 != w1.shape[0]:
        raise ValueError(
            f"feature dimension mismatch: graph has {graph.features.shape[1]}, "
            f"checkpoint expects {w1.shape[0] // 3}"
        )
    z = encode(graph.adj, graph.features, ad.const(w1))
    weights = (ad.const(params.get("Clf", name).data) for name in ("W_agg", "W_head"))
    _logp, probs = classify(graph.adj, z, *weights)
    return probs[:, 1], predicted_labels(probs)


# ---------------------------------------------------------------------------
# checkpoints and prediction files

# flags earlier versions wrote, with the one value the model still has:
# only the 0/1 synthetic decoder and oversampling to balance remain
_RETIRED_HP = {"soft_synthetic_edges": "0", "oversample_to_balance": "1"}


def save_checkpoint(params: ParamStore, hp: HyperParams) -> str:
    lines = ["IMLG-CKPT v1"]
    for f in fields(HyperParams):
        value = getattr(hp, f.name)
        lines.append(f"HP {f.name} {fmt_float(value) if isinstance(value, float) else value}")
    for (owner, name), tensor in params.items():
        rows, cols = tensor.data.shape
        lines.append(f"PARAM {owner} {name} {rows} {cols}")
        for r in range(rows):
            lines.append(" ".join(fmt_float(v) for v in tensor.data[r]))
    return "\n".join(lines) + "\n"


def load_checkpoint(text: str) -> tuple[ParamStore, HyperParams]:
    """Parse an IMLG-CKPT document. A malformed line, a non-numeric or
    non-finite weight, a hyperparameter HyperParams rejects, a retired
    flag other than its kept value and a repeated HP line or PARAM block
    raise CheckpointError with the line number; a wrong header names line
    1, and a hyperparameter or parameter never given names the last line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "IMLG-CKPT v1":
        raise CheckpointError("expected header 'IMLG-CKPT v1'", 1)
    kinds = {f.name: type(f.default) for f in fields(HyperParams)}
    hp_values: dict[str, object] = {}
    params = ParamStore()
    first_line: dict[str, int] = {}  # "HP key" or "PARAM owner.name" -> line

    def once(what: str, lineno: int):
        if what in first_line:
            raise CheckpointError(f"repeated {what} (first at line {first_line[what]})", lineno)
        first_line[what] = lineno

    at = 1
    while at < len(lines):
        lineno = at + 1
        tokens = lines[at].split()
        at += 1
        if not tokens:
            continue
        if tokens[0] == "HP":
            if len(tokens) != 3:
                raise CheckpointError(f"bad HP line: {lines[at - 1]!r}", lineno)
            key, raw = tokens[1], tokens[2]
            once(f"HP {key}", lineno)
            if key in _RETIRED_HP:
                if raw not in ("0", "1"):
                    raise CheckpointError(f"{key} expects 0 or 1, got '{raw}'", lineno)
                if raw != _RETIRED_HP[key]:
                    raise CheckpointError(f"{key} {raw} is no longer supported", lineno)
                continue
            if key not in kinds:
                raise CheckpointError(f"unknown hyperparameter '{key}'", lineno)
            try:
                value = kinds[key](raw)
            except ValueError:
                msg = f"{key} expects {kinds[key].__name__}, got '{raw}'"
                raise CheckpointError(msg, lineno) from None
            try:
                replace(HyperParams(), **{key: value})  # the field's own checks
            except ValueError as err:
                raise CheckpointError(str(err), lineno) from None
            hp_values[key] = value
        elif tokens[0] == "PARAM":
            if len(tokens) != 5 or not (tokens[3].isdigit() and tokens[4].isdigit()):
                raise CheckpointError(f"bad PARAM line: {lines[at - 1]!r}", lineno)
            owner, name = tokens[1], tokens[2]
            once(f"PARAM {owner}.{name}", lineno)
            rows, cols = int(tokens[3]), int(tokens[4])
            if at + rows > len(lines):
                raise CheckpointError(f"truncated checkpoint in {owner}.{name}", lineno)
            block = np.zeros((rows, cols))
            for r in range(rows):
                vals = lines[at + r].split()
                if len(vals) != cols:
                    raise CheckpointError(
                        f"shape mismatch in {owner}.{name} row {r}: "
                        f"expected {cols} values, got {len(vals)}",
                        at + r + 1,
                    )
                try:
                    block[r] = [float(v) for v in vals]
                except ValueError as err:
                    raise CheckpointError(f"{owner}.{name} row {r}: {err}", at + r + 1) from None
                if not np.isfinite(block[r]).all():
                    raise CheckpointError(f"non-finite value in {owner}.{name} row {r}", at + r + 1)
            at += rows
            params.add(owner, name, block)
        else:
            raise CheckpointError(f"unknown directive '{tokens[0]}'", lineno)
    missing = [name for name in kinds if name not in hp_values]
    if missing:
        raise CheckpointError(f"missing hyperparameter {missing[0]} by the end of the document",
                              len(lines))
    hp = HyperParams(**hp_values)
    for required in (("Enc", "W1"), ("Dec", "S"), ("Clf", "W_agg"), ("Clf", "W_head")):
        if required not in dict(params.items()):
            raise CheckpointError(
                f"missing parameter {required[0]}.{required[1]} by the end of the document",
                len(lines),
            )
    return params, hp


def write_predictions(names: list[str], probs: np.ndarray, labels: np.ndarray) -> str:
    lines = [
        f"{nm},{fmt_float(float(p))},{int(lab)}" for nm, p, lab in zip(names, probs, labels)
    ]
    return "\n".join(lines) + "\n"


def read_predictions(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse ``name,probability,label`` lines. A non-numeric field, a
    probability outside [0, 1] (or not finite), a label other than 0 or 1
    and a repeated name raise PredictionError with the line number."""
    names, probs, labels, where = [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise PredictionError("expected 'name,probability,label'", lineno)
        try:
            prob, label = float(parts[1]), int(parts[2])
        except ValueError:
            raise PredictionError(f"non-numeric field in '{raw.strip()}'", lineno) from None
        if label not in (0, 1):
            raise PredictionError(f"label {label} for {parts[0]} not in {{0, 1}}", lineno)
        names.append(parts[0])
        probs.append(prob)
        labels.append(label)
        where.append(lineno)
    prob_arr = np.array(probs)
    bad = np.flatnonzero(~((prob_arr >= 0.0) & (prob_arr <= 1.0)))  # NaN fails both
    if len(bad):
        r = bad[0]
        raise PredictionError(f"probability {probs[r]} for {names[r]} not in [0, 1]", where[r])
    if len(set(names)) != len(names):
        first: dict[str, int] = {}
        for nm, lineno in zip(names, where):
            if nm in first:
                raise PredictionError(
                    f"duplicate prediction for {nm} (first at line {first[nm]})", lineno
                )
            first[nm] = lineno
    return names, prob_arr, np.array(labels, dtype=np.int64)
