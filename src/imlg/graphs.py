"""Circuit graph construction with the neighbor-priority connection scheme.

Three edge rules, applied in order:

1. congeneric: same-class pairs (LUT-LUT or FF-FF) within Chebyshev
   distance L that could legally share a BLE under the rule stated on
   ``imlg.design.NodeTable``. Each node keeps at most ``edge_cap`` nearest
   such candidates and an edge is kept only when both endpoints keep each
   other, so congeneric degree is bounded.
2. correlation: one edge per FF and its ``d_driver``, the LUT whose ``o``
   shares a net with the FF's ``d``.
3. residual: nodes still isolated get edges to their nearest netlist
   neighbors (instances sharing any net), up to ``edge_cap``.

The result is far sparser than expanding every net into a clique while
keeping hot regions connected. Both distance-ranked rules order candidates
by (squared distance, id) through ``imlg.spatial``, which also holds the
grid index behind the congeneric candidate search. The rules read the
design only through its `NodeTable`. A graph is stored as one symmetric
CSR adjacency (`imlg.sparse.Adjacency`) with the rule code of every
stored entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import MAX_BLE_INPUTS, DocumentError, LabelSet, NodeTable, PlacementDesign, fmt_float
from .features import build_feature_matrix
from .sparse import Adjacency, RepeatedEdge
from .spatial import GridIndex, by_distance

EDGE_RULES = ("congeneric", "correlation", "residual")
_RULE_CODE = {r: i for i, r in enumerate(EDGE_RULES)}


class GraphFormatError(DocumentError):
    """Malformed IMLG-GRAPH document."""


@dataclass(frozen=True)
class BuildConfig:
    L: float = 5.0  # congeneric Chebyshev distance bound, in slice units
    edge_cap: int = 16  # max congeneric candidates kept per node
    region_depth: int = 4  # levels of the 2x2 region code in the node features

    def __post_init__(self):
        if not self.L >= 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.edge_cap < 1:
            raise ValueError(f"edge_cap must be >= 1, got {self.edge_cap}")
        if self.region_depth < 1:
            raise ValueError(f"region_depth must be >= 1, got {self.region_depth}")


@dataclass
class CircuitGraph:
    names: list[str]
    name_to_id: dict[str, int]
    adj: Adjacency  # symmetric CSR, no self-loops
    rules: np.ndarray  # EDGE_RULES code of each stored entry, aligned with adj.indices
    features: np.ndarray | None = None
    labels: np.ndarray | None = None

    @classmethod
    def from_edges(cls, names, i, j, rules, features=None, labels=None) -> CircuitGraph:
        """Graph on `names` with the undirected edges (i[e], j[e]) of rule
        code rules[e]. An edge given twice raises `RepeatedEdge`."""
        adj, order = Adjacency.from_edges(len(names), i, j)
        codes = np.repeat(np.asarray(rules, dtype=np.int8), 2)[order]
        name_to_id = {nm: k for k, nm in enumerate(names)}
        return cls(names, name_to_id, adj, codes, features, labels)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.adj.indices) // 2

    @property
    def isolated(self) -> list[str]:
        """Names of the nodes without an edge."""
        return [self.names[i] for i in np.flatnonzero(self.adj.deg == 0)]

    def upper_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, rule code) of every edge, i < j, ascending by (i, j)."""
        upper = self.adj.rows < self.adj.indices
        return self.adj.rows[upper], self.adj.indices[upper], self.rules[upper]


def _compatible(table: NodeTable):
    """The congeneric search's ``accept(u, v)``: the broadcast mask of the
    same-class pairs that could share a BLE under the `NodeTable` rule.
    LUT input sets become rows of a padded net-index matrix, so the test
    is a vectorized comparison."""
    width = max(map(len, table.lut_inputs), default=0)
    # padding never matches: it is negative and distinct per (node, slot)
    inputs = -1 - np.arange(table.n * width, dtype=np.int64).reshape(table.n, width)
    for i, nets in enumerate(table.lut_inputs):
        inputs[i, : len(nets)] = sorted(nets)
    n_inputs = np.array([len(nets) for nets in table.lut_inputs], dtype=np.int16)

    def accept(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if table.is_ff[u.flat[0]]:
            return (table.ck[u] == table.ck[v]) & (table.sr[u] == table.sr[v])
        shared = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=np.int16)
        for s in range(width):
            a = inputs[u, s]
            for t in range(width):
                shared += a == inputs[v, t]
        return n_inputs[u] + n_inputs[v] - shared <= MAX_BLE_INPUTS

    return accept


def _congeneric_from_table(table: NodeTable, cfg: BuildConfig) -> set[tuple[int, int]]:
    # candidates: same class, in the 3x3 block of L-sized cells around the
    # node and within Chebyshev distance L; each node keeps the edge_cap
    # nearest compatible ones by (distance, id)
    n = table.n
    selected = np.full((n, cfg.edge_cap), -1, dtype=np.int64)
    accept = _compatible(table)
    for ff in (False, True):
        ids = np.flatnonzero(table.is_ff == ff)
        index = GridIndex(table.xy, cfg.L, ids)
        selected[ids] = index.nearest(ids, cfg.edge_cap, box=cfg.L, accept=accept)
    i = np.repeat(np.arange(n, dtype=np.int64), cfg.edge_cap)
    j = selected.ravel()
    keep = j >= 0
    picks = np.sort(i[keep] * n + j[keep])  # sorted keys of (node, kept candidate)
    up = j > i
    i, j = i[up], j[up]
    back = j * n + i  # does j keep i too?
    mutual = picks[np.minimum(np.searchsorted(picks, back), len(picks) - 1)] == back
    return set(zip(i[mutual].tolist(), j[mutual].tolist()))


def build_congeneric_edges(design: PlacementDesign, cfg: BuildConfig = BuildConfig()) -> set:
    """Mutual nearest-candidate edges between packing-compatible same-class
    nodes within Chebyshev distance L. A node id is the position of its
    instance name in sorted order."""
    return _congeneric_from_table(NodeTable(design), cfg)


def _correlation_from_table(table: NodeTable) -> set[tuple[int, int]]:
    ff = np.flatnonzero(table.d_driver >= 0)
    lut = table.d_driver[ff]  # either end may hold the smaller id
    return set(zip(np.minimum(lut, ff).tolist(), np.maximum(lut, ff).tolist()))


def build_correlation_edges(design: PlacementDesign) -> set:
    """One edge per (LUT, FF) pair whose o and d pins share a net."""
    return _correlation_from_table(NodeTable(design))


def _residual_from_table(table: NodeTable, existing, edge_cap: int) -> set[tuple[int, int]]:
    pairs = np.array(list(existing), dtype=np.int64).reshape(-1, 2)
    degree = np.bincount(pairs.ravel(), minlength=table.n)
    node_nets: dict[int, list[int]] = {}
    for k, members in enumerate(table.net_members):
        for i in members:
            node_nets.setdefault(i, []).append(k)
    edges: set[tuple[int, int]] = set()
    for i in np.flatnonzero(degree == 0).tolist():
        partners = sorted(
            {j for k in node_nets.get(i, ()) for j in table.net_members[k] if j != i}
        )
        for j in by_distance(table.xy, i, partners)[:edge_cap].tolist():
            edges.add((min(i, j), max(i, j)))
    return edges


def build_residual_edges(
    design: PlacementDesign,
    partial_edges: set,
    cfg: BuildConfig = BuildConfig(),
) -> set:
    """Edges from still-isolated nodes to their nearest netlist neighbors.
    A node without netlist neighbors stays isolated."""
    return _residual_from_table(NodeTable(design), partial_edges, cfg.edge_cap)


def build_graph(
    design: PlacementDesign,
    labels: LabelSet | None = None,
    cfg: BuildConfig = BuildConfig(),
) -> CircuitGraph:
    """Assemble the full graph: three edge rules merged with precedence
    congeneric > correlation > residual, features and optional labels."""
    table = NodeTable(design)
    rule_of = dict.fromkeys(_congeneric_from_table(table, cfg), _RULE_CODE["congeneric"])
    for e in _correlation_from_table(table):
        rule_of.setdefault(e, _RULE_CODE["correlation"])
    for e in _residual_from_table(table, rule_of, cfg.edge_cap):
        rule_of.setdefault(e, _RULE_CODE["residual"])
    i, j = np.array(list(rule_of), dtype=np.int64).reshape(-1, 2).T
    label_vec = None
    if labels is not None:
        missing = [nm for nm in table.names if nm not in labels.labels]
        if missing:
            raise ValueError(f"labels missing instance {missing[0]}")
        label_vec = np.array([labels.labels[nm] for nm in table.names], dtype=np.int64)
    return CircuitGraph.from_edges(
        table.names,
        i,
        j,
        list(rule_of.values()),
        features=build_feature_matrix(design, cfg.region_depth),
        labels=label_vec,
    )


def disjoint_union(graphs: list[CircuitGraph], prefixes: list[str] | None = None) -> CircuitGraph:
    """Stack several graphs into one (no cross edges), prefixing node names
    to keep them unique. All inputs must share a feature dimension and all
    carry labels or none."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    if prefixes is None:
        prefixes = [f"g{i}:" for i in range(len(graphs))]
    dims = {g.features.shape[1] for g in graphs if g.features is not None}
    if len(dims) > 1:
        raise ValueError(f"feature dimensions differ: {sorted(dims)}")
    names: list[str] = []
    # each graph's CSR, its rows and columns shifted past the graphs before it
    indptr = [np.zeros(1, dtype=np.int64)]
    indices = []
    offset = 0
    for g, prefix in zip(graphs, prefixes):
        names.extend(prefix + nm for nm in g.names)
        indptr.append(g.adj.indptr[1:] + indptr[-1][-1])
        indices.append(g.adj.indices + offset)
        offset += g.n
    features = None
    if all(g.features is not None for g in graphs):
        features = np.vstack([g.features for g in graphs])
    labels = None
    if all(g.labels is not None for g in graphs):
        labels = np.concatenate([g.labels for g in graphs])
    return CircuitGraph(
        names=names,
        name_to_id={nm: i for i, nm in enumerate(names)},
        adj=Adjacency(np.concatenate(indptr), np.concatenate(indices)),
        rules=np.concatenate([g.rules for g in graphs]),
        features=features,
        labels=labels,
    )


def clique_expansion_count(design: PlacementDesign) -> int:
    """Edge count of the naive construction that expands every net into a
    clique over its instances (deduplicated across nets)."""
    table = NodeTable(design)
    n = table.n
    keys = []
    for members in table.net_members:
        m = np.array(members, dtype=np.int64)
        if len(m) < 2:
            continue
        ii, jj = np.triu_indices(len(m), k=1)
        keys.append(m[ii] * n + m[jj])
    if not keys:
        return 0
    return int(np.unique(np.concatenate(keys)).size)


# ---------------------------------------------------------------------------
# graph file format


def write_graph(graph: CircuitGraph) -> str:
    """Serialize to the IMLG-GRAPH text format (deterministic)."""
    d = 0 if graph.features is None else graph.features.shape[1]
    lines = ["IMLG-GRAPH v1", f"N {graph.n} D {d}"]
    i, j, codes = graph.upper_edges()
    lines.extend(
        f"EDGE {a} {b} {EDGE_RULES[c]}" for a, b, c in zip(i.tolist(), j.tolist(), codes.tolist())
    )
    if graph.features is not None:
        for i in range(graph.n):
            vals = " ".join(fmt_float(v) for v in graph.features[i])
            lines.append(f"FEAT {i} {vals}")
    if graph.labels is not None:
        for i in range(graph.n):
            lines.append(f"LABEL {i} {int(graph.labels[i])}")
    return "\n".join(lines) + "\n"


def _check_coverage(kind: str, line_of: np.ndarray | None) -> None:
    """Per-node lines of one kind (line numbers, 0 = none) cover all nodes or none."""
    if line_of is None:
        return
    missing = np.flatnonzero(line_of == 0)
    if len(missing):
        raise GraphFormatError(
            f"missing {kind} line for node {int(missing[0])} ({kind} lines from here "
            f"on cover {len(line_of) - len(missing)} of {len(line_of)} nodes)",
            int(line_of[line_of > 0].min()),
        )


def read_graph(text: str) -> CircuitGraph:
    """Parse an IMLG-GRAPH document. Node names are not stored in the file;
    they default to the node index as a string.

    Malformed lines, a negative size, repeated edges or node lines, partial
    FEAT / LABEL coverage and non-finite features raise GraphFormatError
    with the line number."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "IMLG-GRAPH v1":
        raise GraphFormatError("expected header 'IMLG-GRAPH v1'", 1)
    n = d = None
    edges: list[tuple[int, int, int, int]] = []  # (i, j, rule code, line number)
    feats = labels = None
    # line number of each node's FEAT / LABEL line, 0 = none yet
    feat_line = label_line = None
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        try:
            if kind == "N":
                if n is not None:
                    raise GraphFormatError("second size line", lineno)
                if len(tokens) != 4 or tokens[2] != "D":
                    raise GraphFormatError("expected 'N <n> D <d>'", lineno)
                n, d = int(tokens[1]), int(tokens[3])
                if n < 0 or d < 0:
                    raise GraphFormatError(f"negative size in '{raw.strip()}'", lineno)
            elif n is None:
                raise GraphFormatError("size line 'N ... D ...' must come first", lineno)
            elif kind == "EDGE":
                if len(tokens) != 4:
                    raise GraphFormatError("expected 'EDGE <i> <j> <rule>'", lineno)
                i, j, rule = int(tokens[1]), int(tokens[2]), tokens[3]
                if rule not in _RULE_CODE:
                    raise GraphFormatError(f"unknown edge rule '{rule}'", lineno)
                if not (0 <= i < j < n):
                    raise GraphFormatError(f"bad edge endpoints {i} {j}", lineno)
                edges.append((i, j, _RULE_CODE[rule], lineno))
            elif kind == "FEAT":
                if feats is None:
                    feats = np.zeros((n, d))
                    feat_line = np.zeros(n, dtype=np.int64)
                i = int(tokens[1])
                vals = tokens[2:]
                if not (0 <= i < n) or len(vals) != d:
                    raise GraphFormatError(f"bad FEAT line for node {tokens[1]}", lineno)
                if feat_line[i]:
                    raise GraphFormatError(f"second FEAT line for node {i}", lineno)
                feats[i] = [float(v) for v in vals]
                feat_line[i] = lineno
            elif kind == "LABEL":
                if labels is None:
                    labels = np.zeros(n, dtype=np.int64)
                    label_line = np.zeros(n, dtype=np.int64)
                if len(tokens) != 3:
                    raise GraphFormatError("expected 'LABEL <i> <0|1>'", lineno)
                i, v = int(tokens[1]), tokens[2]
                if not (0 <= i < n) or v not in ("0", "1"):
                    raise GraphFormatError(f"bad LABEL line for node {tokens[1]}", lineno)
                if label_line[i]:
                    raise GraphFormatError(f"second LABEL line for node {i}", lineno)
                labels[i] = int(v)
                label_line[i] = lineno
            else:
                raise GraphFormatError(f"unknown directive '{kind}'", lineno)
        except GraphFormatError:
            raise
        except (ValueError, IndexError) as err:  # a missing or non-numeric token
            raise GraphFormatError(f"bad {kind} line: {err}", lineno) from None
    if n is None:
        raise GraphFormatError("missing size line 'N <n> D <d>'")
    _check_coverage("FEAT", feat_line)
    _check_coverage("LABEL", label_line)
    if feats is not None:
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if len(bad):
            node = int(bad[np.argmin(feat_line[bad])])
            raise GraphFormatError(f"non-finite FEAT value for node {node}", int(feat_line[node]))
    i, j, codes, where = np.array(edges, dtype=np.int64).reshape(-1, 4).T
    try:
        return CircuitGraph.from_edges([str(k) for k in range(n)], i, j, codes, feats, labels)
    except RepeatedEdge as err:
        raise GraphFormatError("repeated EDGE line", int(where[err.at])) from None
