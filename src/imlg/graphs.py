"""Circuit graph construction with the neighbor-priority connection scheme.

Three edge rules, applied in order:

1. congeneric: same-class pairs (LUT-LUT or FF-FF) within Chebyshev
   distance L that could legally share a BLE (LUT pair: combined distinct
   input nets <= 6; FF pair: equal ck and sr nets). Each node keeps at
   most ``edge_cap`` nearest such candidates and an edge is kept only
   when both endpoints keep each other, so congeneric degree is bounded.
2. correlation: one edge per (LUT, FF) pair whose ``o`` and ``d`` pins
   share a net.
3. residual: nodes still isolated get edges to their nearest netlist
   neighbors (instances sharing any net), up to ``edge_cap``.

The result is far sparser than expanding every net into a clique while
keeping hot regions connected. Both distance-ranked rules order candidates
by (squared distance, id) through ``imlg.spatial``, which also holds the
grid index behind the congeneric candidate search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import LabelSet, PlacementDesign
from .features import EncoderConfig, build_feature_matrix
from .spatial import GridIndex, by_distance

EDGE_RULES = ("congeneric", "correlation", "residual")
_RULE_RANK = {r: i for i, r in enumerate(EDGE_RULES)}


class GraphFormatError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


@dataclass(frozen=True)
class BuildConfig:
    L: float = 5.0  # congeneric Chebyshev distance bound, in slice units
    edge_cap: int = 16  # max congeneric candidates kept per node

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.edge_cap < 1:
            raise ValueError(f"edge_cap must be >= 1, got {self.edge_cap}")


@dataclass
class CircuitGraph:
    names: list[str]
    name_to_id: dict[str, int]
    adj: list[np.ndarray]  # strictly sorted neighbor ids, no self-loops
    edges: list[tuple[int, int, str]]  # (i, j, rule) with i < j, sorted
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    isolated: list[str] = field(default_factory=list)
    clusters: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.adj[i])


class _NodeTable:
    """Canonical node order (names sorted) plus per-node packing attributes."""

    def __init__(self, design: PlacementDesign):
        insts = sorted(design.instances, key=lambda s: s.name)
        n = len(insts)
        self.names = [s.name for s in insts]
        self.name_to_id = {nm: i for i, nm in enumerate(self.names)}
        self.xy = np.array([(s.x, s.y) for s in insts]).reshape(n, 2)
        self.is_ff = np.array([s.type == "FF" for s in insts], dtype=bool)
        # ck / sr nets as net indices (-1 = none) and LUT input nets as net
        # index rows, so that BLE compatibility is a vectorized comparison
        self.ck = np.full(n, -1, dtype=np.int64)
        self.sr = np.full(n, -1, dtype=np.int64)
        self.net_members: list[list[int]] = []
        lut_in: dict[int, set[int]] = {}
        net_code: dict[str, int] = {}
        for net in design.nets:
            k = net_code.setdefault(net.name, len(net_code))
            members = sorted({self.name_to_id[nm] for nm, _ in net.pins})
            self.net_members.append(members)
            for nm, pin in net.pins:
                i = self.name_to_id[nm]
                if self.is_ff[i]:
                    if pin == "ck":
                        self.ck[i] = k
                    elif pin == "sr":
                        self.sr[i] = k
                elif pin != "o":
                    lut_in.setdefault(i, set()).add(k)
        width = max((len(v) for v in lut_in.values()), default=0)
        # padding never matches: it is negative and distinct per (node, slot)
        self.inputs = -1 - np.arange(n * width, dtype=np.int64).reshape(n, width)
        self.n_inputs = np.zeros(n, dtype=np.int16)
        for i, nets in lut_in.items():
            self.inputs[i, : len(nets)] = sorted(nets)
            self.n_inputs[i] = len(nets)

    @property
    def n(self) -> int:
        return len(self.names)


def node_order(design: PlacementDesign) -> list[str]:
    """Graph node order: instance names sorted."""
    return sorted(inst.name for inst in design.instances)


def _compatible(table: _NodeTable, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Broadcast mask of the same-class pairs (u, v) that could share a BLE:
    FFs with equal ck and sr nets, LUTs with at most 6 distinct input nets
    between them."""
    if table.is_ff[u.flat[0]]:
        return (table.ck[u] == table.ck[v]) & (table.sr[u] == table.sr[v])
    shared = np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=np.int16)
    for s in range(table.inputs.shape[1]):
        a = table.inputs[u, s]
        for t in range(table.inputs.shape[1]):
            shared += a == table.inputs[v, t]
    return table.n_inputs[u] + table.n_inputs[v] - shared <= 6


def _congeneric_from_table(table: _NodeTable, cfg: BuildConfig) -> set[tuple[int, int]]:
    # candidates: same class, in the 3x3 block of L-sized cells around the
    # node and within Chebyshev distance L; each node keeps the edge_cap
    # nearest compatible ones by (distance, id)
    n = table.n
    selected = np.full((n, cfg.edge_cap), -1, dtype=np.int64)
    for ff in (False, True):
        ids = np.flatnonzero(table.is_ff == ff)
        index = GridIndex(table.xy, cfg.L, ids)
        selected[ids] = index.nearest(
            ids, cfg.edge_cap, box=cfg.L, accept=lambda u, v: _compatible(table, u, v)
        )
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
    nodes within Chebyshev distance L. Node ids follow node_order()."""
    return _congeneric_from_table(_NodeTable(design), cfg)


def _correlation_from_table(design: PlacementDesign, table: _NodeTable) -> set[tuple[int, int]]:
    edges = set()
    for net in design.nets:
        driver = None
        ff_sinks = []
        for nm, pin in net.pins:
            i = table.name_to_id[nm]
            if table.is_ff[i]:
                if pin == "d":
                    ff_sinks.append(i)
            elif pin == "o":
                driver = i
        if driver is not None:
            for f in ff_sinks:
                edges.add((min(driver, f), max(driver, f)))
    return edges


def build_correlation_edges(design: PlacementDesign) -> set:
    """One edge per (LUT, FF) pair whose o and d pins share a net."""
    return _correlation_from_table(design, _NodeTable(design))


def _residual_from_table(
    table: _NodeTable, existing: set[tuple[int, int]], edge_cap: int
) -> tuple[set[tuple[int, int]], list[int]]:
    degree = np.zeros(table.n, dtype=np.int64)
    for i, j in existing:
        degree[i] += 1
        degree[j] += 1
    node_nets: dict[int, list[int]] = {}
    for k, members in enumerate(table.net_members):
        for i in members:
            node_nets.setdefault(i, []).append(k)
    edges: set[tuple[int, int]] = set()
    still_isolated: list[int] = []
    for i in range(table.n):
        if degree[i] > 0:
            continue
        partners = sorted(
            {j for k in node_nets.get(i, ()) for j in table.net_members[k] if j != i}
        )
        if not partners:
            still_isolated.append(i)
            continue
        for j in by_distance(table.xy, i, partners)[:edge_cap].tolist():
            edges.add((min(i, j), max(i, j)))
    return edges, still_isolated


def build_residual_edges(
    design: PlacementDesign,
    partial_edges: set,
    cfg: BuildConfig = BuildConfig(),
) -> set:
    """Edges from still-isolated nodes to their nearest netlist neighbors."""
    return _residual_from_table(_NodeTable(design), partial_edges, cfg.edge_cap)[0]


def build_graph(
    design: PlacementDesign,
    labels: LabelSet | None = None,
    cfg: BuildConfig = BuildConfig(),
    encoder_cfg: EncoderConfig = EncoderConfig(),
) -> CircuitGraph:
    """Assemble the full graph: three edge rules merged with precedence
    congeneric > correlation > residual, features and optional labels."""
    table = _NodeTable(design)
    rule_of: dict[tuple[int, int], str] = {}
    congeneric = _congeneric_from_table(table, cfg)
    for e in congeneric:
        rule_of[e] = "congeneric"
    for e in _correlation_from_table(design, table):
        rule_of.setdefault(e, "correlation")
    residual, still_isolated = _residual_from_table(table, set(rule_of), cfg.edge_cap)
    for e in residual:
        rule_of.setdefault(e, "residual")
    edges = [(i, j, rule_of[(i, j)]) for i, j in sorted(rule_of)]
    neigh: list[list[int]] = [[] for _ in range(table.n)]
    for i, j, _rule in edges:
        neigh[i].append(j)
        neigh[j].append(i)
    adj = [np.array(sorted(v), dtype=np.int64) for v in neigh]
    label_vec = None
    if labels is not None:
        missing = [nm for nm in table.names if nm not in labels.labels]
        if missing:
            raise ValueError(f"labels missing instance {missing[0]}")
        label_vec = np.array([labels.labels[nm] for nm in table.names], dtype=np.int64)
    return CircuitGraph(
        names=table.names,
        name_to_id=dict(table.name_to_id),
        adj=adj,
        edges=edges,
        features=build_feature_matrix(design, encoder_cfg),
        labels=label_vec,
        isolated=[table.names[i] for i in still_isolated],
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
    edges: list[tuple[int, int, str]] = []
    adj: list[np.ndarray] = []
    isolated: list[str] = []
    offset = 0
    for g, prefix in zip(graphs, prefixes):
        names.extend(prefix + nm for nm in g.names)
        edges.extend((i + offset, j + offset, rule) for i, j, rule in g.edges)
        adj.extend(nb + offset for nb in g.adj)
        isolated.extend(prefix + nm for nm in g.isolated)
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
        adj=adj,
        edges=edges,
        features=features,
        labels=labels,
        isolated=isolated,
    )


def clique_expansion_count(design: PlacementDesign) -> int:
    """Edge count of the naive construction that expands every net into a
    clique over its instances (deduplicated across nets)."""
    table = _NodeTable(design)
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


def _fmt(value: float) -> str:
    return format(value, ".17g")


def write_graph(graph: CircuitGraph) -> str:
    """Serialize to the IMLG-GRAPH text format (deterministic)."""
    d = 0 if graph.features is None else graph.features.shape[1]
    lines = ["IMLG-GRAPH v1", f"N {graph.n} D {d}"]
    for i, j, rule in graph.edges:
        lines.append(f"EDGE {i} {j} {rule}")
    if graph.features is not None:
        for i in range(graph.n):
            vals = " ".join(_fmt(v) for v in graph.features[i])
            lines.append(f"FEAT {i} {vals}")
    if graph.labels is not None:
        for i in range(graph.n):
            lines.append(f"LABEL {i} {int(graph.labels[i])}")
    if graph.clusters is not None:
        for i in range(graph.n):
            lines.append(f"CLUSTER {i} {int(graph.clusters[i])}")
    return "\n".join(lines) + "\n"


def _repeated_edge_line(lines: list[str]) -> int | None:
    """Line number of the first EDGE line that repeats an earlier one."""
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if tokens and tokens[0] == "EDGE":
            key = (int(tokens[1]), int(tokens[2]))
            if key in seen:
                return lineno
            seen.add(key)
    return None


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

    Malformed lines, repeated edges or node lines, partial FEAT / LABEL /
    CLUSTER coverage and non-finite features raise GraphFormatError with
    the line number."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "IMLG-GRAPH v1":
        raise GraphFormatError("expected header 'IMLG-GRAPH v1'", 1)
    n = d = None
    edges: list[tuple[int, int, str]] = []
    feats = labels = clusters = None
    # line number of each node's FEAT / LABEL / CLUSTER line, 0 = none yet
    feat_line = label_line = cluster_line = None
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
            elif n is None:
                raise GraphFormatError("size line 'N ... D ...' must come first", lineno)
            elif kind == "EDGE":
                if len(tokens) != 4:
                    raise GraphFormatError("expected 'EDGE <i> <j> <rule>'", lineno)
                i, j, rule = int(tokens[1]), int(tokens[2]), tokens[3]
                if rule not in EDGE_RULES:
                    raise GraphFormatError(f"unknown edge rule '{rule}'", lineno)
                if not (0 <= i < j < n):
                    raise GraphFormatError(f"bad edge endpoints {i} {j}", lineno)
                edges.append((i, j, rule))
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
            elif kind == "CLUSTER":
                if clusters is None:
                    clusters = np.zeros(n, dtype=np.int64)
                    cluster_line = np.zeros(n, dtype=np.int64)
                if len(tokens) != 3:
                    raise GraphFormatError("expected 'CLUSTER <i> <c>'", lineno)
                i = int(tokens[1])
                if not (0 <= i < n):
                    raise GraphFormatError(f"bad CLUSTER line for node {tokens[1]}", lineno)
                if cluster_line[i]:
                    raise GraphFormatError(f"second CLUSTER line for node {i}", lineno)
                clusters[i] = int(tokens[2])
                cluster_line[i] = lineno
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
    _check_coverage("CLUSTER", cluster_line)
    if feats is not None:
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
        if len(bad):
            node = int(bad[np.argmin(feat_line[bad])])
            raise GraphFormatError(f"non-finite FEAT value for node {node}", int(feat_line[node]))
    names = [str(i) for i in range(n)]
    neigh: list[list[int]] = [[] for _ in range(n)]
    for i, j, _rule in edges:
        neigh[i].append(j)
        neigh[j].append(i)
    adj = [np.array(sorted(set(v)), dtype=np.int64) for v in neigh]
    if sum(len(a) for a in adj) != 2 * len(edges):
        raise GraphFormatError("repeated EDGE line", _repeated_edge_line(lines))
    return CircuitGraph(
        names=names,
        name_to_id={nm: i for i, nm in enumerate(names)},
        adj=adj,
        edges=sorted(edges, key=lambda e: (e[0], e[1])),
        features=feats,
        labels=labels,
        isolated=[names[i] for i in range(n) if len(adj[i]) == 0],
        clusters=clusters,
    )
