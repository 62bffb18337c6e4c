import hashlib

import numpy as np
import pytest

from imlg import graphs
from imlg.design import (
    MAX_BLE_INPUTS,
    Instance,
    Net,
    NodeTable,
    PlacementDesign,
    parse_design,
    write_design,
)
from imlg.graphs import (
    EDGE_RULES,
    BuildConfig,
    CircuitGraph,
    GraphFormatError,
    build_congeneric_edges,
    build_correlation_edges,
    build_graph,
    build_residual_edges,
    clique_expansion_count,
    disjoint_union,
    read_graph,
    write_graph,
)
from imlg.synth import GenConfig, _ff_fits, _lut_fits, _try_place, generate_labeled


def edge_list(g):
    """(i, j, rule) of every edge, i < j, sorted."""
    i, j, codes = g.upper_edges()
    return [(a, b, EDGE_RULES[c]) for a, b, c in zip(i.tolist(), j.tolist(), codes.tolist())]


def neighbors(g, i):
    return g.adj.indices[g.adj.indptr[i] : g.adj.indptr[i + 1]]


def _design(w, h, instances, nets=()):
    d = PlacementDesign(w, h, list(instances), list(nets))
    parse_design(write_design(d))  # raises DesignError unless d is a valid design
    return d


def _shared_input_pair(dx, dy):
    """Two LUTs with 3 shared + 3 pair-distinct input nets (6 total)."""
    l0 = Instance("l0", "LUT4", 0.0, 0.0)
    l1 = Instance("l1", "LUT5", float(dx), float(dy))
    zz = Instance("zz", "LUT6", 6.5, 0.0)  # spare sink pad for 2-pin nets
    nets = [
        Net("s1", (("l0", "i0"), ("l1", "i0"))),
        Net("s2", (("l0", "i1"), ("l1", "i1"))),
        Net("s3", (("l0", "i2"), ("l1", "i2"))),
        Net("d1", (("l0", "i3"), ("zz", "i0"))),
        Net("d2", (("l1", "i3"), ("zz", "i1"))),
        Net("d3", (("l1", "i4"), ("zz", "i2"))),
    ]
    return _design(8, 8, [l0, l1, zz], nets)


def test_congeneric_edge_at_chebyshev_bound():
    d = _shared_input_pair(5, 5)
    ids = {nm: i for i, nm in enumerate(sorted(("l0", "l1", "zz")))}
    edges = build_congeneric_edges(d)
    assert (ids["l0"], ids["l1"]) in edges


def test_congeneric_edge_beyond_bound():
    d = _shared_input_pair(6, 0)
    ids = {nm: i for i, nm in enumerate(sorted(("l0", "l1", "zz")))}
    assert (ids["l0"], ids["l1"]) not in build_congeneric_edges(d)


def test_congeneric_requires_compatible_inputs():
    # two LUT6s with disjoint inputs: 12 distinct nets > 6, no edge
    insts = [
        Instance("a", "LUT6", 0.0, 0.0),
        Instance("b", "LUT6", 1.0, 0.0),
        Instance("c", "LUT6", 7.0, 7.0),  # spare sink pads
        Instance("d", "LUT6", 7.5, 7.0),
    ]
    nets = [Net(f"na{k}", (("a", f"i{k}"), ("c", f"i{k}"))) for k in range(6)]
    nets += [Net(f"nb{k}", (("b", f"i{k}"), ("d", f"i{k}"))) for k in range(6)]
    d = _design(8, 8, insts, nets)
    ids = {nm: i for i, nm in enumerate(sorted(i.name for i in insts))}
    assert (ids["a"], ids["b"]) not in build_congeneric_edges(d)


def test_ff_congeneric_requires_equal_ck_and_sr():
    insts = [Instance(nm, "FF", 0.5 + i * 0.1, 0.5) for i, nm in enumerate(("fa", "fb", "fc"))]
    nets = [
        Net("ck0", (("fa", "ck"), ("fb", "ck"))),
        Net("ck1", (("fc", "ck"), ("fa", "d"))),
    ]
    d = _design(4, 4, insts, nets)
    ids = {nm: i for i, nm in enumerate(sorted(i.name for i in insts))}
    edges = build_congeneric_edges(d)
    assert (ids["fa"], ids["fb"]) in edges
    assert (ids["fa"], ids["fc"]) not in edges
    assert (ids["fb"], ids["fc"]) not in edges


def test_edge_cap_keeps_exactly_nearest_candidates():
    rng = np.random.default_rng(3)
    insts = [Instance("m000", "FF", 10.0, 10.0)]  # focal
    blob, far = [], []
    for i in range(16):
        ang = 2 * np.pi * i / 16
        r = 0.05 + 0.002 * i
        blob.append(Instance(f"m1{i:02d}", "FF", 10 + r * np.cos(ang), 10 + r * np.sin(ang)))
    for i in range(24):
        ang = 2 * np.pi * i / 24
        r = 0.08 + 0.002 * i
        far.append(Instance(f"m2{i:02d}", "FF", 14.5 + r * np.cos(ang), 10 + r * np.sin(ang)))
    insts += blob + far
    all_names = [i.name for i in insts]
    nets = [Net("ck", tuple((nm, "ck") for nm in all_names))]
    d = _design(21, 21, insts, nets)
    ids = {nm: i for i, nm in enumerate(sorted(all_names))}
    focal = ids["m000"]
    edges = build_congeneric_edges(d, BuildConfig(L=5.0, edge_cap=16))
    focal_neighbors = {j for i, j in edges if i == focal} | {i for i, j in edges if j == focal}
    # oracle: exhaustive candidate enumeration, 16 nearest by euclidean
    xy = {i.name: (i.x, i.y) for i in insts}
    dists = sorted(
        (
            (xy[nm][0] - 10.0) ** 2 + (xy[nm][1] - 10.0) ** 2,
            ids[nm],
        )
        for nm in all_names
        if nm != "m000" and max(abs(xy[nm][0] - 10.0), abs(xy[nm][1] - 10.0)) <= 5.0
    )
    expected = {j for _d2, j in dists[:16]}
    assert focal_neighbors == expected
    assert len(focal_neighbors) == 16


def _congeneric_reference(design, cfg):
    """Per-node loop: same-class candidates in the 3x3 block of L-cells and
    within Chebyshev L, walked in (distance, id) order through a set-based
    compatibility test until edge_cap are kept; mutual picks become edges."""
    insts = sorted(design.instances, key=lambda s: s.name)
    n = len(insts)
    ids = {s.name: i for i, s in enumerate(insts)}
    xy = np.array([(s.x, s.y) for s in insts])
    is_ff = np.array([s.type == "FF" for s in insts])
    inputs = [set() for _ in insts]
    ctrl = [[None, None] for _ in insts]
    for net in design.nets:
        for nm, pin in net.pins:
            i = ids[nm]
            if is_ff[i] and pin in ("ck", "sr"):
                ctrl[i][pin == "sr"] = net.name
            elif not is_ff[i] and pin != "o":
                inputs[i].add(net.name)
    cell = np.floor(xy / cfg.L).astype(np.int64)
    selected = []
    for i in range(n):
        near = (
            (is_ff == is_ff[i])
            & (np.abs(cell - cell[i]).max(axis=1) <= 1)
            & (np.abs(xy - xy[i]).max(axis=1) <= cfg.L)
        )
        near[i] = False
        cand = np.flatnonzero(near)
        d2 = (xy[cand, 0] - xy[i, 0]) ** 2 + (xy[cand, 1] - xy[i, 1]) ** 2
        keep = set()
        for j in cand[np.lexsort((cand, d2))].tolist():
            ok = ctrl[i] == ctrl[j] if is_ff[i] else len(inputs[i] | inputs[j]) <= 6
            if ok:
                keep.add(j)
                if len(keep) == cfg.edge_cap:
                    break
        selected.append(keep)
    return {(i, j) for i in range(n) for j in selected[i] if i < j and i in selected[j]}


@pytest.mark.parametrize("L,cap", [(5.0, 16), (2.0, 3), (1.0, 1)])
def test_congeneric_matches_reference_loop_on_ties(L, cap):
    design, _labels = generate_labeled(GenConfig(n_instances=400, seed=4))
    # snap to a half-unit lattice: many exact duplicates and distance ties
    w, h = design.layout_w, design.layout_h
    snapped = [
        Instance(s.name, s.type, min(round(s.x * 2) / 2, w - 0.5), min(round(s.y * 2) / 2, h - 0.5))
        for s in design.instances
    ]
    for d in (design, PlacementDesign(w, h, snapped, design.nets)):
        cfg = BuildConfig(L=L, edge_cap=cap)
        assert build_congeneric_edges(d, cfg) == _congeneric_reference(d, cfg)


def test_congeneric_rule_agrees_with_the_oracle(monkeypatch):
    # the builder's vectorized BLE test accepts v for u, on every same-class
    # pair (u, v) the congeneric search scans, exactly when the oracle's
    # set-based test fits v into a fresh BLE holding only u
    design, _labels = generate_labeled(GenConfig(n_instances=1250, seed=103))
    table = NodeTable(design)
    scanned = []
    compatible = graphs._compatible

    def recording(t):
        accept = compatible(t)

        def wrapped(u, v):
            mask = accept(u, v)
            uu, vv = np.broadcast_arrays(u, v)
            scanned.append(np.stack([uu.ravel(), vv.ravel(), mask.ravel()], axis=1))
            return mask

        return wrapped

    monkeypatch.setattr(graphs, "_compatible", recording)
    graphs.build_congeneric_edges(design)
    pairs = np.unique(np.concatenate(scanned), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    assert np.all(table.is_ff[pairs[:, 0]] == table.is_ff[pairs[:, 1]])
    unions = {False: set(), True: set()}  # LUT input-union sizes seen, by verdict
    starts = np.flatnonzero(np.diff(pairs[:, 0])) + 1  # pairs are sorted by u
    for group in np.split(pairs, starts):
        u = int(group[0, 0])
        cells = {}
        assert _try_place(table, cells, {}, (0, 0), u)
        ble = cells[(0, 0)][0]
        fits = _ff_fits if table.is_ff[u] else _lut_fits
        for v, mask in group[:, 1:].tolist():
            assert fits(table, ble, v) == bool(mask), (table.names[u], table.names[v])
            if not table.is_ff[u]:
                unions[bool(mask)].add(len(table.lut_inputs[u] | table.lut_inputs[v]))
    # the design exercises the limit from both sides, and both classes
    assert max(unions[True]) == MAX_BLE_INPUTS and min(unions[False]) == MAX_BLE_INPUTS + 1
    assert table.is_ff[pairs[:, 0]].any() and not table.is_ff[pairs[:, 0]].all()


def test_congeneric_degree_bounded_by_cap():
    design, _labels = generate_labeled(GenConfig(n_instances=800, seed=11))
    cap = 16
    edges = build_congeneric_edges(design, BuildConfig(edge_cap=cap))
    deg = {}
    for i, j in edges:
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert max(deg.values()) <= cap


def test_correlation_rule_verbatim():
    insts = [Instance("l0", "LUT2", 0.5, 0.5), Instance("f0", "FF", 1.0, 0.5)]
    d = _design(4, 4, insts, [Net("n0", (("l0", "o"), ("f0", "d")))])
    assert build_correlation_edges(d) == {(0, 1)}  # f0=0, l0=1 in name order


def test_correlation_needs_output_pin():
    insts = [Instance("l0", "LUT2", 0.5, 0.5), Instance("f0", "FF", 1.0, 0.5)]
    d = _design(4, 4, insts, [Net("n1", (("l0", "i0"), ("f0", "d")))])
    assert build_correlation_edges(d) == set()


def test_correlation_count_against_ground_truth():
    insts, nets = [], []
    for i in range(1000):
        cx, cy = i % 40, (i // 40) % 25
        insts.append(Instance(f"l{i:04d}", "LUT3", cx + 0.25, cy + 0.25))
        insts.append(Instance(f"f{i:04d}", "FF", cx + 0.75, cy + 0.75))
        nets.append(Net(f"n{i:04d}", ((f"l{i:04d}", "o"), (f"f{i:04d}", "d"))))
    d = _design(40, 25, insts, nets)
    edges = build_correlation_edges(d)
    assert len(edges) == 1000
    table_is_ff = {i: nm.startswith("f") for i, nm in enumerate(sorted(x.name for x in insts))}
    for i, j in edges:
        assert table_is_ff[i] != table_is_ff[j]


def test_residual_connects_isolated_to_net_partners():
    insts = [
        Instance("f0", "FF", 0.5, 0.5),
        Instance("l1", "LUT2", 10.5, 10.5),
        Instance("l2", "LUT2", 12.5, 10.5),
    ]
    # no output pin on the net, so no correlation edge; f0 is isolated
    nets = [Net("nd", (("f0", "d"), ("l1", "i0"), ("l2", "i1")))]
    d = _design(16, 16, insts, nets)
    partial = build_congeneric_edges(d) | build_correlation_edges(d)
    residual = build_residual_edges(d, partial)
    assert (0, 1) in residual and (0, 2) in residual  # f0 -> l1, l2


def test_no_net_partner_stays_isolated_and_reported():
    insts = [Instance("a", "LUT2", 0.5, 0.5), Instance("b", "LUT2", 15.5, 15.5)]
    g = build_graph(_design(16, 16, insts, []))
    assert g.n_edges == 0
    assert sorted(g.isolated) == ["a", "b"]


def test_two_instance_graph_is_one_correlation_edge():
    insts = [Instance("l0", "LUT2", 0.5, 0.5), Instance("f0", "FF", 1.0, 0.5)]
    g = build_graph(_design(4, 4, insts, [Net("n0", (("l0", "o"), ("f0", "d")))]))
    assert edge_list(g) == [(0, 1, "correlation")]
    assert g.isolated == []


def test_build_invariants_on_seeded_designs():
    for seed in range(6):
        design, labels = generate_labeled(GenConfig(n_instances=300, seed=seed))
        g = build_graph(design, labels)
        g2 = build_graph(design, labels)
        assert edge_list(g) == edge_list(g2)  # deterministic
        seen = set()
        for i, j, rule in edge_list(g):
            assert 0 <= i < j < g.n
            assert (i, j) not in seen
            seen.add((i, j))
        for i in range(g.n):
            nb = neighbors(g, i)
            assert (np.diff(nb) > 0).all() if len(nb) > 1 else True
            assert i not in nb
            for j in nb:
                assert i in neighbors(g, j)
        assert len(g.isolated) == 0
        assert g.n_edges < clique_expansion_count(design)


def test_edge_count_below_clique_expansion_at_scale():
    design, _labels = generate_labeled(GenConfig(n_instances=5000, seed=9))
    g = build_graph(design)
    assert g.n_edges < clique_expansion_count(design)


def test_disjoint_union_shifts_each_graph():
    edgeless = [Instance("a", "LUT2", 0.5, 0.5), Instance("b", "LUT2", 15.5, 15.5)]
    parts = [
        build_graph(generate_labeled(GenConfig(n_instances=60, seed=1))[0]),
        build_graph(_design(16, 16, edgeless, [])),
        build_graph(generate_labeled(GenConfig(n_instances=80, seed=2))[0]),
    ]
    union = disjoint_union(parts)
    expected, shift = [], 0
    for g in parts:
        expected += [(i + shift, j + shift, rule) for i, j, rule in edge_list(g)]
        shift += g.n
    assert edge_list(union) == expected
    assert union.isolated == ["g1:a", "g1:b"]
    assert union.names[60] == "g1:a" and union.name_to_id["g2:" + parts[2].names[0]] == 62
    assert np.array_equal(union.features, np.vstack([g.features for g in parts]))
    ref = CircuitGraph.from_edges(union.names, *union.upper_edges())
    assert np.array_equal(union.adj.indptr, ref.adj.indptr)
    assert np.array_equal(union.adj.indices, ref.adj.indices)
    assert np.array_equal(union.rules, ref.rules)


def test_graph_labels_attached_in_node_order():
    design, labels = generate_labeled(GenConfig(n_instances=60, seed=2))
    g = build_graph(design, labels)
    for nm, i in g.name_to_id.items():
        assert g.labels[i] == labels.labels[nm]


# ---------------------------------------------------------------------------
# graph file round-trip


def test_graph_file_roundtrip():
    design, labels = generate_labeled(GenConfig(n_instances=80, seed=5))
    g = build_graph(design, labels)
    text = write_graph(g)
    back = read_graph(text)
    assert back.n == g.n
    assert edge_list(back) == edge_list(g)
    assert np.array_equal(back.features, g.features)
    assert np.array_equal(back.labels, g.labels)
    assert write_graph(back) == text


def test_graph_file_errors():
    with pytest.raises(GraphFormatError, match="header"):
        read_graph("BOGUS\n")
    with pytest.raises(GraphFormatError, match="unknown edge rule"):
        read_graph("IMLG-GRAPH v1\nN 2 D 0\nEDGE 0 1 sideways\n")
    with pytest.raises(GraphFormatError, match="bad edge endpoints"):
        read_graph("IMLG-GRAPH v1\nN 2 D 0\nEDGE 1 0 residual\n")
    with pytest.raises(GraphFormatError, match="missing FEAT"):
        read_graph("IMLG-GRAPH v1\nN 2 D 1\nFEAT 0 1.0\n")


@pytest.mark.parametrize(
    "text,message,line",
    [
        ("N 3 D 0\nEDGE 0 1 congeneric\nEDGE 1 2 residual\nEDGE 0 1 residual\n",
         "repeated EDGE line", 5),
        ("N 3 D 0\nLABEL 0 1\nLABEL 2 0\n", "missing LABEL line for node 1", 3),
        ("N 2 D 0\nLABEL 0 1\nLABEL 1 0\nLABEL 0 0\n", "second LABEL line for node 0", 5),
        ("N 2 D 0\nCLUSTER 1 0\n", "unknown directive 'CLUSTER'", 3),
        ("N 2 D 1\nFEAT 0 1.0\nFEAT 1 nan\n", "non-finite FEAT value for node 1", 4),
        ("N 2 D 1\nFEAT 0 inf\nFEAT 1 0.5\n", "non-finite FEAT value for node 0", 3),
        ("N 2 D 0\nEDGE 0 x congeneric\n", "bad EDGE line", 3),
        ("N 2 D 0\nLABEL 0\n", "expected 'LABEL", 3),
        ("N two D 0\n", "bad N line", 2),
        ("N 2 D 0\nN 3 D 0\n", "second size line", 3),
        ("N -3 D 2\n", "negative size", 2),
        ("N 2 D -1\n", "negative size", 2),
    ],
)
def test_graph_reader_rejects_with_line_number(text, message, line):
    with pytest.raises(GraphFormatError, match=message) as err:
        read_graph("IMLG-GRAPH v1\n" + text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


# sha256 of write_graph(build_graph(...)), recorded before the congeneric and
# residual rules moved onto imlg.spatial
GOLDEN_GRAPH_DIGESTS = {
    (600, 199): "115189349f9d4629a60c48ab04304d2cea0ad07d2e56efbe55b3ac152e325917",
    (1250, 103): "39bc75f8036d2a74884840ffcdea1f595619877cecc2a9ab30b99e9a824f881d",
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN_GRAPH_DIGESTS))
def test_graph_bytes_match_golden_digest(n, seed):
    design, labels = generate_labeled(GenConfig(n_instances=n, seed=seed))
    text = write_graph(build_graph(design, labels))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GRAPH_DIGESTS[(n, seed)]


def test_parse_design_then_build_matches_direct_build():
    from imlg.design import write_design

    design, labels = generate_labeled(GenConfig(n_instances=120, seed=8))
    reparsed = parse_design(write_design(design))
    assert write_graph(build_graph(reparsed, labels)) == write_graph(build_graph(design, labels))
