"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional
replication test (criterion 10) trains twelve models at full desk scale
and dominates the runtime.
"""

import itertools
import time

import numpy as np
import pytest

from imlg import autodiff as ad
from imlg.autodiff import Tensor, finite_difference
from imlg.cli import main
from imlg.features import build_feature_matrix, feature_dim
from imlg.graphs import (
    EDGE_RULES,
    BuildConfig,
    CircuitGraph,
    build_graph,
    clique_expansion_count,
    disjoint_union,
)
from imlg.metrics import auc, f1_at, report, roc_curve, tpr_at_fpr
from imlg.model import (
    FrozenChoices,
    HyperParams,
    apply_smote,
    forward,
    init_params,
    loss_rec,
    smote_oversample,
)
from imlg.partition import cut_size, partition_graph, refine
from imlg.sparse import Adjacency
from imlg.synth import GenConfig, generate_labeled
from imlg.train import TrainConfig, infer, train

from test_metrics import mann_whitney_auc
from test_sparse import csr


def _random_batch(seed, n=20, d=14, minority=5, edge_p=0.2):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < edge_p).astype(np.float64)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    x = rng.normal(size=(n, d))
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=minority, replace=False)] = 1
    return a, x, y


def test_c01_gradient_correctness():
    start = time.monotonic()
    hp = HyperParams(hidden_dim=8, lam=1.0, eta=10.0)
    worst = 0.0
    for seed in range(10):
        a, x, y = _random_batch(seed)
        params = init_params(14, hp, seed=seed)
        rng = np.random.default_rng([seed, 77])
        res = forward(csr(a), x, y, params, hp, rng=rng)
        params.zero_grads()
        res.objective.backward()
        analytic = params.grads()
        frozen = FrozenChoices(plan=res.plan, a_aug=res.a_aug)

        def feval():
            return float(forward(csr(a), x, y, params, hp, frozen=frozen).objective.data)

        arrays = {key: params.get(*key).data for key in params.keys()}
        fd = finite_difference(feval, arrays, h=1e-5)
        for key in arrays:
            ga, gf = analytic[key], fd[key]
            rel = np.max(np.abs(ga - gf) / np.maximum(np.abs(ga) + np.abs(gf), 1e-3))
            worst = max(worst, float(rel))
    elapsed = time.monotonic() - start
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 PASS: max relative gradient error {worst:.2e} in {elapsed:.1f}s")


def test_c02_gradient_routing():
    for seed in range(3):
        a, x, y = _random_batch(seed + 50)
        hp = HyperParams(hidden_dim=8)
        params = init_params(14, hp, seed=seed)
        res = forward(csr(a), x, y, params, hp, rng=np.random.default_rng(seed))
        # classification loss zeroed: only the reconstruction term remains
        params.zero_grads()
        ad.scale(res.rec_loss, hp.lam).backward()
        grads = params.grads()
        assert ("Clf", "W_agg") not in grads and ("Clf", "W_head") not in grads
        assert np.any(grads[("Dec", "S")] != 0.0)
        assert np.any(grads[("Enc", "W1")] != 0.0)
        # reconstruction loss zeroed: only the classification term remains
        params.zero_grads()
        res.clf_loss.backward()
        grads = params.grads()
        assert ("Dec", "S") not in grads
        assert np.any(grads[("Clf", "W_agg")] != 0.0)
        assert np.any(grads[("Clf", "W_head")] != 0.0)
        assert np.any(grads[("Enc", "W1")] != 0.0)
    print("ACCEPTANCE 2 PASS: three-way gradient routing is exact")


def test_c03_smote_properties():
    checked = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        n_min = int(rng.integers(2, max(3, n // 4)))
        z = rng.normal(size=(n, 8))
        y = np.zeros(n, dtype=np.int64)
        y[rng.choice(n, size=n_min, replace=False)] = 1
        plan = smote_oversample(z, y, k=5, rng=np.random.default_rng([seed, 1]))
        if plan.m == 0:
            continue
        y_aug = np.concatenate([y, np.ones(plan.m, dtype=np.int64)])
        assert abs(int((y_aug == 0).sum()) - int((y_aug == 1).sum())) <= 1
        z_aug = apply_smote(Tensor(z), plan).data
        for t, (pa, pb, delta) in enumerate(plan.parents):
            assert y[pa] == 1 and y[pb] == 1
            expected = (1 - delta) * z[pa] + delta * z[pb]
            assert np.max(np.abs(z_aug[n + t] - expected)) <= 1e-12
        checked += 1
    assert checked >= 20
    print(f"ACCEPTANCE 3 PASS: balance and parent reconstruction over {checked} batches")


def test_c04_reconstruction_loss_fixtures():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert float(loss_rec(csr(a), ad.const(a), eta=10.0).data) == 0.0
    scores = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert float(loss_rec(csr(a), ad.const(scores), eta=2.0).data) == 2.0
    print("ACCEPTANCE 4 PASS: reconstruction loss fixtures exact")


def test_c05_metrics_oracles():
    perfect_scores = np.array([0.9, 0.8, 0.2, 0.1])
    perfect_labels = np.array([1, 1, 0, 0])
    roc = roc_curve(perfect_scores, perfect_labels)
    assert auc(roc) == 1.0
    assert tpr_at_fpr(roc, 0.2) == 1.0 and tpr_at_fpr(roc, 0.4) == 1.0
    assert f1_at(perfect_scores, perfect_labels) == 1.0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(200), 2)
        labels = (rng.random(200) < 0.3).astype(int)
        if labels.sum() in (0, 200):
            labels[:2] = [0, 1]
        roc = roc_curve(scores, labels)
        worst = max(worst, abs(auc(roc) - mann_whitney_auc(scores, labels)))
        # exhaustive sweep: at every ROC vertex the interpolator is exact
        for f, t in roc:
            top = max(tt for ff, tt in roc if ff == f)
            assert tpr_at_fpr(roc, f) == top
    assert worst <= 1e-12
    print(f"ACCEPTANCE 5 PASS: AUC vs pair counting off by {worst:.1e} max over 100 sets")


def _congeneric_attrs(design):
    insts = sorted(design.instances, key=lambda s: s.name)
    inputs = {s.name: set() for s in insts}
    ck = {s.name: None for s in insts}
    sr = {s.name: None for s in insts}
    for net in design.nets:
        for nm, pin in net.pins:
            t = next(s.type for s in insts if s.name == nm)
            if t == "FF":
                if pin == "ck":
                    ck[nm] = net.name
                elif pin == "sr":
                    sr[nm] = net.name
            elif pin != "o":
                inputs[nm].add(net.name)
    return insts, inputs, ck, sr


def test_c06_graph_builder_properties():
    cfg = BuildConfig(L=5.0, edge_cap=16)
    for seed in range(50):
        design, labels = generate_labeled(GenConfig(n_instances=250, seed=seed))
        g = build_graph(design, labels, cfg=cfg)
        insts, inputs, ck, sr = _congeneric_attrs(design)
        by_id = {i: s for i, s in enumerate(insts)}
        # net relation for correlation recheck
        drives = set()
        for net in design.nets:
            driver = [nm for nm, pin in net.pins if pin == "o"]
            if driver:
                for nm, pin in net.pins:
                    if pin == "d":
                        drives.add(frozenset((driver[0], nm)))
        ei, ej, codes = g.upper_edges()
        for i, j, rule in zip(ei.tolist(), ej.tolist(), (EDGE_RULES[c] for c in codes)):
            u, v = by_id[i], by_id[j]
            if rule == "congeneric":
                assert max(abs(u.x - v.x), abs(u.y - v.y)) <= cfg.L
                assert (u.type == "FF") == (v.type == "FF")
                if u.type == "FF":
                    assert ck[u.name] == ck[v.name] and sr[u.name] == sr[v.name]
                else:
                    assert len(inputs[u.name] | inputs[v.name]) <= 6
            elif rule == "correlation":
                assert (u.type == "FF") != (v.type == "FF")
                assert frozenset((u.name, v.name)) in drives
        assert len(g.isolated) == 0
        assert g.n_edges < clique_expansion_count(design)
    print("ACCEPTANCE 6 PASS: edge rules, connectivity and sparsity on 50 designs")


def test_c07_partitioner_properties():
    # 4-node path fixture: cut equals the brute-force optimum of 1
    path = CircuitGraph.from_edges(list("abcd"), [0, 1, 2], [1, 2, 3], [0, 0, 0])
    part = partition_graph(path, target_size=2)
    best = min(
        cut_size(path.adj, np.array(a))
        for a in itertools.product((0, 1), repeat=4)
        if sum(a) == 2
    )
    assert part.cut == best == 1
    design, labels = generate_labeled(GenConfig(n_instances=1500, seed=33))
    g = build_graph(design, labels)
    part = partition_graph(g, target_size=300, seed=0)
    counts = np.bincount(part.assignment, minlength=part.k)
    assert (part.assignment >= 0).all() and counts.sum() == g.n
    assert ((counts >= 150) & (counts <= 450)).all()
    rng = np.random.default_rng(1)
    for _trial in range(100):
        n = int(rng.integers(8, 40))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
        i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        radj, _order = Adjacency.from_edges(n, i, j)
        wadj = [{int(v): 1.0 for v in radj.indices[radj.indptr[u] : radj.indptr[u + 1]]}
                for u in range(n)]
        assignment = rng.integers(0, 3, size=n).astype(np.int64)
        before = cut_size(radj, assignment)
        after = cut_size(radj, refine(wadj, np.ones(n), assignment, 3, n / 6, n / 2))
        assert after <= before
    print("ACCEPTANCE 7 PASS: balance bounds, optimal path cut, monotone refinement")


def test_c08_region_encoding_properties():
    for depth in (1, 2, 4):
        design, _labels = generate_labeled(GenConfig(n_instances=200, seed=3))
        rows = build_feature_matrix(design, depth)
        assert rows.shape[1] == feature_dim(depth) == 6 + 4 * depth
        assert (rows.sum(axis=1) == depth + 1).all()
        # same level-l cell => identical first 4*l region entries
        insts = sorted(design.instances, key=lambda s: s.name)
        w = design.layout_w
        for level in range(1, depth + 1):
            cells = {}
            for i, inst in enumerate(insts):
                scale = 2**level
                cell = (int(inst.x / w * scale), int(inst.y / design.layout_h * scale))
                cells.setdefault(cell, []).append(i)
            for members in cells.values():
                first = rows[members[0], 6 : 6 + 4 * level]
                for m in members[1:]:
                    assert np.array_equal(rows[m, 6 : 6 + 4 * level], first)
    print("ACCEPTANCE 8 PASS: row structure, prefix locality, dimension")


def test_c09_imbalance_regime():
    fractions = []
    for seed in range(5):
        _design, labels = generate_labeled(GenConfig(n_instances=2000, seed=seed))
        fractions.append(labels.minority_fraction)
        assert 0.045 <= labels.minority_fraction <= 0.14
    print(f"ACCEPTANCE 9 PASS: minority fractions {[round(f, 3) for f in fractions]}")


@pytest.fixture(scope="module")
def replication_data():
    graphs = [
        build_graph(*generate_labeled(GenConfig(n_instances=5000, seed=s)))
        for s in (101, 102, 103)
    ]
    heldout = build_graph(*generate_labeled(GenConfig(n_instances=5000, seed=104)))
    return disjoint_union(graphs), heldout


def test_c10_directional_replication(replication_data):
    start = time.monotonic()
    merged, heldout = replication_data
    results = {"imlg": [], "baseline": []}
    for seed in range(3):
        for name, flag in (("imlg", False), ("baseline", True)):
            cfg = TrainConfig(
                epochs=200, cluster_size=500, seed=seed, baseline_mode=flag
            )
            params, _log = train(merged, hp=HyperParams(), cfg=cfg)
            probs, _pred = infer(heldout, params)
            rep = report(probs, heldout.labels)
            results[name].append((rep.f1, rep.auc))
    elapsed = time.monotonic() - start
    imlg_f1 = float(np.median([r[0] for r in results["imlg"]]))
    base_f1 = float(np.median([r[0] for r in results["baseline"]]))
    imlg_auc = float(np.median([r[1] for r in results["imlg"]]))
    print(
        f"ACCEPTANCE 10: imlg f1 {imlg_f1:.4f} vs baseline f1 {base_f1:.4f} "
        f"(gap {imlg_f1 - base_f1:+.4f}), imlg auc {imlg_auc:.4f}, {elapsed/60:.1f} min"
    )
    assert imlg_f1 - base_f1 >= 0.05
    assert imlg_auc > 0.6
    assert elapsed < 20 * 60
    print("ACCEPTANCE 10 PASS: oversampled model beats the plain one held-out")


def test_c11_pipeline_determinism(tmp_path):
    def run(base):
        base.mkdir(parents=True, exist_ok=True)
        steps = [
            ["gen", "--instances", "300", "--seed", "5", "--out", str(base / "d")],
            ["build-graph", "--design", str(base / "d.design"),
             "--labels", str(base / "d.labels"), "--out", str(base / "d.graph")],
            ["train", "--graph", str(base / "d.graph"), "--epochs", "3",
             "--cluster-size", "150", "--hidden-dim", "16", "--seed", "5",
             "--out", str(base / "d.ckpt")],
            ["infer", "--ckpt", str(base / "d.ckpt"), "--graph", str(base / "d.graph"),
             "--design", str(base / "d.design"), "--out", str(base / "d.pred")],
            ["eval", "--pred", str(base / "d.pred"), "--labels", str(base / "d.labels"),
             "--out", str(base / "d.report"), "--roc-out", str(base / "d.roc")],
        ]
        for argv in steps:
            assert main(argv) == 0
        return {
            name: (base / name).read_bytes()
            for name in ("d.design", "d.labels", "d.graph", "d.ckpt",
                         "d.ckpt.log", "d.pred", "d.report", "d.roc")
        }

    first = run(tmp_path / "one")
    second = run(tmp_path / "two")
    assert first == second
    print("ACCEPTANCE 11 PASS: full pipeline byte-identical across runs")
