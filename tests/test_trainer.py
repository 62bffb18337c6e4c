import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from imlg.graphs import CircuitGraph, build_graph
from imlg.model import HyperParams, init_params
from imlg.synth import GenConfig, generate_labeled
from imlg.train import (
    CheckpointError,
    PredictionError,
    TrainConfig,
    infer,
    load_checkpoint,
    read_predictions,
    save_checkpoint,
    train,
    write_predictions,
)

from test_sparse import dense


def toy_graph(seed=0, n=12, d=10, minority=4, label_signal=True):
    """Small connected graph whose first two feature columns encode the
    label, so a few epochs of training have something to latch onto."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(n // 2):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if i != j and (i, j) not in edges:
            edges.append((int(i), int(j)))
    edges = sorted(set(edges))
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=minority, replace=False)] = 1
    x = rng.normal(size=(n, d)) * 0.1
    if label_signal:
        x[:, 0] = 1.0 - y
        x[:, 1] = y
    i, j = np.array(edges, dtype=np.int64).T
    names = [f"n{i:02d}" for i in range(n)]
    return CircuitGraph.from_edges(names, i, j, np.full(len(i), 2), features=x, labels=y)


def small_hp():
    return HyperParams(hidden_dim=8)


def test_training_log_is_bit_identical_across_runs():
    cfg = TrainConfig(epochs=5, cluster_size=6, seed=3)
    logs = []
    for _run in range(2):
        _params, log = train(toy_graph(1), hp=small_hp(), cfg=cfg)
        logs.append(log.to_csv())
    assert logs[0] == logs[1]
    assert logs[0].count("\n") == 1 + 5 * 2  # header + epochs * clusters


def test_objective_decreases_over_epochs():
    firsts, lasts = [], []
    for seed in range(5):
        cfg = TrainConfig(epochs=5, cluster_size=12, seed=seed, lr=5e-3)
        _params, log = train(toy_graph(seed), hp=small_hp(), cfg=cfg)
        per_epoch = {}
        for epoch, _c, _lc, _lr_, obj in log.rows:
            per_epoch.setdefault(epoch, []).append(obj)
        firsts.append(np.mean(per_epoch[1]))
        lasts.append(np.mean(per_epoch[5]))
    assert np.median(lasts) < np.median(firsts)


def test_baseline_mode_never_touches_decoder():
    cfg = TrainConfig(epochs=4, cluster_size=6, seed=0, baseline_mode=True)
    graph = toy_graph(2)
    params, log = train(graph, hp=small_hp(), cfg=cfg)
    assert all(row[3] == 0.0 for row in log.rows)  # l_rec column
    assert np.array_equal(params.get("Dec", "S").data, np.eye(8))


def test_single_class_labels_rejected():
    graph = toy_graph(0)
    graph.labels = np.zeros(graph.n, dtype=np.int64)
    with pytest.raises(ValueError, match="both classes"):
        train(graph, hp=small_hp(), cfg=TrainConfig(epochs=1, cluster_size=6))


def test_exploding_run_aborts_with_batch_id():
    cfg = TrainConfig(epochs=3, cluster_size=6, seed=0, lr=1e160, weight_decay=0.0)
    with pytest.raises(RuntimeError, match="non-finite loss at epoch"):
        train(toy_graph(0), hp=small_hp(), cfg=cfg)


def test_batch_adjacency_is_induced_subgraph():
    graph = toy_graph(4, n=10)
    nodes = np.array([2, 3, 4, 7])
    a = dense(graph.adj.subgraph(nodes))
    assert a.shape == (4, 4)
    ptr = graph.adj.indptr
    for li, gi in enumerate(nodes):
        for lj, gj in enumerate(nodes):
            expected = 1.0 if gj in graph.adj.indices[ptr[gi] : ptr[gi + 1]] else 0.0
            assert a[li, lj] == expected
    assert np.array_equal(a, a.T)


def test_smote_skip_is_flagged_not_fatal():
    graph = toy_graph(5, minority=1)
    cfg = TrainConfig(epochs=2, cluster_size=12, seed=0)
    _params, log = train(graph, hp=small_hp(), cfg=cfg)
    assert log.smote_skipped == 2  # one skip per epoch


def test_infer_shape_range_and_determinism():
    graph = toy_graph(6)
    params, _log = train(graph, hp=small_hp(), cfg=TrainConfig(epochs=3, cluster_size=6, seed=1))
    p1, l1 = infer(graph, params)
    p2, l2 = infer(graph, params)
    assert p1.shape == (graph.n,)
    assert np.all((p1 >= 0) & (p1 <= 1))
    assert np.array_equal(p1, p2) and np.array_equal(l1, l2)
    assert set(np.unique(l1)) <= {0, 1}


def test_infer_feature_dim_mismatch():
    graph = toy_graph(7, d=10)
    params = init_params(12, small_hp(), seed=0)
    with pytest.raises(ValueError, match="feature dimension mismatch"):
        infer(graph, params)


def test_checkpoint_roundtrip_is_exact():
    hp = HyperParams(hidden_dim=8, lam=0.75, eta=3.5, smote_k=4, edge_threshold=0.41)
    graph = toy_graph(8)
    params, _log = train(graph, hp=hp, cfg=TrainConfig(epochs=2, cluster_size=6, seed=2))
    text = save_checkpoint(params, hp)
    params2, hp2 = load_checkpoint(text)
    assert hp2 == hp
    for key, tensor in params.items():
        assert np.array_equal(tensor.data, params2.get(*key).data)
    p1, _ = infer(graph, params)
    p2, _ = infer(graph, params2)
    assert np.array_equal(p1, p2)  # 0 ulps after reload
    assert save_checkpoint(params2, hp2) == text


def test_checkpoint_retired_soft_synthetic_edges_key():
    hp = HyperParams(hidden_dim=8)
    text = save_checkpoint(init_params(10, hp, seed=0), hp)
    assert "soft_synthetic_edges" not in text
    header, rest = text.split("\n", 1)
    old = f"{header}\nHP soft_synthetic_edges 0\n{rest}"
    assert load_checkpoint(old)[1] == hp
    with pytest.raises(CheckpointError, match="soft_synthetic_edges 1"):
        load_checkpoint(old.replace("soft_synthetic_edges 0", "soft_synthetic_edges 1"))


def test_checkpoint_errors():
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint("NOPE v9\n")
    hp = HyperParams(hidden_dim=8)
    params = init_params(10, hp, seed=0)
    text = save_checkpoint(params, hp)
    truncated = "\n".join(text.splitlines()[:10]) + "\n"
    with pytest.raises(CheckpointError, match="truncated|missing"):
        load_checkpoint(truncated)
    with pytest.raises(CheckpointError, match="unknown directive"):
        load_checkpoint("IMLG-CKPT v1\nWAT 1\n")


def _corrupt_checkpoint(prefix, offset, value):
    """A valid checkpoint in which the line `offset` lines after the first
    one starting with `prefix` ends in `value`; returns (text, its line number)."""
    hp = HyperParams(hidden_dim=8)
    lines = save_checkpoint(init_params(10, hp, seed=0), hp).splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith(prefix)) + offset
    lines[at] = " ".join(lines[at].split()[:-1] + [value])
    return "\n".join(lines) + "\n", at + 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_weight(value):
    text, line = _corrupt_checkpoint("PARAM Clf W_agg", 2, value)
    with pytest.raises(CheckpointError, match=f"^line {line}: non-finite value in Clf.W_agg row 1"):
        load_checkpoint(text)


def test_checkpoint_rejects_non_numeric_weight():
    text, line = _corrupt_checkpoint("PARAM Clf W_agg", 2, "abc")
    with pytest.raises(CheckpointError, match=f"^line {line}: Clf.W_agg row 1: .*'abc'"):
        load_checkpoint(text)


def _with_line_after_header(line):
    """A valid checkpoint with `line` inserted as its line 2."""
    hp = HyperParams(hidden_dim=8)
    header, rest = save_checkpoint(init_params(10, hp, seed=0), hp).split("\n", 1)
    return f"{header}\n{line}\n{rest}", hp


def test_checkpoint_rejects_flag_other_than_0_or_1():
    text, _hp = _with_line_after_header("HP oversample_to_balance 7")
    with pytest.raises(CheckpointError, match="^line 2: oversample_to_balance expects 0 or 1"):
        load_checkpoint(text)


def test_checkpoint_retired_oversample_to_balance_key():
    text, hp = _with_line_after_header("HP oversample_to_balance 1")
    assert load_checkpoint(text)[1] == hp
    with pytest.raises(CheckpointError, match="^line 2: oversample_to_balance 0 is no longer supported"):
        load_checkpoint(text.replace("oversample_to_balance 1", "oversample_to_balance 0"))


def test_checkpoint_rejects_repeated_hp_line():
    text, _hp = _with_line_after_header("HP lam 0.25")
    repeat = text.splitlines().index("HP lam 1") + 1
    with pytest.raises(CheckpointError, match=f"^line {repeat}: repeated HP lam \\(first at line 2\\)$"):
        load_checkpoint(text)


def test_checkpoint_rejects_repeated_param_block():
    hp = HyperParams(hidden_dim=8)
    lines = save_checkpoint(init_params(10, hp, seed=0), hp).splitlines()
    first = lines.index("PARAM Dec S 8 8")
    text = "\n".join(lines + lines[first : first + 9]) + "\n"
    with pytest.raises(
        CheckpointError,
        match=f"^line {len(lines) + 1}: repeated PARAM Dec.S \\(first at line {first + 1}\\)$",
    ):
        load_checkpoint(text)


@pytest.mark.parametrize(
    "prefix,value,message",
    [
        ("HP lam", "-1", "lam must be >= 0, got -1.0"),
        ("HP lam", "nan", "lam must be >= 0, got nan"),
        ("HP eta", "1", "eta must be > 1"),
        ("HP edge_threshold", "1.5", "edge_threshold must be in"),
        ("HP hidden_dim", "0", "hidden_dim must be >= 1"),
    ],
)
def test_checkpoint_names_line_of_rejected_hyperparameter(prefix, value, message):
    text, line = _corrupt_checkpoint(prefix, 0, value)
    with pytest.raises(CheckpointError, match=f"^line {line}: {message}"):
        load_checkpoint(text)


def test_checkpoint_missing_hyperparameter_rejected():
    hp = HyperParams(hidden_dim=8)
    text = save_checkpoint(init_params(10, hp, seed=0), hp).replace("HP eta 10\n", "")
    last = len(text.splitlines())
    with pytest.raises(CheckpointError, match=f"^line {last}: missing hyperparameter eta"):
        load_checkpoint(text)


def test_checkpoint_roundtrips_every_hyperparam_field():
    changed = dict(hidden_dim=5, lam=0.25, eta=1.5, smote_k=2, edge_threshold=0.3)
    assert set(changed) == {f.name for f in fields(HyperParams)}
    hp = HyperParams(**changed)
    assert all(getattr(hp, f.name) != f.default for f in fields(HyperParams))
    _params, hp2 = load_checkpoint(save_checkpoint(init_params(4, hp, seed=0), hp))
    assert hp2 == hp


def test_checkpoint_from_earlier_version_loads_and_predicts_identically():
    # written by the version before HyperParams.oversample_to_balance was
    # retired: toy_graph(8) trained as in test_checkpoint_roundtrip_is_exact
    data = Path(__file__).parent / "data"
    text = (data / "parent_toy8.ckpt").read_text()
    assert "HP oversample_to_balance 1\n" in text
    params, hp = load_checkpoint(text)
    assert hp == HyperParams(hidden_dim=8, lam=0.75, eta=3.5, smote_k=4, edge_threshold=0.41)
    assert save_checkpoint(params, hp) == text.replace("HP oversample_to_balance 1\n", "")
    graph = toy_graph(8)
    probs, labels = infer(graph, params)
    assert write_predictions(graph.names, probs, labels) == (data / "parent_toy8.pred").read_text()


def test_predictions_roundtrip():
    names = ["a", "b", "c"]
    probs = np.array([0.25, 1.0 / 3.0, 0.875])
    labels = np.array([0, 0, 1])
    text = write_predictions(names, probs, labels)
    n2, p2, l2 = read_predictions(text)
    assert n2 == names
    assert np.array_equal(p2, probs)
    assert np.array_equal(l2, labels)


@pytest.mark.parametrize(
    "text,message",
    [
        ("a,0.5,1\nb,1.7,1\n", "line 2: probability 1.7 for b not in"),
        ("a,-2,0\n", "line 1: probability -2.0 for a not in"),
        ("a,nan,0\n", "line 1: probability nan"),
        ("a,inf,0\n", "line 1: probability inf"),
        ("a,0.5,2\n", "line 1: label 2 for a not in"),
        ("a,0.5,1\n\nb,0.2,0\na,0.3,0\n", "line 4: duplicate prediction for a"),
        ("a,x,1\n", "line 1: non-numeric field"),
        ("a,0.5,yes\n", "line 1: non-numeric field"),
        ("a,0.5\n", "line 1: expected 'name,probability,label'"),
    ],
)
def test_read_predictions_rejects_bad_rows(text, message):
    with pytest.raises(PredictionError, match=message):
        read_predictions(text)


def test_clusters_cover_all_nodes():
    from imlg.partition import partition_graph

    graph = toy_graph(9, n=30)
    part = partition_graph(graph, target_size=10, seed=0)
    covered = np.concatenate(
        [np.flatnonzero(part.assignment == c) for c in range(part.k)]
    )
    assert sorted(covered.tolist()) == list(range(30))


def test_clusters_per_batch_merges_groups():
    graph = toy_graph(10, n=24)
    cfg = TrainConfig(epochs=2, cluster_size=6, clusters_per_batch=2, seed=0)
    _params, log = train(graph, hp=small_hp(), cfg=cfg)
    # 4 clusters grouped in pairs -> 2 steps per epoch
    assert len(log.rows) == 4


def test_single_cluster_training_memory_stays_bounded():
    # one 1200-node batch: the dense batch path peaked at about 405 MiB here
    design, labels = generate_labeled(GenConfig(n_instances=1200, seed=5))
    graph = build_graph(design, labels)
    cfg = TrainConfig(epochs=2, cluster_size=graph.n, seed=0)
    tracemalloc.start()
    try:
        train(graph, hp=HyperParams(hidden_dim=16), cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20, peak / 2**20
