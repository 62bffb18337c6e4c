"""Sparse operators against the dense code they replaced.

The references below are the dense implementations the model used before
it moved to CSR batches: the row-normalized aggregation matrix, the
tuple-returning decoder, the four-op reconstruction loss, the SMOTE
combine matmul and inference through per-node neighbor means.
"""

import numpy as np
import pytest

from imlg import autodiff as ad
from imlg import model, sparse
from imlg.autodiff import Tensor
from imlg.graphs import CircuitGraph
from imlg.model import (
    HyperParams,
    apply_smote,
    classify,
    decode_adjacency,
    init_params,
    loss_rec,
    predicted_labels,
    smote_oversample,
)
from imlg.sparse import Adjacency, AugmentedAdjacency, MeanAggregation
from imlg.train import infer


def csr(a) -> Adjacency:
    """CSR adjacency of a dense symmetric 0/1 matrix."""
    i, j = np.nonzero(np.triu(np.asarray(a), 1))
    return Adjacency.from_edges(len(a), i, j)[0]


def dense(adj) -> np.ndarray:
    """Dense 0/1 matrix of an Adjacency or AugmentedAdjacency."""
    out = np.zeros(adj.shape)
    if isinstance(adj, AugmentedAdjacency):
        n = adj.real.n
        out[:n, :n] = dense(adj.real)
        out[n:] = adj.synthetic
        out[:, n:] = adj.synthetic.T
    else:
        out[adj.rows, adj.indices] = 1.0
    return out


# ---------------------------------------------------------------------------
# dense references


def ref_mean_aggregation_matrix(a):
    deg = a.sum(axis=1)
    scale = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return a * scale[:, None]


def ref_decode_adjacency(z_tilde, s, a_real, tau):
    n = a_real.shape[0]
    total = z_tilde.shape[0]
    logit_tau = np.log(tau / (1.0 - tau))
    binary = np.zeros((total, total), dtype=bool)
    if total > n:
        zs = z_tilde @ s
        binary[n:, :] = zs[n:] @ z_tilde.T > logit_tau
        binary[:, n:] = zs @ z_tilde[n:].T > logit_tau
    a_aug = np.maximum(binary, binary.T).astype(np.float64)
    a_aug[:n, :n] = a_real
    np.fill_diagonal(a_aug, 0.0)
    return a_aug, None


def ref_loss_rec(a, scores, eta):
    w = np.where(a != 0, eta, 1.0)
    np.fill_diagonal(w, 0.0)
    diff = ad.mul(ad.sub(ad.const(a), scores), ad.const(w))
    return ad.sum_all(ad.mul(diff, diff))


def ref_apply_smote(z, plan):
    n = z.data.shape[0]
    combine = np.zeros((n + plan.m, n))
    combine[:n, :n] = np.eye(n)
    for t, (a, b, delta) in enumerate(plan.parents):
        combine[n + t, a] += 1.0 - delta
        combine[n + t, b] += delta
    return ad.matmul(ad.const(combine), z)


def ref_infer(graph, params):
    def neighbor_mean(x):
        out = np.zeros_like(x)
        ptr = graph.adj.indptr
        for i in range(graph.n):
            nb = graph.adj.indices[ptr[i] : ptr[i + 1]]
            if len(nb):
                out[i] = x[nb].mean(axis=0)
        return out

    x = graph.features
    xn = neighbor_mean(x)
    z = np.maximum(np.concatenate([x, xn, xn - x], axis=1) @ params.get("Enc", "W1").data, 0.0)
    zn = neighbor_mean(z)
    hidden = np.maximum(
        np.concatenate([z, zn, zn - z], axis=1) @ params.get("Clf", "W_agg").data, 0.0
    )
    logits = hidden @ params.get("Clf", "W_head").data
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs[:, 1], predicted_labels(probs)


# ---------------------------------------------------------------------------
# fixtures


def random_adjacency(seed, n, p=0.15, isolated=(), hub=None):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < p).astype(np.float64)
    if hub is not None:
        a[hub] = 1.0
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    for i in isolated:
        a[i] = a[:, i] = 0.0
    return a


CASES = {
    "random": dict(n=40),
    "isolated": dict(n=40, isolated=(0, 7, 39)),
    "empty": dict(n=12, p=0.0),
    "hub": dict(n=60, hub=3, isolated=(10,)),
}


def assert_rel(new, ref, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(ref))) if np.size(ref) else 1.0)
    assert np.max(np.abs(new - ref), initial=0.0) <= tol * scale


# ---------------------------------------------------------------------------
# adjacency and mean aggregation


@pytest.mark.parametrize("case", sorted(CASES))
def test_from_edges_matches_dense_matrix(case):
    a = random_adjacency(1, **CASES[case])
    rng = np.random.default_rng(5)
    i, j = np.nonzero(np.triu(a, 1))
    shuffle = rng.permutation(len(i))
    i, j = i[shuffle], j[shuffle]
    flip = rng.random(len(i)) < 0.5  # either endpoint may come first
    i, j = np.where(flip, j, i), np.where(flip, i, j)
    adj, order = Adjacency.from_edges(len(a), i, j)
    assert np.array_equal(dense(adj), a)
    assert np.array_equal(adj.deg, a.sum(axis=1))
    for r in range(adj.n):
        assert (np.diff(adj.indices[adj.indptr[r] : adj.indptr[r + 1]]) > 0).all()
    # per-edge data follows the entries: each entry carries its own edge's id
    edge_of = np.repeat(np.arange(len(i)), 2)[order]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    assert np.array_equal(lo[edge_of], np.minimum(adj.rows, adj.indices))
    assert np.array_equal(hi[edge_of], np.maximum(adj.rows, adj.indices))


@pytest.mark.parametrize(
    "edges,first_repeat",
    [
        ([(0, 1), (0, 1)], 1),
        ([(0, 1), (1, 2), (2, 3), (1, 2), (0, 1)], 3),
        ([(2, 3), (0, 1), (1, 0), (3, 2)], 2),  # the same pair either way round
        ([(0, 4), (0, 1), (0, 2), (0, 3), (0, 2), (0, 4)], 4),  # a hub
    ],
)
def test_from_edges_reports_first_repeated_edge(edges, first_repeat):
    i, j = np.array(edges).T
    with pytest.raises(sparse.RepeatedEdge) as err:
        Adjacency.from_edges(5, i, j)
    assert err.value.at == first_repeat


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("chunk", [3, 8, sparse.GATHER_ROWS])
def test_mean_aggregation_matches_dense_matrix(case, chunk, monkeypatch):
    # chunk 3 and 8 make the hub's row (and most rows) span several gathers
    monkeypatch.setattr(sparse, "GATHER_ROWS", chunk)
    a = random_adjacency(1, **CASES[case])
    rng = np.random.default_rng(2)
    x = rng.normal(size=(len(a), 5))
    g = rng.normal(size=(len(a), 5))
    op = MeanAggregation(csr(a))
    ref = ref_mean_aggregation_matrix(a)
    assert_rel(op.apply(x), ref @ x)
    assert_rel(op.apply_t(g), ref.T @ g)


def test_hub_row_beyond_the_gather_chunk():
    leaves = sparse.GATHER_ROWS + 100
    adj, _order = Adjacency.from_edges(leaves + 1, np.zeros(leaves), np.arange(1, leaves + 1))
    assert adj.deg[0] > sparse.GATHER_ROWS
    x = np.random.default_rng(3).normal(size=(leaves + 1, 4))
    out = MeanAggregation(adj).apply(x)
    assert_rel(out[0], x[1:].mean(axis=0))
    assert np.array_equal(out[1:], np.repeat(x[:1], leaves, axis=0))


def test_subgraph_matches_dense_induced_subgraph():
    a = random_adjacency(4, 50, isolated=(5,))
    nodes = np.array([0, 3, 5, 8, 9, 20, 33, 49])
    sub = csr(a).subgraph(nodes)
    assert np.array_equal(dense(sub), a[np.ix_(nodes, nodes)])
    assert np.array_equal(dense(csr(a).subgraph(np.arange(50))), a)


# ---------------------------------------------------------------------------
# decoder and classifier over the augmented graph


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("m", [0, 1, 25])
@pytest.mark.parametrize("tau", [0.3, 0.5, 0.8])
def test_decode_synthetic_block_matches_dense_reference(case, m, tau):
    a = random_adjacency(5, **CASES[case])
    rng = np.random.default_rng([m, int(tau * 10)])
    z_aug = rng.normal(size=(len(a) + m, 6))
    s = rng.normal(size=(6, 6))
    aug = decode_adjacency(z_aug, s, csr(a), tau)
    ref, _ = ref_decode_adjacency(z_aug, s, a, tau)
    assert aug.synthetic.shape == (m, len(a) + m)
    assert aug.synthetic.dtype == bool
    assert np.array_equal(dense(aug), ref)
    assert np.array_equal(aug[len(a):], ref[len(a):])
    op, ref_op = MeanAggregation(aug), ref_mean_aggregation_matrix(ref)
    x = rng.normal(size=(len(a) + m, 4))
    assert_rel(op.apply(x), ref_op @ x)
    assert_rel(op.apply_t(x), ref_op.T @ x)


def test_classify_on_augmented_graph_matches_dense_aggregation():
    a = random_adjacency(6, 30, isolated=(2,))
    rng = np.random.default_rng(6)
    z_aug = rng.normal(size=(42, 8))
    aug = decode_adjacency(z_aug, rng.normal(size=(8, 8)), csr(a), 0.5)
    w_agg, w_head = rng.normal(size=(24, 8)), rng.normal(size=(8, 2))
    _logp, probs = classify(aug, Tensor(z_aug), ad.const(w_agg), ad.const(w_head))
    zn = ref_mean_aggregation_matrix(dense(aug)) @ z_aug
    hidden = np.maximum(np.concatenate([z_aug, zn, zn - z_aug], axis=1) @ w_agg, 0.0)
    logits = hidden @ w_head
    ref = np.exp(logits - logits.max(axis=1, keepdims=True))
    ref /= ref.sum(axis=1, keepdims=True)
    assert_rel(probs, ref)


@pytest.mark.parametrize("total,bounds", [
    (0, [(0, 0)]), (3, [(0, 3)]), (4, [(0, 4)]), (7, [(0, 7)]),
    (8, [(0, 4), (4, 8)]), (11, [(0, 4), (4, 11)]), (13, [(0, 4), (4, 8), (8, 13)]),
])
def test_row_blocks_fold_a_short_last_block_into_the_one_before(total, bounds, monkeypatch):
    monkeypatch.setattr(ad, "ROW_BLOCK", 4)
    assert ad.row_blocks(total) == bounds


@pytest.mark.parametrize("block", [1, 4])
def test_row_blocked_work_matches_whole_array_references(block, monkeypatch):
    # with blocks this small, every blocked loop below runs several times
    monkeypatch.setattr(ad, "ROW_BLOCK", block)
    a = random_adjacency(9, 30, isolated=(4,))
    rng = np.random.default_rng(9)
    z_aug = rng.normal(size=(43, 6))
    s = rng.normal(size=(6, 6))
    aug = decode_adjacency(z_aug, s, csr(a), 0.4)
    ref, _ = ref_decode_adjacency(z_aug, s, a, 0.4)
    assert np.array_equal(dense(aug), ref)
    assert np.array_equal(aug.deg, ref.sum(axis=1))
    op, ref_op = MeanAggregation(aug), ref_mean_aggregation_matrix(ref)
    x = rng.normal(size=(43, 5))
    assert_rel(op.apply(x), ref_op @ x)
    assert_rel(op.apply_t(x), ref_op.T @ x)

    for shape in [(11, 7), (9,), ()]:
        logits = rng.normal(size=shape) * 40.0
        e = np.exp(-np.abs(logits))
        assert np.array_equal(ad.stable_sigmoid(logits), np.where(logits >= 0, 1.0, e) / (1.0 + e))

    zm = rng.normal(size=(11, 6))
    d2 = np.sum((zm[:, None, :] - zm[None, :, :]) ** 2, axis=2)
    assert np.array_equal(model._squared_distances(zm), d2)


def test_augmented_rows_other_than_synthetic_are_not_stored():
    aug = decode_adjacency(np.ones((3, 2)), np.eye(2), csr(np.zeros((2, 2))), 0.5)
    with pytest.raises(IndexError):
        aug[:2]


# ---------------------------------------------------------------------------
# losses and SMOTE


@pytest.mark.parametrize("case", sorted(CASES))
def test_loss_rec_matches_four_op_reference(case):
    a = random_adjacency(7, **CASES[case])
    rng = np.random.default_rng(7)
    raw = ad.stable_sigmoid(rng.normal(size=a.shape) * 3.0)
    for eta in (1.5, 10.0):
        new_s, ref_s = Tensor(raw.copy()), Tensor(raw.copy())
        new, ref = loss_rec(csr(a), new_s, eta), ref_loss_rec(a, ref_s, eta)
        assert_rel(float(new.data), float(ref.data))
        ad.scale(new, 0.7).backward()
        ad.scale(ref, 0.7).backward()
        assert_rel(new_s.grad, ref_s.grad)


@pytest.mark.parametrize("minority", [2, 5, 15])
def test_apply_smote_matches_combine_matmul(minority):
    rng = np.random.default_rng(minority)
    z = rng.normal(size=(40, 6))
    y = np.zeros(40, dtype=np.int64)
    y[rng.choice(40, size=minority, replace=False)] = 1
    plan = smote_oversample(z, y, k=3, rng=np.random.default_rng(1))
    assert plan.m == 40 - 2 * minority
    upstream = rng.normal(size=(40 + plan.m, 6))
    new_z, ref_z = Tensor(z.copy()), Tensor(z.copy())
    new, ref = apply_smote(new_z, plan), ref_apply_smote(ref_z, plan)
    assert np.array_equal(new.data[:40], z)
    assert_rel(new.data, ref.data)
    for out in (new, ref):
        ad.sum_all(ad.mul(out, ad.const(upstream))).backward()
    assert_rel(new_z.grad, ref_z.grad)


def test_apply_smote_without_synthetic_rows_is_identity():
    z = Tensor(np.ones((4, 2)))
    plan = smote_oversample(z.data, np.array([0, 0, 1, 1]), k=1, rng=np.random.default_rng(0))
    assert plan.m == 0
    assert apply_smote(z, plan) is z


# ---------------------------------------------------------------------------
# inference


def graph_of(a, d=9, seed=0):
    rng = np.random.default_rng(seed)
    names = [f"n{i:03d}" for i in range(len(a))]
    i, j = np.nonzero(np.triu(a, 1))
    return CircuitGraph.from_edges(names, i, j, np.full(len(i), 2),
                                   features=rng.normal(size=(len(a), d)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_infer_matches_neighbor_mean_reference(case):
    graph = graph_of(random_adjacency(8, **CASES[case]))
    params = init_params(9, HyperParams(hidden_dim=12), seed=8)
    probs, labels = infer(graph, params)
    ref_probs, ref_labels = ref_infer(graph, params)
    assert_rel(probs, ref_probs)
    assert np.array_equal(labels, ref_labels)
