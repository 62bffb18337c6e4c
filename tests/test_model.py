import tracemalloc

import numpy as np
import pytest

from imlg import autodiff as ad
from imlg.autodiff import Tensor, finite_difference
from imlg.graphs import build_graph
from imlg.model import (
    FrozenChoices,
    HyperParams,
    apply_smote,
    classify,
    decode_adjacency,
    decode_scores,
    encode,
    forward,
    init_params,
    loss_clf,
    loss_rec,
    predicted_labels,
    smote_oversample,
    total_objective,
)
from imlg.sparse import MeanAggregation
from imlg.synth import GenConfig, generate_labeled

from test_sparse import csr, dense


def random_batch(seed, n=20, d=14, minority=5, edge_p=0.2):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < edge_p).astype(np.float64)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    x = rng.normal(size=(n, d))
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=minority, replace=False)] = 1
    return a, x, y


class FixedRng:
    """Deterministic stand-in: integers() -> 0, random() -> fixed delta."""

    def __init__(self, delta=0.5):
        self.delta = delta

    def integers(self, *_args, **_kw):
        return 0

    def random(self):
        return self.delta


# ---------------------------------------------------------------------------
# encoder


def test_encode_identity_weights_fixture():
    # node 0 has neighbors 1 and 2: mean = [2, 1], diff = [1, 0]
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    x = np.array([[1.0, 1.0], [1.0, 0.0], [3.0, 2.0]])
    z = encode(csr(a), x, ad.const(np.eye(6)), activation=lambda t: t)
    assert np.allclose(z.data[0], [1, 1, 2, 1, 1, 0])


def test_encode_isolated_node_zero_neighbor_convention():
    a = np.zeros((1, 1))
    x = np.array([[2.0, -3.0]])
    z = encode(csr(a), x, ad.const(np.eye(6)), activation=lambda t: t)
    assert np.allclose(z.data[0], [2, -3, 0, 0, -2, 3])


def _encode_naive(a, x, w1):
    n, d = x.shape
    out = np.zeros((n, w1.shape[1]))
    for v in range(n):
        nb = np.flatnonzero(a[v])
        xn = x[nb].mean(axis=0) if len(nb) else np.zeros(d)
        row = np.concatenate([x[v], xn, xn - x[v]])
        out[v] = np.maximum(row @ w1, 0.0)
    return out


def test_encode_matches_naive_loop():
    rng = np.random.default_rng(5)
    a, x, _y = random_batch(5)
    w1 = rng.normal(size=(3 * x.shape[1], 8))
    z = encode(csr(a), x, ad.const(w1))
    assert np.max(np.abs(z.data - _encode_naive(a, x, w1))) <= 1e-12


# ---------------------------------------------------------------------------
# smote


def test_smote_midpoint_fixture():
    # minority rows [0,0] and [2,2], majority count 4, k=1, delta = 0.5
    z = np.array([[0.0, 0.0], [2.0, 2.0], [9, 9], [8, 8], [7, 7], [6, 6]])
    y = np.array([1, 1, 0, 0, 0, 0])
    plan = smote_oversample(z, y, k=1, rng=FixedRng(0.5))
    assert plan.m == 2 and not plan.skipped
    z_aug = apply_smote(Tensor(z), plan)
    assert np.allclose(z_aug.data[6:], [[1.0, 1.0], [1.0, 1.0]])


def test_smote_balanced_batch_is_noop():
    z = np.zeros((4, 2))
    y = np.array([0, 0, 1, 1])
    plan = smote_oversample(z, y, k=2, rng=FixedRng())
    assert plan.m == 0 and not plan.skipped


def test_smote_single_minority_skips_and_flags():
    z = np.zeros((4, 2))
    y = np.array([0, 0, 0, 1])
    plan = smote_oversample(z, y, k=2, rng=FixedRng())
    assert plan.m == 0 and plan.skipped


def test_smote_balances_and_reconstructs_from_parents():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(100, 8))
    y = np.zeros(100, dtype=np.int64)
    y[rng.choice(100, size=10, replace=False)] = 1
    plan = smote_oversample(z, y, k=5, rng=np.random.default_rng(1))
    assert plan.m == 80
    y_aug = np.concatenate([y, np.ones(plan.m, dtype=np.int64)])
    assert abs(int((y_aug == 0).sum()) - int((y_aug == 1).sum())) <= 1
    z_aug = apply_smote(Tensor(z), plan).data
    for t, (a, b, delta) in enumerate(plan.parents):
        assert y[a] == 1 and y[b] == 1 and 0.0 <= delta <= 1.0
        expected = (1 - delta) * z[a] + delta * z[b]
        assert np.max(np.abs(z_aug[100 + t] - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# decoder


def test_decode_orthogonal_embeddings_no_edge_at_half():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])  # row 1 is synthetic
    a_aug = dense(decode_adjacency(z, np.eye(2), csr(np.zeros((1, 1))), tau=0.5))
    assert decode_scores(Tensor(z), Tensor(np.eye(2))).data[0, 1] == 0.5
    assert a_aug[0, 1] == 0.0  # strict > tau


def test_decode_aligned_embeddings_edge():
    z = np.array([[1.0, 1.0], [1.0, 1.0]])
    a_aug = dense(decode_adjacency(z, np.eye(2), csr(np.zeros((1, 1))), tau=0.5))
    assert abs(decode_scores(Tensor(z), Tensor(np.eye(2))).data[0, 1] - 0.8808) < 1e-4
    assert a_aug[0, 1] == 1.0 and a_aug[1, 0] == 1.0
    assert a_aug[0, 0] == 0.0 and a_aug[1, 1] == 0.0


def test_decode_preserves_real_block_bit_for_bit():
    rng = np.random.default_rng(3)
    a, _x, _y = random_batch(3, n=12)
    z_aug = rng.normal(size=(18, 6))
    s = rng.normal(size=(6, 6))
    a_aug = dense(decode_adjacency(z_aug, s, csr(a), tau=0.5))
    assert np.array_equal(a_aug[:12, :12], a)
    assert np.array_equal(a_aug, a_aug.T)
    assert np.all(np.diag(a_aug) == 0)


# ---------------------------------------------------------------------------
# classifier


def test_classifier_zero_weights_uniform_and_tie_to_class0():
    z = Tensor(np.array([[1.0, 2.0]]))
    logp, probs = classify(csr(np.zeros((1, 1))), z, ad.const(np.zeros((6, 4))), ad.const(np.zeros((4, 2))))
    assert np.allclose(probs, [[0.5, 0.5]])
    assert predicted_labels(probs).tolist() == [0]


def test_classifier_rows_sum_to_one():
    rng = np.random.default_rng(9)
    a, _x, _y = random_batch(9, n=30, d=4)
    z = Tensor(rng.normal(size=(30, 8)))
    _logp, probs = classify(csr(a[:30, :30]), z, ad.const(rng.normal(size=(24, 8))), ad.const(rng.normal(size=(8, 2))))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9


def _classify_naive(a, z, w_agg, w_head):
    n, h = z.shape
    out = np.zeros((n, 2))
    for v in range(n):
        nb = np.flatnonzero(a[v])
        zn = z[nb].mean(axis=0) if len(nb) else np.zeros(h)
        hid = np.maximum(np.concatenate([z[v], zn, zn - z[v]]) @ w_agg, 0.0)
        logits = hid @ w_head
        e = np.exp(logits - logits.max())
        out[v] = e / e.sum()
    return out


def test_classifier_matches_naive_loop():
    rng = np.random.default_rng(13)
    a, _x, _y = random_batch(13)
    z = rng.normal(size=(20, 8))
    w_agg = rng.normal(size=(24, 8))
    w_head = rng.normal(size=(8, 2))
    _logp, probs = classify(csr(a), Tensor(z), ad.const(w_agg), ad.const(w_head))
    assert np.max(np.abs(probs - _classify_naive(a, z, w_agg, w_head))) <= 1e-12


# ---------------------------------------------------------------------------
# losses


def test_loss_rec_zero_when_exact():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert float(loss_rec(csr(a), ad.const(a), eta=10.0).data) == 0.0


def test_loss_rec_worked_fixture_exact():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    scores = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert float(loss_rec(csr(a), ad.const(scores), eta=2.0).data) == 2.0


def test_loss_rec_eta_increases_cost_iff_edges_mispredicted():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    missed = np.array([[0.0, 0.4], [0.4, 0.0]])
    assert float(loss_rec(csr(a), ad.const(missed), 10.0).data) > float(
        loss_rec(csr(a), ad.const(missed), 1.0).data
    )
    perfect_edges = np.array([[0.3, 1.0], [1.0, 0.3]])  # only diagonal off, excluded
    assert float(loss_rec(csr(a), ad.const(perfect_edges), 10.0).data) == pytest.approx(
        float(loss_rec(csr(a), ad.const(perfect_edges), 1.0).data)
    )


def test_loss_clf_fixtures():
    logits = ad.const(np.log(np.array([[0.2, 0.8]])))
    logp = ad.log_softmax_rows(logits)
    assert float(loss_clf(logp, np.array([1])).data) == pytest.approx(0.22314, abs=1e-5)
    # numerically exact zero for a saturated correct prediction
    sat = ad.log_softmax_rows(ad.const(np.array([[-1000.0, 0.0]])))
    assert float(loss_clf(sat, np.array([1])).data) == 0.0
    uniform = ad.log_softmax_rows(ad.const(np.zeros((3, 2))))
    assert float(loss_clf(uniform, np.array([0, 1, 0])).data) == pytest.approx(np.log(2))


def test_total_objective_weighting():
    l_clf = ad.const(np.array(0.5))
    l_rec = ad.const(np.array(2.0))
    assert float(total_objective(l_clf, l_rec, 0.0).data) == 0.5
    assert float(total_objective(l_clf, l_rec, 1.0).data) == 2.5


# ---------------------------------------------------------------------------
# routing and end-to-end gradients


def _forward_with(seed, hp=None, **kw):
    a, x, y = random_batch(seed)
    hp = hp or HyperParams(hidden_dim=8)
    params = init_params(x.shape[1], hp, seed=seed)
    rng = np.random.default_rng([seed, 77])
    return a, x, y, params, hp, forward(csr(a), x, y, params, hp, rng=rng, **kw)


def test_gradient_routing_is_structural():
    _a, _x, _y, params, hp, res = _forward_with(0)
    # reconstruction loss only: no classifier gradients, decoder nonzero
    params.zero_grads()
    ad.scale(res.rec_loss, hp.lam).backward()
    grads = params.grads()
    assert ("Clf", "W_agg") not in grads and ("Clf", "W_head") not in grads
    assert np.any(grads[("Dec", "S")] != 0.0)
    assert np.any(grads[("Enc", "W1")] != 0.0)
    # classification loss only: no decoder gradients, classifier nonzero
    params.zero_grads()
    res.clf_loss.backward()
    grads = params.grads()
    assert ("Dec", "S") not in grads
    assert np.any(grads[("Clf", "W_agg")] != 0.0)
    assert np.any(grads[("Enc", "W1")] != 0.0)


def test_decoder_gradient_is_lambda_times_rec_gradient():
    lam = 0.37
    _a, _x, _y, params, hp, res = _forward_with(2, hp=HyperParams(hidden_dim=8, lam=lam))
    params.zero_grads()
    res.rec_loss.backward()
    g_rec = params.get("Dec", "S").grad.copy()
    params.zero_grads()
    res.objective.backward()
    g_obj = params.get("Dec", "S").grad
    assert np.max(np.abs(g_obj - lam * g_rec)) <= 1e-12


def test_full_objective_matches_finite_differences():
    a, x, y, params, hp, res = _forward_with(1)
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
        assert rel <= 1e-4, (key, rel)


def test_backward_twice_gives_identical_gradients():
    # the sigmoid backward overwrites the gradient it is handed; a second
    # pass over the same graph must start from the same values
    _a, _x, _y, params, _hp, res = _forward_with(3)
    params.zero_grads()
    res.objective.backward()
    first = {key: g.copy() for key, g in params.grads().items()}
    params.zero_grads()
    res.objective.backward()
    second = params.grads()
    assert first.keys() == second.keys() == set(params.keys())
    for key in first:
        assert np.array_equal(first[key], second[key]), key


def test_one_batch_step_holds_two_n_by_n_arrays():
    # the whole 1250-node graph as one batch: scores and their gradient are
    # the step's only n x n arrays, plus one block of rows at a time
    graph = build_graph(*generate_labeled(GenConfig(1250, seed=103)))
    hp = HyperParams()
    params = init_params(graph.features.shape[1], hp, seed=0)
    nxn = 8 * graph.n * graph.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = forward(graph.adj, graph.features, graph.labels, params, hp,
                      rng=np.random.default_rng([0, 2]))
        res.objective.backward()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.plan.m > 0
    # what the graph keeps after backward: the scores plus O((n+m) hidden)
    other = live - base - nxn
    assert peak - base < other + 2.5 * nxn, (peak - base - other) / nxn


def test_forward_is_finite_and_preserves_real_block():
    a, _x, _y, _params, _hp, res = _forward_with(4)
    assert np.isfinite(float(res.objective.data))
    assert np.array_equal(dense(res.a_aug)[:20, :20], a)
    assert abs(int((res.y_aug == 0).sum()) - int((res.y_aug == 1).sum())) <= 1


def test_baseline_mode_has_no_decoder_path():
    a, x, y = random_batch(6)
    hp = HyperParams(hidden_dim=8)
    params = init_params(x.shape[1], hp, seed=6)
    res = forward(csr(a), x, y, params, hp, baseline=True)
    assert res.rec_loss is None and res.l_rec == 0.0
    params.zero_grads()
    res.objective.backward()
    assert ("Dec", "S") not in params.grads()


def test_init_decoder_is_identity():
    params = init_params(10, HyperParams(hidden_dim=8), seed=0)
    assert np.array_equal(params.get("Dec", "S").data, np.eye(8))
    assert params.get("Enc", "W1").data.shape == (30, 8)
    assert params.get("Clf", "W_agg").data.shape == (24, 8)
    assert params.get("Clf", "W_head").data.shape == (8, 2)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="eta"):
        HyperParams(eta=1.0)
    with pytest.raises(ValueError, match="lam"):
        HyperParams(lam=-0.1)
    with pytest.raises(ValueError, match="edge_threshold"):
        HyperParams(edge_threshold=1.5)


def test_mean_aggregation_matrix_rows():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    m = MeanAggregation(csr(a))
    assert np.allclose(m.apply(np.ones((3, 1)))[:, 0], [1.0, 1.0, 1.0])
    iso = MeanAggregation(csr(np.zeros((2, 2))))
    assert np.array_equal(iso.apply(np.eye(2)), np.zeros((2, 2)))


def test_decode_scores_matches_manual_sigmoid():
    rng = np.random.default_rng(30)
    z = rng.normal(size=(6, 4))
    s = rng.normal(size=(4, 4))
    scores = decode_scores(Tensor(z), Tensor(s)).data
    manual = 1.0 / (1.0 + np.exp(-(z @ s @ z.T)))
    assert np.max(np.abs(scores - manual)) <= 1e-12


def _arrays_reachable(tensor):
    """Every array a tensor keeps: its data and, through its parents and
    the closures of its backward, those of every tensor it depends on."""
    arrays, seen, stack = [], set(), [tensor]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, Tensor):
            stack += [obj.data, obj._backward, *obj._parents]
        elif hasattr(obj, "__self__"):  # a bound method such as Tensor._accum
            stack += [obj.__self__, obj.__func__]
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack += [cell.cell_contents for cell in obj.__closure__]
    return arrays


def test_decode_scores_keeps_no_other_n_by_n_array():
    rng = np.random.default_rng(31)
    n = 30
    z, s = Tensor(rng.normal(size=(n, 4))), Tensor(rng.normal(size=(4, 4)))
    scores = decode_scores(z, s)
    large = [arr for arr in _arrays_reachable(scores) if arr.size >= n * n]
    assert len(large) == 1 and large[0] is scores.data
    # what it keeps is enough for the gradient: sum(sigmoid(Z S Z^T))
    ad.sum_all(scores).backward()
    d = scores.data * (1.0 - scores.data)
    assert np.max(np.abs(z.grad - (d @ z.data @ s.data.T + d.T @ z.data @ s.data))) <= 1e-12
    assert np.max(np.abs(s.grad - z.data.T @ d @ z.data)) <= 1e-12
