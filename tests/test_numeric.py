import numpy as np
import pytest

from imlg import autodiff as ad
from imlg.autodiff import NonFiniteError, Tensor, finite_difference
from imlg.optim import Adam, ParamStore


def rel_err(a, b, floor=1e-3):
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), floor))


def test_frobenius_norm_gradient():
    w = Tensor(np.ones((2, 2)))
    loss = ad.sum_all(ad.mul(w, w))
    loss.backward()
    assert float(loss.data) == 4.0
    assert np.array_equal(w.grad, 2.0 * np.ones((2, 2)))


def test_sigmoid_scalar_gradient():
    w = Tensor(np.zeros((1, 1)))
    loss = ad.sum_all(ad.mul(ad.sigmoid(w), ad.const(np.ones((1, 1)))))
    loss.backward()
    assert float(loss.data) == 0.5
    assert abs(w.grad[0, 0] - 0.25) < 1e-15


def test_finite_difference_self_check_quadratic():
    w = np.full((3, 2), 1.5)

    def loss():
        return float((w**2).sum())

    g = finite_difference(loss, {"w": w}, h=1e-5)["w"]
    assert np.max(np.abs(g - 2 * w)) <= 1e-9


def test_quadratic_form_gradient_analytic():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    x = Tensor(rng.normal(size=(1, 5)))
    loss = ad.sum_all(ad.mul(ad.matmul(x, ad.const(a)), x))
    loss.backward()
    expected = x.data @ (a + a.T)
    assert np.max(np.abs(x.grad - expected)) < 1e-12


def test_masked_frobenius_gradient_analytic():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(4, 4)))
    target = rng.normal(size=(4, 4))
    mask = (rng.random((4, 4)) < 0.5).astype(float)
    diff = ad.mul(ad.sub(w, ad.const(target)), ad.const(mask))
    loss = ad.sum_all(ad.mul(diff, diff))
    loss.backward()
    expected = 2.0 * mask * mask * (w.data - target)
    assert np.max(np.abs(w.grad - expected)) < 1e-12


def test_each_primitive_against_finite_differences():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(4, 3))
    y0 = rng.normal(size=(3, 5))

    builders = {
        "matmul": lambda x, y: ad.sum_all(ad.matmul(x, y)),
        "relu": lambda x, y: ad.sum_all(ad.relu(ad.matmul(x, y))),
        "sigmoid": lambda x, y: ad.sum_all(ad.sigmoid(ad.matmul(x, y))),
        "log_softmax": lambda x, y: ad.sum_all(ad.log_softmax_rows(ad.matmul(x, y))),
        "transpose": lambda x, y: ad.sum_all(ad.mul(ad.transpose(ad.matmul(x, y)), ad.transpose(ad.matmul(x, y)))),
        "concat": lambda x, y: ad.sum_all(ad.mul(ad.concat_cols([x, x]), ad.concat_cols([x, x]))),
    }
    for name, build in builders.items():
        xt, yt = Tensor(x0.copy()), Tensor(y0.copy())
        loss = build(xt, yt)
        loss.backward()

        def feval():
            return float(build(Tensor(x0), Tensor(y0)).data)

        fd = finite_difference(feval, {"x": x0, "y": y0})
        assert rel_err(xt.grad, fd["x"]) <= 1e-6, name
        if yt.grad is not None:
            assert rel_err(yt.grad, fd["y"]) <= 1e-6, name


def test_gradient_reaching_two_parents_against_finite_differences():
    # add hands its gradient to both sides and the sigmoid backward writes
    # into the gradient it is handed, so each side must get its own array
    rng = np.random.default_rng(4)
    x0, w0, v0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(3, 5))

    def twice(t):
        return ad.add(t, t)

    builders = {
        "sigmoid + matmul": lambda x, w, v: ad.add(ad.sigmoid(ad.matmul(x, w)), ad.matmul(x, v)),
        "matmul + sigmoid": lambda x, w, v: ad.add(ad.matmul(x, v), ad.sigmoid(ad.matmul(x, w))),
        "t + t": lambda x, w, v: twice(ad.sigmoid(ad.matmul(x, w))),
        "leaf sigmoid + leaf": lambda x, w, v: ad.add(ad.sigmoid(w), v),
        "leaf + leaf sigmoid": lambda x, w, v: ad.add(w, ad.sigmoid(w)),
    }
    for name, build in builders.items():
        def loss(x, w, v):
            out = build(x, w, v)
            return ad.sum_all(ad.mul(out, out))

        xt, wt, vt = Tensor(x0.copy()), Tensor(w0.copy()), Tensor(v0.copy())
        loss(xt, wt, vt).backward()
        fd = finite_difference(lambda: float(loss(Tensor(x0), Tensor(w0), Tensor(v0)).data),
                               {"x": x0, "w": w0, "v": v0})
        for key, t in (("x", xt), ("w", wt), ("v", vt)):
            if t.grad is not None:
                assert rel_err(t.grad, fd[key]) <= 1e-6, (name, key)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(50, 2)) * 10)
    p = np.exp(ad.log_softmax_rows(logits).data)
    assert np.all(p > 0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError, match="shape mismatch"):
        ad.matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


def test_non_finite_detected():
    big = Tensor(np.full((2, 2), 1e308))
    with pytest.raises(NonFiniteError):
        ad.mul(ad.add(big, big), ad.add(big, big))


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        Tensor(np.zeros((2, 2))).backward()


# ---------------------------------------------------------------------------
# ParamStore / Adam


def test_param_store_basics():
    store = ParamStore()
    store.add("Enc", "W1", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("Enc", "W1", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="unknown owner"):
        store.add("Foo", "W", np.zeros((2, 2)))
    assert store.keys() == [("Enc", "W1")]


def test_adam_first_step_hand_computed():
    # x = 1, loss = x^2, lr = 0.1: the bias-corrected first step is
    # lr * g / (sqrt(g^2) + eps) = 0.1
    store = ParamStore()
    x = store.add("Enc", "x", np.array([[1.0]]))
    opt = Adam(store, lr=0.1, weight_decay=0.0)
    opt.step({("Enc", "x"): np.array([[2.0]])})
    assert abs(x.data[0, 0] - 0.9) < 1e-3


def test_adam_zero_gradient_zero_decay_is_identity():
    store = ParamStore()
    x = store.add("Dec", "S", np.array([[3.0, -1.0]]))
    opt = Adam(store, lr=0.1, weight_decay=0.0)
    opt.step({("Dec", "S"): np.zeros((1, 2))})
    assert np.array_equal(x.data, np.array([[3.0, -1.0]]))


def test_adam_decoupled_weight_decay():
    store = ParamStore()
    x = store.add("Dec", "S", np.array([[2.0]]))
    opt = Adam(store, lr=0.1, weight_decay=0.5)
    opt.step({("Dec", "S"): np.zeros((1, 1))})
    # zero gradient: only the decay term lr * wd * param applies
    assert abs(x.data[0, 0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-15


def test_adam_trajectory_deterministic():
    def run():
        store = ParamStore()
        w = store.add("Enc", "W", np.full((2, 2), 0.7))
        opt = Adam(store, lr=1e-2)
        for _ in range(25):
            store.zero_grads()
            ad.sum_all(ad.mul(w, w)).backward()
            opt.step(store.grads())
        return store.get("Enc", "W").data.copy()

    assert np.array_equal(run(), run())


def test_adam_untouched_params_stay_fixed():
    store = ParamStore()
    store.add("Enc", "W", np.ones((1, 1)))
    s = store.add("Dec", "S", np.ones((1, 1)))
    opt = Adam(store, lr=0.1, weight_decay=0.5)
    opt.step({("Enc", "W"): np.array([[1.0]])})
    assert s.data[0, 0] == 1.0  # no gradient entry, no decay either


def test_constant_only_computation_keeps_no_graph():
    rng = np.random.default_rng(2)
    x, w = ad.const(rng.normal(size=(4, 3))), ad.const(rng.normal(size=(3, 2)))
    stacked = ad.concat_cols([x, ad.sub(x, x)]) @ ad.const(np.ones((6, 3)))
    out = ad.log_softmax_rows(ad.relu(ad.matmul(stacked, w)))
    total = ad.sum_all(ad.sigmoid(out))
    for t in (out, total):
        assert not t.requires_grad
        assert t._parents == () and t._backward is None


def test_backward_leaves_gradients_only_on_leaves():
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(3, 3)))
    x = ad.const(rng.normal(size=(5, 3)))
    hidden = ad.relu(ad.matmul(x, w))
    scores = ad.sigmoid(ad.matmul(hidden, ad.transpose(w)))
    loss = ad.sum_all(ad.mul(scores, scores))
    loss.backward()
    assert w.grad is not None and w.grad.shape == (3, 3)
    for t in (hidden, scores, loss):
        assert t.grad is None
    assert x.grad is None
