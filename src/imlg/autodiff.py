"""Minimal reverse-mode differentiation over dense float64 arrays.

Only the primitives the model needs: matmul, transpose, elementwise
add/sub/mul, column concatenation, relu, sigmoid, row log-softmax, full
sum, scaling by a python float, and constant linear operators applied
through `linear`. Every op checks its output for NaN/Inf and raises
NonFiniteError immediately.

An op output that needs no gradient is a plain constant: it keeps neither
its inputs nor a backward closure, so a computation over constants only
(inference) frees each intermediate as soon as nothing refers to it. A
sigmoid applied to an op output takes over that op's inputs and backward
closure, since its own gradient needs only its output, so the input array
is freed too.

A backward closure owns the gradient array it is handed and may overwrite
it: `Tensor.backward` drops an interior gradient once it has been passed
on, and no op hands one array to two parents (`add` gives the second a
copy). The sigmoid backward forms its product in the gradient it receives,
so the reconstruction path of a training step holds two n x n arrays, the
scores and one gradient, rather than three.
"""

from __future__ import annotations

import numpy as np


# Dense work over the rows of a large array goes one block of rows at a
# time, so a temporary holds a block rather than the whole array. A short
# last block joins the one before it: in checks with OpenBLAS, a product
# over blocks of 256 rows or more matched the whole product bit for bit, and
# one over blocks of a few rows did not.
ROW_BLOCK = 256


class NonFiniteError(ArithmeticError):
    pass


def row_blocks(total: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds covering range(total) in blocks of ROW_BLOCK up to
    2 * ROW_BLOCK - 1 rows, or one block if total is smaller."""
    bounds = [i * ROW_BLOCK for i in range(max(1, total // ROW_BLOCK))] + [total]
    return list(zip(bounds[:-1], bounds[1:]))


def _check(data: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by {op}")
    return data


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Accumulate gradients into every reachable leaf. Each call is
        self-contained: grads in this subgraph are reset first, and an
        interior node's gradient is dropped once it has been passed on."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def const(data) -> Tensor:
    """A tensor that takes part in forward math but never needs gradients."""
    return Tensor(data, requires_grad=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else const(x)


def _result(data: np.ndarray, parents: tuple, backward, op: str | None = None) -> Tensor:
    """Op output, checked when `op` names it; only an output that needs a
    gradient keeps its parents and backward closure."""
    if op is not None:
        _check(data, op)
    if not any(p.requires_grad for p in parents):
        return const(data)
    return Tensor(data, parents, backward)


def unary(a, data: np.ndarray, op: str, vjp) -> Tensor:
    """Output `data` of a user-defined op on `a`: backward passes vjp(g),
    the upstream gradient g pulled back through the op, on to `a`."""
    a = _wrap(a)
    return _result(data, (a,), lambda g: a._accum(vjp(g)), op)


def linear(op, x) -> Tensor:
    """op applied to x, for a constant linear operator with methods
    `apply(x)` and `apply_t(g)` (its transpose)."""
    return unary(x, op.apply(_wrap(x).data), "linear", op.apply_t)


def _shape_match(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch in {op}: {a.data.shape} vs {b.data.shape}")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"shape mismatch in matmul: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.data @ b.data, (a, b), backward, "matmul")


def transpose(a) -> Tensor:
    a = _wrap(a)
    return _result(a.data.T, (a,), lambda g: a._accum(g.T))


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _shape_match(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            # a's backward may overwrite g
            b._accum(g.copy() if a.requires_grad else g)

    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.data + b.data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _shape_match(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(-g)

    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.data - b.data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _shape_match(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.data * b.data, (a, b), backward, "mul")


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.data * c, (a,), lambda g: a._accum(g * c), "scale")


def concat_cols(parts: list) -> Tensor:
    parts = [_wrap(p) for p in parts]
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1:
        raise ValueError(f"shape mismatch in concat_cols: rows {sorted(rows)}")
    widths = [p.data.shape[1] for p in parts]

    def backward(g):
        at = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accum(g[:, at : at + w])
            at += w

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    return _result(np.maximum(a.data, 0.0), (a,), lambda g: a._accum(g * (a.data > 0.0)))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow, one block of rows at a time."""
    out = np.empty(np.shape(x))
    rows_in, rows_out = np.atleast_1d(x), np.atleast_1d(out)
    for lo, hi in row_blocks(len(rows_out)):
        block = rows_in[lo:hi]
        e = np.exp(-np.abs(block))
        # 1 / (1 + e) or e / (1 + e)
        np.divide(np.where(block >= 0, 1.0, e), 1.0 + e, out=rows_out[lo:hi])
    return out


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    s = stable_sigmoid(a.data)
    # the gradient needs only s: of an op output, take over its inputs and
    # backward closure so that nothing keeps a.data alive
    if a._backward is not None:
        parents, pull = a._parents, a._backward
    else:
        parents, pull = (a,), a._accum

    def backward(g):
        if g.ndim == 0:  # may be a numpy scalar, which has no place to write
            pull(g * ((1.0 - s) * s))
            return
        # g * ((1 - s) * s) in g itself, which this closure owns
        for lo, hi in row_blocks(len(g)):
            d = 1.0 - s[lo:hi]
            d *= s[lo:hi]
            g[lo:hi] *= d
            del d  # so that one block temporary is alive, not two
        pull(g)

    return _result(s, parents, backward, "sigmoid")


def log_softmax_rows(a) -> Tensor:
    a = _wrap(a)
    z = a.data - a.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    softmax = np.exp(logp)

    def backward(g):
        a._accum(g - softmax * g.sum(axis=1, keepdims=True))

    return _result(logp, (a,), backward, "log_softmax_rows")


def sum_all(a) -> Tensor:
    a = _wrap(a)
    return _result(np.array(a.data.sum()), (a,), lambda g: a._accum(np.full_like(a.data, float(g))))


def finite_difference(fn, arrays: dict, h: float = 1e-5) -> dict:
    """Central-difference gradients of fn() with respect to the given
    arrays, which fn must read in place. Test oracle, not a fast path."""
    grads = {}
    for key, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = fn()
            flat[idx] = keep - h
            down = fn()
            flat[idx] = keep
            gflat[idx] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads
