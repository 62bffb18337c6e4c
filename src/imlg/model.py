"""Imbalance-aware graph model over sparse batch adjacencies.

Pipeline per batch: a one-layer encoder over CONCAT(self, neighbor mean,
neighbor mean - self), minority oversampling in embedding space, a
bilinear structure decoder that scores candidate edges, a one-layer
SAGE-style classifier on the augmented graph, and two losses:

* reconstruction: squared error of the soft edge scores against the real
  adjacency, with entries that are edges weighted by eta > 1;
* classification: mean negative log-likelihood on the augmented nodes.

Neighbor means go through `sparse.MeanAggregation` as a constant linear
operator, on the batch's CSR adjacency in the encoder and on the real CSR
plus the synthetic 0/1 rows in the classifier; inference runs the same
`encode` and `classify` on the whole graph. The only dense pairwise arrays
are the n x n reconstruction scores of the real nodes (kept for backward
without the logits they came from) and the m x (n+m) synthetic rows, held
as bool and thresholded one block of rows at a time. In backward the
sigmoid reuses the reconstruction loss's gradient array in place, so a
step holds two n x n float64 arrays plus m (n+m) bools.

Gradient routing is structural: the classifier consumes the thresholded
adjacency as a constant, so the decoder weight only ever sees the
reconstruction loss and the classifier weights only the NLL, while the
encoder receives both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import ParamStore
from .sparse import Adjacency, AugmentedAdjacency, MeanAggregation


@dataclass(frozen=True)
class HyperParams:
    hidden_dim: int = 64
    lam: float = 1.0  # reconstruction weight in the joint objective
    eta: float = 10.0  # extra cost on mispredicting actual edges; must be > 1
    smote_k: int = 5
    edge_threshold: float = 0.5

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not self.eta > 1:
            raise ValueError(f"eta must be > 1, got {self.eta}")
        if not (0.0 < self.edge_threshold < 1.0):
            raise ValueError(f"edge_threshold must be in (0, 1), got {self.edge_threshold}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be >= 1, got {self.smote_k}")


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(feature_dim: int, hp: HyperParams, seed: int = 0) -> ParamStore:
    """Encoder/decoder/classifier weights. The decoder starts as the
    identity, i.e. a pure inner-product scorer."""
    rng = np.random.default_rng([seed, 3])
    h = hp.hidden_dim
    store = ParamStore()
    store.add("Enc", "W1", _xavier(rng, 3 * feature_dim, h))
    store.add("Dec", "S", np.eye(h))
    store.add("Clf", "W_agg", _xavier(rng, 3 * h, h))
    store.add("Clf", "W_head", _xavier(rng, h, 2))
    return store


def _sage(a: Adjacency | AugmentedAdjacency, x, w, activation) -> Tensor:
    """activation(CONCAT(X, X_N, X_N - X) @ W) with X_N the neighbor mean
    of X (zero vector for isolated nodes)."""
    xt = x if isinstance(x, Tensor) else ad.const(x)
    xn = ad.linear(MeanAggregation(a), xt)
    return activation(ad.matmul(ad.concat_cols([xt, xn, ad.sub(xn, xt)]), w))


def encode(a: Adjacency, x, w1, activation=ad.relu) -> Tensor:
    """Embeddings: relu(CONCAT(X, X_N, X_N - X) @ W1)."""
    return _sage(a, x, w1, activation)


@dataclass
class SmotePlan:
    parents: list[tuple[int, int, float]] = field(default_factory=list)
    skipped: bool = False

    @property
    def m(self) -> int:
        return len(self.parents)


def smote_oversample(z: np.ndarray, labels: np.ndarray, k: int, rng) -> SmotePlan:
    """Plan synthetic minority rows to balance the batch: parent a cycles
    round-robin over minority nodes, parent b is drawn from a's k nearest
    minority neighbors in embedding space, delta ~ U[0,1]."""
    labels = np.asarray(labels)
    minority = np.flatnonzero(labels == 1)
    majority_count = int((labels == 0).sum())
    m = majority_count - len(minority)
    if m <= 0:
        return SmotePlan()
    if len(minority) < 2:
        return SmotePlan(skipped=True)
    d2 = _squared_distances(z[minority])
    np.fill_diagonal(d2, np.inf)
    k_eff = min(k, len(minority) - 1)
    # stable sort ties by minority order, which is ascending node id
    order = np.argsort(d2, axis=1, kind="stable")
    neighbor_ids = minority[order[:, :k_eff]]
    parents = []
    for t in range(m):
        ai = t % len(minority)
        a = int(minority[ai])
        b = int(neighbor_ids[ai][rng.integers(k_eff)])
        delta = float(rng.random())
        parents.append((a, b, delta))
    return SmotePlan(parents)


def _squared_distances(zm: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of zm, summed over the
    differences one block of rows at a time, which rounds exactly as the
    whole rows x rows x features tensor would."""
    d2 = np.empty((len(zm), len(zm)))
    with np.errstate(over="ignore"):
        for lo, hi in ad.row_blocks(len(zm)):
            diff = zm[lo:hi, None, :] - zm[None, :, :]
            d2[lo:hi] = np.square(diff, out=diff).sum(axis=2)
    return d2


class _SmoteRows:
    """z -> z with the synthetic rows (1-delta) z_a + delta z_b appended,
    as a constant linear operator."""

    def __init__(self, plan: SmotePlan):
        a, b, delta = zip(*plan.parents)
        self.a, self.b = np.array(a), np.array(b)
        self.delta = np.array(delta)[:, None]

    def apply(self, z: np.ndarray) -> np.ndarray:
        return np.concatenate([z, (1.0 - self.delta) * z[self.a] + self.delta * z[self.b]])

    def apply_t(self, g: np.ndarray) -> np.ndarray:
        n = len(g) - len(self.a)
        out = g[:n].copy()
        np.add.at(out, self.a, (1.0 - self.delta) * g[n:])
        np.add.at(out, self.b, self.delta * g[n:])
        return out


def apply_smote(z: Tensor, plan: SmotePlan) -> Tensor:
    """Augmented embeddings: synthetic row t = (1-delta) z_a + delta z_b."""
    if plan.m == 0:
        return z
    return ad.linear(_SmoteRows(plan), z)


def decode_scores(z_tilde, s) -> Tensor:
    """Soft pairwise edge scores sigmoid(Z S Z^T) as a tensor."""
    zt = z_tilde if isinstance(z_tilde, Tensor) else ad.const(z_tilde)
    st = s if isinstance(s, Tensor) else ad.const(s)
    return ad.sigmoid(ad.matmul(ad.matmul(zt, st), ad.transpose(zt)))


def decode_adjacency(
    z_tilde: np.ndarray, s: np.ndarray, a_real: Adjacency, tau: float
) -> AugmentedAdjacency:
    """Binary augmented adjacency: the real block is `a_real` verbatim, an
    entry touching a synthetic node is 1 iff its score exceeds tau in
    either direction (symmetrized by max), zero diagonal. A constant for
    the classifier.

    Thresholding happens in logit space (sigmoid is monotone), and only the
    synthetic rows are computed, as bool: (Z_s S Z^T > logit tau) | (Z_s
    S^T Z^T > logit tau), the second as the transpose of Z S Z_s^T. Each
    product is computed and thresholded one block of `autodiff.ROW_BLOCK`
    output columns at a time; on one BLAS thread this gives the whole
    product's logits bit for bit, and on more a few may differ in the last
    bit, which cannot move a logit across logit tau = 0 (tau = 0.5)."""
    n = a_real.n
    m = len(z_tilde) - n
    logit_tau = np.log(tau / (1.0 - tau))
    zs = z_tilde @ s
    synthetic = np.empty((m, n + m), dtype=bool)
    for lo, hi in ad.row_blocks(n + m):
        np.greater(zs[n:] @ z_tilde[lo:hi].T, logit_tau, out=synthetic[:, lo:hi])
    for lo, hi in ad.row_blocks(m):
        synthetic[lo:hi] |= (zs @ z_tilde[n + lo : n + hi].T).T > logit_tau
    synthetic[np.arange(m), n + np.arange(m)] = False
    return AugmentedAdjacency(a_real, synthetic)


def classify(
    a_aug: Adjacency | AugmentedAdjacency, z_tilde, w_agg, w_head
) -> tuple[Tensor, np.ndarray]:
    """SAGE-style layer over the augmented graph plus a linear head and
    row log-softmax. Returns (log-probabilities tensor, probabilities)."""
    hidden = _sage(a_aug, z_tilde, w_agg, ad.relu)
    logits = ad.matmul(hidden, w_head)
    logp = ad.log_softmax_rows(logits)
    return logp, np.exp(logp.data)


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    """Argmax with ties resolved toward class 0."""
    return (probs[:, 1] > probs[:, 0]).astype(np.int64)


def loss_rec(a: Adjacency, scores: Tensor, eta: float) -> Tensor:
    """Penalty-weighted squared reconstruction error on the real block,
    diagonal excluded: sum of (w_ij (a_ij - s_ij))^2 with w = eta on edges
    and 1 elsewhere. One op on the dense scores s, summed as
    sum s^2 - sum diag(s)^2 - sum_edges s^2 + eta^2 sum_edges (1 - s)^2."""
    s = scores.data
    rows, cols = a.rows, a.indices
    on_edges = s[rows, cols]
    diag = np.diagonal(s)
    miss = 1.0 - on_edges
    value = np.vdot(s, s) - np.vdot(diag, diag) - np.vdot(on_edges, on_edges)
    value += eta * eta * np.vdot(miss, miss)

    def vjp(g):
        grad = (2.0 * float(g)) * s
        np.fill_diagonal(grad, 0.0)
        grad[rows, cols] = (-2.0 * eta * eta * float(g)) * miss
        return grad

    return ad.unary(scores, np.array(value), "loss_rec", vjp)


def loss_clf(logp: Tensor, y: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over all (augmented) nodes."""
    y = np.asarray(y)
    onehot = np.zeros(logp.data.shape)
    onehot[np.arange(len(y)), y] = 1.0
    return ad.scale(ad.sum_all(ad.mul(logp, ad.const(onehot))), -1.0 / len(y))


def total_objective(l_clf: Tensor, l_rec: Tensor, lam: float) -> Tensor:
    return ad.add(l_clf, ad.scale(l_rec, lam))


@dataclass
class FrozenChoices:
    """Pinned structural decisions (for finite-difference checking):
    reuse these SMOTE parents and this classifier adjacency instead of
    recomputing them from the current embeddings."""

    plan: SmotePlan
    a_aug: AugmentedAdjacency | None


@dataclass
class ForwardResult:
    objective: Tensor
    clf_loss: Tensor
    rec_loss: Tensor | None  # None in baseline mode
    y_aug: np.ndarray
    plan: SmotePlan
    a_aug: AugmentedAdjacency | None

    @property
    def l_clf(self) -> float:
        return float(self.clf_loss.data)

    @property
    def l_rec(self) -> float:
        return 0.0 if self.rec_loss is None else float(self.rec_loss.data)


def forward(
    a: Adjacency,
    x: np.ndarray,
    y: np.ndarray,
    params: ParamStore,
    hp: HyperParams,
    rng=None,
    baseline: bool = False,
    frozen: FrozenChoices | None = None,
) -> ForwardResult:
    """One full training-mode pass over a batch. In baseline mode the
    oversampling and decoder stages are skipped entirely and the
    reconstruction loss is reported as zero."""
    w1 = params.get("Enc", "W1")
    z = encode(a, x, w1)
    if baseline:
        logp, _probs = classify(a, z, params.get("Clf", "W_agg"), params.get("Clf", "W_head"))
        l_clf = loss_clf(logp, y)
        return ForwardResult(
            objective=l_clf,
            clf_loss=l_clf,
            rec_loss=None,
            y_aug=np.asarray(y),
            plan=SmotePlan(),
            a_aug=None,
        )
    if frozen is not None:
        plan = frozen.plan
    else:
        if rng is None:
            raise ValueError("training forward needs an rng for oversampling")
        plan = smote_oversample(z.data, y, hp.smote_k, rng)
    z_aug = apply_smote(z, plan)
    y_aug = np.concatenate([np.asarray(y), np.ones(plan.m, dtype=np.int64)])
    s = params.get("Dec", "S")
    scores_real = decode_scores(z, s)
    l_rec = loss_rec(a, scores_real, hp.eta)
    if frozen is not None and frozen.a_aug is not None:
        a_aug = frozen.a_aug
    else:
        a_aug = decode_adjacency(z_aug.data, s.data, a, hp.edge_threshold)
    logp, _probs = classify(a_aug, z_aug, params.get("Clf", "W_agg"), params.get("Clf", "W_head"))
    l_clf = loss_clf(logp, y_aug)
    objective = total_objective(l_clf, l_rec, hp.lam)
    return ForwardResult(
        objective=objective,
        clf_loss=l_clf,
        rec_loss=l_rec,
        y_aug=y_aug,
        plan=plan,
        a_aug=a_aug,
    )
