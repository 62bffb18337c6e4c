"""Parameter store and the Adam optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

OWNERS = ("Enc", "Dec", "Clf")


class ParamStore:
    """Named parameter matrices grouped by owner (Enc / Dec / Clf)."""

    def __init__(self):
        self._params: dict[tuple[str, str], Tensor] = {}

    def add(self, owner: str, name: str, data: np.ndarray) -> Tensor:
        if owner not in OWNERS:
            raise ValueError(f"unknown owner '{owner}' (expected one of {OWNERS})")
        key = (owner, name)
        if key in self._params:
            raise ValueError(f"duplicate parameter {owner}.{name}")
        t = Tensor(np.array(data, dtype=np.float64))
        self._params[key] = t
        return t

    def get(self, owner: str, name: str) -> Tensor:
        return self._params[(owner, name)]

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._params)

    def items(self):
        return [(k, self._params[k]) for k in self.keys()]

    def zero_grads(self):
        for _k, t in self.items():
            t.grad = None

    def grads(self) -> dict[tuple[str, str], np.ndarray]:
        """Collected non-None gradients after a backward pass."""
        return {k: t.grad for k, t in self.items() if t.grad is not None}


class Adam:
    """Standard Adam; weight decay is decoupled (lr * wd * param is
    subtracted directly, never folded into the moments)."""

    def __init__(self, store: ParamStore, lr=1e-3, weight_decay=5e-4,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in store.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in store.items()}

    def step(self, grads: dict):
        """One update over exactly the parameters present in `grads`."""
        self.step_count += 1
        t = self.step_count
        for key in sorted(grads):
            g = grads[key]
            p = self.store.get(*key)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch for {key}: {g.shape} vs {p.data.shape}")
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * g * g
            m_hat = self.m[key] / (1.0 - self.beta1**t)
            v_hat = self.v[key] / (1.0 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
