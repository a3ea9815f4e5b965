"""Parameter-update rules. Both steps are pure: they never mutate their
inputs and return fresh parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor


def _as_arrays(params: Sequence[Tensor], grads) -> list[np.ndarray]:
    out = []
    for p, g in zip(params, grads, strict=True):
        arr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ValueError(f"gradient shape {arr.shape} does not match parameter shape {p.data.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite gradient")
        out.append(arr)
    return out


def sgd_step(params: Sequence[Tensor], grads, lr: float) -> list[Tensor]:
    """One plain gradient step; returns new tensors, inputs untouched."""
    arrays = _as_arrays(params, grads)
    return [Tensor(p.data - lr * g, requires_grad=True, copy=False)
            for p, g in zip(params, arrays)]


@dataclass(frozen=True)
class AdamState:
    """Adam moments for one parameter list. ``t`` counts completed steps."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: tuple[np.ndarray, ...] = field(default_factory=tuple)
    v: tuple[np.ndarray, ...] = field(default_factory=tuple)


def adam_init(params: Sequence[Tensor], lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    zeros = tuple(np.zeros_like(p.data) for p in params)
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
                     m=zeros, v=tuple(z.copy() for z in zeros))


def adam_step(state: AdamState, params: Sequence[Tensor], grads) -> tuple[list[Tensor], AdamState]:
    """Standard Adam with bias correction. Returns (new params, new state)."""
    arrays = _as_arrays(params, grads)
    if len(state.m) != len(params):
        raise ValueError(f"Adam state tracks {len(state.m)} parameters, got {len(params)}")
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, arrays, state.m, state.v):
        if m.shape != p.data.shape:
            raise ValueError(f"Adam moment shape {m.shape} does not match parameter shape {p.data.shape}")
        m2 = state.beta1 * m + (1.0 - state.beta1) * g
        v2 = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m2 / (1.0 - state.beta1**t)
        v_hat = v2 / (1.0 - state.beta2**t)
        p2 = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_params.append(Tensor(p2, requires_grad=True, copy=False))
        new_m.append(m2)
        new_v.append(v2)
    next_state = AdamState(lr=state.lr, beta1=state.beta1, beta2=state.beta2,
                           eps=state.eps, t=t, m=tuple(new_m), v=tuple(new_v))
    return new_params, next_state
