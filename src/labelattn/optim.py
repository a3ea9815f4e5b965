"""Parameter-update rules. Both steps are pure: they never mutate their
parameters or state and return fresh parameter tensors.

Each step runs as one pass over flat float64 vectors: the parameters and the
gradients are concatenated once in declaration order, finiteness is checked
once, and the update is a handful of elementwise calls over the whole
vector. The returned tensors are views of one fresh vector. Elementwise
arithmetic gives the same bits on one flat vector as on each tensor apart.

Gradients come as a list with one array per parameter, which is read and
left unmodified. ``adam_step`` also takes them as one flat float64 vector in
that layout (what ``metatrain.final_step`` writes them into): the step then
uses that vector as scratch and overwrites it, so no second copy of the
gradients is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .autodiff import Tensor


def _offsets(arrays: Sequence[np.ndarray]) -> tuple[int, ...]:
    """Start of each array in their flat concatenation, then its length."""
    return (0, *accumulate(a.size for a in arrays))


def _views(flat: np.ndarray, shapes, offsets) -> tuple[np.ndarray, ...]:
    """One view of ``flat`` per parameter, shaped like it."""
    return tuple(flat[a:b].reshape(s) for s, a, b in zip(shapes, offsets, offsets[1:]))


def _tensors(flat: np.ndarray, shapes, offsets) -> list[Tensor]:
    return [Tensor(v, requires_grad=True, copy=False) for v in _views(flat, shapes, offsets)]


def _flatten(params: Sequence[Tensor], grads) -> tuple[list[np.ndarray], np.ndarray]:
    """The parameter arrays, and the gradients as one flat vector, after
    checking each gradient's shape against its parameter's and the finiteness
    of all of them."""
    p_arrays, g_arrays = [], []
    for p, g in zip(params, grads, strict=True):
        arr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ValueError(f"gradient shape {arr.shape} does not match parameter shape {p.data.shape}")
        p_arrays.append(p.data)
        g_arrays.append(arr)
    flat_g = np.concatenate(g_arrays, axis=None, dtype=np.float64)
    _check_finite(flat_g)
    return p_arrays, flat_g


def _check_finite(flat_g: np.ndarray) -> None:
    if not np.isfinite(flat_g).all():
        raise ValueError("non-finite gradient")


def sgd_step(params: Sequence[Tensor], grads, lr: float) -> list[Tensor]:
    """One plain gradient step; returns new tensors, inputs untouched."""
    p_arrays, g = _flatten(params, grads)
    g *= lr
    p2 = np.concatenate(p_arrays, axis=None, dtype=np.float64)
    p2 -= g
    return _tensors(p2, [p.shape for p in p_arrays], _offsets(p_arrays))


@dataclass(frozen=True)
class AdamState:
    """Adam moments for one parameter list. ``t`` counts completed steps.

    The first and second moments of all parameters are two flat vectors,
    ``m_flat`` and ``v_flat``, in declaration order; ``m`` and ``v`` read
    them as one view per parameter. ``shapes`` and ``offsets`` give that
    layout: parameter i is ``flat[offsets[i]:offsets[i + 1]]``."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    shapes: tuple[tuple[int, ...], ...] = ()
    offsets: tuple[int, ...] = (0,)
    m_flat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v_flat: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def m(self) -> tuple[np.ndarray, ...]:
        return _views(self.m_flat, self.shapes, self.offsets)

    @property
    def v(self) -> tuple[np.ndarray, ...]:
        return _views(self.v_flat, self.shapes, self.offsets)


def adam_init(params: Sequence[Tensor], lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    arrays = [p.data for p in params]
    offsets = _offsets(arrays)
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
                     shapes=tuple(a.shape for a in arrays),
                     offsets=offsets, m_flat=np.zeros(offsets[-1]),
                     v_flat=np.zeros(offsets[-1]))


def adam_step(state: AdamState, params: Sequence[Tensor], grads) -> tuple[list[Tensor], AdamState]:
    """Standard Adam with bias correction. Returns (new params, new state).

    ``grads`` is a list of per-parameter gradients, left unmodified, or one
    flat float64 vector of the state's size in declaration order, which the
    step overwrites as its scratch. The update evaluates, elementwise and in
    this order, ``m2 = b1*m + (1-b1)*g``, ``v2 = b2*v + ((1-b2)*g)*g``, ``p2 =
    p - (lr*(m2/(1-b1**t))) / (sqrt(v2/(1-b2**t)) + eps)``, over the flat
    vectors. The new parameters are views of one fresh vector; the new state
    holds fresh moment vectors."""
    if len(params) != len(state.shapes):
        raise ValueError(f"Adam state tracks {len(state.shapes)} parameters, got {len(params)}")
    if isinstance(grads, np.ndarray):
        p_arrays, g = [p.data for p in params], grads
        size = state.offsets[-1]
        if g.shape != (size,) or g.dtype != np.float64 or not g.flags.writeable:
            raise ValueError(f"a flat gradient must be a writeable float64 vector of {size} "
                             f"entries, got shape {g.shape} and dtype {g.dtype}")
        _check_finite(g)
    else:
        p_arrays, g = _flatten(params, grads)
    for arr, shape in zip(p_arrays, state.shapes):
        if arr.shape != shape:
            raise ValueError(f"Adam moment shape {shape} does not match parameter shape {arr.shape}")
    # Three flat vectors are allocated: m2, v2 and p2, which the step returns
    # (a gradient list adds its concatenation g). Each, and g, doubles as
    # scratch before it takes its final value, so the v term is formed
    # first, in m2's buffer.
    b1, b2, t = state.beta1, state.beta2, state.t + 1
    m2 = np.multiply(1.0 - b2, g)
    m2 *= g
    v2 = np.multiply(b2, state.v_flat)
    v2 += m2
    np.multiply(b1, state.m_flat, out=m2)
    g *= 1.0 - b1
    m2 += g
    step = np.divide(m2, 1.0 - b1**t, out=g)      # m_hat, then the whole step
    step *= state.lr
    p2 = np.divide(v2, 1.0 - b2**t)               # v_hat, then the denominator
    np.sqrt(p2, out=p2)
    p2 += state.eps
    step /= p2
    np.concatenate(p_arrays, axis=None, out=p2)
    p2 -= step
    next_state = AdamState(lr=state.lr, beta1=b1, beta2=b2, eps=state.eps, t=t,
                           shapes=state.shapes, offsets=state.offsets, m_flat=m2, v_flat=v2)
    return _tensors(p2, state.shapes, state.offsets), next_state
