"""Parameter-update rules. Both steps are pure: they never mutate their
parameters or state and return fresh parameter tensors. Adam's decay
rates and offset are the constants ``ADAM_B1``, ``ADAM_B2`` and ``ADAM_EPS``;
only the learning rate is set per state.

``sgd_step`` updates each tensor apart. ``adam_step`` runs its moments as
one pass over flat float64 vectors in declaration order: the gradients are
one vector (concatenated once from a list), finiteness is checked once, and
the update is a handful of elementwise calls over the whole vector; the new
parameters are then written tensor by tensor into views of one fresh
vector, with no concatenation of the old ones. Elementwise arithmetic gives
the same bits on one flat vector as on each tensor apart.

Gradients come as a list with one array per parameter, which is read and
left unmodified. ``adam_step`` also takes them as one flat float64 vector in
that layout (what ``metatrain.final_step`` writes them into): the step then
uses that vector as scratch and overwrites it, so no second copy of the
gradients is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .autodiff import Tensor

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8   # the values of Kingma & Ba (2015)


def _offsets(arrays: Sequence[np.ndarray]) -> tuple[int, ...]:
    """Start of each array in their flat concatenation, then its length."""
    return (0, *accumulate(a.size for a in arrays))


def _views(flat: np.ndarray, shapes, offsets) -> tuple[np.ndarray, ...]:
    """One view of ``flat`` per parameter, shaped like it."""
    return tuple(flat[a:b].reshape(s) for s, a, b in zip(shapes, offsets, offsets[1:]))


def _gradient_arrays(params: Sequence[Tensor], grads) -> list[np.ndarray]:
    """The gradients as float64 arrays, after checking each one's shape
    against its parameter's."""
    arrays = []
    for p, g in zip(params, grads, strict=True):
        arr = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ValueError(f"gradient shape {arr.shape} does not match parameter shape {p.data.shape}")
        arrays.append(arr)
    return arrays


def _check_finite(g: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise ValueError("non-finite gradient")


def sgd_step(params: Sequence[Tensor], grads, lr: float) -> list[Tensor]:
    """One plain gradient step, ``p - g * lr`` for each tensor apart; returns
    new tensors, inputs untouched."""
    g_arrays = _gradient_arrays(params, grads)
    for g in g_arrays:
        _check_finite(g)
    return [Tensor(p.data - g * lr, requires_grad=True, copy=False)
            for p, g in zip(params, g_arrays)]


@dataclass(frozen=True)
class AdamState:
    """Adam moments for one parameter list. ``t`` counts completed steps.

    The first and second moments of all parameters are two flat vectors,
    ``m_flat`` and ``v_flat``, in declaration order; ``m`` and ``v`` read
    them as one view per parameter. ``shapes`` and ``offsets`` give that
    layout: parameter i is ``flat[offsets[i]:offsets[i + 1]]``."""

    lr: float
    t: int
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    m_flat: np.ndarray
    v_flat: np.ndarray

    @property
    def m(self) -> tuple[np.ndarray, ...]:
        return self.views(self.m_flat)

    @property
    def v(self) -> tuple[np.ndarray, ...]:
        return self.views(self.v_flat)

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """One view of the flat vector ``flat`` per parameter, in this layout."""
        return _views(flat, self.shapes, self.offsets)


def adam_init(params: Sequence[Tensor], lr: float) -> AdamState:
    arrays = [p.data for p in params]
    offsets = _offsets(arrays)
    return AdamState(lr=lr, t=0, shapes=tuple(a.shape for a in arrays), offsets=offsets,
                     m_flat=np.zeros(offsets[-1]), v_flat=np.zeros(offsets[-1]))


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
    p_arrays = [p.data for p in params]
    if isinstance(grads, np.ndarray):
        g, size = grads, state.offsets[-1]
        if g.shape != (size,) or g.dtype != np.float64 or not g.flags.writeable:
            raise ValueError(f"a flat gradient must be a writeable float64 vector of {size} "
                             f"entries, got shape {g.shape} and dtype {g.dtype}")
    else:
        g = np.concatenate(_gradient_arrays(params, grads), axis=None, dtype=np.float64)
    _check_finite(g)
    for arr, shape in zip(p_arrays, state.shapes):
        if arr.shape != shape:
            raise ValueError(f"Adam moment shape {shape} does not match parameter shape {arr.shape}")
    # Three flat vectors are allocated: m2, v2 and p2, which the step returns
    # (a gradient list adds its concatenation g). Each, and g, doubles as
    # scratch before it takes its final value, so the v term is formed
    # first, in m2's buffer.
    b1, b2, t = ADAM_B1, ADAM_B2, state.t + 1
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
    p2 += ADAM_EPS
    step /= p2
    new_params = []
    for arr, shape, a, b in zip(p_arrays, state.shapes, state.offsets, state.offsets[1:]):
        out = p2[a:b].reshape(shape)
        np.subtract(arr, step[a:b].reshape(shape), out=out)
        new_params.append(Tensor(out, requires_grad=True, copy=False))
    next_state = AdamState(lr=state.lr, t=t, shapes=state.shapes, offsets=state.offsets,
                           m_flat=m2, v_flat=v2)
    return new_params, next_state
