"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a float64 numpy array. Every differentiable
operation attaches a :class:`TapeNode` to its output recording the input
tensors and a closure that maps the output gradient to input gradients.
:func:`gradients` is the only way to differentiate: it replays the graph
below a scalar loss so that every consumer is visited before its producer,
sums the gradients reaching each tensor, and returns fresh arrays for the
requested tensors. Tensors hold no gradient state, so one graph can be
differentiated any number of times. :func:`detach` returns a value-equal
tensor severed from the graph: no gradient reaches the original producers
through it.

Graphs are plain per-tensor links; there is no global registry, so tensors
can move freely between threads as values while any single gradient pass
stays on one thread.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

BCE_EPS = 1e-7


def logistic(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) on a plain array: with e = exp(-|x|), 1/(1+e) where
    x >= 0 and e/(1+e) below, so exp never overflows. One division of the
    selected numerator gives the bits of dividing both and selecting."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


class BceTerms:
    """The target-free terms of the mean binary cross entropy of one
    prediction array ``pred``, made with it and read by every loss value and
    gradient taken against it: ``clamped``, ``pred`` clamped to [BCE_EPS,
    1 - BCE_EPS]; ``logs``, log(clamped) and log1p(-clamped); and
    ``grad_terms``, ``inside`` (where the clamp leaves ``pred`` as it is),
    ``1 - clamped`` and ``1 - pred``. Each mean is over ``pred.size``.

    The tape's :func:`bce_loss` and the array training path both read these
    methods, so the oracle and the trainer share one BCE."""

    __slots__ = ("pred", "clamped", "logs", "grad_terms")

    def __init__(self, pred: np.ndarray):
        self.pred = pred
        # the bits of np.clip, without its Python wrapper
        self.clamped = np.maximum(pred, BCE_EPS)
        np.minimum(self.clamped, 1.0 - BCE_EPS, out=self.clamped)
        self.logs = (np.log(self.clamped), np.log1p(-self.clamped))
        self.grad_terms = ((pred > BCE_EPS) & (pred < 1.0 - BCE_EPS),
                           1.0 - self.clamped, 1.0 - pred)

    def value(self, target: np.ndarray) -> float:
        """Mean BCE against ``target`` (``pred``'s shape), summed in flat order."""
        log_c, log1m_c = self.logs
        terms = target * log_c + (1.0 - target) * log1m_c
        return float(-(np.add.reduce(terms.ravel()) / terms.size))

    def pred_grad(self, target: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. ``pred``, zero where the clamp is active. ``target``
        may carry leading axes over ``pred``'s shape."""
        inside, one_minus_clamped, _ = self.grad_terms
        g = target / self.clamped
        g -= (1.0 - target) / one_minus_clamped
        np.negative(g, out=g)
        g /= self.pred.size
        return np.where(inside, g, 0.0)

    def logit_grad(self, target: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the logits when ``pred`` is their sigmoid:
        :meth:`pred_grad` times p, times 1 - p, as the tape chains ``sigmoid``."""
        g = self.pred_grad(target)
        _, _, one_minus_pred = self.grad_terms
        g *= self.pred
        g *= one_minus_pred
        return g

    def target_grad(self) -> np.ndarray:
        """Gradient w.r.t. the targets, -(log p - log(1 - p)) / size, p clamped."""
        log_c, log1m_c = self.logs
        g = log_c - log1m_c
        np.negative(g, out=g)
        g /= self.pred.size
        return g


def row_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array, shifted by the row maximum."""
    zc = np.ascontiguousarray(z)
    e = np.exp(zc - np.maximum.reduce(zc, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


class TapeNode:
    """One recorded operation: ordered inputs plus a local-gradient closure."""

    __slots__ = ("inputs", "grad_fn")

    def __init__(self, inputs: tuple, grad_fn: Callable):
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tensor:
    """Dense float64 array participating in the gradient graph."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, *, node: TapeNode | None = None,
                 copy: bool = True):
        self.data = np.array(data, dtype=np.float64, copy=copy)
        self.requires_grad = requires_grad
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """Wrap array-like data as a non-differentiable tensor."""
    return Tensor(data, requires_grad=False, copy=True)


def make_op(data: np.ndarray, inputs: tuple, grad_fn: Callable) -> Tensor:
    """Create an op output, recording a tape node only if some input needs grads."""
    requires = any(t.requires_grad for t in inputs)
    node = TapeNode(inputs, grad_fn) if requires else None
    return Tensor(data, requires_grad=requires, node=node, copy=False)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner-dimension mismatch: {a.shape} @ {b.shape}")

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return make_op(a.data @ b.data, (a, b), grad_fn)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in {op}: {a.shape} vs {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return make_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a bias row vector to every row of a matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias expects [B,D] + [D], got {x.shape} and {b.shape}")
    return make_op(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=0)))


def sigmoid(x: Tensor) -> Tensor:
    y = logistic(x.data)
    return make_op(y, (x,), lambda g: (g * y * (1.0 - y),))


def relu(x: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0
    mask = x.data > 0.0
    return make_op(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def softmax(z: Tensor) -> Tensor:
    """Softmax over the last axis of a vector or a batch of row vectors."""
    if z.data.ndim not in (1, 2):
        raise ValueError(f"softmax expects a vector or matrix, got {z.shape}")
    w = row_softmax(z.data)

    def grad_fn(g):
        dot = np.sum(g * w, axis=-1, keepdims=True)
        return (w * (g - dot),)

    return make_op(w, (z,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    return make_op(np.array(x.data.sum()), (x,), lambda g: (np.full(x.shape, float(g)),))


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross entropy over all elements.

    Predictions are clamped to [BCE_EPS, 1 - BCE_EPS] before the logs. The
    loss is differentiable with respect to both the predictions and the
    targets; the target-side gradient is -(log p - log(1-p)) / size.
    """
    _check_same_shape(pred, target, "bce_loss")
    terms = BceTerms(np.ascontiguousarray(pred.data).ravel())
    y = np.ascontiguousarray(target.data).ravel()
    value = terms.value(y)
    if not np.isfinite(value):
        raise ValueError("bce_loss produced a non-finite value")

    def grad_fn(g):
        s = float(g)
        return (s * terms.pred_grad(y).reshape(pred.shape),
                s * terms.target_grad().reshape(target.shape))

    return make_op(np.array(value), (pred, target), grad_fn)


def detach(x: Tensor) -> Tensor:
    """Value-equal tensor severed from the gradient graph."""
    return Tensor(x.data.copy(), requires_grad=False)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    """Producers-before-consumers order of every tensor reachable from root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in reversed(t.node.inputs):
                stack.append((inp, False))
    return order


def gradients(loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient arrays of a scalar loss w.r.t. the given tensors, summed over
    every path from each tensor to the loss. Unreached tensors get zeros."""
    if loss.data.size != 1:
        raise ValueError(f"gradients requires a scalar loss, got shape {loss.shape}")
    acc: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for t in reversed(_toposort(loss)):
        g = acc.get(id(t))
        if g is None or t.node is None:
            continue
        for inp, gi in zip(t.node.inputs, t.node.grad_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            prev = acc.get(id(inp))
            acc[id(inp)] = gi if prev is None else prev + gi
    out = []
    for t in wrt:
        g = acc.get(id(t))
        out.append(np.zeros_like(t.data) if g is None else np.asarray(g, dtype=np.float64).reshape(t.shape).copy())
    return out


def finite_diff_grad(f: Callable[[Tensor], "Tensor | float"], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate of a scalar function of x."""

    def evaluate(arr: np.ndarray) -> float:
        res = f(Tensor(arr, requires_grad=False, copy=True))
        return res.item() if isinstance(res, Tensor) else float(res)

    base = x.data.copy()
    flat = base.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = evaluate(base)
        flat[i] = orig - eps
        lo = evaluate(base)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return Tensor(out.reshape(x.shape), copy=False)
