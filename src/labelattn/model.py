"""Desk-scale multi-label classifier on one input ``x``: a dense ReLU stack
whose last hidden activation is the feature vector, and a per-class sigmoid
head. Classifiers are immutable; parameter updates produce new instances.

Training runs on plain arrays: :func:`forward_arrays` is the forward it
uses, and its :class:`ArrayForward` makes the BCE terms of its predictions
(:class:`labelattn.autodiff.BceTerms`) once, on first use, for every loss
and gradient of the step to read. :func:`param_gradients` is the MLP
backward from a gradient at the logits (one, optionally written into
caller-given arrays, or a stack of M), :func:`hidden_gradients` its
hidden-layer part, and :func:`stacked_features` the hidden stack of M
classifiers that differ only in their hidden parameters. None of them builds
a tape graph. The tape :func:`forward` is the oracle: the array paths repeat
its products in its order, so their results equal the tape's bit for bit;
``tests/test_closed_form.py`` holds them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .autodiff import BceTerms, Tensor, add_bias, constant, logistic, matmul, relu, sigmoid

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class Classifier:
    layer_dims: tuple[int, ...]          # input_dim, hidden..., feature_dim
    n_classes: int
    params: tuple[Tensor, ...]           # W1, b1, ..., Wk, bk, head_W, head_b
    aux_dim = 0                          # a class constant that perfbench reads

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass(frozen=True)
class ForwardResult:
    """The tape forward of a batch."""

    features: Tensor                     # the last hidden activation
    logits: Tensor
    probs: Tensor
    activations: tuple[np.ndarray, ...] = ()   # the input, then each hidden ReLU output


@dataclass(frozen=True)
class ArrayForward:
    """The array forward of a batch: what training and evaluation read."""

    probs: np.ndarray
    activations: tuple[np.ndarray, ...]  # the input, then each hidden ReLU output

    @property
    def features(self) -> np.ndarray:
        """The last hidden activation, which the head reads."""
        return self.activations[-1]

    @cached_property
    def bce(self) -> BceTerms:
        """The BCE terms of ``probs``, made on first use and then shared by
        every loss and gradient taken against them."""
        return BceTerms(self.probs)


def classifier_init(layer_dims, n_classes: int, aux_dim: int = 0,  # only 0; perfbench passes it
                    rng: np.random.Generator | None = None) -> Classifier:
    """He-scaled normal weights (std = sqrt(2/fan_in)), zero biases."""
    layer_dims = tuple(int(d) for d in layer_dims)
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims) or n_classes < 1 or aux_dim != 0:
        raise ValueError(f"invalid dimensions: layer_dims={layer_dims}, "
                         f"n_classes={n_classes}, aux_dim={aux_dim}")
    if rng is None:
        rng = np.random.default_rng(0)
    params: list[Tensor] = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        params.append(Tensor(w, requires_grad=True, copy=False))
        params.append(Tensor(np.zeros(fan_out), requires_grad=True, copy=False))
    head_w = rng.normal(0.0, np.sqrt(2.0 / layer_dims[-1]), size=(layer_dims[-1], n_classes))
    params.append(Tensor(head_w, requires_grad=True, copy=False))
    params.append(Tensor(np.zeros(n_classes), requires_grad=True, copy=False))
    return Classifier(layer_dims=layer_dims, n_classes=n_classes, params=tuple(params))


def _check_batch(model: Classifier, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input width {x.shape} does not match layer_dims[0]={model.layer_dims[0]}")


def forward(model: Classifier, x, aux=None) -> ForwardResult:  # aux: only None; perfbench passes it
    """Differentiable forward pass over a batch [B, input_dim] on the tape:
    the oracle of :func:`forward_arrays`, which training runs."""
    if aux is not None:
        raise ValueError("a classifier takes no auxiliary features; aux must be None")
    h = x if isinstance(x, Tensor) else constant(x)
    _check_batch(model, h.data)

    activations = [h.data]
    for i in range(len(model.layer_dims) - 1):
        h = relu(add_bias(matmul(h, model.params[2 * i]), model.params[2 * i + 1]))
        activations.append(h.data)

    logits = add_bias(matmul(h, model.params[-2]), model.params[-1])
    return ForwardResult(features=h, logits=logits, probs=sigmoid(logits),
                         activations=tuple(activations))


def relu_in_place(pre: np.ndarray) -> np.ndarray:
    """ReLU written over ``pre``, with the bits of ``np.where(pre > 0.0, pre,
    0.0)`` but no branch per element: ``fmax`` maps NaN to 0, and adding 0.0
    turns the -0.0 that ``fmax`` may keep into +0.0."""
    np.fmax(pre, 0.0, out=pre)
    pre += 0.0
    return pre


def forward_arrays(model: Classifier, x) -> ArrayForward:
    """Forward pass over a batch [B, input_dim] on plain arrays, with no tape
    and no copy of the input; equal bit for bit to :func:`forward`."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    _check_batch(model, x)
    h = x
    activations = [h]
    for i in range(len(model.layer_dims) - 1):
        pre = h @ model.params[2 * i].data
        pre += model.params[2 * i + 1].data
        h = relu_in_place(pre)
        activations.append(h)
    logits = h @ model.params[-2].data
    logits += model.params[-1].data
    return ArrayForward(probs=logistic(logits), activations=tuple(activations))


def param_gradients(model: Classifier, fwd: ArrayForward, g: np.ndarray,
                    out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """Gradients of every parameter, in declaration order, from the gradient
    ``g`` at the logits of ``fwd`` (the array forward of ``model``).

    ``g`` is [B, N], or a stack [M, B, N] of M gradients, which gives [M, ...]
    gradients through ``np.matmul`` over the leading axis. Each one equals
    ``autodiff.gradients`` on the tape of ``fwd`` bit for bit: the same
    products in the same order, the ReLU masks read as ``h > 0``, and no
    gradient for the input.

    With ``out``, one float64 array per parameter and shaped like it (``g``
    then [B, N]), each gradient is written into its parameter's array and
    those arrays are returned: ``metatrain.final_step`` passes views of one
    flat vector in Adam's layout, so no other model-sized array is made. An
    ``out`` of the wrong count or dtype, a read-only one or a stacked ``g``
    raises ``ValueError`` (numpy would cast into a float32 array silently),
    and so does an array of the wrong shape, which numpy refuses itself.
    """
    hidden_out, head_out = None, (None, None)
    if out is not None:  # the head's arrays here, the hidden ones in hidden_gradients
        _check_out(len(model.params), g, out, start=len(model.params) - 2)
        hidden_out, head_out = out[:-2], out[-2:]
    return hidden_gradients(model, fwd, g, hidden_out) + [
        np.matmul(fwd.features.T, g, out=head_out[0]),
        np.add.reduce(g, axis=-2, out=head_out[1])]


def hidden_gradients(model: Classifier, fwd: ArrayForward, g: np.ndarray,
                     out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """The hidden-layer part of :func:`param_gradients`: the gradients of
    W1, b1, ..., Wk, bk (every parameter but the head) from the same logit
    gradient ``g``, with the same bits. The head's own gradients are never
    formed. ``out`` is as in :func:`param_gradients`, one array per hidden
    parameter."""
    acts = fwd.activations
    if out is None:
        out = (None,) * (len(model.params) - 2)
    else:
        _check_out(len(model.params) - 2, g, out)
    grads: list = [None] * (len(model.params) - 2)
    g = np.matmul(g, model.params[-2].data.T)
    for i in reversed(range(len(acts) - 1)):
        g = g * (acts[i + 1] > 0.0)
        grads[2 * i] = np.matmul(acts[i].T, g, out=out[2 * i])
        grads[2 * i + 1] = np.add.reduce(g, axis=-2, out=out[2 * i + 1])
        if i:
            g = np.matmul(g, model.params[2 * i].data.T)
    return grads


def _check_out(n: int, g: np.ndarray, out, start: int = 0) -> None:
    """Refuse an ``out`` that is not ``n`` writeable float64 arrays for a
    [B, N] logit gradient, where numpy would cast the gradient down into a
    float32 array silently. Arrays before ``start`` are left to another
    check, and a wrong shape to numpy, which refuses it."""
    if g.ndim != 2 or len(out) != n:
        got = f"{len(out)} arrays for {n} parameters and gradient {g.shape}"
    else:
        bad = [i for i in range(start, n)
               if out[i].dtype != _FLOAT64 or not out[i].flags.writeable]
        if not bad:
            return
        o = out[bad[0]]
        got = f"{o.dtype}{'' if o.flags.writeable else ' read-only'} array {bad[0]}"
    raise ValueError(f"out must hold one writeable float64 array per parameter, for a "
                     f"[B, N] logit gradient; got {got}")


def stacked_features(model: Classifier, hidden: Sequence[np.ndarray], x) -> np.ndarray:
    """Features of M classifiers shaped like ``model`` whose hidden parameters
    are ``hidden`` = [W1, b1, ..., Wk, bk], each stacked [M, ...]. Returns
    [B, M*D]: row b holds sample b's M feature vectors, each equal bit for
    bit to what ``forward`` gives for that classifier."""
    x = np.ascontiguousarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    _check_batch(model, x)
    h = x
    for w, b in zip(hidden[0::2], hidden[1::2]):
        pre = np.matmul(h, w)
        pre += b[:, None, :]
        h = relu_in_place(pre)
    return h.transpose(1, 0, 2).reshape(x.shape[0], -1)


def params_get(model: Classifier) -> list[Tensor]:
    return list(model.params)


def params_set(model: Classifier, params) -> Classifier:
    """New classifier with copied parameters; shares nothing mutable."""
    params = list(params)
    if len(params) != len(model.params):
        raise ValueError(f"expected {len(model.params)} parameter tensors, got {len(params)}")
    fresh = []
    for old, new in zip(model.params, params):
        arr = new.data if isinstance(new, Tensor) else np.asarray(new, dtype=np.float64)
        if arr.shape != old.data.shape:
            raise ValueError(f"parameter shape {arr.shape} does not match {old.data.shape}")
        fresh.append(Tensor(arr.copy(), requires_grad=True, copy=False))
    return Classifier(model.layer_dims, model.n_classes, tuple(fresh))


def predict_class(result: ForwardResult | ArrayForward) -> np.ndarray | int:
    """Argmax over probabilities; ties break toward the lowest index."""
    probs = result.probs.data if isinstance(result, ForwardResult) else result.probs
    if probs.ndim == 1:
        return int(np.argmax(probs))
    return np.argmax(probs, axis=1)
