"""Desk-scale multi-label classifier on one input ``x``: a dense ReLU stack
whose last hidden activation is the feature vector, and a per-class sigmoid
head. A :class:`Classifier` is its parameters alone, which give its widths.
Classifiers are immutable; parameter updates produce new instances.

Training runs on plain arrays: :func:`forward_arrays` is the forward it
uses, and its :class:`ArrayForward` makes the BCE terms of its predictions
(:class:`labelattn.autodiff.BceTerms`) once, on first use, for every loss
and gradient of the step to read. Evaluation runs :func:`forward_probs`,
which keeps only the probabilities; its bits equal :func:`forward_arrays`'
where every hidden width is a multiple of 8 (see its docstring). The meta
probes run :func:`stacked_features`, M classifiers that differ only in
their hidden parameters. All three run one hidden-layer loop, ``_hidden``.
:func:`param_gradients` is the MLP backward from one gradient at the
logits, returned as one flat vector in Adam's layout, and
:func:`hidden_gradients` its hidden-layer part, for one gradient or a stack
of M. None of them builds a tape graph. The tape :func:`forward` is the
oracle: the array paths repeat its products in its order, so their results
equal the tape's bit for bit; ``tests/test_closed_form.py`` holds them to
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .autodiff import BceTerms, Tensor, add_bias, constant, logistic, matmul, relu, sigmoid
from .optim import flat_views


@dataclass(frozen=True)
class Classifier:
    params: tuple[Tensor, ...]           # W1, b1, ..., Wk, bk, head_W, head_b
    aux_dim = 0                          # a class constant that perfbench reads

    @property
    def feature_dim(self) -> int:
        return self.params[-2].shape[0]


@dataclass(frozen=True)
class ForwardResult:
    """The tape forward of a batch."""

    features: Tensor                     # the last hidden activation
    logits: Tensor
    probs: Tensor
    activations: tuple[np.ndarray, ...] = ()   # the input, then each hidden ReLU output


@dataclass(frozen=True)
class ArrayForward:
    """The array forward of a batch: what training reads."""

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
    return Classifier(tuple(params))


def forward(model: Classifier, x, aux=None) -> ForwardResult:  # aux: only None; perfbench passes it
    """Differentiable forward pass over a batch [B, input_dim] on the tape:
    the oracle of :func:`forward_arrays`, which training runs."""
    if aux is not None:
        raise ValueError("a classifier takes no auxiliary features; aux must be None")
    h = x if isinstance(x, Tensor) else constant(x)
    _input(model, h.data)

    activations = [h.data]
    for w, b in zip(model.params[0:-2:2], model.params[1:-2:2]):
        h = relu(add_bias(matmul(h, w), b))
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


# Rows per block of forward_probs' hidden layers. A set of S rows runs as
# max(1, S // EVAL_BLOCK_ROWS) blocks whose sizes differ by at most one row.
EVAL_BLOCK_ROWS = 512


def _hidden(hidden: Sequence[np.ndarray], h: np.ndarray, activations: list | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """The hidden ReLU stack on plain arrays, the one layer loop of the array
    paths. ``hidden`` is [W1, b1, ..., Wk, bk] of one classifier over a batch
    ``h`` [B, input_dim], or those arrays stacked [M, ...] for M classifiers
    with each bias an [M, 1, D] view (a 1-D bias widened to [1, D] kept the
    bits but raised peak RSS). ReLU outputs go to ``activations`` if given,
    else each layer's input is released once the next exists; the last is
    written into ``out`` if given."""
    for i in range(0, len(hidden), 2):
        pre = np.matmul(h, hidden[i], out=out if i == len(hidden) - 2 else None)
        pre += hidden[i + 1]
        h = relu_in_place(pre)
        if activations is not None:
            activations.append(h)
    return h


def _logits(model: Classifier, features: np.ndarray) -> np.ndarray:
    """The head's logits of a batch's features [B, feature_dim]."""
    logits = features @ model.params[-2].data
    logits += model.params[-1].data
    return logits


def _input(model: Classifier, x) -> np.ndarray:
    h = np.ascontiguousarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.params[0].shape[0]:
        raise ValueError(f"input {h.shape} does not match the input width "
                         f"{model.params[0].shape[0]}")
    return h


def forward_arrays(model: Classifier, x) -> ArrayForward:
    """Forward pass over a batch [B, input_dim] on plain arrays, with no tape
    and no copy of the input; equal bit for bit to :func:`forward`."""
    h = _input(model, x)
    activations = [h]
    logits = _logits(model, _hidden([p.data for p in model.params[:-2]], h, activations))
    return ArrayForward(probs=logistic(logits), activations=tuple(activations))


def forward_probs(model: Classifier, x) -> np.ndarray:
    """The probabilities of a whole set [S, input_dim], keeping no activation;
    evaluation scores whole sets with it. The hidden layers run over row
    blocks of :data:`EVAL_BLOCK_ROWS` to ``2 * EVAL_BLOCK_ROWS - 1`` rows (one
    block below that), each writing its last activation into one
    [S, feature_dim] array; the head and the logistic then run once on the
    whole set. So at most one block's hidden activations are alive beside the
    head's input, and only the head's [S, N] arrays while the logistic runs.

    The head stays whole because its narrow product's bits depend on the row
    count on OpenBLAS; the hidden products' bits did not, for blocks of 8 or
    more rows, wherever every hidden width was a multiple of 8. Then the
    result equals :func:`forward_arrays`' probabilities bit for bit, as
    ``tests/test_model.py`` checks at the shapes the benchmark evaluates. A
    hidden width that is not a multiple of 8 (``(32, 10)`` at 5,000 rows, for
    one) may change the last bits on a set larger than one block."""
    h = _input(model, x)
    rows = h.shape[0]
    n_blocks = max(1, rows // EVAL_BLOCK_ROWS)
    hidden = [p.data for p in model.params[:-2]]
    features = np.empty((rows, model.feature_dim))
    for i in range(n_blocks):
        lo, hi = i * rows // n_blocks, (i + 1) * rows // n_blocks
        _hidden(hidden, h[lo:hi], out=features[lo:hi])
    logits = _logits(model, features)
    del features   # before the logistic makes its [S, N] arrays
    return logistic(logits)


def param_gradients(model: Classifier, fwd: ArrayForward, g: np.ndarray) -> np.ndarray:
    """Gradients of every parameter from the gradient ``g`` [B, N] at the
    logits of ``fwd`` (the array forward of ``model``), as one fresh flat
    float64 vector in declaration order: the form ``optim.adam_step`` takes.
    Each gradient is written into its own slice (see ``optim.flat_views``),
    so no other model-sized array is made.

    Each gradient equals ``autodiff.gradients`` on the tape of ``fwd`` bit
    for bit: the same products in the same order, the ReLU masks read as
    ``h > 0``, and no gradient for the input. A stacked ``g`` raises
    ``ValueError``; :func:`hidden_gradients` takes one.
    """
    if g.ndim != 2:
        raise ValueError(f"param_gradients takes one [B, N] logit gradient, got {g.shape}")
    flat = np.empty(sum(p.data.size for p in model.params))
    out = flat_views(flat, [p.shape for p in model.params])
    _backward(model, fwd, g, out[:-2])
    np.matmul(fwd.features.T, g, out=out[-2])
    np.add.reduce(g, axis=-2, out=out[-1])
    return flat


def hidden_gradients(model: Classifier, fwd: ArrayForward, g: np.ndarray) -> list[np.ndarray]:
    """The hidden-layer part of :func:`param_gradients`: the gradients of
    W1, b1, ..., Wk, bk (every parameter but the head) from a logit gradient
    ``g``, with the same bits, as one array each. The head's own gradients
    are never formed. ``g`` is [B, N], or a stack [M, B, N] of M gradients,
    which gives [M, ...] gradients through ``np.matmul`` over the leading
    axis, each equal to the tape's for its own gradient."""
    return _backward(model, fwd, g, (None,) * (len(model.params) - 2))


def _backward(model: Classifier, fwd: ArrayForward, g: np.ndarray,
              out: Sequence[np.ndarray | None]) -> list[np.ndarray]:
    """The hidden layers' backward, each gradient written into its array of
    ``out`` where that is not None."""
    acts = fwd.activations
    grads: list = [None] * len(out)
    g = np.matmul(g, model.params[-2].data.T)
    for i in reversed(range(len(acts) - 1)):
        g = g * (acts[i + 1] > 0.0)
        grads[2 * i] = np.matmul(acts[i].T, g, out=out[2 * i])
        grads[2 * i + 1] = np.add.reduce(g, axis=-2, out=out[2 * i + 1])
        if i:
            g = np.matmul(g, model.params[2 * i].data.T)
    return grads


def stacked_features(hidden: Sequence[np.ndarray], h: np.ndarray) -> np.ndarray:
    """Features of M classifiers whose hidden arrays are ``hidden`` = [W1, b1,
    ..., Wk, bk], each stacked [M, ...], over a checked float64 batch ``h``
    [B, input_dim]. Returns [B, M*D]: row b holds sample b's M feature
    vectors, each equal bit for bit to what ``forward`` gives for that
    classifier."""
    stack = list(hidden)
    stack[1::2] = [b[:, None, :] for b in stack[1::2]]
    return _hidden(stack, h).transpose(1, 0, 2).reshape(h.shape[0], -1)


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
    return Classifier(tuple(fresh))


def predict_class(result: ForwardResult | np.ndarray) -> np.ndarray:
    """Per-row argmax over a batch's probabilities (an array, or the tape
    forward's); ties break toward the lowest index."""
    return np.argmax(result.probs.data if isinstance(result, ForwardResult) else result, axis=1)
