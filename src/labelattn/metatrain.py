"""Meta-training with attention over label sets.

Each training iteration runs, on one minibatch carrying M candidate label
sets:

1. a single forward pass caching the predictions ``pred`` and the hidden
   activations;
2. one throwaway gradient probe per label set at rate ``alpha``, all M in
   one stacked pass: the closed-form MLP backward turns the M output
   gradients into [M, ...] hidden-parameter gradients, and the probe weights
   ``W - alpha * G`` are formed in those buffers (the live model is never
   mutated);
3. a feature-feedback pass: the step-1 layer loop over the M stacked probe
   weights gives their feature vectors, constant and stacked per sample
   [B, M*D] (the probe head is never run, since only features are fed back);
4. a softmax attention over the stacked feedback producing per-sample,
   per-set weights on the simplex: one learned linear map from the [B, M*D]
   feedback to M logits per sample (:class:`AttentionParams`, the only
   ``attention_mode``, ``"concat"``);
5. per-sample label sampling: the weighted sum of the one-hot label sets;
6. differentiable binarization, the smooth step sigmoid(k * (soft - t)),
   pushing the soft consensus toward {0, 1} while keeping gradients;
7. the live model update at rate ``beta`` (Adam) against the binarized
   target treated as a constant;
8. the attention-parameter update at rate ``beta`` (plain gradient),
   where the gradient flows through binarization, label sampling and the
   softmax into the attention weights while ``pred`` is held constant.

The weighted soft label is an exact loss reweighting: the BCE against the
weighted label equals the weight-averaged BCE against the individual sets
(see :func:`theorem1_gap`), which holds before binarization only.

Every step runs on plain arrays and builds no tape graph. Step 1 is
:func:`labelattn.model.forward_arrays`; steps 2, 3 and 7 run on the closed
forms of :mod:`labelattn.model`; steps 4-6 are :func:`label_path`, and step
8 is :func:`attention_gradients`, the chain product BCE target gradient x
binarization slope x label-sum transpose x softmax Jacobian. Steps 2, 7 and
8 read one set of BCE terms of the step-1 predictions, ``fwd.bce`` (an
:class:`labelattn.autodiff.BceTerms`): the predictions are clamped once per
iteration and their logs taken once. The tape is the oracle only:
:func:`meta_step` is one probe on it, and :func:`attend`,
:func:`sample_label` and :func:`binarize` are steps 4-6 as tape ops; its
``bce_loss`` reads the same :class:`~labelattn.autodiff.BceTerms`.
``tests/test_closed_form.py`` holds the array paths equal to the tape bit
for bit.

Each :class:`IterationTrace` holds its iteration's arrays by reference and
computes its values when read: only a read of ``loss_post`` runs a forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .autodiff import (BceTerms, Tensor, add_bias, bce_loss, constant, gradients, logistic,
                       make_op, matmul, row_softmax, softmax)
from .data import Batch, LabeledDataset, consensus_labels, minibatches, one_hot
from .model import (ArrayForward, Classifier, _input, forward_arrays, forward_probs,
                    hidden_gradients, param_gradients, params_get, params_set, predict_class,
                    stacked_features)
from .optim import AdamState, adam_init, adam_step, sgd_step

ATTENTION_CONCAT = "concat"   # one linear map from the stacked M*D vector to M logits


def _check_mode(mode: str) -> None:
    if mode != ATTENTION_CONCAT:
        raise ValueError(f"unknown attention_mode {mode!r}; only {ATTENTION_CONCAT!r} "
                         f"is supported")


@dataclass(frozen=True)
class MetaConfig:
    alpha: float = 0.2            # probe (meta) learning rate
    beta: float = 1e-4            # global learning rate
    k: float = 50.0               # binarization sharpness
    t_threshold: float = 0.5      # binarization threshold
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    attention_mode: str = ATTENTION_CONCAT  # the one mode; kept in every config's hash

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if not 0.0 < self.t_threshold < 1.0:
            raise ValueError(f"t_threshold must be in (0, 1), got {self.t_threshold}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        _check_mode(self.attention_mode)


@dataclass(frozen=True)
class AttentionParams:
    """Learnable linear map from the stacked [B, M*D] feedback features to
    the M per-set logits: weight matrix ``w`` [M*D, M] and bias ``b`` [M]."""

    w: Tensor
    b: Tensor

    @property
    def n_sets(self) -> int:
        """M, the length of the bias."""
        return self.b.shape[0]


def attention_init(n_sets: int, feat_dim: int, mode: str = ATTENTION_CONCAT) -> AttentionParams:
    """Zero-initialized attention: every sample starts at uniform weights.
    ``mode`` accepts only ``"concat"``."""
    _check_mode(mode)
    if n_sets < 1 or feat_dim < 1:
        raise ValueError("n_sets and feat_dim must be positive")
    return AttentionParams(
        w=Tensor(np.zeros((n_sets * feat_dim, n_sets)), requires_grad=True, copy=False),
        b=Tensor(np.zeros(n_sets), requires_grad=True, copy=False))


@dataclass(frozen=True)
class LabelPath:
    """Steps 4-6 of an iteration on plain arrays: the values the attention
    update differentiates through."""

    stacked: np.ndarray                   # [B, M*D] probe feedback
    weights: np.ndarray                   # [B, M] attention weights
    label_sets: np.ndarray                # [M, B, N] float64 label sets
    k: float                              # binarization sharpness
    y_tilde: np.ndarray                   # [B, N] binarized sampled label


@dataclass(frozen=True)
class IterationTrace:
    """What one iteration produced, held by reference and never written later,
    so each value computed when read has the bits it had inside the iteration."""

    loss_pre: float                       # loss value driving both updates
    weights: np.ndarray                   # [B, M] per-sample attention weights
    batch: Batch
    y_tilde: np.ndarray                   # [B, N] binarized target of the update
    model_before: Classifier
    model_after: Classifier
    attn_before: AttentionParams
    attn_after: AttentionParams

    @property
    def weight_means(self) -> np.ndarray:
        """[M] batch-mean attention weights."""
        return np.add.reduce(self.weights, axis=0) / self.weights.shape[0]

    @property
    def loss_post(self) -> float:
        """Same-batch loss of ``model_after`` against ``y_tilde``: one forward pass."""
        fwd = forward_arrays(self.model_after, self.batch.x)
        return fwd.bce.value(self.y_tilde)

    @property
    def model_update_norm(self) -> float:
        """Euclidean norm of the model update over all parameters."""
        return np.sqrt(sum(float(np.sum((a.data - b.data) ** 2))
                           for a, b in zip(self.model_after.params, self.model_before.params)))

    @property
    def attn_update_norm(self) -> float:
        """Euclidean norm of the attention update, weight matrix and bias."""
        new, old = self.attn_after, self.attn_before
        return np.sqrt(float(np.sum((new.w.data - old.w.data) ** 2))
                       + float(np.sum((new.b.data - old.b.data) ** 2)))


@dataclass
class EpochStats:
    train_loss: float
    val_accuracy: float | None = None
    val_loss: float | None = None
    mean_weights: list[float] | None = None


@dataclass
class TrainResult:
    model: Classifier                     # best-validation snapshot (or last)
    last_model: Classifier
    attn: AttentionParams | None
    history: list[EpochStats]
    best_epoch: int                       # the last epoch without validation; -1 if none ran


# ---------------------------------------------------------------------------
# single operations
# ---------------------------------------------------------------------------


def meta_step(model: Classifier, y_m: np.ndarray, alpha: float, pred: Tensor) -> Classifier:
    """One throwaway gradient probe toward label set ``y_m``, on the tape.

    ``pred`` must be the cached, graph-connected forward output of ``model``
    for the current batch; the probe returns a new classifier and leaves the
    input model untouched. Training runs all M probes at once in
    :func:`probe_features`; this is the oracle it is tested against.
    """
    loss = bce_loss(pred, constant(y_m))
    params = params_get(model)
    grads = gradients(loss, params)
    return params_set(model, sgd_step(params, grads, alpha))


def probe_features(model: Classifier, fwd: ArrayForward, label_sets: np.ndarray,
                   alpha: float) -> np.ndarray:
    """The M probes toward ``label_sets`` [M, B, N] and their feedback in one
    stacked pass: a [B, M*D] array equal bit for bit to ``collect_feedback``
    of the ``meta_step`` probes.

    ``fwd`` is ``model``'s array forward of the batch, whose checked input
    ``fwd.activations[0]`` the probes run on. Only the hidden parameters of a
    probe reach its features, so neither its head nor the head's gradient is
    formed. The [M, ...] gradient stack is freed on return.
    """
    if not np.logical_and.reduce(np.isfinite(fwd.probs), axis=None):
        raise ValueError("non-finite predictions")
    hidden = hidden_gradients(model, fwd,
                              fwd.bce.logit_grad(np.asarray(label_sets, np.float64)))
    for g, param in zip(hidden, model.params):
        g *= alpha
        np.subtract(param.data, g, out=g)
    return stacked_features(hidden, fwd.activations[0])


def collect_feedback(meta_models: Sequence[Classifier], x, aux=None) -> Tensor:
    """Per-sample stack of the probe models' feature vectors, detached.

    Returns a constant [B, M*D] tensor; no later gradient pass can reach the
    probe parameters through it. The models' hidden parameters are stacked
    and run through the same stacked forward as :func:`probe_features`.
    ``aux`` accepts only None; perfbench passes it.
    """
    if aux is not None:
        raise ValueError("a classifier takes no auxiliary features; aux must be None")
    if not meta_models:
        raise ValueError("no probe models to collect feedback from")
    hidden = [np.stack([p.data for p in layer])
              for layer in zip(*(m.params[:-2] for m in meta_models))]
    return Tensor(stacked_features(hidden, _input(meta_models[0], x)), copy=False)


def _check_width(attn: AttentionParams, stacked: np.ndarray) -> None:
    if stacked.ndim != 2 or stacked.shape[1] != attn.w.shape[0]:
        raise ValueError(f"stacked features {stacked.shape} do not match "
                         f"M*D = {attn.w.shape[0]}")


def attend(attn: AttentionParams, stacked: Tensor) -> Tensor:
    """Per-sample weights over the M label sets: softmax of a learned linear
    map of the stacked feedback features."""
    _check_width(attn, stacked.data)
    return softmax(add_bias(matmul(stacked, attn.w), attn.b))


def sample_label(weights: Tensor, label_sets: np.ndarray) -> Tensor:
    """Convex combination of the one-hot label sets under per-sample weights.

    ``weights`` is [B, M] and ``label_sets`` a constant [M, B, N] array of
    binary vectors.
    """
    labels = np.ascontiguousarray(label_sets, dtype=np.float64)
    w = weights.data
    if w.ndim != 2 or labels.ndim != 3 or labels.shape[:2] != (w.shape[1], w.shape[0]):
        raise ValueError(f"label sets {labels.shape} do not match weights {weights.shape}")
    out = np.einsum("bm,mbn->bn", np.ascontiguousarray(w), labels)

    def grad_fn(g):
        return (np.einsum("bn,mbn->bm", np.ascontiguousarray(g), labels),)

    return make_op(out, (weights,), grad_fn)


def binarize(y_soft: Tensor, k: float, t: float) -> Tensor:
    """Differentiable binarization sigmoid(k * (y - t)); strictly monotone,
    maps [0, 1] into (0, 1), derivative k * out * (1 - out)."""
    if k <= 0:
        raise ValueError("k must be positive")
    out = logistic(float(k) * (y_soft.data - float(t)))
    return make_op(out, (y_soft,), lambda g: (g * k * out * (1.0 - out),))


def final_step(model: Classifier, y_tilde: np.ndarray, fwd: ArrayForward,
               adam_state: AdamState) -> tuple[Classifier, AdamState, float]:
    """Adam update of the model against a constant target array: the
    binarized label of ``train_iteration`` or the fixed label set of
    ``train_baseline``. ``fwd`` is the model's array forward of the batch.
    Returns the new classifier, the advanced Adam state and the driving loss
    value.

    The loss value and the logit gradient read the forward's BCE terms
    (``fwd.bce``). The gradient is the closed-form backward's one flat
    vector (``param_gradients``), equal bit for bit to the tape's gradient of
    ``bce_loss(forward(...).probs, constant(y_tilde))``, which ``adam_step``
    then overwrites as its scratch. The new classifier holds Adam's fresh
    parameter tensors."""
    y = np.asarray(y_tilde, dtype=np.float64)
    if fwd.probs.shape != y.shape:
        raise ValueError(f"target shape {y.shape} does not match predictions {fwd.probs.shape}")
    value = fwd.bce.value(y)
    if not math.isfinite(value):
        raise ValueError("non-finite final loss")
    new_params, new_state = adam_step(adam_state, model.params,
                                      param_gradients(model, fwd, fwd.bce.logit_grad(y)))
    return replace(model, params=tuple(new_params)), new_state, value


def label_path(attn: AttentionParams, stacked: np.ndarray, label_sets: np.ndarray,
               k: float, t: float) -> LabelPath:
    """Steps 4-6 on plain arrays: the attention weights of ``attend``, the
    label sum of ``sample_label`` over the [M, B, N] ``label_sets`` and the
    ``binarize`` step, each equal bit for bit to the tape op's value."""
    _check_width(attn, stacked)
    m = attn.n_sets
    labels = np.ascontiguousarray(label_sets, dtype=np.float64)
    if labels.ndim != 3 or labels.shape[:2] != (m, stacked.shape[0]):
        raise ValueError(f"label sets {labels.shape} do not match {m} sets of "
                         f"{stacked.shape[0]} samples")
    if k <= 0:
        raise ValueError("k must be positive")
    logits = stacked @ attn.w.data
    logits += attn.b.data
    weights = row_softmax(logits)
    soft = np.einsum("bm,mbn->bn", weights, labels)
    y_tilde = logistic(float(k) * (soft - float(t)))
    return LabelPath(stacked=stacked, weights=weights, label_sets=labels, k=k,
                     y_tilde=y_tilde)


def attention_gradients(path: LabelPath, pred: BceTerms) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the attention weight matrix and bias, in closed form, of
    the BCE between the constant predictions whose BCE terms are ``pred``
    (``fwd.bce`` of the model's forward) and ``path.y_tilde``:
    BCE target gradient x binarization slope x label-sum transpose x softmax
    Jacobian, then the linear map. The products run in the tape's order, so
    the result equals ``autodiff.gradients`` through ``attend``,
    ``sample_label`` and ``binarize`` bit for bit."""
    out, w = path.y_tilde, path.weights
    g = pred.target_grad().reshape(out.shape)
    g = g * path.k * out * (1.0 - out)
    g = np.einsum("bn,mbn->bm", g, path.label_sets)
    g = w * (g - np.add.reduce(g * w, axis=-1, keepdims=True))
    return path.stacked.T @ g, np.add.reduce(g, axis=0)


def attention_step(attn: AttentionParams, path: LabelPath, pred: BceTerms,
                   beta: float) -> AttentionParams:
    """Attention-parameter update: one plain gradient step at rate ``beta``
    along :func:`attention_gradients`. ``path`` must be the
    :func:`label_path` of ``attn``, and ``pred`` the BCE terms of the
    model's predictions."""
    gw, gb = attention_gradients(path, pred)
    new_w, new_b = sgd_step([attn.w, attn.b], [gw, gb], beta)
    return replace(attn, w=new_w, b=new_b)


def _reweighted(pred: BceTerms, sets: np.ndarray, w: np.ndarray) -> float:
    """sum_m w_m * L(pred, y_m), each set taken flat against ``pred``'s terms."""
    if sets.shape[0] != w.size:
        raise ValueError(f"{sets.shape[0]} label sets but {w.size} weights")
    return sum((w[m] * pred.value(np.ravel(sets[m])) for m in range(w.size)), 0.0)


def reweighted_loss(pred, label_sets, weights) -> float:
    """Weighted sum of per-set BCE losses, sum_m w_m * L(pred, y_m)."""
    return _reweighted(BceTerms(np.ascontiguousarray(pred, dtype=np.float64).ravel()),
                       np.asarray(label_sets, dtype=np.float64),
                       np.asarray(weights, dtype=np.float64).ravel())


def theorem1_gap(pred, label_sets, weights) -> float:
    """|L(pred, sum_m w_m y_m) - sum_m w_m L(pred, y_m)|, evaluated on the
    un-binarized weighted label where the equality is exact."""
    terms = BceTerms(np.ascontiguousarray(pred, dtype=np.float64).ravel())
    sets = np.asarray(label_sets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64).ravel()
    lhs = terms.value(np.tensordot(w, sets, axes=(0, 0)).ravel())
    return abs(lhs - _reweighted(terms, sets, w))


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def train_iteration(model: Classifier, attn: AttentionParams, batch: Batch,
                    config: MetaConfig, adam_state: AdamState):
    """One full pass of the meta-training procedure on one minibatch."""
    if batch.label_sets.shape[0] != attn.n_sets:
        raise ValueError(f"batch carries {batch.label_sets.shape[0]} label sets, "
                         f"attention expects {attn.n_sets}")
    fwd = forward_arrays(model, batch.x)
    stacked = probe_features(model, fwd, batch.label_sets, config.alpha)
    path = label_path(attn, stacked, batch.label_sets, config.k, config.t_threshold)

    new_model, new_state, loss_pre = final_step(model, path.y_tilde, fwd, adam_state)
    new_attn = attention_step(attn, path, fwd.bce, config.beta)
    trace = IterationTrace(loss_pre=loss_pre, weights=path.weights, batch=batch,
                           y_tilde=path.y_tilde, model_before=model, model_after=new_model,
                           attn_before=attn, attn_after=new_attn)
    return new_model, new_attn, new_state, trace


def _evaluate_noisy(model: Classifier, ds: LabeledDataset, target_labels: np.ndarray):
    """(accuracy, bce loss) of the model against the given noisy targets,
    from :func:`~labelattn.model.forward_probs`, which runs the hidden layers
    in row blocks and keeps only the probabilities."""
    probs = forward_probs(model, ds.features)
    acc = float(np.mean(predict_class(probs) == target_labels))
    return acc, BceTerms(probs).value(one_hot(target_labels, ds.n_classes))


def _train_epochs(model: Classifier, train_ds: LabeledDataset, config: MetaConfig,
                  val_ds: LabeledDataset | None, val_targets, step) -> TrainResult:
    """The epoch loop both trainers share. ``step(model, batch)`` trains on
    one batch and returns (new model, loss, batch-mean attention weights or
    None). Each epoch records its mean loss and weights and, when ``val_ds``
    is given, its accuracy and loss against ``val_targets``; the returned
    ``model`` is the best-validation snapshot (else the final iterate)."""
    history: list[EpochStats] = []
    best_acc, best_epoch, best_model = -np.inf, -1, model

    for epoch in range(config.epochs):
        losses, epoch_weights = [], []
        for i, batch in enumerate(minibatches(train_ds, config.batch_size,
                                              config.seed, epoch)):
            try:
                model, loss, weights = step(model, batch)
            except ValueError as err:
                raise ValueError(f"epoch {epoch}, batch {i}: {err}") from err
            losses.append(loss)
            if weights is not None:
                epoch_weights.append(weights)

        stats = EpochStats(train_loss=float(np.mean(losses)) if losses else float("nan"),
                           mean_weights=[float(v) for v in np.mean(epoch_weights, axis=0)]
                           if epoch_weights else None)
        if val_ds is not None:
            stats.val_accuracy, stats.val_loss = _evaluate_noisy(model, val_ds, val_targets)
            if stats.val_accuracy > best_acc:
                best_acc, best_epoch, best_model = stats.val_accuracy, epoch, model
        history.append(stats)

    if best_epoch < 0:
        best_model, best_epoch = model, config.epochs - 1
    return TrainResult(model=best_model, last_model=model, attn=None, history=history,
                       best_epoch=best_epoch)


def train_attention(model: Classifier, train_ds: LabeledDataset, config: MetaConfig,
                    val_ds: LabeledDataset | None = None,
                    trace_hook=None) -> TrainResult:
    """Run the full meta-training loop over the dataset's label sets.

    Validation (when given) scores the model against the plurality vote of
    the noisy label sets; the returned ``model`` is the best-validation
    snapshot and ``last_model`` the final iterate. ``trace_hook(iteration,
    trace)``, when given, sees each iteration's :class:`IterationTrace`.
    """
    if train_ds.n_sets < 1:
        raise ValueError("training dataset carries no label sets")
    attn = attention_init(train_ds.n_sets, model.feature_dim)
    adam_state = adam_init(params_get(model), lr=config.beta)
    iteration = 0

    def step(model, batch):
        nonlocal attn, adam_state, iteration
        model, attn, adam_state, trace = train_iteration(model, attn, batch, config, adam_state)
        if trace_hook is not None:
            trace_hook(iteration, trace)
        iteration += 1
        # the trace, which holds the model before the step (a third parameter
        # vector) and the batch, goes with this frame, before the next step runs
        return model, trace.loss_pre, trace.weight_means

    val_targets = consensus_labels(val_ds) if val_ds is not None else None
    result = _train_epochs(model, train_ds, config, val_ds, val_targets, step)
    result.attn = attn
    return result


def train_baseline(model: Classifier, train_ds: LabeledDataset, target,
                   config: MetaConfig, val_ds: LabeledDataset | None = None) -> TrainResult:
    """Plain Adam + BCE training on one fixed label set (``target`` an index)
    or on the per-sample average of all sets (``target="avg"``), with the
    same data order as the attention trainer under the same seed."""
    if train_ds.n_sets < 1:
        raise ValueError("training dataset carries no label sets")
    if target != "avg" and not 0 <= int(target) < train_ds.n_sets:
        raise ValueError(f"label set index {target} out of range")
    adam_state = adam_init(params_get(model), lr=config.beta)

    def step(model, batch):
        nonlocal adam_state
        sets = batch.label_sets
        target_arr = (np.add.reduce(sets, axis=0) / sets.shape[0] if target == "avg"
                      else sets[int(target)])
        model, adam_state, value = final_step(
            model, target_arr, forward_arrays(model, batch.x), adam_state)
        return model, value, None

    val_targets = None
    if val_ds is not None:
        val_targets = (consensus_labels(val_ds) if target == "avg"
                       else val_ds.label_sets[int(target)])
    return _train_epochs(model, train_ds, config, val_ds, val_targets, step)
