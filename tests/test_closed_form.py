"""Exact equivalence of the array training paths and the tape.

Training runs on plain arrays: the forward (``forward_arrays``), the M meta
probes as one stacked pass (``probe_features``), the model update on the
closed-form MLP backward (``final_step``) and the attention update on the
closed-form chain product (``attention_step``). The tape (``forward``,
``meta_step``, ``attend``, ``sample_label``, ``binarize``,
``autodiff.gradients``) stays as the oracle: every comparison here is
bitwise. The cases cover one and three hidden layers, a single label set,
a batch of one, ReLU pre-activations that are exactly 0
and predictions on both sides of the ``BCE_EPS`` clamp, where the clamp
zeroes the prediction gradient.
"""

from dataclasses import replace

import numpy as np
import pytest

from labelattn import autodiff
from labelattn.annotators import AnnotatorSpec
from labelattn.autodiff import BCE_EPS, Tensor, bce_loss, constant, gradients
from labelattn.data import (Batch, SyntheticSpec, attach_annotators, consensus_labels,
                            minibatches, one_hot, synth_blobs)
from labelattn.experiment import evaluate_clean
from labelattn.metatrain import (AttentionParams, MetaConfig, attend, attention_init,
                                 attention_step, binarize, collect_feedback, final_step, label_path,
                                 meta_step, probe_features, sample_label, train_attention,
                                 train_baseline, train_iteration)
from labelattn.model import (classifier_init, forward, forward_arrays, hidden_gradients,
                             param_gradients, params_get, params_set, predict_class)
from labelattn.optim import adam_init, adam_step, sgd_step

N_CLASSES = 3

# (hidden widths, label sets, batch size)
CASES = [
    ((7,), 4, 6),
    ((7,), 1, 5),
    ((9, 6, 5), 3, 6),
    ((9, 6, 5), 2, 1),
]
CASE_IDS = ["1-hidden", "1-hidden-M1", "3-hidden", "3-hidden-batch1"]


def edge_case_setup(hidden, n_sets, batch, seed=0):
    """A model, a batch and its array forward with exact-zero ReLU
    pre-activations in every hidden layer and predictions clamped at both
    ends."""
    rng = np.random.default_rng(seed)
    in_dim = 5
    model = classifier_init((in_dim, *hidden), N_CLASSES, rng=rng)
    params = [p.data.copy() for p in model.params]
    for i in range(len(hidden)):
        w, b = params[2 * i], params[2 * i + 1]
        b[:] = rng.normal(scale=0.1, size=b.shape)
        w[:, 0] = 0.0          # unit 0 of every layer: pre-activation exactly 0
        b[0] = 0.0
    params[-1][:] = [40.0, -40.0, 0.0]   # class 0 saturates to 1, class 1 to 0
    model = params_set(model, params)
    x = rng.normal(size=(batch, in_dim))
    x[0] = 0.0                 # with the zero biases, more exact zeros downstream
    sets = np.stack([np.eye(N_CLASSES)[rng.integers(0, N_CLASSES, size=batch)]
                     for _ in range(n_sets)])
    fwd = forward_arrays(model, x)
    return model, x, sets, fwd


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
class TestArrayForward:
    def test_matches_tape_forward(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        tape = forward(model, x)
        assert_same_bits(fwd.features, tape.features.data)
        assert_same_bits(fwd.probs, tape.probs.data)
        assert len(fwd.activations) == len(tape.activations) == len(hidden) + 1
        for a, e in zip(fwd.activations, tape.activations):
            assert_same_bits(a, e)
        assert np.array_equal(predict_class(fwd.probs), predict_class(tape))

    def test_input_is_not_copied(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        assert fwd.activations[0] is x


@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
class TestEdgeCasesAreExercised:
    def test_exact_zero_pre_activations_and_clamped_predictions(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        for h in fwd.activations[1:]:
            assert np.all(h[:, 0] == 0.0)
        p = fwd.probs
        assert np.all(p[:, 0] >= 1.0 - BCE_EPS) and np.all(p[:, 1] <= BCE_EPS)
        assert np.all((p[:, 2] > BCE_EPS) & (p[:, 2] < 1.0 - BCE_EPS))


@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
class TestParamGradients:
    def test_one_output_gradient_matches_tape(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        target = np.random.default_rng(1).uniform(size=fwd.probs.shape)
        pred = forward(model, x).probs
        expected = gradients(bce_loss(pred, constant(target)), params_get(model))
        got = param_gradients(model, fwd, fwd.bce.logit_grad(target))
        assert_same_bits(got, np.concatenate(expected, axis=None))

    def test_stacked_output_gradients_match_tape_per_set(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        got = hidden_gradients(model, fwd, fwd.bce.logit_grad(sets))
        assert len(got) == len(model.params) - 2
        pred = forward(model, x).probs
        for m in range(n_sets):
            expected = gradients(bce_loss(pred, constant(sets[m])), params_get(model))
            for g, e in zip(got, expected[:-2]):
                assert_same_bits(g[m], e)


@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
class TestStackedProbes:
    def test_probe_features_match_meta_step_loop_and_collect_feedback(
            self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        alpha = 0.3
        pred = forward(model, x).probs
        probes = [meta_step(model, sets[m], alpha, pred) for m in range(n_sets)]
        expected = collect_feedback(probes, x)
        got = probe_features(model, fwd, sets, alpha)
        assert type(got) is np.ndarray
        assert_same_bits(got, expected.data)

    def test_collect_feedback_matches_tape_forward_of_each_probe(self, hidden, n_sets,
                                                                 batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        pred = forward(model, x).probs
        probes = [meta_step(model, sets[m], 0.3, pred) for m in range(n_sets)]
        expected = np.concatenate([forward(p, x).features.data for p in probes], axis=1)
        assert_same_bits(collect_feedback(probes, x).data, expected)

    def test_live_model_untouched(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        before = [p.data.tobytes() for p in model.params]
        probe_features(model, fwd, sets, 0.3)
        assert [p.data.tobytes() for p in model.params] == before


# the benchmark's probes: (label sets, layer widths, batch)
BENCHMARK_PROBES = [(5, (32, 128, 64), 32), (3, (3072, 128, 64), 128)]


@pytest.mark.parametrize("n_sets, dims, batch", BENCHMARK_PROBES, ids=["narrow", "wide"])
def test_probe_features_match_tape_probes_at_benchmark_shapes(n_sets, dims, batch):
    rng = np.random.default_rng(dims[0])
    model = classifier_init(dims, 10, rng=rng)
    x = rng.standard_normal((batch, dims[0]))
    sets = np.eye(10)[rng.integers(0, 10, size=(n_sets, batch))]
    pred = forward(model, x).probs
    probes = [meta_step(model, sets[m], 0.2, pred) for m in range(n_sets)]
    expected = np.concatenate([forward(p, x).features.data for p in probes], axis=1)
    got = probe_features(model, forward_arrays(model, x), sets, 0.2)
    assert got.shape == (batch, n_sets * dims[-1])
    assert_same_bits(got, expected)


def tape_final_step(model, y_tilde, pred, state):
    """The model update on the tape: the oracle of ``final_step``."""
    loss = bce_loss(pred, constant(y_tilde))
    params = params_get(model)
    new_params, new_state = adam_step(state, params, gradients(loss, params))
    return params_set(model, new_params), new_state, loss.item()


def assert_same_update(got, expected):
    (g_model, g_state, g_loss), (e_model, e_state, e_loss) = got, expected
    for a, b in zip(g_model.params, e_model.params):
        assert_same_bits(a.data, b.data)
    assert g_state.t == e_state.t
    for a, b in zip(g_state.m + g_state.v, e_state.m + e_state.v):
        assert_same_bits(a, b)
    assert_same_bits(g_loss, e_loss)


@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
class TestFinalStep:
    def test_matches_tape_over_steps(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        rng = np.random.default_rng(2)
        state = adam_init(params_get(model), lr=1e-2)
        for _ in range(3):
            fwd = forward_arrays(model, x)
            y_tilde = binarize(constant(rng.uniform(size=fwd.probs.shape)), 50.0, 0.5).data
            got = final_step(model, y_tilde, fwd, state)
            assert_same_update(got, tape_final_step(model, y_tilde,
                                                    forward(model, x).probs, state))
            model, state, _ = got

    def test_matches_tape_on_a_fixed_label_set(self, hidden, n_sets, batch):
        model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
        state = adam_init(params_get(model), lr=1e-3)
        target = sets.mean(axis=0)
        assert_same_update(final_step(model, target, fwd, state),
                           tape_final_step(model, target, forward(model, x).probs, state))


def start_attention(start, n_sets, d, rng):
    """The attention a case starts from: ``"init"`` is the zero map every
    training run starts from (exactly uniform weights, tied logits);
    ``"random"`` is a map with distinct logits."""
    if start == "init":
        return attention_init(n_sets, d)
    return AttentionParams(w=Tensor(rng.normal(scale=0.3, size=(n_sets * d, n_sets)),
                                    requires_grad=True),
                           b=Tensor(rng.normal(scale=0.3, size=n_sets), requires_grad=True))


ATTENTION_STARTS = ["random", "init"]


def tape_attention_step(attn, stacked, label_sets, pred, k, t, beta):
    """The attention update on the tape: the oracle of ``label_path`` and
    ``attention_step``. Returns the new parameters, the weights and the
    binarized label."""
    weights = attend(attn, constant(stacked))
    y_tilde = binarize(sample_label(weights, label_sets), k, t)
    gw, gb = gradients(bce_loss(constant(pred), y_tilde), [attn.w, attn.b])
    new_w, new_b = sgd_step([attn.w, attn.b], [gw, gb], beta)
    return replace(attn, w=new_w, b=new_b), weights.data, y_tilde.data


@pytest.mark.parametrize("start", ATTENTION_STARTS)
@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
def test_attention_step_matches_tape_over_steps(start, hidden, n_sets, batch):
    model, x, sets, fwd = edge_case_setup(hidden, n_sets, batch)
    rng = np.random.default_rng(4)
    stacked = probe_features(model, fwd, sets, 0.3)
    attn = start_attention(start, n_sets, model.feature_dim, rng)
    # the edge-case predictions: clamped at both ends in classes 0 and 1
    pred = fwd.probs
    for _ in range(3):
        path = label_path(attn, stacked, sets, 50.0, 0.5)
        got = attention_step(attn, path, fwd.bce, 0.7)
        expected, e_weights, e_y_tilde = tape_attention_step(attn, stacked, sets, pred,
                                                             50.0, 0.5, 0.7)
        assert_same_bits(path.weights, e_weights)
        assert_same_bits(path.y_tilde, e_y_tilde)
        assert_same_bits(got.w.data, expected.w.data)
        assert_same_bits(got.b.data, expected.b.data)
        # one label set: the softmax is constant and the gradient zero; a
        # softmax within 1e-9 of 1 in every row (the batch-of-one case, whose
        # binarized label saturates too) moves the map by less than a bit
        frozen = n_sets == 1 or bool(np.all(path.weights.max(axis=1) > 1.0 - 1e-9))
        assert np.array_equal(got.w.data, attn.w.data) == frozen
        attn = got


def tape_iteration(model, attn, batch, config, state):
    """``train_iteration`` on the tape alone: the tape forward, M
    ``meta_step`` probes, the tape forward of each, the tape ops of steps
    4-6, and the tape model and attention updates."""
    pred = forward(model, batch.x).probs
    probes = [meta_step(model, batch.label_sets[m], config.alpha, pred)
              for m in range(attn.n_sets)]
    stacked = np.concatenate([forward(p, batch.x).features.data for p in probes],
                             axis=1)
    new_attn, weights, y_tilde = tape_attention_step(attn, stacked, batch.label_sets,
                                                     pred.data, config.k,
                                                     config.t_threshold, config.beta)
    new_model, new_state, loss = tape_final_step(model, y_tilde, pred, state)
    loss_post = bce_loss(forward(new_model, batch.x).probs,
                         constant(y_tilde)).item()
    return new_model, new_attn, new_state, loss, weights, loss_post


@pytest.mark.parametrize("start", ATTENTION_STARTS)
@pytest.mark.parametrize("hidden, n_sets, batch", CASES, ids=CASE_IDS)
def test_train_iteration_matches_tape(start, hidden, n_sets, batch):
    model, x, sets, _ = edge_case_setup(hidden, n_sets, batch)
    rng = np.random.default_rng(3)
    attn = start_attention(start, n_sets, model.feature_dim, rng)
    config = MetaConfig(alpha=0.3, beta=1e-2, batch_size=batch)
    state = adam_init(params_get(model), lr=config.beta)
    b = Batch(x=x, label_sets=sets, indices=np.arange(batch))
    for _ in range(3):
        got_model, got_attn, got_state, trace = train_iteration(model, attn, b, config, state)
        e_model, e_attn, e_state, e_loss, e_weights, e_post = tape_iteration(
            model, attn, b, config, state)
        assert_same_update((got_model, got_state, trace.loss_pre), (e_model, e_state, e_loss))
        assert_same_bits(got_attn.w.data, e_attn.w.data)
        assert_same_bits(got_attn.b.data, e_attn.b.data)
        assert_same_bits(trace.weights, e_weights)
        assert_same_bits(trace.weight_means, e_weights.mean(axis=0))
        assert_same_bits(trace.loss_post, e_post)
        model, attn, state = got_model, got_attn, got_state


def noisy_task(seed=0):
    spec = SyntheticSpec(n_classes=3, dim=5, samples_per_class=12, seed=seed)
    roster = [AnnotatorSpec("hammer_spammer", 0.2), AnnotatorSpec("adversarial")]
    train = attach_annotators(synth_blobs(spec, stream="train"), roster, seed=seed)
    val = attach_annotators(synth_blobs(spec, stream="test"), roster, seed=seed + 1)
    return train, val


def tape_evaluate(model, ds, targets):
    fwd = forward(model, ds.features)
    loss = bce_loss(fwd.probs, constant(one_hot(targets, ds.n_classes)))
    return float(np.mean(predict_class(fwd) == targets)), loss.item()


@pytest.mark.parametrize("target", ["avg", 1])
def test_train_baseline_matches_tape_loop(target):
    train, val = noisy_task()
    config = MetaConfig(beta=1e-2, batch_size=8, epochs=2, seed=5)
    model = classifier_init((5, 6, 4), train.n_classes, rng=np.random.default_rng(6))
    result = train_baseline(model, train, target, config, val_ds=val)

    val_targets = (consensus_labels(val) if target == "avg"
                   else val.label_sets[target])
    state = adam_init(params_get(model), lr=config.beta)
    for epoch, stats in enumerate(result.history):
        losses = []
        for batch in minibatches(train, config.batch_size, config.seed, epoch):
            y = (batch.label_sets.mean(axis=0) if target == "avg"
                 else batch.label_sets[target])
            model, state, loss = tape_final_step(model, y, forward(model, batch.x).probs,
                                                 state)
            losses.append(loss)
        assert_same_bits(stats.train_loss, float(np.mean(losses)))
        acc, loss = tape_evaluate(model, val, val_targets)
        assert_same_bits(stats.val_accuracy, acc)
        assert_same_bits(stats.val_loss, loss)
    for a, e in zip(result.last_model.params, model.params):
        assert_same_bits(a.data, e.data)


@pytest.fixture
def no_tape(monkeypatch):
    """Any tape node raises: what runs under this fixture builds no graph."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a tape node was built")
    monkeypatch.setattr(autodiff.TapeNode, "__init__", refuse)


class TestTrainingBuildsNoTape:
    def test_the_fixture_catches_a_tape_op(self, no_tape):
        with pytest.raises(AssertionError, match="tape node"):
            forward(classifier_init((2, 3), 2), np.ones((1, 2)))

    def test_train_attention(self, no_tape):
        train, val = noisy_task()
        model = classifier_init((5, 6, 4), train.n_classes, rng=np.random.default_rng(7))
        config = MetaConfig(batch_size=8, epochs=2)
        # the hook's read of loss_post runs the post-update forward pass
        losses = []
        result = train_attention(model, train, config, val_ds=val,
                                 trace_hook=lambda i, tr: losses.append(tr.loss_post))
        assert result.history[-1].val_loss is not None
        assert losses and all(np.isfinite(losses))
        train_attention(model, train, replace(config, epochs=1))

    @pytest.mark.parametrize("target", ["avg", 0])
    def test_train_baseline(self, no_tape, target):
        train, val = noisy_task()
        model = classifier_init((5, 6, 4), train.n_classes, rng=np.random.default_rng(8))
        result = train_baseline(model, train, target, MetaConfig(batch_size=8, epochs=2),
                                val_ds=val)
        assert result.history[-1].val_loss is not None

    def test_evaluate_clean(self, no_tape):
        train, val = noisy_task()
        model = classifier_init((5, 6, 4), train.n_classes, rng=np.random.default_rng(9))
        acc, aucs = evaluate_clean(model, val)
        assert 0.0 <= acc <= 1.0 and len(aucs) == val.n_classes
