"""Exact equivalence of the closed-form training paths and the tape.

Training runs the M meta probes as one stacked pass (``probe_features``) and
the model update on the closed-form MLP backward (``final_step``). The tape
(``meta_step``, ``forward``, ``autodiff.gradients``) stays as the oracle:
every comparison here is bitwise. The cases cover one and three hidden
layers, auxiliary features, a single label set, a batch of one, ReLU
pre-activations that are exactly 0 and predictions on both sides of the
``BCE_EPS`` clamp, where the clamp zeroes the prediction gradient.
"""

import numpy as np
import pytest

from labelattn.autodiff import (BCE_EPS, Tensor, bce_loss, bce_pred_grad, constant, detach,
                                gradients)
from labelattn.data import Batch
from labelattn.metatrain import (ATTENTION_CONCAT, ATTENTION_SHARED, AttentionParams,
                                 MetaConfig, attend, attention_step, binarize,
                                 collect_feedback, final_step, meta_step, probe_features,
                                 sample_label, train_iteration)
from labelattn.model import (classifier_init, forward, param_gradients, params_get,
                             params_set)
from labelattn.optim import adam_init, adam_step

N_CLASSES = 3

# (hidden widths, aux width, label sets, batch size)
CASES = [
    ((7,), 0, 4, 6),
    ((7,), 2, 1, 5),
    ((9, 6, 5), 0, 3, 6),
    ((9, 6, 5), 3, 2, 1),
]
CASE_IDS = ["1-hidden", "1-hidden-aux-M1", "3-hidden", "3-hidden-aux-batch1"]


def edge_case_setup(hidden, aux_dim, n_sets, batch, seed=0):
    """A model, a batch and its forward with exact-zero ReLU pre-activations
    in every hidden layer and predictions clamped at both ends."""
    rng = np.random.default_rng(seed)
    in_dim = 5
    model = classifier_init((in_dim, *hidden), N_CLASSES, aux_dim, rng=rng)
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
    aux = rng.normal(size=(batch, aux_dim)) if aux_dim else None
    sets = np.stack([np.eye(N_CLASSES)[rng.integers(0, N_CLASSES, size=batch)]
                     for _ in range(n_sets)])
    fwd = forward(model, x, aux)
    return model, x, aux, sets, fwd


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("hidden, aux_dim, n_sets, batch", CASES, ids=CASE_IDS)
class TestEdgeCasesAreExercised:
    def test_exact_zero_pre_activations_and_clamped_predictions(self, hidden, aux_dim,
                                                                n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        for h in fwd.activations[1:]:
            assert np.all(h[:, 0] == 0.0)
        p = fwd.probs.data
        assert np.all(p[:, 0] >= 1.0 - BCE_EPS) and np.all(p[:, 1] <= BCE_EPS)
        assert np.all((p[:, 2] > BCE_EPS) & (p[:, 2] < 1.0 - BCE_EPS))


@pytest.mark.parametrize("hidden, aux_dim, n_sets, batch", CASES, ids=CASE_IDS)
class TestParamGradients:
    def test_one_output_gradient_matches_tape(self, hidden, aux_dim, n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        target = np.random.default_rng(1).uniform(size=fwd.probs.shape)
        expected = gradients(bce_loss(fwd.probs, constant(target)), params_get(model))
        p = fwd.probs.data
        got = param_gradients(model, fwd, bce_pred_grad(p, target) * p * (1.0 - p))
        for g, e in zip(got, expected):
            assert_same_bits(g, e)

    def test_stacked_output_gradients_match_tape_per_set(self, hidden, aux_dim, n_sets,
                                                         batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        p = fwd.probs.data
        got = param_gradients(model, fwd, bce_pred_grad(p, sets) * p * (1.0 - p))
        for m in range(n_sets):
            expected = gradients(bce_loss(fwd.probs, constant(sets[m])), params_get(model))
            for g, e in zip(got, expected):
                assert_same_bits(g[m], e)


@pytest.mark.parametrize("hidden, aux_dim, n_sets, batch", CASES, ids=CASE_IDS)
class TestStackedProbes:
    def test_probe_features_match_meta_step_loop_and_collect_feedback(
            self, hidden, aux_dim, n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        alpha = 0.3
        probes = [meta_step(model, sets[m], alpha, fwd.probs) for m in range(n_sets)]
        expected = collect_feedback(probes, x, aux)
        got = probe_features(model, fwd, sets, alpha, x, aux)
        assert not got.requires_grad and got.node is None
        assert_same_bits(got.data, expected.data)

    def test_collect_feedback_matches_tape_forward_of_each_probe(self, hidden, aux_dim,
                                                                 n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        probes = [meta_step(model, sets[m], 0.3, fwd.probs) for m in range(n_sets)]
        expected = np.concatenate([forward(p, x, aux).features.data for p in probes], axis=1)
        assert_same_bits(collect_feedback(probes, x, aux).data, expected)

    def test_live_model_untouched(self, hidden, aux_dim, n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        before = [p.data.tobytes() for p in model.params]
        probe_features(model, fwd, sets, 0.3, x, aux)
        assert [p.data.tobytes() for p in model.params] == before


def tape_final_step(model, y_tilde, pred, state):
    """The model update on the tape: the oracle of ``final_step``."""
    loss = bce_loss(pred, detach(y_tilde))
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


@pytest.mark.parametrize("hidden, aux_dim, n_sets, batch", CASES, ids=CASE_IDS)
class TestFinalStep:
    def test_matches_tape_over_steps(self, hidden, aux_dim, n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        rng = np.random.default_rng(2)
        state = adam_init(params_get(model), lr=1e-2)
        for _ in range(3):
            fwd = forward(model, x, aux)
            y_tilde = binarize(constant(rng.uniform(size=fwd.probs.shape)), 50.0, 0.5)
            got = final_step(model, y_tilde, fwd, state)
            assert_same_update(got, tape_final_step(model, y_tilde, fwd.probs, state))
            model, state, _ = got

    def test_matches_tape_on_a_fixed_label_set(self, hidden, aux_dim, n_sets, batch):
        model, x, aux, sets, fwd = edge_case_setup(hidden, aux_dim, n_sets, batch)
        state = adam_init(params_get(model), lr=1e-3)
        target = constant(sets.mean(axis=0))
        assert_same_update(final_step(model, target, fwd, state),
                           tape_final_step(model, target, fwd.probs, state))


def tape_iteration(model, attn, batch, config, state):
    """``train_iteration`` on the tape alone: M ``meta_step`` probes, the tape
    forward of each, and the tape model update."""
    pred = forward(model, batch.x, batch.aux).probs
    probes = [meta_step(model, batch.label_sets[m], config.alpha, pred)
              for m in range(attn.n_sets)]
    stacked = constant(np.concatenate(
        [detach(forward(p, batch.x, batch.aux).features).data for p in probes], axis=1))
    weights = attend(attn, stacked)
    y_tilde = binarize(sample_label(weights, batch.label_sets), config.k, config.t_threshold)
    new_model, new_state, loss = tape_final_step(model, y_tilde, pred, state)
    new_attn = attention_step(attn, y_tilde, pred, config.beta)
    return new_model, new_attn, new_state, loss, weights.data.mean(axis=0)


@pytest.mark.parametrize("mode", [ATTENTION_CONCAT, ATTENTION_SHARED])
@pytest.mark.parametrize("hidden, aux_dim, n_sets, batch", CASES, ids=CASE_IDS)
def test_train_iteration_matches_tape(mode, hidden, aux_dim, n_sets, batch):
    model, x, aux, sets, _ = edge_case_setup(hidden, aux_dim, n_sets, batch)
    rng = np.random.default_rng(3)
    d = model.feature_dim + aux_dim
    w_shape = (n_sets * d, n_sets) if mode == ATTENTION_CONCAT else (d, 1)
    attn = AttentionParams(n_sets, d, w=Tensor(rng.normal(scale=0.3, size=w_shape),
                                               requires_grad=True),
                           b=Tensor(rng.normal(scale=0.3, size=w_shape[1]),
                                    requires_grad=True),
                           mode=mode)
    config = MetaConfig(alpha=0.3, beta=1e-2, batch_size=batch, attention_mode=mode)
    state = adam_init(params_get(model), lr=config.beta)
    b = Batch(x=x, label_sets=sets, aux=aux, indices=np.arange(batch))
    for _ in range(3):
        got_model, got_attn, got_state, trace = train_iteration(model, attn, b, config, state)
        e_model, e_attn, e_state, e_loss, e_means = tape_iteration(model, attn, b, config,
                                                                   state)
        assert_same_update((got_model, got_state, trace.loss_pre), (e_model, e_state, e_loss))
        assert_same_bits(got_attn.w.data, e_attn.w.data)
        assert_same_bits(got_attn.b.data, e_attn.b.data)
        assert_same_bits(trace.weight_means, e_means)
        model, attn, state = got_model, got_attn, got_state
