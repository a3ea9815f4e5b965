"""Meta-training operations: per-op contracts, the loss-reweighting identity,
and a fully hand-computed single-iteration fixture."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from labelattn import metatrain
from labelattn.annotators import AnnotatorSpec
from labelattn.autodiff import BceTerms, Tensor, constant, gradients
from labelattn.data import (Batch, LabeledDataset, SyntheticSpec, attach_annotators, minibatches,
                            synth_blobs)
from labelattn.metatrain import (AttentionParams, MetaConfig, attend, attention_init,
                                 attention_step, binarize, collect_feedback, final_step,
                                 label_path, meta_step, sample_label,
                                 theorem1_gap, train_attention, train_baseline, train_iteration)
from labelattn.model import (classifier_init, forward, forward_arrays, forward_probs,
                             params_get, params_set)
from labelattn.optim import adam_init


BCE_EPS = 1e-7


def manual_bce(pred, target):
    p = np.clip(pred, BCE_EPS, 1 - BCE_EPS)
    return float(-np.mean(target * np.log(p) + (1 - target) * np.log1p(-p)))


def tiny_classifier(seed=0):
    return classifier_init((3, 4, 2), n_classes=2, rng=np.random.default_rng(seed))


class TestMetaStep:
    def test_alpha_zero_keeps_parameters_bitwise(self):
        model = tiny_classifier()
        x = np.random.default_rng(1).normal(size=(4, 3))
        pred = forward(model, x).probs
        y = np.random.default_rng(2).integers(0, 2, size=(4, 2)).astype(float)
        probe = meta_step(model, y, alpha=0.0, pred=pred)
        for a, b in zip(probe.params, model.params):
            assert np.array_equal(a.data, b.data)

    def test_never_mutates_the_live_model(self):
        model = tiny_classifier()
        snapshots = [p.data.tobytes() for p in model.params]
        x = np.random.default_rng(3).normal(size=(4, 3))
        pred = forward(model, x).probs
        y = np.ones((4, 2))
        meta_step(model, y, alpha=0.5, pred=pred)
        assert [p.data.tobytes() for p in model.params] == snapshots

    def test_stationary_at_perfect_prediction(self):
        model = tiny_classifier()
        x = np.random.default_rng(4).normal(size=(4, 3))
        pred = forward(model, x).probs
        # a target equal to the prediction zeroes the BCE gradient direction
        probe = meta_step(model, pred.data.copy(), alpha=0.2, pred=pred)
        delta = max(np.max(np.abs(a.data - b.data))
                    for a, b in zip(probe.params, model.params))
        assert delta <= 1e-12

    def test_probe_changes_forward_output_when_gradients_nonzero(self):
        model = tiny_classifier()
        x = np.random.default_rng(30).normal(size=(4, 3))
        pred = forward(model, x).probs
        y = 1.0 - np.round(pred.data)  # disagreeing target -> nonzero gradient
        probe = meta_step(model, y, alpha=0.2, pred=pred)
        assert not np.array_equal(forward(probe, x).probs.data,
                                  forward(model, x).probs.data)

    def test_single_logit_hand_computed(self):
        # model: 1 -> 1 -> 1, all weights hand-set; one sample
        model = classifier_init((1, 1), n_classes=1, rng=np.random.default_rng(0))
        model = params_set(model, [np.array([[2.0]]), np.array([0.0]),
                                   np.array([[1.5]]), np.array([0.25])])
        x = np.array([[0.8]])
        fwd = forward(model, x)
        pred = fwd.probs
        y = np.array([[1.0]])
        alpha = 0.1

        h = max(0.8 * 2.0, 0.0)              # 1.6
        z = h * 1.5 + 0.25                   # 2.65
        p = 1 / (1 + np.exp(-z))
        dl_dp = -(1.0 / p)                   # single element mean
        dl_dz = dl_dp * p * (1 - p)          # = p - 1
        grads = {
            "w1": dl_dz * 1.5 * 0.8,         # through relu (h > 0)
            "b1": dl_dz * 1.5,
            "w2": dl_dz * h,
            "b2": dl_dz,
        }
        probe = meta_step(model, y, alpha, pred)
        assert probe.params[0].data[0, 0] == pytest.approx(2.0 - alpha * grads["w1"], abs=1e-12)
        assert probe.params[1].data[0] == pytest.approx(0.0 - alpha * grads["b1"], abs=1e-12)
        assert probe.params[2].data[0, 0] == pytest.approx(1.5 - alpha * grads["w2"], abs=1e-12)
        assert probe.params[3].data[0] == pytest.approx(0.25 - alpha * grads["b2"], abs=1e-12)


class TestCollectFeedback:
    def test_identical_probes_give_identical_rows(self):
        model = tiny_classifier()
        x = np.random.default_rng(5).normal(size=(3, 3))
        stacked = collect_feedback([model, model], x)
        d = model.feature_dim
        assert np.array_equal(stacked.data[:, :d], stacked.data[:, d:])

    def test_detached_from_probe_parameters(self):
        from labelattn.autodiff import sum_all
        model = tiny_classifier()
        x = np.random.default_rng(6).normal(size=(3, 3))
        stacked = collect_feedback([model], x)
        assert not stacked.requires_grad and stacked.node is None
        attn = attention_init(1, model.feature_dim)
        weights = attend(attn, stacked)
        (g,) = gradients(sum_all(weights), [model.params[0]])
        assert np.array_equal(g, np.zeros_like(model.params[0].data))

    def test_equal_probe_pair_uniform_under_symmetric_columns(self):
        model = tiny_classifier()
        x = np.random.default_rng(7).normal(size=(4, 3))
        stacked = collect_feedback([model, model], x)
        d = model.feature_dim
        col = np.random.default_rng(8).normal(size=2 * d)
        w = np.stack([col, col], axis=1)  # identical columns -> equal logits
        attn = AttentionParams(w=Tensor(w, requires_grad=True),
                               b=Tensor(np.zeros(2), requires_grad=True))
        weights = attend(attn, stacked)
        assert np.allclose(weights.data, 0.5, atol=1e-15)


class TestAttend:
    def test_single_set_weight_is_one(self):
        attn = attention_init(1, 3)
        stacked = constant(np.random.default_rng(9).normal(size=(5, 3)))
        assert np.array_equal(attend(attn, stacked).data, np.ones((5, 1)))

    def test_zero_parameters_give_uniform(self):
        attn = attention_init(4, 3)
        stacked = constant(np.random.default_rng(10).normal(size=(6, 12)))
        assert np.allclose(attend(attn, stacked).data, 0.25, atol=1e-15)

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(11)
        d, m = 3, 4
        w = Tensor(rng.normal(size=(m * d, m)), requires_grad=True)
        b0 = rng.normal(size=m)
        stacked = constant(rng.normal(size=(6, m * d)))
        base = attend(AttentionParams(w, Tensor(b0)), stacked)
        shifted = attend(AttentionParams(w, Tensor(b0 + 3.7)), stacked)
        assert np.allclose(base.data, shifted.data, atol=1e-12)

    def test_width_mismatch(self):
        attn = attention_init(2, 3)
        with pytest.raises(ValueError, match="M\\*D"):
            attend(attn, constant(np.zeros((4, 5))))

    def test_parameters_are_the_two_arrays(self):
        attn = attention_init(4, 3, "concat")
        assert [f.name for f in dataclasses.fields(AttentionParams)] == ["w", "b"]
        assert (attn.w.shape, attn.b.shape, attn.n_sets) == ((12, 4), (4,), 4)
        with pytest.raises(ValueError, match="attention_mode 'shared'"):
            attention_init(2, 3, "shared")


class TestSampleLabel:
    def test_identical_sets_exact_for_exactly_normalized_weights(self):
        rng = np.random.default_rng(13)
        y = rng.integers(0, 2, size=(1, 4, 6)).astype(float)
        sets = np.concatenate([y, y, y], axis=0)
        for w_row in ([0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.375, 0.375, 0.25]):
            w = Tensor(np.tile(w_row, (4, 1)))
            assert np.array_equal(sample_label(w, sets).data, y[0])

    def test_identical_sets_within_one_ulp_for_any_simplex_weights(self):
        # normalized random weights sum to 1 only within one ulp, which is
        # the only slack the convex combination can introduce
        rng = np.random.default_rng(13)
        y = rng.integers(0, 2, size=(1, 4, 6)).astype(float)
        sets = np.concatenate([y, y, y], axis=0)
        for _ in range(10):
            e = rng.exponential(size=(4, 3))
            w = Tensor(e / e.sum(axis=1, keepdims=True))
            out = sample_label(w, sets)
            assert np.max(np.abs(out.data - y[0])) <= 4e-16

    def test_half_half(self):
        w = Tensor(np.array([[0.5, 0.5]]))
        sets = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert np.array_equal(sample_label(w, sets).data, [[0.5, 0.5]])

    def test_convexity_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            m, b, n = (int(v) for v in rng.integers(1, [6, 5, 8]))
            sets = rng.integers(0, 2, size=(m, b, n)).astype(float)
            e = rng.exponential(size=(b, m))
            w = Tensor(e / e.sum(axis=1, keepdims=True))
            out = sample_label(w, sets).data
            assert out.shape == (b, n)
            assert np.all(out >= sets.min(axis=0) - 1e-12)
            assert np.all(out <= sets.max(axis=0) + 1e-12)

    @pytest.mark.parametrize("weights, sets", [
        ((4, 2), (3, 4, 5)),   # two weights per sample, three label sets
        ((4, 3), (3, 2, 5)),   # four samples, label sets of two
        ((2,), (2, 5)),        # one unbatched sample
        ((1, 2), (2, 5)),      # label sets without a batch axis
    ], ids=["sets", "batch", "1d-weights", "2d-sets"])
    def test_shape_mismatch(self, weights, sets):
        with pytest.raises(ValueError, match="do not match"):
            sample_label(Tensor(np.full(weights, 0.5)), np.zeros(sets))


class TestBinarize:
    def test_midpoint_is_half_for_any_sharpness(self):
        for k in (1.0, 10.0, 50.0, 1e4):
            assert binarize(constant([0.37]), k, 0.37).data[0] == pytest.approx(0.5, abs=1e-15)

    def test_known_value(self):
        # sigmoid(50 * (0.7 - 0.5)) = 1 / (1 + e^-10)
        expected = 1.0 / (1.0 + np.exp(-10.0))
        got = binarize(constant([0.7]), 50.0, 0.5).data[0]
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.9999546021312976, abs=1e-12)

    def test_hard_threshold_limit(self):
        y = np.array([0.4990, 0.5010, 0.0, 1.0])
        out = binarize(constant(y), 1e5, 0.5).data
        assert np.allclose(out, [0.0, 1.0, 0.0, 1.0], atol=1e-9)

    def test_strictly_monotone_into_open_interval(self):
        y = np.linspace(0, 1, 101)
        out = binarize(constant(y), 50.0, 0.5).data
        assert np.all(np.diff(out) > 0)
        assert np.all(out > 0) and np.all(out < 1)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            binarize(constant([0.5]), 0.0, 0.5)


class TestFinalStep:
    def test_zero_lr_keeps_model(self):
        model = tiny_classifier()
        x = np.random.default_rng(15).normal(size=(4, 3))
        fwd = forward_arrays(model, x)
        state = adam_init(params_get(model), lr=0.0)
        target = binarize(constant(np.random.default_rng(16).uniform(size=(4, 2))), 50, 0.5).data
        new_model, _, _ = final_step(model, target, fwd, state)
        for a, b in zip(new_model.params, model.params):
            assert np.array_equal(a.data, b.data)

    def test_stationary_at_saturated_agreement(self):
        # saturated predictions matching the hard targets leave a negligible
        # update: sigmoid(25) is within 2e-11 of the binarized 1.0 target
        model = classifier_init((1, 1), n_classes=1, rng=np.random.default_rng(17))
        model = params_set(model, [np.array([[2.0]]), np.array([0.0]),
                                   np.array([[10.0]]), np.array([5.0])])
        x = np.array([[1.0]])
        fwd = forward_arrays(model, x)
        assert abs(fwd.probs[0, 0] - 1.0) < 1e-7
        target = binarize(constant(np.array([[1.0]])), 1e6, 0.5).data
        state = adam_init(params_get(model), lr=1e-4)
        new_model, _, _ = final_step(model, target, fwd, state)
        delta = max(np.max(np.abs(a.data - b.data))
                    for a, b in zip(new_model.params, model.params))
        assert delta <= 1e-6

    def test_descent_on_convex_single_logit(self):
        model = classifier_init((1, 1), n_classes=1, rng=np.random.default_rng(18))
        model = params_set(model, [np.array([[1.0]]), np.array([0.0]),
                                   np.array([[1.0]]), np.array([0.0])])
        x = np.array([[1.0]])
        y = np.array([[1.0]])
        state = adam_init(params_get(model), lr=0.01)
        for _ in range(5):
            fwd = forward_arrays(model, x)
            before = manual_bce(fwd.probs, y)
            model, state, _ = final_step(model, y, fwd, state)
            after = manual_bce(forward_arrays(model, x).probs, y)
            assert after < before


def path_of(attn, stacked, sets):
    """The binarized sampled label, built as ``train_iteration`` builds it."""
    return label_path(attn, stacked, sets, 50.0, 0.5)


class TestAttentionStep:
    def test_identical_sets_leave_parameters_unchanged(self):
        rng = np.random.default_rng(19)
        m, d, b, n = 3, 4, 5, 6
        y = rng.integers(0, 2, size=(1, b, n)).astype(float)
        sets = np.concatenate([y] * m, axis=0)
        attn = AttentionParams(w=Tensor(rng.normal(size=(m * d, m)), requires_grad=True),
                               b=Tensor(rng.normal(size=m), requires_grad=True))
        stacked = rng.normal(size=(b, m * d))
        pred = rng.uniform(0.1, 0.9, size=(b, n))
        out = attention_step(attn, path_of(attn, stacked, sets), BceTerms(pred), beta=0.1)
        assert np.array_equal(out.w.data, attn.w.data)
        assert np.array_equal(out.b.data, attn.b.data)

    def test_moves_weight_toward_agreeing_set(self):
        rng = np.random.default_rng(20)
        m, d, b, n = 2, 3, 8, 4
        agreeing = rng.integers(0, 2, size=(b, n)).astype(float)
        disagreeing = 1.0 - agreeing
        sets = np.stack([agreeing, disagreeing])
        # predictions confidently match set 0
        pred = np.clip(agreeing, 0.05, 0.95)
        stacked = rng.normal(size=(b, m * d))
        attn = attention_init(m, d)
        for _ in range(50):
            attn = attention_step(attn, path_of(attn, stacked, sets), BceTerms(pred),
                                  beta=0.5)
        weights = path_of(attn, stacked, sets).weights
        assert np.all(weights[:, 0] > weights[:, 1])


class TestTheorem1:
    def test_single_set_is_plain_bce(self):
        # both sides are the BCE against the one set, 1.0 * y and 1.0 * L(y)
        rng = np.random.default_rng(21)
        pred = rng.uniform(0.05, 0.95, size=7)
        y = rng.integers(0, 2, size=(1, 7)).astype(float)
        assert theorem1_gap(pred, y, [1.0]) == 0.0

    def test_uniform_weights_give_mean_loss(self):
        rng = np.random.default_rng(22)
        pred = rng.uniform(0.05, 0.95, size=5)
        sets = rng.integers(0, 2, size=(4, 5)).astype(float)
        expected = np.mean([manual_bce(pred, s) for s in sets])
        assert manual_bce(pred, sets.mean(axis=0)) == pytest.approx(expected, abs=1e-12)
        assert theorem1_gap(pred, sets, np.full(4, 0.25)) <= 1e-12

    def test_set_count_checked_before_any_arithmetic(self):
        with pytest.raises(ValueError, match="^3 label sets but 2 weights$"):
            theorem1_gap(np.full(4, 0.5), np.zeros((3, 4)), [0.5, 0.5])

    def test_identity_holds_over_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 21))
            pred = rng.uniform(1e-4, 1 - 1e-4, size=n)
            sets = rng.integers(0, 2, size=(m, n)).astype(float)
            e = rng.exponential(size=m)
            assert theorem1_gap(pred, sets, e / e.sum()) <= 1e-10

    def test_degenerate_unit_weights(self):
        rng = np.random.default_rng(24)
        pred = rng.uniform(0.1, 0.9, size=6)
        sets = rng.integers(0, 2, size=(3, 6)).astype(float)
        for m in range(3):
            w = np.zeros(3)
            w[m] = 1.0
            assert theorem1_gap(pred, sets, w) <= 1e-12

    def test_binarization_breaks_the_identity(self):
        # after the smooth step the equality is generally false
        pred = np.array([0.8, 0.3, 0.6])
        sets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        w = np.array([0.7, 0.3])
        mixed = w @ sets.reshape(2, -1)
        binarized = 1 / (1 + np.exp(-50 * (mixed - 0.5)))
        lhs = manual_bce(pred, binarized)
        rhs = sum(w_m * manual_bce(pred, y_m) for w_m, y_m in zip(w, sets))
        assert abs(lhs - rhs) > 1e-3
        assert theorem1_gap(pred, sets, w) <= 1e-12


def make_toy_batch():
    """Two samples, two classes, two label sets, everything hand-set."""
    x = np.array([[0.5, -1.0], [1.5, 2.0]])
    y1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    y2 = np.array([[0.0, 1.0], [0.0, 1.0]])
    sets = np.stack([y1, y2])
    return Batch(x=x, label_sets=sets, indices=np.array([0, 1]))


def make_toy_model():
    model = classifier_init((2, 2), n_classes=2, rng=np.random.default_rng(0))
    return params_set(model, [
        np.array([[0.4, -0.3], [0.2, 0.1]]),   # W1
        np.array([0.1, -0.2]),                 # b1
        np.array([[0.5, -0.4], [-0.1, 0.3]]),  # head W
        np.array([0.05, -0.05]),               # head b
    ])


def make_toy_attention():
    w = np.array([[0.10, -0.05],
                  [0.02, 0.08],
                  [-0.07, 0.04],
                  [0.03, -0.01]])
    b = np.array([0.02, -0.01])
    return AttentionParams(w=Tensor(w, requires_grad=True), b=Tensor(b, requires_grad=True))


class TestPencilAndPaperIteration:
    """One full iteration recomputed with explicit formulas, no autodiff."""

    def manual_trace(self):
        batch = make_toy_batch()
        x, sets = batch.x, batch.label_sets
        w1 = np.array([[0.4, -0.3], [0.2, 0.1]])
        b1 = np.array([0.1, -0.2])
        wh = np.array([[0.5, -0.4], [-0.1, 0.3]])
        bh = np.array([0.05, -0.05])
        alpha, beta, k, t = 0.1, 0.05, 50.0, 0.5
        b_sz, n = 2, 2
        total = b_sz * n

        def fwd(w1_, b1_, wh_, bh_):
            pre = x @ w1_ + b1_
            h = np.maximum(pre, 0.0)
            logits = h @ wh_ + bh_
            return pre, h, logits, 1 / (1 + np.exp(-logits))

        pre, h, logits, p = fwd(w1, b1, wh, bh)

        def grads_wrt_params(dl_dp):
            dl_dz = dl_dp * p * (1 - p)
            g_wh = h.T @ dl_dz
            g_bh = dl_dz.sum(axis=0)
            dh = dl_dz @ wh.T
            dpre = dh * (pre > 0)
            g_w1 = x.T @ dpre
            g_b1 = dpre.sum(axis=0)
            return g_w1, g_b1, g_wh, g_bh

        # probe steps toward each label set
        probes = []
        for m in range(2):
            dl_dp = -(sets[m] / p - (1 - sets[m]) / (1 - p)) / total
            g = grads_wrt_params(dl_dp)
            probes.append((w1 - alpha * g[0], b1 - alpha * g[1],
                           wh - alpha * g[2], bh - alpha * g[3]))

        feats = [np.maximum(x @ pw1 + pb1, 0.0) for pw1, pb1, _, _ in probes]
        stacked = np.concatenate(feats, axis=1)

        aw = np.array([[0.10, -0.05], [0.02, 0.08], [-0.07, 0.04], [0.03, -0.01]])
        ab = np.array([0.02, -0.01])
        z = stacked @ aw + ab
        e = np.exp(z - z.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)

        ybar = np.einsum("bm,mbn->bn", w, sets)
        ytil = 1 / (1 + np.exp(-k * (ybar - t)))

        # model update: Adam t=1 against the constant binarized target
        dl_dp = -(ytil / p - (1 - ytil) / (1 - p)) / total
        g_model = grads_wrt_params(dl_dp)
        new_model = []
        for param, g in zip((w1, b1, wh, bh), g_model):
            m1 = 0.1 * g
            v1 = 0.001 * g * g
            m_hat = m1 / 0.1
            v_hat = v1 / 0.001
            new_model.append(param - beta * m_hat / (np.sqrt(v_hat) + 1e-8))

        # attention update: chain through binarization, label sum, softmax
        dl_dyt = -(np.log(p) - np.log1p(-p)) / total
        dl_dybar = dl_dyt * k * ytil * (1 - ytil)
        dl_dw = np.einsum("bn,mbn->bm", dl_dybar, sets)
        dl_dz = w * (dl_dw - np.sum(dl_dw * w, axis=1, keepdims=True))
        g_aw = stacked.T @ dl_dz
        g_ab = dl_dz.sum(axis=0)
        new_aw = aw - beta * g_aw
        new_ab = ab - beta * g_ab

        loss_pre = manual_bce(p, ytil)
        return new_model, new_aw, new_ab, w, loss_pre

    def test_iteration_matches_manual_trace(self):
        model = make_toy_model()
        attn = make_toy_attention()
        batch = make_toy_batch()
        config = MetaConfig(alpha=0.1, beta=0.05, k=50.0, t_threshold=0.5,
                            batch_size=2, epochs=1, seed=0)
        state = adam_init(params_get(model), lr=config.beta)
        new_model, new_attn, new_state, trace = train_iteration(model, attn, batch,
                                                                config, state)
        exp_model, exp_aw, exp_ab, exp_w, exp_loss = self.manual_trace()

        for got, expected in zip(new_model.params, exp_model):
            assert np.allclose(got.data, expected, atol=1e-10)
        assert np.allclose(new_attn.w.data, exp_aw, atol=1e-10)
        assert np.allclose(new_attn.b.data, exp_ab, atol=1e-10)
        assert np.allclose(trace.weight_means, exp_w.mean(axis=0), atol=1e-12)
        assert trace.loss_pre == pytest.approx(exp_loss, abs=1e-12)
        assert new_state.t == 1

    def test_iteration_never_mutates_inputs(self):
        model = make_toy_model()
        attn = make_toy_attention()
        batch = make_toy_batch()
        config = MetaConfig(alpha=0.1, beta=0.05, epochs=1, batch_size=2)
        state = adam_init(params_get(model), lr=config.beta)
        model_bytes = [p.data.tobytes() for p in model.params]
        attn_bytes = (attn.w.data.tobytes(), attn.b.data.tobytes())
        train_iteration(model, attn, batch, config, state)
        assert [p.data.tobytes() for p in model.params] == model_bytes
        assert (attn.w.data.tobytes(), attn.b.data.tobytes()) == attn_bytes


class TestTrainingLoops:
    def make_dataset(self, specs, seed=0, per_class=30):
        spec = SyntheticSpec(n_classes=3, dim=4, samples_per_class=per_class,
                             center_scale=4.0, seed=seed)
        ds = synth_blobs(spec)
        return attach_annotators(ds, specs, seed=seed)

    def test_identical_label_sets_behave_like_standard_training(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.0),
                                AnnotatorSpec("hammer_spammer", 0.0)])
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(1))
        cfg = MetaConfig(epochs=3, batch_size=16, seed=5)
        collected = []
        train_attention(model, ds, cfg,
                        trace_hook=lambda i, tr: collected.append(tr.weight_means))
        # identical sets: the sampled label equals the common set exactly,
        # weights stay uniform (identical feedback features, zero-init map)
        assert collected
        for wm in collected:
            assert np.allclose(wm, 0.5, atol=1e-12)

    def test_weights_stay_on_simplex(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.3),
                                AnnotatorSpec("adversarial"),
                                AnnotatorSpec("ordered_confusion", 0.5)])
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(2))
        cfg = MetaConfig(epochs=2, batch_size=16, seed=6)
        collected = []
        train_attention(model, ds, cfg,
                        trace_hook=lambda i, tr: collected.append(tr.weight_means))
        assert collected
        for wm in collected:
            assert np.all(wm >= 0)
            assert np.sum(wm) == pytest.approx(1.0, abs=1e-12)

    def test_bitwise_deterministic_across_runs(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.3),
                                AnnotatorSpec("adversarial")])
        cfg = MetaConfig(epochs=2, batch_size=16, seed=7)
        outs, attns = [], []
        for _ in range(2):
            model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(3))
            last = {}
            outs.append(train_attention(model, ds, cfg,
                                        trace_hook=lambda i, tr: last.update(attn=tr.attn_after)))
            attns.append(last["attn"])
        for a, b in zip(outs[0].last_model.params, outs[1].last_model.params):
            assert a.data.tobytes() == b.data.tobytes()
        for a, b in zip((attns[0].w, attns[0].b), (attns[1].w, attns[1].b)):
            assert a.data.tobytes() == b.data.tobytes()

    def test_baseline_zero_epochs_returns_initial_model(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.3)])
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(4))
        result = train_baseline(model, ds, 0, MetaConfig(epochs=0))
        for a, b in zip(result.model.params, model.params):
            assert np.array_equal(a.data, b.data)

    def test_baseline_learns_separable_clean_data(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.0)], per_class=60)
        model = classifier_init((4, 16, 8), 3, rng=np.random.default_rng(5))
        cfg = MetaConfig(epochs=50, batch_size=32, seed=8, beta=3e-3)
        result = train_baseline(model, ds, 0, cfg)
        from labelattn.model import predict_class
        predicted = predict_class(forward(result.model, ds.features))
        assert np.mean(predicted == ds.clean_labels) >= 0.99

    def test_avg_baseline_uses_mean_of_sets(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.3),
                                AnnotatorSpec("adversarial")])
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(6))
        result = train_baseline(model, ds, "avg", MetaConfig(epochs=1, batch_size=16))
        assert len(result.history) == 1

    @pytest.mark.parametrize("trainer", ["attention", "baseline"])
    def test_nan_prediction_names_epoch_and_batch(self, trainer):
        # a +inf feature row stays +inf through hidden layers of positive
        # weights (a NaN would not: the ReLU maps it to 0), and the head's
        # mixed signs sum +inf and -inf into a NaN prediction for its sample,
        # in whichever batch holds it
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.3),
                                AnnotatorSpec("adversarial")])
        feats = ds.features.copy()
        feats[17] = np.inf
        ds = LabeledDataset(features=feats, clean_labels=ds.clean_labels,
                            n_classes=ds.n_classes, label_sets=ds.label_sets)
        cfg = MetaConfig(epochs=1, batch_size=16, seed=9)
        batch = next(i for i, b in enumerate(minibatches(ds, 16, 9, 0)) if 17 in b.indices)
        assert batch > 0
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(8))
        params = [p.data for p in model.params]
        params[:-2:2] = [np.abs(w) for w in params[:-2:2]]
        model = params_set(model, params)
        with (pytest.raises(ValueError, match=f"^epoch 0, batch {batch}: non-finite"),
              np.errstate(invalid="ignore")):
            if trainer == "attention":
                train_attention(model, ds, cfg)
            else:
                train_baseline(model, ds, 0, cfg)

    def test_baseline_rejects_bad_index(self):
        ds = self.make_dataset([AnnotatorSpec("hammer_spammer", 0.3)])
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(7))
        with pytest.raises(ValueError, match="out of range"):
            train_baseline(model, ds, 5, MetaConfig(epochs=1))


class TestMetaConfig:
    def test_defaults_match_documented_values(self):
        cfg = MetaConfig()
        assert (cfg.alpha, cfg.beta, cfg.k, cfg.t_threshold, cfg.batch_size) == \
            (0.2, 1e-4, 50.0, 0.5, 32)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="t_threshold"):
            MetaConfig(t_threshold=1.5)
        with pytest.raises(ValueError, match="alpha"):
            MetaConfig(alpha=-1)
        for mode in ("mlp", "shared"):
            with pytest.raises(ValueError, match="attention_mode"):
                MetaConfig(attention_mode=mode)


class TestMemory:
    """A training step holds each model-sized array once."""

    def test_final_step_allocates_four_parameter_vectors(self):
        # the CIFAR-shaped model: the gradients, written once into Adam's
        # flat layout, then Adam's two moments and the new parameters
        rng = np.random.default_rng(0)
        model = classifier_init((3072, 128, 64), 10, rng=rng)
        x = rng.standard_normal((128, 3072))
        y = (rng.random((128, 10)) < 0.1).astype(np.float64)
        state = adam_init(params_get(model), lr=1e-3)
        fwd = forward_arrays(model, x)
        final_step(model, y, fwd, state)
        vector = 8 * sum(p.data.size for p in model.params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            final_step(model, y, fwd, state)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        batch_arrays = 8 * x.shape[0] * 128 * 8
        assert peak <= 4 * vector + batch_arrays, peak / vector

    def test_previous_classifier_is_freed_while_the_next_step_runs(self, monkeypatch):
        spec = SyntheticSpec(n_classes=3, dim=4, samples_per_class=30, seed=0)
        ds = attach_annotators(synth_blobs(spec), [AnnotatorSpec("hammer_spammer", 0.3),
                                                   AnnotatorSpec("adversarial")], seed=0)
        inputs, alive = [], []

        def watched_final_step(model, *args):
            # step k updates inputs[k]; inputs[k - 1] must be gone by now
            if len(inputs) >= 2:
                alive.append(inputs[-1]() is not None)
            inputs.append(weakref.ref(model))
            return real_final_step(model, *args)

        real_final_step = metatrain.final_step
        monkeypatch.setattr(metatrain, "final_step", watched_final_step)
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(9))
        train_attention(model, ds, MetaConfig(epochs=2, batch_size=16, seed=3))
        assert len(alive) == 2 * 6 - 2 and not any(alive)


class TestTraceReadOnDemand:
    """Trace values are computed when read: an unread value costs nothing, and
    a value read after the run has the bits it had inside the hook."""

    def make_run(self):
        spec = SyntheticSpec(n_classes=3, dim=4, samples_per_class=20, seed=2)
        ds = attach_annotators(synth_blobs(spec), [AnnotatorSpec("hammer_spammer", 0.3),
                                                   AnnotatorSpec("adversarial")], seed=2)
        val = attach_annotators(synth_blobs(spec, stream="test"),
                                [AnnotatorSpec("hammer_spammer", 0.3),
                                 AnnotatorSpec("adversarial")], seed=3)
        model = classifier_init((4, 8, 4), 3, rng=np.random.default_rng(4))
        return model, ds, val, MetaConfig(epochs=2, batch_size=16, seed=5)

    @pytest.mark.parametrize("reads, extra_per_iteration", [
        ((), 0), (("weight_means",), 0), (("loss_post",), 1),
        (("weight_means", "loss_post", "model_update_norm", "attn_update_norm"), 1),
    ], ids=["no-hook", "weight-means", "loss-post", "everything"])
    def test_forward_passes_per_iteration(self, monkeypatch, reads, extra_per_iteration):
        model, ds, val, cfg = self.make_run()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward_arrays(*args, **kwargs)

        def counted_probs(*args, **kwargs):
            calls.append(1)
            return forward_probs(*args, **kwargs)

        # the training forwards, and the validation forward of each epoch
        monkeypatch.setattr(metatrain, "forward_arrays", counted)
        monkeypatch.setattr(metatrain, "forward_probs", counted_probs)
        hook = None
        if reads:
            def hook(i, trace):
                for name in reads:
                    getattr(trace, name)
        train_attention(model, ds, cfg, val_ds=val, trace_hook=hook)
        iterations = cfg.epochs * -(-ds.n_samples // cfg.batch_size)
        assert iterations == 8
        assert len(calls) == iterations * (1 + extra_per_iteration) + cfg.epochs

    def test_values_read_after_the_run_are_exact(self):
        model, ds, val, cfg = self.make_run()
        names = ("loss_pre", "weight_means", "loss_post", "model_update_norm",
                 "attn_update_norm")
        traces, seen = [], []

        def hook(i, trace):
            traces.append(trace)
            seen.append([np.asarray(getattr(trace, n), dtype=np.float64).tobytes()
                         for n in names])

        train_attention(model, ds, cfg, val_ds=val, trace_hook=hook)
        assert len(traces) == 8
        late = [[np.asarray(getattr(t, n), dtype=np.float64).tobytes() for n in names]
                for t in traces]
        assert late == seen
        # consecutive iterations do differ, so the comparison has teeth
        assert len({row[2] for row in seen}) == len(seen)


def norm_from_definition(after, before) -> float:
    """Per-tensor sums of squared differences, added in declaration order,
    then the square root."""
    total = 0.0
    for a, b in zip(after, before):
        total += float(np.sum((a.data - b.data) ** 2))
    return math.sqrt(total)


def toy_shape_iterations() -> list:
    """One iteration: M=3, a 3-5-4 model, a batch of 6, a random attention map.
    Each item is (trace, model in, model out, attention in, attention out)."""
    rng = np.random.default_rng(11)
    model = classifier_init((3, 5, 4), n_classes=2, rng=rng)
    n_sets, batch_size = 3, 6
    attn = AttentionParams(w=Tensor(rng.normal(scale=0.3, size=(n_sets * 4, n_sets))),
                           b=Tensor(rng.normal(scale=0.3, size=n_sets)))
    sets = np.eye(2)[rng.integers(0, 2, size=(n_sets, batch_size))]
    batch = Batch(x=rng.normal(size=(batch_size, 3)), label_sets=sets,
                  indices=np.arange(batch_size))
    config = MetaConfig(alpha=0.2, beta=0.05, batch_size=batch_size, epochs=1)
    state = adam_init(params_get(model), lr=config.beta)
    new_model, new_attn, _, trace = train_iteration(model, attn, batch, config, state)
    return [(trace, model, new_model, attn, new_attn)]


def benchmark_shape_iterations() -> list:
    """Four iterations: M=5 (the Table-2 roster), a 32-128-64 model, batches of 32,
    each item as toy_shape_iterations gives it."""
    roster = [AnnotatorSpec("hammer_spammer", 0.3), AnnotatorSpec("structured_flips", 0.4),
              AnnotatorSpec("ordered_confusion", 0.5), AnnotatorSpec("adversarial"),
              AnnotatorSpec("average")]
    spec = SyntheticSpec(n_classes=10, dim=32, samples_per_class=10, seed=0)
    ds = attach_annotators(synth_blobs(spec), roster, seed=0)
    model = classifier_init((32, 128, 64), 10, rng=np.random.default_rng(0))
    attn = attention_init(5, model.feature_dim)
    cfg = MetaConfig(batch_size=32, beta=1e-3)
    state = adam_init(params_get(model), lr=cfg.beta)
    iterations = []
    for batch in minibatches(ds, cfg.batch_size, 0, 0):
        new_model, new_attn, state, trace = train_iteration(model, attn, batch, cfg, state)
        iterations.append((trace, model, new_model, attn, new_attn))
        model, attn = new_model, new_attn
    assert len(iterations) == 4
    return iterations


class TestUpdateNorms:
    # the norms are taken from what train_iteration was given and returned, so
    # they also check that the trace records the iteration's real update
    @pytest.mark.parametrize("iterations_of", [toy_shape_iterations, benchmark_shape_iterations],
                             ids=["update_norms_equal_the_eager_formula",
                                  "bits_of_the_definition_at_the_benchmark_shape"])
    def test_bits_of_the_definition(self, iterations_of):
        for tr, model_in, model_out, attn_in, attn_out in iterations_of():
            model_norm = norm_from_definition(model_out.params, model_in.params)
            attn_norm = norm_from_definition((attn_out.w, attn_out.b), (attn_in.w, attn_in.b))
            assert model_norm > 0.0 and attn_norm > 0.0
            assert np.float64(tr.model_update_norm).tobytes() == np.float64(model_norm).tobytes()
            assert np.float64(tr.attn_update_norm).tobytes() == np.float64(attn_norm).tobytes()
