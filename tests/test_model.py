"""Classifier: initialization, forward pass, parameter isolation."""

import numpy as np
import pytest

from labelattn.autodiff import Tensor, bce_loss, constant, finite_diff_grad, gradients
from labelattn.model import (classifier_init, forward, forward_arrays, hidden_gradients,
                             param_gradients, params_get, params_set, predict_class,
                             relu_in_place)
from labelattn.optim import adam_init


def tiny_model(seed=0):
    return classifier_init((4, 8, 5), n_classes=3, rng=np.random.default_rng(seed))


class TestInit:
    def test_deterministic_under_seed(self):
        a, b = tiny_model(7), tiny_model(7)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.data, pb.data)

    def test_he_scaling(self):
        model = classifier_init((256, 40), n_classes=2,
                                rng=np.random.default_rng(0))
        w = model.params[0].data  # fan_in 256, 10240 draws
        assert abs(w.std() - np.sqrt(2.0 / 256)) < 0.1 * np.sqrt(2.0 / 256)

    def test_zero_biases(self):
        model = tiny_model()
        for b in (model.params[1], model.params[3], model.params[5]):
            assert np.array_equal(b.data, np.zeros_like(b.data))

    def test_head_width_without_aux(self):
        model = tiny_model()
        assert model.params[-2].shape == (5, 3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            classifier_init((4,), 3)
        with pytest.raises(ValueError):
            classifier_init((4, 0), 3)


class TestForward:
    def test_zero_head_gives_half_probs(self):
        model = tiny_model()
        zeroed = list(p.data for p in model.params)
        zeroed[-2] = np.zeros_like(zeroed[-2])
        model = params_set(model, zeroed)
        out = forward(model, np.random.default_rng(1).normal(size=(6, 4)))
        assert np.allclose(out.probs.data, 0.5)

    def test_probs_are_sigmoid_of_logits(self):
        model = tiny_model()
        out = forward(model, np.random.default_rng(2).normal(size=(5, 4)))
        assert np.allclose(out.probs.data, 1 / (1 + np.exp(-out.logits.data)))
        assert np.all(out.probs.data > 0) and np.all(out.probs.data < 1)

    def test_deterministic(self):
        model = tiny_model()
        x = np.random.default_rng(3).normal(size=(5, 4))
        assert np.array_equal(forward(model, x).probs.data, forward(model, x).probs.data)

    def test_width_errors(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="width"):
            forward(model, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="aux"):
            forward(model, np.zeros((2, 4)), aux=np.zeros((2, 1)))

    def test_end_to_end_gradient(self):
        model = tiny_model()
        rng = np.random.default_rng(7)
        x = constant(rng.normal(size=(4, 4)))
        y = constant(rng.integers(0, 2, size=(4, 3)).astype(float))
        w0 = model.params[0]
        loss = bce_loss(forward(model, x).probs, y)
        (g,) = gradients(loss, [w0])

        def loss_of(t):
            patched = [t if i == 0 else p for i, p in enumerate(model.params)]
            candidate = params_set(model, patched)
            return bce_loss(forward(candidate, x).probs, y)

        fd = finite_diff_grad(loss_of, w0)
        assert np.all(np.abs(g - fd.data) <= np.maximum(1e-6, 1e-4 * np.abs(fd.data)))


class TestParams:
    def test_round_trip_forward_identical(self):
        model = tiny_model()
        clone = params_set(model, params_get(model))
        x = np.random.default_rng(8).normal(size=(5, 4))
        assert np.array_equal(forward(clone, x).probs.data, forward(model, x).probs.data)

    def test_copy_isolation(self):
        model = tiny_model()
        x = np.random.default_rng(9).normal(size=(5, 4))
        before = forward(model, x).probs.data.copy()
        clone = params_set(model, params_get(model))
        clone.params[0].data[:] = 99.0
        assert np.array_equal(forward(model, x).probs.data, before)

    def test_updated_params_change_output(self):
        model = tiny_model()
        x = np.random.default_rng(10).normal(size=(5, 4))
        nudged = [p.data + 0.05 for p in model.params]
        other = params_set(model, nudged)
        assert not np.array_equal(forward(other, x).probs.data,
                                  forward(model, x).probs.data)

    def test_shape_mismatch(self):
        model = tiny_model()
        bad = [p.data for p in model.params]
        bad[0] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            params_set(model, bad)


class TestGradientsIntoOneVector:
    @pytest.mark.parametrize("dims", [(4, 8, 5), (4, 6, 7, 5, 3)])
    def test_out_gives_the_same_bits_in_parameter_order(self, dims):
        rng = np.random.default_rng(3)
        model = classifier_init(dims, n_classes=3, rng=rng)
        fwd = forward_arrays(model, rng.normal(size=(9, 4)))
        g = rng.normal(size=(9, 3))
        expected = param_gradients(model, fwd, g)
        state = adam_init(model.params, lr=0.1)
        out = np.full(state.offsets[-1], np.nan)
        views = param_gradients(model, fwd, g, out=state.views(out))
        assert np.concatenate(expected, axis=None).tobytes() == out.tobytes()
        assert all(np.shares_memory(v, out) and v.shape == e.shape
                   for v, e in zip(views, expected))
        hidden_out = np.full_like(out, np.nan)
        hidden_gradients(model, fwd, g, out=state.views(hidden_out)[:-2])
        head = model.params[-2].data.size + model.params[-1].data.size
        assert hidden_out[:-head].tobytes() == out[:-head].tobytes()
        assert np.isnan(hidden_out[-head:]).all()

    @pytest.mark.parametrize("bad, g_shape", [("short", (9, 3)), ("long", (9, 3)),
                                              ("float32", (9, 3)), ("float32-head", (9, 3)),
                                              ("read-only", (9, 3)), ("ok", (2, 9, 3)),
                                              ("transposed", (9, 3))],
                             ids=["short", "long", "float32", "float32-head", "read-only",
                                  "stacked", "transposed"])
    def test_out_of_the_wrong_layout_refused(self, bad, g_shape):
        model = tiny_model()
        fwd = forward_arrays(model, np.ones((9, 4)))
        out = [np.zeros_like(p.data) for p in model.params]
        if bad == "short":
            out = out[:-1]
        elif bad == "long":
            out.append(np.zeros(1))
        elif bad == "float32":
            out[0] = out[0].astype(np.float32)
        elif bad == "float32-head":
            out[-2] = out[-2].astype(np.float32)
        elif bad == "read-only":
            out[-1].flags.writeable = False
        elif bad == "transposed":
            out[0] = out[0].T
        # numpy refuses a wrong shape itself, with its own message, once the
        # layers after it are written
        with pytest.raises(ValueError, match=None if bad == "transposed"
                           else "one writeable float64 array per parameter"):
            param_gradients(model, fwd, np.ones(g_shape), out=out)
        assert bad == "transposed" or not any(o.any() for o in out)


class TestPredict:
    def test_argmax(self):
        model = tiny_model()
        out = forward(model, np.random.default_rng(11).normal(size=(1, 4)))
        fake = type(out)(features=out.features, logits=out.logits,
                         probs=Tensor(np.array([[0.1, 0.9, 0.2]])))
        assert predict_class(fake)[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        model = tiny_model()
        out = forward(model, np.random.default_rng(12).normal(size=(1, 4)))
        fake = type(out)(features=out.features, logits=out.logits,
                         probs=Tensor(np.array([[0.4, 0.4, 0.4]])))
        assert predict_class(fake)[0] == 0

    def test_against_brute_force(self):
        rng = np.random.default_rng(13)
        probs = rng.uniform(size=(1000, 7))
        model = tiny_model()
        out = forward(model, rng.normal(size=(1, 4)))
        fake = type(out)(features=out.features, logits=out.logits, probs=Tensor(probs))
        got = predict_class(fake)
        expected = [max(range(7), key=lambda j: (probs[i, j], -j)) for i in range(1000)]
        assert np.array_equal(got, expected)


def where_relu(pre):
    """The tape's ReLU, the reference for ``relu_in_place``."""
    return np.where(pre > 0.0, pre, 0.0)


class TestReluInPlace:
    SPECIALS = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -1.5]

    @pytest.mark.parametrize("value", SPECIALS, ids=repr)
    @pytest.mark.parametrize("size", [1, 3, 8, 17, 64])
    def test_special_values_bitwise(self, value, size):
        # every length: SIMD lanes and the scalar tail may treat -0.0 apart
        pre = np.full(size, value)
        expected = where_relu(pre)
        assert relu_in_place(pre.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(7, 13), (5, 32, 128), (3, 1, 9)])
    def test_random_arrays_with_planted_zeros_and_nans_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        pre = rng.normal(size=shape)
        flat = pre.reshape(-1)
        spots = rng.choice(flat.size, size=(4, max(1, flat.size // 8)), replace=False)
        flat[spots[0]] = -0.0
        flat[spots[1]] = np.nan
        flat[spots[2]] = -np.nan
        flat[spots[3]] = 0.0
        expected = where_relu(pre)
        assert np.signbit(expected).sum() == 0
        got = relu_in_place(pre.copy())
        assert got.shape == shape and got.tobytes() == expected.tobytes()

    def test_writes_over_its_argument(self):
        pre = np.array([[-1.0, 2.0]])
        assert relu_in_place(pre) is pre
        assert pre.tolist() == [[0.0, 2.0]]
