"""Classifier: initialization, forward pass, parameter isolation."""

import dataclasses

import numpy as np
import pytest

from labelattn.autodiff import Tensor, bce_loss, constant, finite_diff_grad, gradients
from labelattn.model import (EVAL_BLOCK_ROWS, Classifier, classifier_init, forward,
                             forward_arrays, forward_probs, hidden_gradients, param_gradients,
                             params_get, params_set, predict_class, relu_in_place)
from labelattn.optim import adam_init, flat_views


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
            classifier_init((4,), 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            classifier_init((4, 0), 3, rng=np.random.default_rng(0))

    def test_rng_is_required(self):
        # no silent default generator: every caller says where its weights come from
        with pytest.raises(TypeError, match="rng"):
            classifier_init((4, 8, 5), 3)


class TestShapeFromArrays:
    def test_params_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(Classifier)] == ["params"]

    @pytest.mark.parametrize("dims", [(4, 8, 5), (6, 3), (2, 7, 9, 1)])
    def test_widths_follow_the_arrays(self, dims):
        rng = np.random.default_rng(len(dims))
        init = classifier_init(dims, 3, rng=rng)
        model = params_set(init, [rng.normal(size=p.shape) for p in init.params])
        assert model.feature_dim == dims[-1]
        x = rng.normal(size=(2, dims[0]))
        assert len(forward_arrays(model, x).activations) == len(dims)
        assert forward_probs(model, x).shape == forward(model, x).probs.shape == (2, 3)
        for run in (forward, forward_arrays, forward_probs):
            with pytest.raises(ValueError, match=f"width {dims[0]}"):
                run(model, np.zeros((2, dims[0] + 1)))


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


class TestForwardProbs:
    """Evaluation's probabilities-only forward, which runs the hidden layers
    in row blocks, has the bits of the training forward at the shapes the
    runs evaluate (CI runs this at one BLAS thread, as the benchmark's
    digests are made)."""

    # around one and two blocks; the sweep's validation (200) and test
    # (1,000) sets; the narrow workload's validation (1,000) and test (5,000)
    # sets; and a set of 39 blocks
    @pytest.mark.parametrize("rows", [1, 33, 200, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS,
                                      EVAL_BLOCK_ROWS + 1, 1000, 2 * EVAL_BLOCK_ROWS + 7,
                                      5000, 20_000])
    def test_narrow_model_bitwise(self, rows):
        rng = np.random.default_rng(rows)
        model = classifier_init((32, 128, 64), 10, rng=rng)
        x = rng.standard_normal((rows, 32)) * 3.0
        got = forward_probs(model, x)
        expected = forward_arrays(model, x).probs
        assert got.dtype == expected.dtype and got.shape == expected.shape == (rows, 10)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [600, 3000])  # the wide workload's validation and test sets
    def test_wide_model_bitwise(self, rows):
        rng = np.random.default_rng(3072)
        model = classifier_init((3072, 128, 64), 10, rng=rng)
        x = rng.random((rows, 3072))
        assert forward_probs(model, x).tobytes() == forward_arrays(model, x).probs.tobytes()

    def test_input_checked_and_not_written(self):
        model = tiny_model()
        x = np.random.default_rng(4).normal(size=(6, 4))
        before = x.copy()
        assert forward_probs(model, x).tobytes() == forward_arrays(model, x).probs.tobytes()
        assert np.array_equal(x, before)
        with pytest.raises(ValueError, match="width"):
            forward_probs(model, np.zeros((2, 5)))


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


# the benchmark's classifiers: (layer widths, batch)
BENCHMARK_SHAPES = [((32, 128, 64), 32), ((3072, 128, 64), 128)]


class TestGradientsIntoOneVector:
    @pytest.mark.parametrize("dims, batch", BENCHMARK_SHAPES, ids=["narrow", "wide"])
    def test_flat_vector_holds_hidden_then_head_gradients(self, dims, batch):
        rng = np.random.default_rng(3)
        model = classifier_init(dims, n_classes=10, rng=rng)
        fwd = forward_arrays(model, rng.normal(size=(batch, dims[0])))
        g = rng.normal(size=(batch, 10))
        flat = param_gradients(model, fwd, g)
        assert flat.dtype == np.float64 and flat.ndim == 1
        got = flat_views(flat, adam_init(model.params, lr=0.1).shapes)
        expected = [*hidden_gradients(model, fwd, g),
                    fwd.features.T @ g, np.add.reduce(g, axis=0)]
        assert len(got) == len(expected) == len(model.params)
        for v, e in zip(got, expected):
            assert v.shape == e.shape and v.tobytes() == e.tobytes()

    def test_stacked_gradient_refused(self):
        model = tiny_model()
        fwd = forward_arrays(model, np.ones((9, 4)))
        with pytest.raises(ValueError, match=r"one \[B, N\] logit gradient"):
            param_gradients(model, fwd, np.ones((2, 9, 3)))


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
        assert np.array_equal(predict_class(probs), expected)


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
