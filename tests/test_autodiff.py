"""Tensor engine: op semantics, gradient contracts, finite-difference oracles."""

import math

import numpy as np
import pytest

import labelattn.autodiff as ad
from labelattn.autodiff import (Tensor, bce_loss, constant, detach, finite_diff_grad,
                                gradients, matmul, relu, sigmoid, softmax, sum_all)


def fd_close(ad_grad, fd_grad, rel=1e-4, floor=1e-6):
    diff = np.abs(np.asarray(ad_grad) - np.asarray(fd_grad))
    assert np.all(diff <= np.maximum(floor, rel * np.abs(fd_grad))), (ad_grad, fd_grad)


class TestConstant:
    def test_row_major_2x2(self):
        t = constant([[1, 2], [3, 4]])
        assert t.data[0, 1] == 2 and t.data[1, 0] == 3

    def test_float64_without_grad(self):
        t = constant([0, 0, 0])
        assert not t.requires_grad and t.node is None
        assert t.data.dtype == np.float64 and np.array_equal(t.data, np.zeros(3))

    def test_copies_its_input(self):
        src = np.array([1.0, 2.0])
        t = constant(src)
        src[0] = 9.0
        assert np.array_equal(t.data, [1.0, 2.0])

    def test_gradients_stop_at_a_constant(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        c = constant([5.0, 7.0])
        (g,) = gradients(sum_all(ad.mul(x, c)), [x])
        assert np.array_equal(g, [5.0, 7.0])
        assert ad.mul(c, c).node is None


class TestMatmul:
    def test_identity(self):
        a = constant([[1.5, -2], [0.25, 4]])
        out = matmul(a, constant(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_scalar_product(self):
        out = matmul(constant([[2]]), constant([[3]]))
        assert out.data[0, 0] == 6

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner-dimension"):
            matmul(constant(np.arange(6).reshape(2, 3)), constant(np.arange(4).reshape(2, 2)))


class TestElementwise:
    def test_mul_by_zero_annihilates_value_and_gradient(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        out = ad.mul(x, constant(np.zeros(2)))
        assert np.array_equal(out.data, np.zeros(2))
        (g,) = gradients(sum_all(out), [x])
        assert np.array_equal(g, np.zeros(2))

    def test_product_gradient_is_other_factor(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=5)
        a = Tensor(rng.normal(size=5), requires_grad=True)
        (g,) = gradients(sum_all(ad.mul(a, constant(b))), [a])
        assert np.allclose(g, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.mul(constant([1, 2]), constant([1, 2, 3]))


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(constant([0])).data[0] == 0.5

    def test_saturation(self):
        assert abs(sigmoid(constant([50])).data[0] - 1.0) < 1e-9
        # large negative input must not overflow
        assert sigmoid(constant([-1000])).data[0] == pytest.approx(0.0, abs=1e-300)


def masked_logistic(x):
    """The sign-masked logistic, the reference for ``ad.logistic``."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_same_bits(got, expected):
    nan = np.isnan(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestLogistic:
    def test_specials_match_the_masked_form(self):
        edge = np.concatenate([[0.0, np.inf, 5e-324, 1e308, np.finfo(float).max],
                               np.arange(708.0, 746.5, 0.5)])
        x = np.concatenate([edge, -edge, [np.nan, -np.nan]])
        assert np.signbit(x[len(edge)])   # -0.0 is in the sample
        assert_same_bits(ad.logistic(x), masked_logistic(x))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    @pytest.mark.parametrize("shape", [(32, 10), (1000, 10), (7,), ()])
    def test_random_arrays_match_the_masked_form(self, scale, shape):
        x = np.random.default_rng(int(scale * 1000) + len(shape)).normal(scale=scale, size=shape)
        assert_same_bits(ad.logistic(x), masked_logistic(x))

    def test_float32_keeps_its_dtype_and_bits(self):
        x = np.random.default_rng(17).normal(scale=30.0, size=(64, 10)).astype(np.float32)
        assert_same_bits(ad.logistic(x), masked_logistic(x))

    def test_limits(self):
        got = ad.logistic(np.array([0.0, -0.0, np.inf, -np.inf]))
        assert got.tolist() == [0.5, 0.5, 1.0, 0.0]

    def test_mirrored_inputs_sum_to_one(self):
        x = np.random.default_rng(18).normal(scale=20.0, size=10_000)
        total = ad.logistic(x) + ad.logistic(-x)
        assert np.max(np.abs(total - 1.0)) <= np.finfo(float).eps


def two_division_logistic(x):
    """The form ``ad.logistic`` replaced: both quotients, then the selection."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_logistic_one_division_keeps_the_bits_of_two(dtype):
    special = [0.0, -0.0, 700.0, -700.0, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(40)
    x = np.concatenate([special, rng.normal(scale=30.0, size=993)]).astype(dtype)
    assert ad.logistic(x).tobytes() == two_division_logistic(x).tobytes()
    assert ad.logistic(x.reshape(25, 40)).tobytes() == two_division_logistic(x).tobytes()


class TestRelu:
    def test_values(self):
        assert np.array_equal(relu(constant([-1, 0, 2])).data, [0, 0, 2])

    def test_positive_identity(self):
        x = constant([0.5, 1, 7])
        assert np.array_equal(relu(x).data, x.data)

    def test_gradient_mask(self):
        x = Tensor(np.array([-1.5, -0.2, 0.3, 2.0]), requires_grad=True)
        (g,) = gradients(sum_all(relu(x)), [x])
        assert np.array_equal(g, [0, 0, 1, 1])


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        for m in (2, 5, 9):
            out = softmax(constant(np.full(m, 3.7)))
            assert np.allclose(out.data, 1.0 / m, atol=1e-15)

    def test_stability(self):
        out = softmax(constant(np.array([1000.0, 0.0])))
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = softmax(constant(rng.normal(size=(40, 7)) * 10))
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        wgt = constant(rng.normal(size=6))
        z = Tensor(rng.normal(size=6), requires_grad=True)
        (g,) = gradients(sum_all(ad.mul(softmax(z), wgt)), [z])
        fd = finite_diff_grad(lambda t: sum_all(ad.mul(softmax(t), wgt)), z)
        fd_close(g, fd.data)


class TestBceLoss:
    def test_half_predictions_give_ln2(self):
        for n in (1, 4, 9):
            pred = constant(np.full(n, 0.5))
            target = constant((np.arange(n) % 2).astype(float))
            assert bce_loss(pred, target).item() == pytest.approx(math.log(2), abs=1e-15)

    def test_known_value(self):
        # independent evaluation: -(1/2) * (ln 0.9 + ln 0.8)
        expected = -0.5 * (math.log(0.9) + math.log(0.8))
        got = bce_loss(constant([0.9, 0.2]), constant([1.0, 0.0])).item()
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.164252033486018, abs=1e-12)

    def test_target_gradient_formula(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.1, 0.9, size=6)
        y = Tensor(rng.uniform(0, 1, size=6), requires_grad=True)
        (g,) = gradients(bce_loss(constant(p), y), [y])
        assert np.allclose(g, -(np.log(p) - np.log(1 - p)) / 6, atol=1e-12)

    def test_nonnegative_and_clamped(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = constant(rng.uniform(0, 1, size=8))
            y = constant(rng.integers(0, 2, size=8).astype(float))
            assert bce_loss(p, y).item() >= 0.0
        # exact 0/1 predictions hit the clamp instead of log(0)
        p = Tensor(np.array([0.0, 1.0, 0.5]), requires_grad=True)
        y = Tensor(np.array([1.0, 0.0, 1.0]), requires_grad=True)
        loss = bce_loss(p, y)
        assert np.isfinite(loss.item())
        gp, gy = gradients(loss, [p, y])
        # no prediction gradient where the clamp is active, a live one elsewhere
        assert gp[0] == 0.0 and gp[1] == 0.0 and gp[2] != 0.0
        assert np.all(np.isfinite(gy))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            bce_loss(constant([0.5]), constant([0.5, 0.5]))


def clip_bce_value(pred, target):
    """The mean BCE as written before ``BceTerms``: ``np.clip`` and ``np.mean``."""
    p = np.clip(np.ascontiguousarray(pred).ravel(), ad.BCE_EPS, 1.0 - ad.BCE_EPS)
    y = np.ascontiguousarray(target).ravel()
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def clip_bce_pred_grad(pred, target):
    c = np.clip(pred, ad.BCE_EPS, 1.0 - ad.BCE_EPS)
    inside = (pred > ad.BCE_EPS) & (pred < 1.0 - ad.BCE_EPS)
    return np.where(inside, -(target / c - (1.0 - target) / (1.0 - c)) / pred.size, 0.0)


def clip_bce_target_grad(pred):
    c = np.clip(pred, ad.BCE_EPS, 1.0 - ad.BCE_EPS)
    return -(np.log(c) - np.log1p(-c)) / pred.size


class TestBceTerms:
    """One ``BceTerms`` per prediction array gives the bits of the separate
    clip-and-mean formulas it replaced, at the clamp's edges too."""

    EDGES = [0.0, ad.BCE_EPS, 1.0 - ad.BCE_EPS, 1.0,
             np.nextafter(ad.BCE_EPS, 0.0), np.nextafter(ad.BCE_EPS, 1.0),
             np.nextafter(1.0 - ad.BCE_EPS, 0.0), np.nextafter(1.0 - ad.BCE_EPS, 1.0)]

    def predictions(self, rng, shape=(6, 10)):
        p = rng.uniform(size=shape)
        p.flat[:len(self.EDGES)] = self.EDGES
        return p

    @pytest.mark.parametrize("target_shape", [(6, 10), (4, 6, 10)], ids=["one", "stacked"])
    def test_gradients_keep_the_bits_of_the_formulas(self, target_shape):
        rng = np.random.default_rng(41)
        p = self.predictions(rng)
        y = rng.uniform(size=target_shape)
        y.flat[:4] = [0.0, 1.0, 0.0, 1.0]
        terms = ad.BceTerms(p)
        assert terms.pred_grad(y).tobytes() == clip_bce_pred_grad(p, y).tobytes()
        assert (terms.logit_grad(y).tobytes()
                == (clip_bce_pred_grad(p, y) * p * (1.0 - p)).tobytes())
        assert terms.target_grad().tobytes() == clip_bce_target_grad(p).tobytes()

    def test_value_keeps_the_bits_of_the_formula(self):
        rng = np.random.default_rng(42)
        for shape in [(6, 10), (1, 8), (33, 7)]:
            p, y = self.predictions(rng, shape), rng.uniform(size=shape)
            terms = ad.BceTerms(p)
            assert (np.float64(terms.value(y)).tobytes()
                    == np.float64(clip_bce_value(p, y)).tobytes())
            # a transposed array is summed in the flat order of its shape too
            assert (np.float64(ad.BceTerms(p.T).value(y.T)).tobytes()
                    == np.float64(clip_bce_value(p.T, y.T)).tobytes())

    def test_terms_are_made_once(self):
        terms = ad.BceTerms(self.predictions(np.random.default_rng(43)))
        assert terms.logs is terms.logs
        assert terms.grad_terms is terms.grad_terms
        assert np.array_equal(terms.grad_terms[0], (terms.pred > ad.BCE_EPS)
                              & (terms.pred < 1.0 - ad.BCE_EPS))


class TestBackward:
    """The reverse pass, through its only entry point ``gradients``."""

    def test_linear(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (g,) = gradients(sum_all(ad.mul(x, constant([2.0]))), [x])
        assert np.array_equal(g, [2.0])

    def test_rejects_non_scalar(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            gradients(ad.mul(x, constant([2.0, 2.0])), [x])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        x = constant(rng.normal(size=(5, 3)))
        y = constant(rng.integers(0, 2, size=(5, 2)).astype(float))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)

        def loss_of(wt, bt):
            return bce_loss(sigmoid(ad.add_bias(matmul(x, wt), bt)), y)

        gw, gb = gradients(loss_of(w, b), [w, b])
        fd_w = finite_diff_grad(lambda t: loss_of(t, b), w)
        fd_b = finite_diff_grad(lambda t: loss_of(w, t), b)
        fd_close(gw, fd_w.data)
        fd_close(gb, fd_b.data)

    def test_repeated_calls_return_fresh_equal_arrays(self):
        x = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        loss = sum_all(ad.mul(x, x))
        (first,) = gradients(loss, [x])
        first += 100.0
        (second,) = gradients(loss, [x])
        assert np.array_equal(second, [6.0, -2.0])

    def test_shared_input_accumulates_both_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (g,) = gradients(sum_all(ad.mul(x, x)), [x])  # d(x^2)/dx = 2x
        assert np.array_equal(g, [4.0])


class TestDetach:
    def test_severed_path_gets_zero_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        inner = ad.mul(x, constant([3.0, 3.0]))
        out = sum_all(ad.mul(detach(inner), constant(np.ones(2))))
        assert not out.requires_grad and out.node is None
        (g,) = gradients(out, [x])
        assert np.array_equal(g, np.zeros(2))

    def test_values_preserved_exactly(self):
        x = Tensor(np.array([0.1, -0.7, 3.3]), requires_grad=True)
        d = detach(x)
        assert np.array_equal(d.data, x.data)
        assert not d.requires_grad and d.node is None


class TestFiniteDiff:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]))
        fd = finite_diff_grad(lambda t: sum_all(ad.mul(t, t)), x)
        assert np.allclose(fd.data, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        fd = finite_diff_grad(lambda t: 4.2, Tensor(np.array([1.0, 2.0, 3.0])))
        assert np.array_equal(fd.data, np.zeros(3))

    def test_three_layer_network_self_consistency(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            r = np.random.default_rng([11, trial])
            x = constant(r.normal(size=(3, 4)))
            w1 = Tensor(r.normal(size=(4, 6)), requires_grad=True)
            w2 = constant(r.normal(size=(6, 5)))
            w3 = constant(r.normal(size=(5, 2)))
            y = constant(r.integers(0, 2, size=(3, 2)).astype(float))

            def loss_of(t):
                h1 = relu(matmul(x, t))
                h2 = relu(matmul(h1, w2))
                return bce_loss(sigmoid(matmul(h2, w3)), y)

            (g,) = gradients(loss_of(w1), [w1])
            fd = finite_diff_grad(loss_of, w1)
            fd_close(g, fd.data)


class TestGraphInvariants:
    def test_constant_folding_skips_nodes(self):
        out = ad.mul(constant([1.0]), constant([2.0]))
        assert out.node is None and not out.requires_grad

    def test_all_values_finite_after_ops(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 4)) * 100, requires_grad=True)
        for op in (sigmoid, relu, softmax):
            assert np.all(np.isfinite(op(x).data))
