"""Optimizer steps: purity, hand-checked values, convergence."""

import numpy as np
import pytest

from labelattn.autodiff import Tensor
from labelattn.optim import adam_init, adam_step, sgd_step


class TestSgd:
    def test_direct_arithmetic(self):
        (out,) = sgd_step([Tensor(np.array([1.0]), requires_grad=True)],
                          [np.array([2.0])], lr=0.2)
        assert out.data[0] == pytest.approx(0.6, abs=1e-15)

    def test_zero_gradient_fixed_point(self):
        p = Tensor(np.array([1.5, -2.5]), requires_grad=True)
        (out,) = sgd_step([p], [np.zeros(2)], lr=0.3)
        assert np.array_equal(out.data, p.data)

    def test_does_not_mutate_inputs(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        snapshot = p.data.tobytes()
        sgd_step([p], [np.array([3.0, -1.0])], lr=0.1)
        assert p.data.tobytes() == snapshot

    def test_quadratic_descent(self):
        # one step on 0.5*(theta-3)^2 from theta=0 at lr 0.2
        theta = Tensor(np.array([0.0]), requires_grad=True)
        grad = theta.data - 3.0
        (theta2,) = sgd_step([theta], [grad], lr=0.2)
        assert theta2.data[0] == pytest.approx(0.6, abs=1e-15)
        loss0 = 0.5 * (theta.data[0] - 3) ** 2
        loss1 = 0.5 * (theta2.data[0] - 3) ** 2
        assert loss1 < loss0

    def test_rejects_bad_gradients(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="non-finite"):
            sgd_step([p], [np.array([np.nan])], lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            sgd_step([p], [np.zeros(2)], lr=0.1)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        for scale in (1e-4, 1.0, 1e4):
            p = [Tensor(np.array([0.0]), requires_grad=True)]
            state = adam_init(p, lr=0.01)
            p2, state2 = adam_step(state, p, [np.array([scale])])
            assert abs(p2[0].data[0]) == pytest.approx(0.01, rel=1e-3)
            assert p2[0].data[0] < 0  # moves against the gradient
            assert state2.t == 1 and state.t == 0

    def test_zero_gradients_never_move_parameters(self):
        p = [Tensor(np.array([1.0, -1.0]), requires_grad=True)]
        state = adam_init(p, lr=0.1)
        for _ in range(100):
            p, state = adam_step(state, p, [np.zeros(2)])
        assert np.array_equal(p[0].data, [1.0, -1.0])

    def test_converges_on_quadratic(self):
        # 200 steps on 0.5*(theta-3)^2 from 0 at lr 0.1
        p = [Tensor(np.array([0.0]), requires_grad=True)]
        state = adam_init(p, lr=0.1)
        for _ in range(200):
            p, state = adam_step(state, p, [p[0].data - 3.0])
        assert abs(p[0].data[0] - 3.0) < 1e-3


def per_tensor_adam(params, grads, t, m, v, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one tensor at a time, as the step was written before it ran on
    flat vectors: the oracle of ``adam_step``. Returns (params, t, m, v)."""
    t += 1
    new_p, new_m, new_v = [], [], []
    for p, g, m_, v_ in zip(params, grads, m, v):
        m2 = beta1 * m_ + (1.0 - beta1) * g
        v2 = beta2 * v_ + (1.0 - beta2) * g * g
        m_hat = m2 / (1.0 - beta1**t)
        v_hat = v2 / (1.0 - beta2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_p, t, new_m, new_v


M5_SHAPES = [(32, 128), (128,), (128, 64), (64,), (64, 10), (10,)]
MIXED_SHAPES = [(1,), (3, 4), (2, 3, 2), (5,)]


def random_tensors(shapes, rng):
    return [Tensor(rng.normal(size=s), requires_grad=True, copy=False) for s in shapes]


def random_grads(shapes, rng):
    """Gradients spanning many magnitudes, with exact zeros mixed in."""
    out = []
    for s in shapes:
        g = rng.normal(size=s) * 10.0 ** rng.uniform(-8, 3, size=s)
        g[rng.uniform(size=s) < 0.1] = 0.0
        out.append(g)
    return out


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes() and np.shape(a) == np.shape(b)


class TestFlatAdam:
    @pytest.mark.parametrize("shapes", [M5_SHAPES, MIXED_SHAPES], ids=["m5", "mixed"])
    def test_equals_per_tensor_adam_over_chained_steps(self, shapes):
        rng = np.random.default_rng(3)
        params = random_tensors(shapes, rng)
        state = adam_init(params, lr=1e-3)
        o_params = [p.data for p in params]
        o_t, o_m, o_v = 0, [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        for _ in range(60):
            grads = random_grads(shapes, rng)
            params, state = adam_step(state, params, grads)
            o_params, o_t, o_m, o_v = per_tensor_adam(o_params, grads, o_t, o_m, o_v, 1e-3)
            assert state.t == o_t
            assert all(same_bits(p.data, q) for p, q in zip(params, o_params))
            assert all(same_bits(a, b) for a, b in zip(state.m, o_m))
            assert all(same_bits(a, b) for a, b in zip(state.v, o_v))

    def test_moments_read_one_array_per_parameter(self):
        params = random_tensors(MIXED_SHAPES, np.random.default_rng(0))
        state = adam_init(params, lr=0.1)
        _, state = adam_step(state, params, random_grads(MIXED_SHAPES, np.random.default_rng(1)))
        assert isinstance(state.m, tuple) and isinstance(state.v, tuple)
        assert [a.shape for a in state.m] == [a.shape for a in state.v] == MIXED_SHAPES

    def test_never_mutates_params_grads_or_state(self):
        rng = np.random.default_rng(4)
        params = random_tensors(MIXED_SHAPES, rng)
        state = adam_init(params, lr=0.1)
        params, state = adam_step(state, params, random_grads(MIXED_SHAPES, rng))
        grads = random_grads(MIXED_SHAPES, rng)
        grads[1] = Tensor(grads[1], copy=False)

        def snapshot():
            return ([p.data.tobytes() for p in params],
                    [(g.data if isinstance(g, Tensor) else g).tobytes() for g in grads],
                    [a.tobytes() for a in state.m + state.v], state.t)

        before = snapshot()
        adam_step(state, params, grads)
        assert snapshot() == before

    def test_stepping_one_state_twice_gives_the_same_bits(self):
        rng = np.random.default_rng(5)
        params = random_tensors(M5_SHAPES, rng)
        state = adam_init(params, lr=1e-2)
        params, state = adam_step(state, params, random_grads(M5_SHAPES, rng))
        grads = random_grads(M5_SHAPES, rng)
        (p1, s1), (p2, s2) = adam_step(state, params, grads), adam_step(state, params, grads)
        assert all(same_bits(a.data, b.data) for a, b in zip(p1, p2))
        assert all(same_bits(a, b) for a, b in zip(s1.m + s1.v, s2.m + s2.v))
        assert s1.t == s2.t == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_any_tensor_refused(self, bad):
        rng = np.random.default_rng(6)
        params = random_tensors(MIXED_SHAPES, rng)
        state = adam_init(params, lr=0.1)
        for i, shape in enumerate(MIXED_SHAPES):
            grads = random_grads(MIXED_SHAPES, rng)
            grads[i].flat[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                adam_step(state, params, grads)

    def test_shape_mismatch_refused(self):
        params = random_tensors(MIXED_SHAPES, np.random.default_rng(7))
        state = adam_init(params, lr=0.1)
        grads = [np.zeros(s) for s in MIXED_SHAPES]
        grads[2] = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, grads)
        swapped = params[:2] + [Tensor(np.zeros((3, 2, 2)), requires_grad=True)] + params[3:]
        grads[2] = np.zeros((3, 2, 2))
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, swapped, grads)

    def test_state_for_k_parameters_refuses_k_plus_one(self):
        params = random_tensors(MIXED_SHAPES, np.random.default_rng(8))
        state = adam_init(params[:-1], lr=0.1)
        with pytest.raises(ValueError, match="tracks 3 parameters, got 4"):
            adam_step(state, params, [np.zeros(s) for s in MIXED_SHAPES])


class TestFlatGradient:
    """``adam_step`` takes the gradients as a per-parameter list or as one
    flat vector in the state's layout, which it overwrites as scratch."""

    @pytest.mark.parametrize("shapes", [M5_SHAPES, MIXED_SHAPES], ids=["m5", "mixed"])
    def test_flat_vector_equals_the_list_bitwise(self, shapes):
        rng = np.random.default_rng(10)
        params = random_tensors(shapes, rng)
        list_state = flat_state = adam_init(params, lr=1e-3)
        list_params = flat_params = params
        for _ in range(20):
            grads = random_grads(shapes, rng)
            before = [g.tobytes() for g in grads]
            list_params, list_state = adam_step(list_state, list_params, grads)
            assert [g.tobytes() for g in grads] == before
            flat_params, flat_state = adam_step(flat_state, flat_params,
                                                np.concatenate(grads, axis=None))
            assert flat_state.t == list_state.t
            assert all(same_bits(a.data, b.data) for a, b in zip(flat_params, list_params))
            assert same_bits(flat_state.m_flat, list_state.m_flat)
            assert same_bits(flat_state.v_flat, list_state.v_flat)

    def test_flat_form_leaves_params_and_state_unchanged(self):
        rng = np.random.default_rng(11)
        params = random_tensors(MIXED_SHAPES, rng)
        state = adam_init(params, lr=0.1)
        params, state = adam_step(state, params, random_grads(MIXED_SHAPES, rng))
        before = ([p.data.tobytes() for p in params], state.m_flat.tobytes(),
                  state.v_flat.tobytes(), state.t)
        adam_step(state, params, np.concatenate(random_grads(MIXED_SHAPES, rng), axis=None))
        assert ([p.data.tobytes() for p in params], state.m_flat.tobytes(),
                state.v_flat.tobytes(), state.t) == before

    @pytest.mark.parametrize("flat", [np.zeros(29), np.zeros(31), np.zeros((30, 1)),
                                      np.zeros(30, dtype=np.float32)],
                             ids=["short", "long", "2d", "float32"])
    def test_flat_vector_of_the_wrong_layout_refused(self, flat):
        params = random_tensors(MIXED_SHAPES, np.random.default_rng(12))
        assert adam_init(params, lr=0.1).m_flat.size == 30
        with pytest.raises(ValueError, match="flat gradient must be .* of 30 entries"):
            adam_step(adam_init(params, lr=0.1), params, flat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 13, 29])
    def test_non_finite_flat_entry_refused(self, bad, at):
        params = random_tensors(MIXED_SHAPES, np.random.default_rng(13))
        flat = np.concatenate(random_grads(MIXED_SHAPES, np.random.default_rng(14)), axis=None)
        flat[at] = bad
        with pytest.raises(ValueError, match="non-finite gradient"):
            adam_step(adam_init(params, lr=0.1), params, flat)


def test_sgd_equals_per_tensor_step():
    rng = np.random.default_rng(9)
    params = random_tensors(MIXED_SHAPES, rng)
    grads = random_grads(MIXED_SHAPES, rng)
    out = sgd_step(params, grads, lr=0.3)
    assert all(same_bits(o.data, p.data - 0.3 * g) for o, p, g in zip(out, params, grads))
