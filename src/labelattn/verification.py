"""Self-verification sweeps: the loss-reweighting identity and
finite-difference checks of every differentiable operation, including the
full attention gradient path against the closed-form attention gradient that
training runs.

Used by the ``verify`` CLI subcommand and by the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BceTerms, Tensor, bce_loss, constant, finite_diff_grad, gradients
from .metatrain import (AttentionParams, attend, attention_gradients, binarize, label_path,
                        sample_label, theorem1_gap)

REL_TOL = 1e-4
ABS_FLOOR = 1e-6
CHAIN_TOL = 1e-8
THEOREM1_TOL = 1e-10


def _random_simplex(rng: np.random.Generator, m: int) -> np.ndarray:
    e = rng.exponential(size=m)
    return e / e.sum()


def theorem1_sweep(trials: int, seed: int = 0) -> float:
    """Max |L(pred, sum w_m y_m) - sum w_m L(pred, y_m)| over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 21))
        pred = rng.uniform(1e-4, 1.0 - 1e-4, size=n)
        sets = rng.integers(0, 2, size=(m, n)).astype(np.float64)
        weights = _random_simplex(rng, m)
        worst = max(worst, theorem1_gap(pred, sets, weights))
    return worst


def _max_violation(ad_grad: np.ndarray, fd_grad: np.ndarray) -> float:
    """Excess of |ad - fd| over max(ABS_FLOOR, REL_TOL * |fd|), elementwise."""
    diff = np.abs(ad_grad - fd_grad)
    allowed = np.maximum(ABS_FLOOR, REL_TOL * np.abs(fd_grad))
    return float(np.max(diff / allowed))


def _fd_check(build_loss, x: Tensor, eps: float = 1e-5) -> float:
    """Ratio of the autodiff/finite-difference mismatch to the tolerance for
    the gradient w.r.t. x (<= 1 passes)."""
    loss = build_loss(x)
    (g,) = gradients(loss, [x])
    fd = finite_diff_grad(lambda t: build_loss(t), x, eps=eps)
    return _max_violation(g, fd.data)


@dataclass
class OpCheck:
    name: str
    worst_ratio: float   # <= 1.0 passes

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0


def gradient_oracle_sweep(trials: int = 20, seed: int = 0) -> list[OpCheck]:
    """Finite-difference agreement for every differentiable operation.

    Every case draws its constants once, then exposes the loss as a function
    of the checked tensor alone so the finite-difference probe sees a fixed
    function.
    """
    results: list[OpCheck] = []

    def check(name, case):
        worst = max(case(np.random.default_rng([seed, i])) for i in range(trials))
        results.append(OpCheck(name, worst))

    def weighted_sum_of(expr_fn, weight_const):
        # reduce to a scalar through fixed weights so every entry matters
        return lambda x: ad.sum_all(ad.mul(expr_fn(x), weight_const))

    def matmul_case(r):
        b = constant(r.uniform(-2, 2, size=(4, 3)))
        return _fd_check(lambda x: ad.sum_all(ad.matmul(x, b)),
                         Tensor(r.uniform(-2, 2, size=(5, 4)), requires_grad=True))

    def mul_case(r):
        other = constant(r.uniform(-2, 2, size=6))
        return _fd_check(lambda x: ad.sum_all(ad.mul(x, other)),
                         Tensor(r.uniform(-2, 2, size=6), requires_grad=True))

    def add_bias_case(r):
        mat = constant(r.uniform(-2, 2, size=(4, 3)))
        wgt = constant(r.uniform(-2, 2, size=(4, 3)))
        return _fd_check(weighted_sum_of(lambda x: ad.add_bias(mat, x), wgt),
                         Tensor(r.uniform(-2, 2, size=3), requires_grad=True))

    def sigmoid_case(r):
        wgt = constant(r.uniform(-2, 2, size=7))
        return _fd_check(weighted_sum_of(lambda x: ad.sigmoid(x), wgt),
                         Tensor(r.uniform(-4, 4, size=7), requires_grad=True))

    def relu_case(r):
        # keep inputs away from the kink where the subgradient convention rules
        z = r.uniform(-2, 2, size=8)
        z = np.where(np.abs(z) < 0.05, 0.5, z)
        wgt = constant(r.uniform(-2, 2, size=8))
        return _fd_check(weighted_sum_of(lambda x: ad.relu(x), wgt),
                         Tensor(z, requires_grad=True))

    def softmax_case(r):
        wgt = constant(r.uniform(-2, 2, size=(3, 5)))
        return _fd_check(weighted_sum_of(lambda x: ad.softmax(x), wgt),
                         Tensor(r.uniform(-2, 2, size=(3, 5)), requires_grad=True))

    def bce_pred_case(r):
        y = constant(r.integers(0, 2, size=6).astype(float))
        return _fd_check(lambda p: bce_loss(p, y),
                         Tensor(r.uniform(0.05, 0.95, size=6), requires_grad=True),
                         eps=1e-6)

    def bce_target_case(r):
        p = constant(r.uniform(0.05, 0.95, size=6))
        return _fd_check(lambda y: bce_loss(p, y),
                         Tensor(r.uniform(0.0, 1.0, size=6), requires_grad=True))

    def binarize_case(r):
        wgt = constant(r.uniform(-2, 2, size=6))
        return _fd_check(weighted_sum_of(lambda x: binarize(x, 8.0, 0.5), wgt),
                         Tensor(r.uniform(0.0, 1.0, size=6), requires_grad=True))

    def sample_label_case(r):
        labels = r.integers(0, 2, size=(3, 4, 5)).astype(float)
        wgt = constant(r.uniform(-2, 2, size=(4, 5)))
        return _fd_check(weighted_sum_of(lambda w: sample_label(w, labels), wgt),
                         Tensor(r.uniform(0.05, 0.9, size=(4, 3)), requires_grad=True))

    def composite_case(r):
        # linear -> relu -> linear -> sigmoid -> bce, grad w.r.t. layer-1 weights
        x = constant(r.uniform(-1, 1, size=(4, 3)))
        w2 = constant(r.uniform(-1, 1, size=(5, 2)))
        y = constant(r.integers(0, 2, size=(4, 2)).astype(float))

        def loss_of(w1):
            h = ad.relu(ad.matmul(x, w1))
            return bce_loss(ad.sigmoid(ad.matmul(h, w2)), y)

        return _fd_check(loss_of, Tensor(r.uniform(-1, 1, size=(3, 5)), requires_grad=True))

    check("matmul", matmul_case)
    check("mul", mul_case)
    check("add_bias", add_bias_case)
    check("sigmoid", sigmoid_case)
    check("relu", relu_case)
    check("softmax", softmax_case)
    check("bce_loss/pred", bce_pred_case)
    check("bce_loss/target", bce_target_case)
    check("binarize", binarize_case)
    check("sample_label", sample_label_case)
    check("composite linear-sigmoid-bce", composite_case)
    return results


def attention_path_chain_gap(trials: int = 50, seed: int = 0) -> tuple[float, float]:
    """(max abs difference autodiff vs closed form, worst finite-difference
    tolerance ratio) for the attention gradient path.

    The closed form is :func:`metatrain.attention_gradients`, the one training
    runs: per sample dL/dz_j = sum_m [sum_i dL/dy~_i * k y~_i (1-y~_i)
    * y_{m,i}] * w_m (delta_mj - w_j) with dL/dy~_i = -(1/K) logit(pred_i),
    then dL/dW[d, j] = F_d * dL/dz_j and dL/db_j = dL/dz_j.
    """
    rng = np.random.default_rng(seed)
    worst_chain, worst_fd = 0.0, 0.0
    for trial in range(trials):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 6))
        batch = int(rng.integers(1, 4))
        feats = rng.normal(size=(batch, m * d))
        labels = rng.integers(0, 2, size=(m, batch, n)).astype(float)
        pred = rng.uniform(0.05, 0.95, size=(batch, n))
        k, t = 50.0, 0.5
        w0 = rng.normal(scale=0.3, size=(m * d, m))
        b0 = rng.normal(scale=0.3, size=m)

        def loss_from(w_tensor, b_tensor):
            weights = attend(AttentionParams(w=w_tensor, b=b_tensor), constant(feats))
            y_tilde = binarize(sample_label(weights, labels), k, t)
            return bce_loss(constant(pred), y_tilde)

        w_t = Tensor(w0, requires_grad=True)
        b_t = Tensor(b0, requires_grad=True)
        gw, gb = gradients(loss_from(w_t, b_t), [w_t, b_t])

        attn = AttentionParams(w=w_t, b=b_t)
        gw_closed, gb_closed = attention_gradients(label_path(attn, feats, labels, k, t),
                                                   BceTerms(pred))

        worst_chain = max(worst_chain,
                          float(np.max(np.abs(gw - gw_closed))),
                          float(np.max(np.abs(gb - gb_closed))))

        if trial < 10:  # finite differences are slow; spot-check a subset
            fd = finite_diff_grad(lambda wt: loss_from(wt, constant(b0)), w_t)
            worst_fd = max(worst_fd, _max_violation(gw, fd.data))
    return worst_chain, worst_fd


def run_verification(trials: int) -> bool:
    """Run all oracle suites, print one pass/fail line each, return overall."""
    ok = True

    gap = theorem1_sweep(trials)
    passed = gap <= THEOREM1_TOL
    ok &= passed
    print(f"[{'PASS' if passed else 'FAIL'}] loss-reweighting identity: "
          f"max gap {gap:.3e} (tol {THEOREM1_TOL:g}, {trials} trials)")

    for res in gradient_oracle_sweep():
        ok &= res.passed
        print(f"[{'PASS' if res.passed else 'FAIL'}] gradient vs finite differences: "
              f"{res.name} (worst ratio {res.worst_ratio:.3f} of tolerance)")

    chain_gap, fd_ratio = attention_path_chain_gap()
    passed = chain_gap <= CHAIN_TOL
    ok &= passed
    print(f"[{'PASS' if passed else 'FAIL'}] attention path vs closed-form chain: "
          f"max abs diff {chain_gap:.3e} (tol {CHAIN_TOL:g})")
    passed = fd_ratio <= 1.0
    ok &= passed
    print(f"[{'PASS' if passed else 'FAIL'}] attention path vs finite differences: "
          f"worst ratio {fd_ratio:.3f} of tolerance")
    return bool(ok)
