"""Mann-Whitney AUC against brute-force and rank-sum oracles."""

import numpy as np
import pytest

from labelattn.metrics import auc_roc, mean_auc, per_class_auc


def brute_force_auc(scores, labels):
    """All-pairs comparison: P(pos > neg) + 0.5 P(pos == neg)."""
    pos = scores[labels != 0]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def rank_sum_auc(scores, labels):
    """The tie-averaged rank-sum form of the AUC, which ``auc_roc`` must equal
    bit for bit: np.unique ranks every score, NaNs as one last tie group."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - counts + (counts + 1) / 2.0)[inverse]
    pos = labels != 0
    n_pos = int(pos.sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (labels.size - n_pos)))


class TestAucRoc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert auc_roc(scores, labels) == 1.0

    def test_total_inversion(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([0, 0, 1, 1])
        assert auc_roc(scores, labels) == 0.0

    def test_all_tied_scores_give_half(self):
        assert auc_roc(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="undefined AUC"):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            r = np.random.default_rng([1, trial])
            n = int(r.integers(4, 40))
            # quantized scores force plenty of ties
            scores = np.round(r.uniform(0, 1, size=n), 1)
            labels = r.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            fast = auc_roc(scores, labels)
            slow = brute_force_auc(scores, labels)
            assert abs(fast - slow) <= 1e-12

    @pytest.mark.parametrize("seed, ties", enumerate(["none", "quantized", "saturated", "nan"]))
    def test_equals_rank_sum_form_bitwise(self, seed, ties):
        rng = np.random.default_rng(seed)
        for trial in range(300):
            n = int(rng.integers(2, 3000 if trial % 20 == 0 else 200))
            scores = rng.uniform(0, 1, size=n)
            if ties == "quantized":
                scores = np.round(scores, 1)
            elif ties == "saturated":
                scores[rng.random(n) < 0.5] = 1 - 1e-7
            elif ties == "nan":
                scores[rng.random(n) < 0.2] = np.nan
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            fast, oracle = auc_roc(scores, labels), rank_sum_auc(scores, labels)
            assert np.float64(fast).tobytes() == np.float64(oracle).tobytes(), trial


class TestPerClass:
    def test_skips_degenerate_classes(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(size=(20, 3))
        labels = np.array([0, 1] * 10)  # class 2 never appears
        out = per_class_auc(probs, labels, 3)
        assert out[2] is None
        assert out[0] is not None and out[1] is not None
        assert 0.0 <= mean_auc(out) <= 1.0

    def test_mean_ignores_none(self):
        assert mean_auc([0.8, None, 0.6]) == pytest.approx(0.7)
        assert np.isnan(mean_auc([None, None]))

    def test_bounds(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(size=(50, 4))
        labels = rng.integers(0, 4, size=50)
        for v in per_class_auc(probs, labels, 4):
            if v is not None:
                assert 0.0 <= v <= 1.0
