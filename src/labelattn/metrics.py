"""Evaluation metrics: Mann-Whitney ROC AUC, per class and averaged."""

from __future__ import annotations

import numpy as np


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score of a positive > score of a negative), ties
    counted half. Raises on single-class input.

    U is counted against the sorted negatives: each positive scores the
    negatives below it plus those below or tied with it, and the integer
    total is halved. U is an exact half-integer, so the float equals the
    tie-averaged rank-sum form's. NaN scores sort last and tie each other."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    pos = labels != 0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("undefined AUC: both classes must be present")
    neg = np.sort(scores[~pos])
    positives = scores[pos]
    u = (np.searchsorted(neg, positives, "left")
         + np.searchsorted(neg, positives, "right")).sum() / 2
    return float(u / (n_pos * n_neg))


def per_class_auc(probs, labels, n_classes: int) -> list[float | None]:
    """One-vs-rest AUC per class; None where a class has no positives or no
    negatives in the labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    out: list[float | None] = []
    for c in range(n_classes):
        binary = (labels == c).astype(np.int64)
        if binary.sum() == 0 or binary.sum() == binary.size:
            out.append(None)
        else:
            out.append(auc_roc(probs[:, c], binary))
    return out


def mean_auc(per_class: list[float | None]) -> float:
    present = [v for v in per_class if v is not None]
    if not present:
        return float("nan")
    return float(np.mean(present))
