"""Simulated annotators as row-stochastic confusion matrices.

Five kinds are supported: hammer-spammer (correct with probability 1-noise,
otherwise uniform over the other classes), structured flips (paired class
confusions), ordered confusion (mass on the cyclic neighbour classes),
adversarial (the fixed-point-free +1 cyclic shift, always wrong), and the
entrywise average of a roster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


HAMMER_SPAMMER = "hammer_spammer"
STRUCTURED_FLIPS = "structured_flips"
ORDERED_CONFUSION = "ordered_confusion"
ADVERSARIAL = "adversarial"
AVERAGE = "average"

KINDS = (HAMMER_SPAMMER, STRUCTURED_FLIPS, ORDERED_CONFUSION, ADVERSARIAL, AVERAGE)

# CIFAR-10 easily-confused pairs: airplane->bird, cat->dog, deer->cat,
# horse->deer, ship->airplane, truck->automobile.
DEFAULT_FLIP_PAIRS = ((0, 2), (3, 5), (4, 3), (7, 4), (8, 0), (9, 1))


def default_flip_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """CIFAR-10 pairs for n=10; consecutive pairs (0->1, 2->3, ...) otherwise."""
    if n == 10:
        return DEFAULT_FLIP_PAIRS
    return tuple((i, i + 1) for i in range(0, n - 1, 2))

ROW_SUM_TOL = 1e-12

# The fewest classes each kind is defined on; ordered confusion needs two
# distinct neighbours.
MIN_CLASSES = {HAMMER_SPAMMER: 2, STRUCTURED_FLIPS: 2, ORDERED_CONFUSION: 3, ADVERSARIAL: 2}


@dataclass(frozen=True)
class ConfusionMatrix:
    """rows[i][j] = P(assigned label j | true label i)."""

    n_classes: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if self.n_classes < 2:
            raise ValueError("a confusion matrix needs at least 2 classes")
        if rows.shape != (self.n_classes, self.n_classes):
            raise ValueError(f"expected {self.n_classes}x{self.n_classes} rows, got {rows.shape}")
        if np.any(rows < 0.0) or np.any(rows > 1.0):
            raise ValueError("confusion matrix entries must lie in [0, 1]")
        sums = np.array([math.fsum(row) for row in rows])
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            raise ValueError("confusion matrix rows must sum to 1")


@dataclass(frozen=True)
class AnnotatorSpec:
    """Declarative description of one simulated annotator."""

    kind: str
    noise_level: float = 0.0
    flip_pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown annotator kind {self.kind!r}")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level must be in [0, 1], got {self.noise_level}")
        if self.flip_pairs is not None and self.kind != STRUCTURED_FLIPS:
            raise ValueError(f"flip_pairs apply only to {STRUCTURED_FLIPS!r}, "
                             f"not to {self.kind!r}")


def as_labels(labels) -> np.ndarray:
    """``labels`` as an int64 array of class indices. An integer array passes;
    a float array passes only when every value is an integer within int64's
    range, and is then cast, as config parsing takes 2.0 for 2. Anything
    else, NaN included, raises ``ValueError`` instead of being truncated."""
    arr = np.asarray(labels)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind != "f":
        raise ValueError(f"labels must be integer class indices, got dtype {arr.dtype}")
    with np.errstate(invalid="ignore"):
        integral = (arr % 1 == 0) & (np.abs(arr) < 2.0**63)
    if not integral.all():
        bad = arr.ravel()[np.argmin(integral.ravel())]
        raise ValueError(f"float labels must be integers within int64's range, got {float(bad)}")
    return arr.astype(np.int64)


def cm_hammer_spammer(n: int, noise_level: float) -> ConfusionMatrix:
    """Correct with probability 1-noise; error mass uniform on the other n-1."""
    if n < 2:
        raise ValueError("hammer-spammer needs n >= 2")
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must be in [0, 1]")
    rows = np.full((n, n), noise_level / (n - 1))
    np.fill_diagonal(rows, 1.0 - noise_level)
    return ConfusionMatrix(n, rows)


def cm_structured_flips(n: int, noise_level: float,
                        pairs: tuple[tuple[int, int], ...] | None = None) -> ConfusionMatrix:
    """Paired source classes flip to their target with the full error mass;
    unpaired classes fall back to uniform corruption at the same rate."""
    if n < 2:
        raise ValueError("structured flips needs n >= 2")
    if pairs is None:
        pairs = default_flip_pairs(n)
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must be in [0, 1]")
    _check_flip_pairs(pairs, n)
    rows = np.zeros((n, n))
    paired = {int(src): int(dst) for src, dst in pairs}
    for i in range(n):
        if i in paired:
            rows[i, i] = 1.0 - noise_level
            rows[i, paired[i]] += noise_level
        else:
            rows[i, :] = noise_level / (n - 1)
            rows[i, i] = 1.0 - noise_level
    return ConfusionMatrix(n, rows)


def _check_flip_pairs(pairs: tuple[tuple[int, int], ...], n: int) -> None:
    sources = set()
    for src, dst in pairs:
        if src == dst:
            raise ValueError(f"flip pair ({src}, {dst}) maps a class to itself")
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"flip pair ({src}, {dst}) outside of {n} classes")
        if src in sources:
            raise ValueError(f"flip pair ({src}, {dst}) repeats source class {src}")
        sources.add(src)


def cm_ordered_confusion(n: int, noise_level: float) -> ConfusionMatrix:
    """Error mass split evenly between the cyclic neighbours i-1 and i+1."""
    if n < 3:
        raise ValueError("ordered confusion needs n >= 3 for distinct neighbours")
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must be in [0, 1]")
    rows = np.zeros((n, n))
    half = noise_level / 2.0
    for i in range(n):
        rows[i, i] = 1.0 - noise_level
        rows[i, (i - 1) % n] += half
        rows[i, (i + 1) % n] += half
    return ConfusionMatrix(n, rows)


def cm_adversarial(n: int) -> ConfusionMatrix:
    """Deterministic +1 cyclic shift: consistent per class and always wrong."""
    if n < 2:
        raise ValueError("adversarial needs n >= 2")
    rows = np.zeros((n, n))
    for i in range(n):
        rows[i, (i + 1) % n] = 1.0
    return ConfusionMatrix(n, rows)


def cm_average(parts: list[ConfusionMatrix]) -> ConfusionMatrix:
    """Entrywise arithmetic mean; preserves row-stochasticity."""
    if not parts:
        raise ValueError("cm_average needs at least one matrix")
    n = parts[0].n_classes
    for p in parts[1:]:
        if p.n_classes != n:
            raise ValueError(f"dimension mismatch: {p.n_classes} vs {n}")
    return ConfusionMatrix(n, np.mean([p.rows for p in parts], axis=0))


def noise_level_of(cm: ConfusionMatrix) -> float:
    """Expected error rate under a uniform class prior.

    Computed as the mean per-row off-diagonal mass with exact (fsum)
    accumulation, which equals 1 - mean(diagonal) for a row-stochastic
    matrix but reproduces constructor noise levels exactly in float64.
    """
    n = cm.n_classes
    per_row = [math.fsum(cm.rows[i, j] for j in range(n) if j != i) for i in range(n)]
    return math.fsum(per_row) / n


def check_fits(spec: AnnotatorSpec, n: int) -> None:
    """Raise a ValueError where ``build_cm(spec, n)`` would for a non-average
    spec, without building its n x n matrix: too few classes for the kind, or
    a flip pair that maps a class to itself, leaves the n classes or repeats
    a source class. An average fits whenever its companions do."""
    least = MIN_CLASSES.get(spec.kind, 0)
    if n < least:
        raise ValueError(f"{spec.kind} needs n >= {least}")
    if spec.kind == STRUCTURED_FLIPS and spec.flip_pairs is not None:
        _check_flip_pairs(spec.flip_pairs, n)


def build_cm(spec: AnnotatorSpec, n: int,
             roster: list[ConfusionMatrix] | None = None) -> ConfusionMatrix:
    """Materialize a spec; AVERAGE requires the roster of constituent matrices."""
    if spec.kind == HAMMER_SPAMMER:
        return cm_hammer_spammer(n, spec.noise_level)
    if spec.kind == STRUCTURED_FLIPS:
        return cm_structured_flips(n, spec.noise_level, spec.flip_pairs)
    if spec.kind == ORDERED_CONFUSION:
        return cm_ordered_confusion(n, spec.noise_level)
    if spec.kind == ADVERSARIAL:
        return cm_adversarial(n)
    if spec.kind == AVERAGE:
        if not roster:
            raise ValueError("an average annotator needs at least one non-average companion")
        return cm_average(roster)
    raise ValueError(f"unknown annotator kind {spec.kind!r}")


def corrupt(clean, cm: ConfusionMatrix, rng: np.random.Generator) -> np.ndarray:
    """One noisy int64 label per sample, drawn from the true-class row of the
    matrix.

    One uniform is drawn per sample, and its label is the count of the row's
    cumulative sums at or below it. The count runs class-major: ``cum.T``
    gathered by the clean labels is ``[N, S]``, and the sum over its N rows
    is N vectorised passes of length S that already yield int64, where a
    sample-major ``[S, N]`` sum runs S inner loops of length N and needs a
    cast. Both compare the same floats and count them exactly in integers,
    so they give the same labels bit for bit."""
    clean = as_labels(clean)
    if clean.size and (clean.min() < 0 or clean.max() >= cm.n_classes):
        raise ValueError(f"label index out of range for {cm.n_classes} classes")
    cum = np.cumsum(cm.rows, axis=1)
    uniforms = rng.random(clean.size)
    idx = np.add.reduce(cum.T.take(clean, axis=1) <= uniforms, axis=0)
    # a draw at or above a row's last sum (rounding below 1) takes the last class
    return np.minimum(idx, cm.n_classes - 1)


def empirical_cm(clean, noisy) -> ConfusionMatrix:
    """Row-normalized co-occurrence counts of (true, assigned) labels."""
    clean, noisy = as_labels(clean), as_labels(noisy)
    if clean.shape != noisy.shape:
        raise ValueError("clean and noisy label lists differ in length")
    if not clean.size:
        raise ValueError("empirical_cm needs at least one (clean, noisy) label pair")
    if min(clean.min(), noisy.min()) < 0:
        raise ValueError("negative label index in the clean or noisy labels")
    n = int(max(clean.max(), noisy.max())) + 1
    counts = np.zeros((n, n))
    np.add.at(counts, (clean, noisy), 1.0)
    totals = counts.sum(axis=1)
    missing = np.nonzero(totals == 0)[0]
    if missing.size:
        raise ValueError(f"true class {int(missing[0])} absent from the clean labels")
    return ConfusionMatrix(n, counts / totals[:, None])
