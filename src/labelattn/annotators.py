"""Simulated annotators as row-stochastic confusion matrices.

Five kinds are supported: hammer-spammer (correct with probability 1-noise,
otherwise uniform over the other classes), structured flips (the fixed
class-confusion pairs of ``confusion_pairs``), ordered confusion (mass on
the cyclic neighbour classes), adversarial (the fixed-point-free +1 cyclic
shift, always wrong), and the entrywise average of a roster. The first three
take a noise level; adversarial and average take none (their level is 0.0).
Each kind is one ``KINDS`` row, and ``check_roster`` holds the rules of a
whole roster, which ``config.ExperimentConfig`` checks on every config it
builds, a sweep's variants too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


HAMMER_SPAMMER = "hammer_spammer"
STRUCTURED_FLIPS = "structured_flips"
ORDERED_CONFUSION = "ordered_confusion"
ADVERSARIAL = "adversarial"
AVERAGE = "average"


# CIFAR-10 easily-confused pairs: airplane->bird, cat->dog, deer->cat,
# horse->deer, ship->airplane, truck->automobile.
CIFAR10_FLIP_PAIRS = ((0, 2), (3, 5), (4, 3), (7, 4), (8, 0), (9, 1))


def confusion_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The fixed (source, target) pairs of structured flips on n classes:
    CIFAR-10's for n=10, consecutive pairs (0->1, 2->3, ...) otherwise."""
    if n == 10:
        return CIFAR10_FLIP_PAIRS
    return tuple((i, i + 1) for i in range(0, n - 1, 2))

ROW_SUM_TOL = 1e-12


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

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in KINDS):
            raise ValueError(f"unknown annotator kind {self.kind!r}")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level must be in [0, 1], got {self.noise_level}")
        # an ignored level would draw the same labels under another config
        # hash, and so would 0 or -0.0 written for the 0.0 of no level
        if not KINDS[self.kind].levelled:
            if self.noise_level != 0.0:
                raise ValueError(f"{self.kind!r} takes no noise_level, got {self.noise_level}")
            object.__setattr__(self, "noise_level", 0.0)


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


def _hammer_spammer(n: int, level: float) -> np.ndarray:
    """Correct with probability 1-level; error mass uniform on the other n-1."""
    rows = np.full((n, n), level / (n - 1))
    np.fill_diagonal(rows, 1.0 - level)
    return rows


def _structured_flips(n: int, level: float) -> np.ndarray:
    """The source class of each ``confusion_pairs(n)`` pair flips to its
    target with the full error mass; unpaired classes keep the hammer-spammer
    row at the same rate."""
    rows = _hammer_spammer(n, level)
    for src, dst in confusion_pairs(n):
        rows[src] = 0.0
        rows[src, src] = 1.0 - level
        rows[src, dst] += level
    return rows


def _ordered_confusion(n: int, level: float) -> np.ndarray:
    """Error mass split evenly between the cyclic neighbours i-1 and i+1."""
    rows = np.zeros((n, n))
    half = level / 2.0
    for i in range(n):
        rows[i, i] = 1.0 - level
        rows[i, (i - 1) % n] += half
        rows[i, (i + 1) % n] += half
    return rows


def _adversarial(n: int, level: float) -> np.ndarray:
    """Deterministic +1 cyclic shift: consistent per class and always wrong."""
    rows = np.zeros((n, n))
    for i in range(n):
        rows[i, (i + 1) % n] = 1.0
    return rows


class Kind(NamedTuple):
    min_classes: int   # the fewest classes the kind is defined on
    levelled: bool     # takes a noise level; the others' level is 0.0
    rows: Callable[[int, float], np.ndarray] | None  # (n, level) -> [n, n]; None: average


# Ordered confusion needs two distinct neighbours; an average fits whenever
# its companions do, and is built from their matrices.
KINDS = {HAMMER_SPAMMER: Kind(2, True, _hammer_spammer),
         STRUCTURED_FLIPS: Kind(2, True, _structured_flips),
         ORDERED_CONFUSION: Kind(3, True, _ordered_confusion),
         ADVERSARIAL: Kind(2, False, _adversarial),
         AVERAGE: Kind(2, False, None)}


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
    """Raise a ValueError where n is below the fewest classes of the spec's
    kind; builds no matrix. An average needs what its companions need."""
    least = KINDS[spec.kind].min_classes
    if n < least:
        raise ValueError(f"{spec.kind} needs n >= {least}")


def check_roster(specs, n: int) -> None:
    """Raise a ValueError unless the roster can be built on n classes: it is
    not all ``average``, and each spec fits n. Builds no matrix."""
    if all(spec.kind == AVERAGE for spec in specs):
        raise ValueError("annotators cannot all be 'average'")
    for i, spec in enumerate(specs):
        try:
            check_fits(spec, n)
        except ValueError as err:
            raise ValueError(f"annotators[{i}] does not fit {n} classes: {err}") from err


def build_cm(spec: AnnotatorSpec, n: int,
             roster: list[ConfusionMatrix] | None = None) -> ConfusionMatrix:
    """Materialize a spec. AVERAGE is the entrywise mean of the roster of
    constituent matrices, each on n classes, and so is row-stochastic too."""
    check_fits(spec, n)
    rows = KINDS[spec.kind].rows
    if rows is not None:
        return ConfusionMatrix(n, rows(n, spec.noise_level))
    if not roster:
        raise ValueError("an average annotator needs at least one non-average companion")
    for cm in roster:
        if cm.n_classes != n:
            raise ValueError(f"an average annotator on {n} classes got a roster matrix "
                             f"on {cm.n_classes} classes")
    return ConfusionMatrix(n, np.mean([cm.rows for cm in roster], axis=0))


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
