"""Clean data sources (synthetic Gaussian blobs, CIFAR-10 binary files),
noisy-label attachment, splits and batching.

All constructions are deterministic under their seeds. Substreams are
derived as default_rng([seed, tag]) with fixed tags so that adding an
annotator or changing the epoch never perturbs unrelated draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .annotators import AVERAGE, NoisyLabelSet, build_cm, corrupt

_CENTER_TAG = 1001
_TRAIN_TAG = 1002
_TEST_TAG = 1003
_SPLIT_TAG = 1004
_BATCH_TAG = 1005

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 channel-major pixels
CIFAR10_CLASSES = 10


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 10
    dim: int = 32
    samples_per_class: int = 500
    cluster_std: float = 1.0
    center_scale: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_classes, self.dim, self.samples_per_class) < 1:
            raise ValueError("n_classes, dim and samples_per_class must be positive")
        if self.cluster_std <= 0 or self.center_scale <= 0:
            raise ValueError("cluster_std and center_scale must be positive")


@dataclass
class LabeledDataset:
    features: np.ndarray                 # [S, D] float64
    clean_labels: np.ndarray             # [S] int64
    n_classes: int
    label_sets: list[NoisyLabelSet] = field(default_factory=list)
    aux: np.ndarray | None = None
    _onehot_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.clean_labels = np.asarray(self.clean_labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.clean_labels.shape[0]:
            raise ValueError("features and clean_labels disagree on sample count")
        if _out_of_range(self.clean_labels, self.n_classes):
            raise ValueError("clean label index out of range")
        for ls in self.label_sets:
            if ls.labels.shape[0] != self.n_samples:
                raise ValueError("label set length differs from the dataset")
            if _out_of_range(ls.labels, self.n_classes):
                raise ValueError("noisy label index out of range")
        if self.aux is not None:
            self.aux = np.asarray(self.aux, dtype=np.float64)
            if self.aux.shape[0] != self.n_samples:
                raise ValueError("aux feature count differs from the dataset")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_sets(self) -> int:
        return len(self.label_sets)

    def onehot_label_sets(self) -> np.ndarray:
        """All label sets as one-hot float64 [M, S, N]; cached."""
        if self._onehot_cache is None or self._onehot_cache.shape[0] != self.n_sets:
            self._onehot_cache = np.stack(
                [one_hot(ls.labels, self.n_classes) for ls in self.label_sets]
            ) if self.label_sets else np.zeros((0, self.n_samples, self.n_classes))
        return self._onehot_cache


@dataclass(frozen=True)
class Batch:
    x: np.ndarray                        # [B, D]
    label_sets: np.ndarray               # [M, B, N] one-hot float64
    aux: np.ndarray | None
    indices: np.ndarray                  # positions inside the source dataset


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    val: np.ndarray
    fraction: float


def _out_of_range(labels: np.ndarray, n: int) -> bool:
    return bool(labels.size) and (labels.min() < 0 or labels.max() >= n)


def one_hot(labels, n: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if _out_of_range(labels, n):
        raise ValueError(f"label index out of range for {n} classes")
    out = np.zeros((labels.shape[0], n))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def synth_blobs(spec: SyntheticSpec, stream: str = "train") -> LabeledDataset:
    """Balanced Gaussian clusters. Centers depend only on the seed, so the
    'train' and 'test' streams sample fresh points from the same mixture."""
    tags = {"train": _TRAIN_TAG, "test": _TEST_TAG}
    if stream not in tags:
        raise ValueError(f"unknown stream {stream!r}")
    centers = np.random.default_rng([spec.seed, _CENTER_TAG]).standard_normal(
        (spec.n_classes, spec.dim)) * spec.center_scale
    rng = np.random.default_rng([spec.seed, tags[stream]])
    feats = np.empty((spec.n_classes * spec.samples_per_class, spec.dim))
    labels = np.empty(spec.n_classes * spec.samples_per_class, dtype=np.int64)
    for c in range(spec.n_classes):
        lo = c * spec.samples_per_class
        hi = lo + spec.samples_per_class
        feats[lo:hi] = centers[c] + spec.cluster_std * rng.standard_normal(
            (spec.samples_per_class, spec.dim))
        labels[lo:hi] = c
    return LabeledDataset(features=feats, clean_labels=labels, n_classes=spec.n_classes)


def load_cifar10(paths) -> LabeledDataset:
    """Parse CIFAR-10 binary batch files: consecutive 3073-byte records of one
    label byte followed by 3072 channel-major pixel bytes, scaled to [0, 1]."""
    feats, labels = [], []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) % CIFAR_RECORD_BYTES != 0:
            offset = (len(raw) // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES
            raise ValueError(
                f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}; "
                f"record truncated at byte offset {offset}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        if batch_labels.size and batch_labels.max() > 9:
            bad = int(np.argmax(batch_labels > 9))
            raise ValueError(f"{path}: record {bad} has label byte {int(batch_labels[bad])} > 9")
        labels.append(batch_labels.astype(np.int64))
        feats.append(records[:, 1:].astype(np.float64) / 255.0)
    if not feats:
        raise ValueError("no CIFAR-10 batch files given")
    return LabeledDataset(features=np.concatenate(feats), clean_labels=np.concatenate(labels),
                          n_classes=CIFAR10_CLASSES)


def attach_annotators(ds: LabeledDataset, specs, seed: int) -> LabeledDataset:
    """Append one noisy label set per spec, each corrupted with its own
    default_rng([seed, index]) stream; features and clean labels untouched."""
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one annotator spec")
    concrete = [build_cm(s, ds.n_classes) for s in specs if s.kind != AVERAGE]
    sets = []
    for idx, spec in enumerate(specs):
        cm = build_cm(spec, ds.n_classes, roster=concrete)
        rng = np.random.default_rng([seed, idx])
        sets.append(corrupt(ds.clean_labels, cm, rng, annotator=spec, seed=(seed, idx)))
    return LabeledDataset(features=ds.features.copy(), clean_labels=ds.clean_labels.copy(),
                          n_classes=ds.n_classes, label_sets=ds.label_sets + sets,
                          aux=None if ds.aux is None else ds.aux.copy())


def take_subset(ds: LabeledDataset, indices) -> LabeledDataset:
    indices = np.asarray(indices, dtype=np.int64)
    return LabeledDataset(
        features=ds.features[indices].copy(),
        clean_labels=ds.clean_labels[indices].copy(),
        n_classes=ds.n_classes,
        label_sets=[NoisyLabelSet(ls.labels[indices].copy(), ls.annotator, ls.seed)
                    for ls in ds.label_sets],
        aux=None if ds.aux is None else ds.aux[indices].copy(),
    )


def split(ds: LabeledDataset, val_fraction: float = 0.2, seed: int = 0):
    """Uniform random disjoint split; floor rounding for the validation size.
    Both halves keep all noisy label sets."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    perm = np.random.default_rng([seed, _SPLIT_TAG]).permutation(ds.n_samples)
    n_val = int(np.floor(ds.n_samples * val_fraction))
    idx = SplitIndices(train=np.sort(perm[n_val:]), val=np.sort(perm[:n_val]),
                       fraction=val_fraction)
    return take_subset(ds, idx.train), take_subset(ds, idx.val), idx


def minibatches(ds: LabeledDataset, batch_size: int = 32, seed: int = 0, epoch: int = 0):
    """Epoch-seeded shuffled batches; the final partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng([seed, _BATCH_TAG, epoch]).permutation(ds.n_samples)
    hot = ds.onehot_label_sets()
    for start in range(0, ds.n_samples, batch_size):
        idx = perm[start:start + batch_size]
        yield Batch(
            x=ds.features[idx],
            label_sets=hot[:, idx, :] if ds.n_sets else np.zeros((0, idx.size, ds.n_classes)),
            aux=None if ds.aux is None else ds.aux[idx],
            indices=idx,
        )


def consensus_labels(ds: LabeledDataset) -> np.ndarray:
    """Plurality vote across the noisy label sets (ties -> lowest index)."""
    if not ds.label_sets:
        raise ValueError("dataset carries no label sets")
    return np.argmax(ds.onehot_label_sets().sum(axis=0), axis=1)


def save_dataset(ds: LabeledDataset, path) -> None:
    """Self-describing container: int64 header [S, D, N, M, A], float64
    features, uint8 clean labels, M uint8 label sets, float64 aux. S must be
    at least 1, so that the file length bounds every other header entry."""
    if ds.n_samples < 1:
        raise ValueError("the container cannot hold a dataset with no samples")
    if ds.n_classes > 256:
        raise ValueError(f"{ds.n_classes} classes do not fit the container's uint8 labels")
    a = 0 if ds.aux is None else ds.aux.shape[1]
    header = np.array([ds.n_samples, ds.features.shape[1], ds.n_classes, ds.n_sets, a],
                      dtype=np.int64)
    with open(path, "wb") as fh:
        header.tofile(fh)
        ds.features.astype(np.float64).tofile(fh)
        ds.clean_labels.astype(np.uint8).tofile(fh)
        for ls in ds.label_sets:
            ls.labels.astype(np.uint8).tofile(fh)
        if ds.aux is not None:
            ds.aux.astype(np.float64).tofile(fh)


def load_dataset(path) -> LabeledDataset:
    raw = Path(path).read_bytes()
    off = 5 * 8
    if len(raw) < off:
        raise ValueError(f"dataset file of {len(raw)} bytes is shorter than its header")
    s, d, n, m, a = (int(v) for v in np.frombuffer(raw, dtype=np.int64, count=5))
    if min(s, d, n, m, a) < 0:
        raise ValueError(f"dataset header holds a negative size: {[s, d, n, m, a]}")
    if s < 1:
        raise ValueError("dataset header holds no samples")
    expected = off + s * d * 8 + s * (1 + m) + s * a * 8
    if len(raw) != expected:
        raise ValueError(f"dataset file holds {len(raw)} bytes, its header implies {expected}")
    feats = np.frombuffer(raw, dtype=np.float64, count=s * d, offset=off).reshape(s, d).copy()
    off += s * d * 8
    clean = np.frombuffer(raw, dtype=np.uint8, count=s, offset=off).astype(np.int64)
    off += s
    sets = []
    for _ in range(m):
        sets.append(NoisyLabelSet(np.frombuffer(raw, dtype=np.uint8, count=s, offset=off)
                                  .astype(np.int64)))
        off += s
    aux = None
    if a:
        aux = np.frombuffer(raw, dtype=np.float64, count=s * a, offset=off).reshape(s, a).copy()
    # Checked here rather than in LabeledDataset, which splits and subsets
    # rebuild several times per run: a forward's ReLU would turn a NaN
    # feature into 0 and hide it until an update fails far from the input.
    if not np.isfinite(feats).all() or (aux is not None and not np.isfinite(aux).all()):
        raise ValueError("dataset file holds non-finite features or aux")
    return LabeledDataset(features=feats, clean_labels=clean, n_classes=n,
                          label_sets=sets, aux=aux)
