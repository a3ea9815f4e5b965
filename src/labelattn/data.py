"""Clean data sources (synthetic Gaussian blobs, CIFAR-10 binary files),
noisy-label attachment, splits and batching.

All constructions are deterministic under their seeds. Substreams are
derived as default_rng([seed, tag]) with fixed tags so that adding an
annotator or changing the epoch never perturbs unrelated draws.

The feature matrix is the largest object in a run, so it is stored once.
A ``LabeledDataset`` is a row view: it holds the source ``features`` and
``aux`` arrays and an optional int64 ``rows`` index into them.
``attach_annotators`` shares its input's arrays, and ``take_subset`` (and so
``split``) composes row indices instead of copying; only the clean labels
and label sets, one integer per sample, are gathered eagerly. Rows are
gathered when read: ``minibatches`` takes each batch with one
``source[rows[idx]]``, and ``.features`` / ``.aux`` return the source itself
when ``rows`` is None, else one gather (an evaluation reads them once per
pass). The sources are read-only views, so an in-place write through a
dataset raises and never reaches the caller's array.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class LabeledDataset:
    """Labelled samples as a row view over shared source arrays.

    ``features`` [S_src, D] and ``aux`` [S_src, A] are the source arrays;
    ``rows`` (int64, None for all rows) picks this dataset's samples out of
    them, in order. ``clean_labels`` and the label sets hold one entry per
    selected sample. The sources are kept as read-only views, so a dataset
    never writes into its caller's arrays and an in-place write through
    ``features`` or ``aux`` raises.
    """

    def __init__(self, features, clean_labels, n_classes: int,
                 label_sets=(), aux=None, rows=None):
        self._features = _read_only(features, np.float64)
        if self._features.ndim != 2:
            raise ValueError(f"features must be [samples, dims], got shape "
                             f"{self._features.shape}")
        self._aux = None if aux is None else _read_only(aux, np.float64)
        self.rows = None if rows is None else _checked_rows(rows, self._features.shape[0])
        self.clean_labels = _read_only(clean_labels, np.int64)
        self.n_classes = n_classes
        self.label_sets: list[NoisyLabelSet] = list(label_sets)
        self._onehot_cache: np.ndarray | None = None
        if self.n_samples != self.clean_labels.shape[0]:
            raise ValueError("features and clean_labels disagree on sample count")
        if _out_of_range(self.clean_labels, self.n_classes):
            raise ValueError("clean label index out of range")
        for ls in self.label_sets:
            if ls.labels.shape[0] != self.n_samples:
                raise ValueError("label set length differs from the dataset")
            if _out_of_range(ls.labels, self.n_classes):
                raise ValueError("noisy label index out of range")
        if self._aux is not None and self._aux.shape[0] != self._features.shape[0]:
            raise ValueError("aux feature count differs from the dataset")

    @property
    def features(self) -> np.ndarray:
        """[S, D] float64: the read-only source itself, or one gather of its rows."""
        return self._features if self.rows is None else self._features[self.rows]

    @property
    def aux(self) -> np.ndarray | None:
        if self._aux is None or self.rows is None:
            return self._aux
        return self._aux[self.rows]

    @property
    def n_samples(self) -> int:
        return self._features.shape[0] if self.rows is None else self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self._features.shape[1]

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


def _read_only(array, dtype) -> np.ndarray:
    """A read-only view of ``array`` (converted to ``dtype`` only if needed)."""
    view = np.asarray(array, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _checked_rows(rows, n: int) -> np.ndarray:
    """``rows`` as int64 positions into ``n`` rows; anything else raises."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValueError(f"rows must be a 1-D integer index, got dtype {rows.dtype} "
                         f"and shape {rows.shape}")
    if _out_of_range(rows, n):
        raise ValueError(f"row index out of range for {n} rows")
    return _read_only(rows, np.int64)


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
    label byte followed by 3072 channel-major pixel bytes, scaled to [0, 1].

    The pixels are decoded straight into one preallocated feature matrix, so
    the peak memory is that matrix plus the bytes of one file."""
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("no CIFAR-10 batch files given")
    counts = []
    for path in paths:
        size = path.stat().st_size
        if size % CIFAR_RECORD_BYTES != 0:
            offset = (size // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES
            raise ValueError(
                f"{path}: size {size} is not a multiple of {CIFAR_RECORD_BYTES}; "
                f"record truncated at byte offset {offset}")
        counts.append(size // CIFAR_RECORD_BYTES)
    feats = np.empty((sum(counts), CIFAR_RECORD_BYTES - 1))
    labels = np.empty(sum(counts), dtype=np.int64)
    start = 0
    for path, count in zip(paths, counts):
        records = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(
            count, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        if batch_labels.size and batch_labels.max() > 9:
            bad = int(np.argmax(batch_labels > 9))
            raise ValueError(f"{path}: record {bad} has label byte {int(batch_labels[bad])} > 9")
        labels[start:start + count] = batch_labels
        np.divide(records[:, 1:], 255.0, out=feats[start:start + count])
        start += count
    return LabeledDataset(features=feats, clean_labels=labels, n_classes=CIFAR10_CLASSES)


def attach_annotators(ds: LabeledDataset, specs, seed: int) -> LabeledDataset:
    """Append one noisy label set per spec, each corrupted with its own
    default_rng([seed, index]) stream. The result shares ``ds``'s features,
    clean labels, aux and rows; nothing is copied."""
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one annotator spec")
    concrete = [build_cm(s, ds.n_classes) for s in specs if s.kind != AVERAGE]
    sets = []
    for idx, spec in enumerate(specs):
        cm = build_cm(spec, ds.n_classes, roster=concrete)
        rng = np.random.default_rng([seed, idx])
        sets.append(corrupt(ds.clean_labels, cm, rng, annotator=spec, seed=(seed, idx)))
    return LabeledDataset(features=ds._features, clean_labels=ds.clean_labels,
                          n_classes=ds.n_classes, label_sets=ds.label_sets + sets,
                          aux=ds._aux, rows=ds.rows)


def take_subset(ds: LabeledDataset, indices) -> LabeledDataset:
    """The samples at ``indices`` (positions in ``ds``), as a view over the same
    source arrays: only the row index, clean labels and label sets are gathered."""
    indices = _checked_rows(indices, ds.n_samples)
    return LabeledDataset(
        features=ds._features,
        clean_labels=ds.clean_labels[indices],
        n_classes=ds.n_classes,
        label_sets=[NoisyLabelSet(ls.labels[indices], ls.annotator, ls.seed)
                    for ls in ds.label_sets],
        aux=ds._aux,
        rows=indices if ds.rows is None else ds.rows[indices],
    )


def validation_size(n_samples: int, val_fraction: float) -> int:
    """Rows that ``split`` gives the validation half (floor rounding); a
    fraction outside (0, 1), or one that leaves that half empty, raises
    ``ValueError``."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n_val = int(np.floor(n_samples * val_fraction))
    if n_val < 1:
        raise ValueError(f"a pool of {n_samples} samples at val_fraction {val_fraction} "
                         f"leaves no validation samples")
    return n_val


def split(ds: LabeledDataset, val_fraction: float = 0.2, seed: int = 0):
    """Uniform random disjoint split; floor rounding for the validation size.
    Both halves keep all noisy label sets and share ``ds``'s source arrays."""
    n_val = validation_size(ds.n_samples, val_fraction)
    perm = np.random.default_rng([seed, _SPLIT_TAG]).permutation(ds.n_samples)
    idx = SplitIndices(train=np.sort(perm[n_val:]), val=np.sort(perm[:n_val]),
                       fraction=val_fraction)
    return take_subset(ds, idx.train), take_subset(ds, idx.val), idx


def minibatches(ds: LabeledDataset, batch_size: int = 32, seed: int = 0, epoch: int = 0):
    """Epoch-seeded shuffled batches; the final partial batch is kept. Each
    batch's features and aux are one gather from the source arrays."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng([seed, _BATCH_TAG, epoch]).permutation(ds.n_samples)
    source_rows = perm if ds.rows is None else ds.rows[perm]
    hot = ds.onehot_label_sets()
    for start in range(0, ds.n_samples, batch_size):
        idx = perm[start:start + batch_size]
        rows = source_rows[start:start + batch_size]
        yield Batch(
            x=ds._features[rows],
            label_sets=hot[:, idx, :] if ds.n_sets else np.zeros((0, idx.size, ds.n_classes)),
            aux=None if ds._aux is None else ds._aux[rows],
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
    header = np.array([ds.n_samples, ds.n_features, ds.n_classes, ds.n_sets, a],
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
    # Checked here rather than in LabeledDataset, which attach, split and
    # subset construct several times per run over one source: a forward's
    # ReLU would turn a NaN feature into 0 and hide it until an update fails
    # far from the input.
    if not np.isfinite(feats).all() or (aux is not None and not np.isfinite(aux).all()):
        raise ValueError("dataset file holds non-finite features or aux")
    return LabeledDataset(features=feats, clean_labels=clean, n_classes=n,
                          label_sets=sets, aux=aux)
