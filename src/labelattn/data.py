"""Clean data sources (synthetic Gaussian blobs, CIFAR-10 binary files),
noisy-label attachment, splits and batching.

All constructions are deterministic under their seeds. Substreams are
derived as default_rng([seed, tag]) with fixed tags so that adding an
annotator or changing the epoch never perturbs unrelated draws.

The feature matrix is the largest object in a run, so it is stored once.
A ``LabeledDataset`` is a row view: it holds the source ``features`` array,
a sample's only input, and an optional int64 ``rows`` index into it.
``attach_annotators`` shares its input's array, and ``take_subset`` (and so
``split``) composes row indices instead of copying; only the clean labels
and label sets, one integer per sample, are gathered eagerly. Rows are
gathered when read: ``minibatches`` takes each batch with one
``source.take(rows[idx], axis=0)`` (the rows of ``source[rows[idx]]``,
without the per-call cost of fancy indexing), and ``.features`` returns the
source itself when ``rows`` is None, else one gather (an evaluation reads it
once per pass). The source is a read-only view, so an in-place write through
a dataset raises and never reaches the caller's array.

The clean labels are an int64 ``[S]`` vector, and the noisy labels one int64
``[M, S]`` matrix, ``label_sets``: row m is labeler m's label for each
sample (M may be 0). The dataset keeps its own read-only copy of each,
checked once at construction, so a caller's later write cannot skip the
range check; the dataset holds nothing else and is never written after
construction. Attaching annotators stacks new rows under the matrix, and a
subset takes its columns. No one-hot form of the whole matrix is kept:
``minibatches`` builds each batch's ``[M, B, N]`` one-hot label sets from an
``N x N`` identity, and ``consensus_labels`` counts votes from the integers.

``synth_blobs`` builds its matrix in place as well: one ``standard_normal``
draw of every sample (the class blocks are contiguous in draw order), scaled
by ``cluster_std`` and shifted by each class center through an
``[n_classes, samples_per_class, dim]`` view, so it allocates little beyond
the matrix it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotators import AVERAGE, as_labels, build_cm, corrupt

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
    """Labelled samples as a row view over a shared source array.

    ``features`` [S_src, D] is the source array; ``rows`` (int64, None for
    all rows) picks this dataset's samples out of it, in order.
    ``clean_labels`` [S] and ``label_sets`` [M, S] hold the labels of the
    selected samples. The source is kept as a read-only view, so a dataset
    never writes into its caller's array and an in-place write through
    ``features``, ``clean_labels`` or ``label_sets`` raises;
    ``clean_labels`` and ``label_sets`` are the dataset's own copies, so a
    caller's later write to the labels it passed in does not reach the
    dataset either. Nothing is cached on the dataset: every other array is
    derived when it is read.
    """

    aux = None  # a class constant that perfbench reads

    def __init__(self, features, clean_labels, n_classes: int,
                 label_sets=None, rows=None):
        self._features = _read_only(features, np.float64)
        if self._features.ndim != 2:
            raise ValueError(f"features must be [samples, dims], got shape "
                             f"{self._features.shape}")
        self.rows = None if rows is None else _checked_rows(rows, self._features.shape[0])
        self.clean_labels = _read_only(as_labels(clean_labels).copy(), np.int64)
        self.n_classes = n_classes
        if self.n_samples != self.clean_labels.shape[0]:
            raise ValueError("features and clean_labels disagree on sample count")
        if _out_of_range(self.clean_labels, self.n_classes):
            raise ValueError("clean label index out of range")
        sets = np.zeros((0, self.n_samples), np.int64) if label_sets is None \
            else as_labels(label_sets)
        if sets.ndim != 2 or sets.shape[1] != self.n_samples:
            raise ValueError(f"label sets must be a [sets, {self.n_samples}] matrix, "
                             f"got shape {sets.shape}")
        if _out_of_range(sets, self.n_classes):
            raise ValueError("noisy label index out of range")
        self.label_sets = _read_only(sets.copy(), np.int64)

    @property
    def features(self) -> np.ndarray:
        """[S, D] float64: the read-only source itself, or one gather of its rows."""
        return self._features if self.rows is None else self._features[self.rows]

    @property
    def n_samples(self) -> int:
        return self._features.shape[0] if self.rows is None else self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self._features.shape[1]

    @property
    def n_sets(self) -> int:
        return self.label_sets.shape[0]


@dataclass(frozen=True)
class Batch:
    x: np.ndarray                        # [B, D]
    label_sets: np.ndarray               # [M, B, N] one-hot float64
    indices: np.ndarray                  # positions inside the source dataset
    aux = None                           # a class constant that perfbench reads


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    val: np.ndarray


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
    """float64 one-hot rows on a new last axis: [..., n] for labels [...]."""
    labels = as_labels(labels)
    if _out_of_range(labels, n):
        raise ValueError(f"label index out of range for {n} classes")
    out = np.zeros((*labels.shape, n))
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def synth_blobs(spec: SyntheticSpec, stream: str = "train") -> LabeledDataset:
    """Balanced Gaussian clusters. Centers depend only on the seed, so the
    'train' and 'test' streams sample fresh points from the same mixture."""
    tags = {"train": _TRAIN_TAG, "test": _TEST_TAG}
    if stream not in tags:
        raise ValueError(f"unknown stream {stream!r}")
    n, spc = spec.n_classes, spec.samples_per_class
    centers = np.random.default_rng([spec.seed, _CENTER_TAG]).standard_normal(
        (n, spec.dim)) * spec.center_scale
    # one draw in class order is the stream of n per-class draws; scaling and
    # then adding the centers in place gives the bits of center + std * draw
    feats = np.random.default_rng([spec.seed, tags[stream]]).standard_normal((n * spc, spec.dim))
    feats *= spec.cluster_std
    blocks = feats.reshape(n, spc, spec.dim)
    np.add(blocks, centers[:, None, :], out=blocks)
    labels = np.repeat(np.arange(n, dtype=np.int64), spc)
    return LabeledDataset(features=feats, clean_labels=labels, n_classes=spec.n_classes)


def cifar10_record_counts(paths) -> list[int]:
    """The number of records in each CIFAR-10 batch file, read from the file
    sizes alone; a size that is not a whole number of records raises."""
    if not paths:
        raise ValueError("no CIFAR-10 batch files given")
    counts = []
    for path in paths:
        size = Path(path).stat().st_size
        if size % CIFAR_RECORD_BYTES != 0:
            offset = (size // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES
            raise ValueError(
                f"{path}: size {size} is not a multiple of {CIFAR_RECORD_BYTES}; "
                f"record truncated at byte offset {offset}")
        counts.append(size // CIFAR_RECORD_BYTES)
    return counts


def load_cifar10(paths) -> LabeledDataset:
    """Parse CIFAR-10 binary batch files: consecutive 3073-byte records of one
    label byte followed by 3072 channel-major pixel bytes, scaled to [0, 1].

    The pixels are decoded straight into one preallocated feature matrix, so
    the peak memory is that matrix plus the bytes of one file."""
    paths = [Path(p) for p in paths]
    counts = cifar10_record_counts(paths)
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
    default_rng([seed, index]) stream, as new rows of the label matrix. The
    result shares ``ds``'s features, clean labels and rows."""
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one annotator spec")
    concrete = [build_cm(s, ds.n_classes) for s in specs if s.kind != AVERAGE]
    built = iter(concrete)
    cms = [build_cm(s, ds.n_classes, roster=concrete) if s.kind == AVERAGE else next(built)
           for s in specs]
    sets = [corrupt(ds.clean_labels, cm, np.random.default_rng([seed, idx]))
            for idx, cm in enumerate(cms)]
    return LabeledDataset(features=ds._features, clean_labels=ds.clean_labels,
                          n_classes=ds.n_classes, label_sets=np.vstack([ds.label_sets, *sets]),
                          rows=ds.rows)


def take_subset(ds: LabeledDataset, indices) -> LabeledDataset:
    """The samples at ``indices`` (positions in ``ds``), as a view over the same
    source array: only the row index, clean labels and label sets are gathered."""
    indices = _checked_rows(indices, ds.n_samples)
    return LabeledDataset(
        features=ds._features,
        clean_labels=ds.clean_labels[indices],
        n_classes=ds.n_classes,
        label_sets=ds.label_sets[:, indices],
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
    Both halves keep all noisy label sets and share ``ds``'s source array."""
    n_val = validation_size(ds.n_samples, val_fraction)
    perm = np.random.default_rng([seed, _SPLIT_TAG]).permutation(ds.n_samples)
    idx = SplitIndices(train=np.sort(perm[n_val:]), val=np.sort(perm[:n_val]))
    return take_subset(ds, idx.train), take_subset(ds, idx.val), idx


def minibatches(ds: LabeledDataset, batch_size: int = 32, seed: int = 0, epoch: int = 0):
    """Epoch-seeded shuffled batches; the final partial batch is kept. Each
    batch's features are one gather from the source array, and its one-hot
    label sets are rows of an N x N identity picked by its [M, B] labels:
    exact 0/1 values, the bits of ``one_hot``, with no [M, S, N] array
    behind them."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng([seed, _BATCH_TAG, epoch]).permutation(ds.n_samples)
    source_rows = perm if ds.rows is None else ds.rows[perm]
    eye = np.eye(ds.n_classes)
    for start in range(0, ds.n_samples, batch_size):
        idx = perm[start:start + batch_size]
        rows = source_rows[start:start + batch_size]
        yield Batch(
            x=ds._features.take(rows, axis=0),
            label_sets=eye.take(ds.label_sets.take(idx, axis=1), axis=0),
            indices=idx,
        )


def consensus_labels(ds: LabeledDataset) -> np.ndarray:
    """Plurality vote across the noisy label sets (ties -> lowest index).
    The votes are counted in one ``bincount`` of sample * N + label, an
    [S, N] table of integers."""
    if not ds.n_sets:
        raise ValueError("dataset carries no label sets")
    n, s = ds.n_classes, ds.n_samples
    cells = ds.label_sets + np.arange(0, s * n, n)
    return np.argmax(np.bincount(cells.ravel(), minlength=s * n).reshape(s, n), axis=1)
