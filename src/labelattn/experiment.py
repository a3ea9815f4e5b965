"""Config-driven experiment runs, noise-level and annotator-count sweeps,
and machine-readable result emission (CSV / JSON lines)."""

from __future__ import annotations

import csv
import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .annotators import (ADVERSARIAL, AVERAGE, HAMMER_SPAMMER, KINDS, ORDERED_CONFUSION,
                         STRUCTURED_FLIPS, AnnotatorSpec, check_roster)
from .config import (METHOD_BASELINE, METHOD_OURS, Cifar10Spec, ExperimentConfig, MethodSpec,
                     config_hash)
from .data import (LabeledDataset, SyntheticSpec, attach_annotators, cifar10_record_counts,
                   load_cifar10, split, synth_blobs, take_subset, validation_size)
from .metatrain import evaluate, train_attention, train_baseline
from .metrics import mean_auc, per_class_auc
from .model import classifier_init

_INIT_TAG = 2001

@dataclass(frozen=True)
class ResultRecord:
    config_hash: str
    tag: str
    method: str
    seed: int
    best_epoch: int
    test_accuracy: float
    mean_auc: float
    wall_clock_seconds: float
    per_class_auc: tuple
    epochs: tuple   # per-epoch dicts: the fields of metatrain.EpochStats, in order

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        values = {f.name: d[f.name] for f in fields(cls)}
        values.update(seed=int(d["seed"]), best_epoch=int(d["best_epoch"]),
                      per_class_auc=tuple(d["per_class_auc"]), epochs=tuple(d["epochs"]))
        return cls(**values)


# The CSV columns are the record's fields in declaration order. The text
# columns are written as they are, every other one as JSON.
CSV_COLUMNS = tuple(f.name for f in fields(ResultRecord))
_CSV_TEXT_COLUMNS = ("config_hash", "tag", "method")


class ExperimentError(RuntimeError):
    """A run failed; completed records are preserved on the exception."""

    def __init__(self, message: str, completed: list[ResultRecord]):
        super().__init__(message)
        self.completed = completed


def method_label(method: MethodSpec) -> str:
    if method.name == METHOD_BASELINE:
        return f"baseline:{method.set_index}"
    return method.name


def build_clean_datasets(ds: SyntheticSpec | Cifar10Spec,
                         val_fraction: float) -> tuple[LabeledDataset, LabeledDataset]:
    """(clean training pool, clean test set) for a dataset spec: the two
    synthetic streams, or the decoded CIFAR-10 files and their subsets. A
    CIFAR-10 pool too small to give ``val_fraction`` any validation rows, and
    test files that hold no record, are refused from the files' sizes, before
    anything is decoded."""
    if isinstance(ds, SyntheticSpec):
        return synth_blobs(ds, stream="train"), synth_blobs(ds, stream="test")
    records = sum(cifar10_record_counts(ds.paths))
    validation_size(records if ds.subset is None else min(ds.subset, records), val_fraction)
    if sum(cifar10_record_counts(ds.test_paths)) == 0:
        raise ValueError(f"the CIFAR-10 test files {', '.join(map(str, ds.test_paths))} "
                         f"hold no records")
    pool = load_cifar10(ds.paths)
    if ds.subset is not None:
        pool = take_subset(pool, np.arange(min(ds.subset, pool.n_samples)))
    test = load_cifar10(ds.test_paths)
    if ds.test_subset is not None:
        test = take_subset(test, np.arange(min(ds.test_subset, test.n_samples)))
    return pool, test


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """(noisy training pool, clean test set) for the configured dataset.

    Corruption streams derive from the dataset seed, so the noisy pool is a
    fixed artifact of the config; run seeds vary split, init and batching.
    """
    pool, test = build_clean_datasets(cfg.dataset, cfg.val_fraction)
    return attach_annotators(pool, cfg.annotators, seed=cfg.dataset.seed), test


def evaluate_clean(model, test: LabeledDataset) -> tuple[float, list]:
    """(accuracy, per-class AUCs) of the model on the clean test labels:
    :func:`~labelattn.metatrain.evaluate`, the trainers' validation pass."""
    acc, probs = evaluate(model, test, test.clean_labels)
    return acc, per_class_auc(probs, test.clean_labels, test.n_classes)


@dataclass
class RunOutput:
    record: ResultRecord
    trace_rows: list[dict]


def run_single(cfg: ExperimentConfig, seed: int, tag: str = "", *,
               pool: LabeledDataset, test: LabeledDataset) -> RunOutput:
    """One (config, seed) run on the noisy pool and clean test set of
    :func:`build_datasets`: split, train, evaluate on clean test labels."""
    start = time.perf_counter()
    train_ds, val_ds, _ = split(pool, cfg.val_fraction, seed=seed)

    layer_dims = (pool.n_features, *cfg.hidden_dims)
    model = classifier_init(layer_dims, pool.n_classes,
                            rng=np.random.default_rng([seed, _INIT_TAG]))
    meta = replace(cfg.meta, seed=seed)

    trace_rows: list[dict] = []
    if cfg.method.name == METHOD_OURS:
        hook = None
        if cfg.trace:
            def hook(it, tr):
                trace_rows.append({"iter": it,
                                   "weights_mean": [float(v) for v in tr.weight_means],
                                   "loss_pre": tr.loss_pre, "loss_post": tr.loss_post})
        # the module global, hook by keyword: perfbench wraps it and refuses a set hook
        result = train_attention(model, train_ds, meta, val_ds=val_ds, trace_hook=hook)
    else:
        set_index = cfg.method.set_index if cfg.method.name == METHOD_BASELINE else "avg"
        result = train_baseline(model, train_ds, set_index, meta, val_ds=val_ds)

    acc, aucs = evaluate_clean(result.model, test)
    epochs = tuple(asdict(e) for e in result.history)
    record = ResultRecord(
        config_hash=config_hash(cfg), tag=tag, method=method_label(cfg.method),
        seed=int(seed), best_epoch=result.best_epoch, test_accuracy=acc,
        mean_auc=mean_auc(aucs), wall_clock_seconds=time.perf_counter() - start,
        per_class_auc=tuple(aucs), epochs=epochs)
    return RunOutput(record=record, trace_rows=trace_rows)


# One entry each, for this process's last job: the clean (pool, test) of a
# (dataset spec, validation fraction), and the noisy pool of that pair plus
# the annotator roster. A sweep's variants share one clean build, and the
# methods and seeds of one level or roster share one attach; the noisy pool
# shares the clean pool's features, so keeping it costs only its label matrix.
@lru_cache(maxsize=1)
def _clean(dataset, val_fraction: float) -> tuple[LabeledDataset, LabeledDataset]:
    return build_clean_datasets(dataset, val_fraction)


@lru_cache(maxsize=1)
def _noisy(dataset, val_fraction: float, annotators) -> LabeledDataset:
    return attach_annotators(_clean(dataset, val_fraction)[0], annotators, seed=dataset.seed)


def _seed_run(job: tuple) -> tuple[ResultRecord, list[dict]]:
    """One (variant, seed, tag) job: its record and its trace rows."""
    cfg, seed, tag = job
    _, test = _clean(cfg.dataset, cfg.val_fraction)
    pool = _noisy(cfg.dataset, cfg.val_fraction, cfg.annotators)
    out = run_single(cfg, seed, tag=tag, pool=pool, test=test)
    return out.record, out.trace_rows


def run_variants(variants, jobs: int = 1, trace_sink=None) -> list[ResultRecord]:
    """Every seed of every (variant config, tag) pair, in that order, in up to
    ``jobs`` worker processes. Records (and trace rows, handed to
    ``trace_sink``) come back in job order either way. A failing job aborts
    with context; the records finished before it stay on the exception."""
    work = [(cfg, seed, tag) for cfg, tag in variants for seed in cfg.seeds]
    workers = min(jobs, len(work))
    records: list[ResultRecord] = []
    try:
        if workers > 1:  # imported here, so a serial run never loads the pool
            from concurrent.futures import ProcessPoolExecutor
        with (ProcessPoolExecutor(max_workers=workers) if workers > 1
              else nullcontext()) as executor:
            for record, rows in (executor.map if executor else map)(_seed_run, work):
                if trace_sink is not None and rows:
                    trace_sink(record, rows)
                records.append(record)
    except Exception as err:
        cfg, seed, tag = work[len(records)]
        raise ExperimentError(
            f"run failed (method={method_label(cfg.method)}, seed={seed}, "
            f"tag={tag!r}): {err}", records) from err
    finally:
        _clean.cache_clear()
        _noisy.cache_clear()
    return records


def noise_sweep_variants(cfg: ExperimentConfig, levels) -> list[tuple[ExperimentConfig, str]]:
    """(variant config, tag) pairs for the noise sweep: the adjustable
    annotators (hammer-spammer, structured flips, ordered confusion, and
    their average) re-instantiated at each level, run with the attention
    method plus every per-set baseline. The adversarial annotator has no
    adjustable level and is excluded."""
    levels = list(levels)
    if not levels:
        raise ValueError("the noise sweep needs at least one level")
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError("noise levels must lie strictly inside (0, 1)")
    # the summary groups records by tag, so two levels with one tag would merge
    tags = [f"noise={lv:g}" for lv in levels]
    if len(set(tags)) != len(tags):
        raise ValueError(f"noise levels must not repeat in their first 6 significant "
                         f"digits, got {levels}")
    variants = []
    for lv, tag in zip(levels, tags):
        roster = (AnnotatorSpec(HAMMER_SPAMMER, lv), AnnotatorSpec(STRUCTURED_FLIPS, lv),
                  AnnotatorSpec(ORDERED_CONFUSION, lv), AnnotatorSpec(AVERAGE))
        check_roster(roster, cfg.dataset.n_classes, where="the noise sweep's annotators")
        methods = [MethodSpec(METHOD_OURS)] + [MethodSpec(METHOD_BASELINE, set_index=i)
                                               for i in range(len(roster))]
        for method in methods:
            variants.append((replace(cfg, annotators=roster, method=method), tag))
    return variants


ANNOTATOR_SWEEP_ORDER = (HAMMER_SPAMMER, ADVERSARIAL, ORDERED_CONFUSION,
                         STRUCTURED_FLIPS, AVERAGE)


def annotator_sweep_variants(cfg: ExperimentConfig,
                             noise_level: float) -> list[tuple[ExperimentConfig, str]]:
    """Roster growth [hammer-spammer, adversarial] -> +ordered confusion ->
    +structured flips -> +average, attention method at each size. Each
    roster is a prefix of the full one, so checking that one checks all."""
    if not 0.0 < noise_level < 1.0:
        raise ValueError("noise_level must lie strictly inside (0, 1)")
    full = [AnnotatorSpec(kind, noise_level if KINDS[kind].levelled else 0.0)
            for kind in ANNOTATOR_SWEEP_ORDER]
    check_roster(full, cfg.dataset.n_classes, where="the annotator sweep's annotators")
    return [(replace(cfg, annotators=tuple(full[:m]), method=MethodSpec(METHOD_OURS)),
             f"M={m}") for m in range(2, len(full) + 1)]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit(records, path, fmt: str = "csv") -> None:
    """Write records as CSV (documented column order) or JSON lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                writer.writerows(
                    [v if k in _CSV_TEXT_COLUMNS else json.dumps(v) for k, v in
                     rec.to_dict().items()] for rec in records)
        elif fmt == "jsonl":
            with open(path, "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as err:
        raise OSError(f"cannot write results to {path}: {err}") from err


def read_records(path) -> list[ResultRecord]:
    """Records from a file ``emit`` wrote, JSON lines if its suffix is
    ``.jsonl`` and CSV otherwise; blank lines are skipped, and a bad line
    raises ``ValueError`` naming the file and the line."""
    path = Path(path)
    records = []
    if path.suffix == ".jsonl":
        for line_num, line in enumerate(path.read_text().splitlines(), 1):
            if line.strip():
                records.append(_parse_record(path, line_num, lambda: json.loads(line)))
        return records
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: {len(row)} fields, "
                                 f"expected {len(CSV_COLUMNS)}")
            records.append(_parse_record(path, reader.line_num, lambda: {
                k: v if k in _CSV_TEXT_COLUMNS else json.loads(v)
                for k, v in zip(CSV_COLUMNS, row)}))
    return records


def _parse_record(path: Path, line_num: int, decode) -> ResultRecord:
    """The record of the dict ``decode()`` returns; any failure, to decode or
    to fill a field, raises ``ValueError`` naming the file and the line."""
    try:
        return ResultRecord.from_dict(decode())
    except KeyError as err:
        raise ValueError(f"{path} line {line_num}: missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path} line {line_num}: {err}") from err


def summarize(records) -> list[dict]:
    """Plot-ready (x, method, mean, stddev, n) aggregates of test accuracy,
    grouped by (tag, method) in first-seen order."""
    groups: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        groups.setdefault((rec.tag, rec.method), []).append(rec.test_accuracy)
    out = []
    for (tag, method), vals in groups.items():
        arr = np.asarray(vals)
        out.append({"x": tag, "method": method, "mean": float(arr.mean()),
                    "stddev": float(arr.std(ddof=0)), "n": len(vals)})
    return out


def emit_summary(records, path) -> None:
    rows = summarize(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "method", "mean", "stddev", "n"))
        for row in rows:
            writer.writerow([row["x"], row["method"], json.dumps(row["mean"]),
                             json.dumps(row["stddev"]), row["n"]])
