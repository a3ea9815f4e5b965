"""Config-driven experiment runs, noise-level and annotator-count sweeps,
and machine-readable result emission (CSV / JSON lines)."""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .annotators import (ADVERSARIAL, AVERAGE, HAMMER_SPAMMER, ORDERED_CONFUSION,
                         STRUCTURED_FLIPS, AnnotatorSpec)
from .config import (METHOD_BASELINE, METHOD_BASELINE_AVG, METHOD_OURS,
                     ExperimentConfig, MethodSpec, config_hash)
from .data import (LabeledDataset, SyntheticSpec, attach_annotators, load_cifar10,
                   split, synth_blobs, take_subset)
from .metatrain import TrainResult, train_attention, train_baseline
from .metrics import mean_auc, per_class_auc
from .model import classifier_init, forward_arrays, predict_class

_INIT_TAG = 2001

CSV_COLUMNS = ("config_hash", "tag", "method", "seed", "best_epoch", "test_accuracy",
               "mean_auc", "wall_clock_seconds", "per_class_auc", "epochs")


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
    epochs: tuple   # per-epoch dicts: train_loss, val_accuracy, val_loss, mean_weights

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash, "tag": self.tag, "method": self.method,
            "seed": self.seed, "best_epoch": self.best_epoch,
            "test_accuracy": self.test_accuracy, "mean_auc": self.mean_auc,
            "wall_clock_seconds": self.wall_clock_seconds,
            "per_class_auc": list(self.per_class_auc),
            "epochs": [dict(e) for e in self.epochs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        return cls(config_hash=d["config_hash"], tag=d["tag"], method=d["method"],
                   seed=int(d["seed"]), best_epoch=int(d["best_epoch"]),
                   test_accuracy=float(d["test_accuracy"]), mean_auc=float(d["mean_auc"]),
                   wall_clock_seconds=float(d["wall_clock_seconds"]),
                   per_class_auc=tuple(d["per_class_auc"]),
                   epochs=tuple(d["epochs"]))


class ExperimentError(RuntimeError):
    """A run failed; completed records are preserved on the exception."""

    def __init__(self, message: str, completed: list[ResultRecord]):
        super().__init__(message)
        self.completed = completed


def method_label(method: MethodSpec) -> str:
    if method.name == METHOD_BASELINE:
        return f"baseline:{method.set_index}"
    return method.name


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """(noisy training pool, clean test set) for the configured dataset.

    Corruption streams derive from the dataset seed, so the noisy pool is a
    fixed artifact of the config; run seeds vary split, init and batching.
    """
    ds = cfg.dataset
    if isinstance(ds, SyntheticSpec):
        pool = synth_blobs(ds, stream="train")
        test = synth_blobs(ds, stream="test")
    else:
        if not ds.test_paths:
            raise ValueError("cifar10 dataset needs test_paths for clean evaluation")
        pool = load_cifar10(ds.paths)
        if ds.subset:
            pool = take_subset(pool, np.arange(min(ds.subset, pool.n_samples)))
        test = load_cifar10(ds.test_paths)
        if ds.test_subset:
            test = take_subset(test, np.arange(min(ds.test_subset, test.n_samples)))
    pool = attach_annotators(pool, cfg.annotators, seed=ds.seed)
    return pool, test


def evaluate_clean(model, test: LabeledDataset) -> tuple[float, list]:
    fwd = forward_arrays(model, test.features, test.aux)
    acc = float(np.mean(predict_class(fwd) == test.clean_labels))
    aucs = per_class_auc(fwd.probs, test.clean_labels, test.n_classes)
    return acc, aucs


@dataclass
class RunOutput:
    record: ResultRecord
    result: TrainResult
    trace_rows: list[dict]


def run_single(cfg: ExperimentConfig, seed: int, tag: str = "",
               pool: LabeledDataset | None = None,
               test: LabeledDataset | None = None) -> RunOutput:
    """One (config, seed) run: split, train, evaluate on clean test labels."""
    start = time.perf_counter()
    if pool is None or test is None:
        pool, test = build_datasets(cfg)
    train_ds, val_ds, _ = split(pool, cfg.val_fraction, seed=seed)

    layer_dims = (pool.n_features, *cfg.hidden_dims)
    model = classifier_init(layer_dims, pool.n_classes, cfg.aux_dim,
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
        result = train_attention(model, train_ds, meta, val_ds=val_ds,
                                 full_trace=cfg.trace, trace_hook=hook)
    elif cfg.method.name == METHOD_BASELINE:
        result = train_baseline(model, train_ds, cfg.method.set_index, meta, val_ds=val_ds)
    elif cfg.method.name == METHOD_BASELINE_AVG:
        result = train_baseline(model, train_ds, "avg", meta, val_ds=val_ds)
    else:
        raise ValueError(f"unknown method {cfg.method.name!r}")

    acc, aucs = evaluate_clean(result.model, test)
    epochs = tuple(
        {"train_loss": e.train_loss, "val_accuracy": e.val_accuracy,
         "val_loss": e.val_loss, "mean_weights": e.mean_weights}
        for e in result.history)
    record = ResultRecord(
        config_hash=config_hash(cfg), tag=tag, method=method_label(cfg.method),
        seed=int(seed), best_epoch=result.best_epoch, test_accuracy=acc,
        mean_auc=mean_auc(aucs), wall_clock_seconds=time.perf_counter() - start,
        per_class_auc=tuple(aucs), epochs=epochs)
    return RunOutput(record=record, result=result, trace_rows=trace_rows)


# One entry: (dataset, annotators) -> (pool, test) of this process's last job.
_datasets_memo: dict = {}


def _seed_run(job: tuple) -> tuple[ResultRecord, list[dict]]:
    """One (variant, seed, tag) job: its record and its trace rows."""
    cfg, seed, tag = job
    key = (cfg.dataset, cfg.annotators)
    if key not in _datasets_memo:
        _datasets_memo.clear()
        _datasets_memo[key] = build_datasets(cfg)
    pool, test = _datasets_memo[key]
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
        _datasets_memo.clear()
    return records


def run_experiment(cfg: ExperimentConfig, tag: str = "",
                   trace_sink=None) -> list[ResultRecord]:
    """All seeds of one config; deterministic per seed."""
    return run_variants([(cfg, tag)], trace_sink=trace_sink)


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
    variants = []
    for lv in levels:
        roster = (AnnotatorSpec(HAMMER_SPAMMER, lv), AnnotatorSpec(STRUCTURED_FLIPS, lv),
                  AnnotatorSpec(ORDERED_CONFUSION, lv), AnnotatorSpec(AVERAGE))
        methods = [MethodSpec(METHOD_OURS)] + [MethodSpec(METHOD_BASELINE, set_index=i)
                                               for i in range(len(roster))]
        for method in methods:
            variants.append((replace(cfg, annotators=roster, method=method),
                             f"noise={lv:g}"))
    return variants


def sweep_noise(cfg: ExperimentConfig, levels, trace_sink=None) -> list[ResultRecord]:
    return run_variants(noise_sweep_variants(cfg, levels), trace_sink=trace_sink)


ANNOTATOR_SWEEP_ORDER = (HAMMER_SPAMMER, ADVERSARIAL, ORDERED_CONFUSION,
                         STRUCTURED_FLIPS, AVERAGE)


def annotator_sweep_variants(cfg: ExperimentConfig,
                             noise_level: float = 0.3) -> list[tuple[ExperimentConfig, str]]:
    """Roster growth [hammer-spammer, adversarial] -> +ordered confusion ->
    +structured flips -> +average, attention method at each size."""
    if not 0.0 < noise_level < 1.0:
        raise ValueError("noise_level must lie strictly inside (0, 1)")
    full = [AnnotatorSpec(kind, 0.0 if kind in (ADVERSARIAL, AVERAGE) else noise_level)
            for kind in ANNOTATOR_SWEEP_ORDER]
    return [(replace(cfg, annotators=tuple(full[:m]), method=MethodSpec(METHOD_OURS)),
             f"M={m}") for m in range(2, len(full) + 1)]


def sweep_annotators(cfg: ExperimentConfig, noise_level: float = 0.3,
                     trace_sink=None) -> list[ResultRecord]:
    return run_variants(annotator_sweep_variants(cfg, noise_level), trace_sink=trace_sink)


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
                for rec in records:
                    d = rec.to_dict()
                    writer.writerow([
                        d["config_hash"], d["tag"], d["method"], d["seed"],
                        d["best_epoch"], json.dumps(d["test_accuracy"]),
                        json.dumps(d["mean_auc"]), json.dumps(d["wall_clock_seconds"]),
                        json.dumps(d["per_class_auc"]), json.dumps(d["epochs"]),
                    ])
        elif fmt == "jsonl":
            with open(path, "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as err:
        raise OSError(f"cannot write results to {path}: {err}") from err


def read_records(path, fmt: str | None = None) -> list[ResultRecord]:
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix == ".jsonl" else "csv"
    records = []
    if fmt == "jsonl":
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(ResultRecord.from_dict(json.loads(line)))
        return records
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            d = dict(zip(CSV_COLUMNS, row))
            records.append(ResultRecord(
                config_hash=d["config_hash"], tag=d["tag"], method=d["method"],
                seed=int(d["seed"]), best_epoch=int(d["best_epoch"]),
                test_accuracy=json.loads(d["test_accuracy"]),
                mean_auc=json.loads(d["mean_auc"]),
                wall_clock_seconds=json.loads(d["wall_clock_seconds"]),
                per_class_auc=tuple(json.loads(d["per_class_auc"])),
                epochs=tuple(json.loads(d["epochs"]))))
    return records


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
