"""Experiment configuration: JSON file parsing with strict key checking,
defaults, and a canonical content hash."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .annotators import AnnotatorSpec, AVERAGE, KINDS, check_fits
from .data import CIFAR10_CLASSES, SyntheticSpec, validation_size
from .metatrain import MetaConfig

METHOD_OURS = "ours"
METHOD_BASELINE = "baseline"
METHOD_BASELINE_AVG = "baseline_avg"
METHODS = (METHOD_OURS, METHOD_BASELINE, METHOD_BASELINE_AVG)

DEFAULT_HIDDEN_DIMS = (128, 64)


class ConfigError(ValueError):
    """Invalid experiment configuration (missing/unknown key, bad range)."""


@dataclass(frozen=True)
class Cifar10Spec:
    paths: tuple[str, ...]
    test_paths: tuple[str, ...] = ()
    subset: int | None = None
    test_subset: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class MethodSpec:
    name: str
    set_index: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticSpec | Cifar10Spec
    annotators: tuple[AnnotatorSpec, ...]
    hidden_dims: tuple[int, ...]
    aux_dim: int
    meta: MetaConfig
    method: MethodSpec
    seeds: tuple[int, ...]
    val_fraction: float
    output: str
    trace: bool


def _expect_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} at {where}")
    for key in required:
        if key not in d:
            raise ConfigError(f"missing required key {key!r} at {where}")


def _integer(value, where: str) -> int:
    """A JSON integer; an integral float such as 2.0 is taken as 2, a bool is rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _seed(value, where: str) -> int:
    """An integer numpy accepts as a seed, i.e. not negative."""
    seed = _integer(value, where)
    if seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")
    return seed


def _integer_list(value, where: str, check=_integer) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list of integers, got {value!r}")
    return tuple(check(v, f"{where}[{i}]") for i, v in enumerate(value))


def _number(value, where: str):
    """A finite JSON number, kept as given so that the config hash does not
    change; a bool, NaN or an infinity is rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


def _checked_fields(payload: dict, where: str, integers=(), numbers=(), seeds=()) -> dict:
    """Copy of ``payload`` with the given keys checked as integers, numbers or
    seeds; a null is left to the dataclass's own checks."""
    out = dict(payload)
    for keys, check in ((integers, _integer), (numbers, _number), (seeds, _seed)):
        for key in keys:
            if out.get(key) is not None:
                out[key] = check(out[key], f"{where}.{key}")
    return out


def _build(cls, payload: dict, where: str):
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid value at {where}: {err}") from err


def parse_config_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _expect_keys(raw, {"dataset", "annotators", "model", "meta", "method", "seeds",
                       "val_fraction", "output", "trace"},
                 {"dataset", "annotators", "seeds"}, "top level")

    ds_raw = raw["dataset"]
    if not isinstance(ds_raw, dict) or len(ds_raw) != 1:
        raise ConfigError("dataset must hold exactly one of 'synthetic' or 'cifar10'")
    kind, payload = next(iter(ds_raw.items()))
    if kind == "synthetic":
        _expect_keys(payload, {"n_classes", "dim", "samples_per_class", "cluster_std",
                               "center_scale", "seed"}, set(), "dataset.synthetic")
        payload = _checked_fields(payload, "dataset.synthetic",
                                  integers=("n_classes", "dim", "samples_per_class"),
                                  numbers=("cluster_std", "center_scale"), seeds=("seed",))
        dataset = _build(SyntheticSpec, payload, "dataset.synthetic")
    elif kind == "cifar10":
        _expect_keys(payload, {"paths", "test_paths", "subset", "test_subset", "seed"},
                     {"paths"}, "dataset.cifar10")
        payload = _checked_fields(payload, "dataset.cifar10",
                                  integers=("subset", "test_subset"), seeds=("seed",))
        payload.setdefault("test_paths", [])
        for key in ("paths", "test_paths"):
            if not (isinstance(payload[key], list)
                    and all(isinstance(v, str) for v in payload[key])):
                raise ConfigError(f"dataset.cifar10.{key} must be a list of file paths, "
                                  f"got {payload[key]!r}")
            payload[key] = tuple(payload[key])
        dataset = _build(Cifar10Spec, payload, "dataset.cifar10")
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")

    ann_raw = raw["annotators"]
    if not isinstance(ann_raw, list) or not ann_raw:
        raise ConfigError("annotators must be a nonempty list")
    annotators = []
    for i, entry in enumerate(ann_raw):
        where = f"annotators[{i}]"
        _expect_keys(entry, {"kind", "noise_level", "flip_pairs"}, {"kind"}, where)
        if entry["kind"] not in KINDS:
            raise ConfigError(f"unknown annotator kind {entry['kind']!r} at {where}")
        payload = _checked_fields(entry, where, numbers=("noise_level",))
        if payload.get("flip_pairs") is not None:
            pairs = payload["flip_pairs"]
            if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2
                                                      for p in pairs):
                raise ConfigError(f"{where}.flip_pairs must be a list of [a, b] pairs, "
                                  f"got {pairs!r}")
            payload["flip_pairs"] = tuple(
                tuple(_integer(c, f"{where}.flip_pairs[{j}]") for c in pair)
                for j, pair in enumerate(pairs))
        annotators.append(_build(AnnotatorSpec, payload, where))
    if all(a.kind == AVERAGE for a in annotators):
        raise ConfigError("annotators cannot all be 'average'")
    # Checked without building the n x n matrices, so parsing allocates
    # nothing that grows with the class count.
    n_classes = dataset.n_classes if isinstance(dataset, SyntheticSpec) else CIFAR10_CLASSES
    for i, spec in enumerate(annotators):
        try:
            check_fits(spec, n_classes)
        except ValueError as err:
            raise ConfigError(f"annotators[{i}] does not fit {n_classes} classes: "
                              f"{err}") from err

    model_raw = raw.get("model", {})
    _expect_keys(model_raw, {"hidden_dims", "aux_dim"}, set(), "model")
    hidden_dims = (_integer_list(model_raw["hidden_dims"], "model.hidden_dims")
                   if "hidden_dims" in model_raw else DEFAULT_HIDDEN_DIMS)
    aux_dim = _integer(model_raw.get("aux_dim", 0), "model.aux_dim")
    if any(d < 1 for d in hidden_dims):
        raise ConfigError("model.hidden_dims must be a nonempty list of positive ints")
    if aux_dim < 0:
        raise ConfigError("model.aux_dim must be >= 0")

    meta_raw = raw.get("meta", {})
    _expect_keys(meta_raw, {"alpha", "beta", "k", "t_threshold", "batch_size", "epochs",
                            "attention_mode"}, set(), "meta")
    meta = _build(MetaConfig, _checked_fields(meta_raw, "meta", integers=("batch_size", "epochs"),
                                              numbers=("alpha", "beta", "k", "t_threshold")),
                  "meta")

    method_raw = raw.get("method", {"name": METHOD_OURS})
    _expect_keys(method_raw, {"name", "set_index"}, {"name"}, "method")
    if method_raw["name"] not in METHODS:
        raise ConfigError(f"unknown method {method_raw['name']!r}; choose from {METHODS}")
    method = MethodSpec(name=method_raw["name"],
                        set_index=_integer(method_raw.get("set_index", 0), "method.set_index"))
    if method.name == METHOD_BASELINE and not 0 <= method.set_index < len(annotators):
        raise ConfigError(f"method.set_index {method.set_index} out of range for "
                          f"{len(annotators)} annotators")

    seeds = _integer_list(raw["seeds"], "seeds", check=_seed)
    val_fraction = float(_number(raw.get("val_fraction", 0.2), "val_fraction"))
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if isinstance(dataset, SyntheticSpec):
        try:
            validation_size(dataset.n_classes * dataset.samples_per_class, val_fraction)
        except ValueError as err:
            raise ConfigError(f"val_fraction: {err}") from err
    trace = raw.get("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError(f"trace must be true or false, got {trace!r}")

    return ExperimentConfig(
        dataset=dataset,
        annotators=tuple(annotators),
        hidden_dims=hidden_dims,
        aux_dim=aux_dim,
        meta=meta,
        method=method,
        seeds=seeds,
        val_fraction=val_fraction,
        output=str(raw.get("output", "results")),
        trace=trace,
    )


def parse_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return parse_config_dict(raw)


def to_canonical_dict(cfg: ExperimentConfig) -> dict:
    """Fully-resolved plain-dict form; the hash input."""
    if isinstance(cfg.dataset, SyntheticSpec):
        dataset = {"synthetic": {
            "n_classes": cfg.dataset.n_classes, "dim": cfg.dataset.dim,
            "samples_per_class": cfg.dataset.samples_per_class,
            "cluster_std": cfg.dataset.cluster_std,
            "center_scale": cfg.dataset.center_scale, "seed": cfg.dataset.seed}}
    else:
        dataset = {"cifar10": {
            "paths": list(cfg.dataset.paths), "test_paths": list(cfg.dataset.test_paths),
            "subset": cfg.dataset.subset, "test_subset": cfg.dataset.test_subset,
            "seed": cfg.dataset.seed}}
    return {
        "dataset": dataset,
        "annotators": [{"kind": a.kind, "noise_level": a.noise_level,
                        "flip_pairs": None if a.flip_pairs is None
                        else [list(p) for p in a.flip_pairs]}
                       for a in cfg.annotators],
        "model": {"hidden_dims": list(cfg.hidden_dims), "aux_dim": cfg.aux_dim},
        "meta": {"alpha": cfg.meta.alpha, "beta": cfg.meta.beta, "k": cfg.meta.k,
                 "t_threshold": cfg.meta.t_threshold, "batch_size": cfg.meta.batch_size,
                 "epochs": cfg.meta.epochs, "attention_mode": cfg.meta.attention_mode},
        "method": {"name": cfg.method.name, "set_index": cfg.method.set_index},
        "seeds": list(cfg.seeds),
        "val_fraction": cfg.val_fraction,
        "output": cfg.output,
        "trace": cfg.trace,
    }


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(to_canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
