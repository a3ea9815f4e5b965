"""Experiment configuration: JSON file parsing with strict key checking
(a repeated key too), defaults, and a canonical content hash.

Each config section is read from its spec dataclass (``SyntheticSpec``,
``Cifar10Spec``, ``AnnotatorSpec``, ``MetaConfig`` without ``seed``, which
each run sets, and ``MethodSpec``): its keys are the class's fields, the
fields without a default are required, and each value is checked by its
field's annotation. ``model.aux_dim`` accepts only 0, as a classifier takes
no auxiliary features; the key stays so that every config's hash holds.
A setting that a run would ignore or misread is refused: a noise level on a
kind that takes none, a ``set_index`` on any method but ``baseline``,
``trace: true`` on any method but ``ours`` (only the attention method has
weights to trace), and an ``output`` that names no directory. The roster is
checked by ``annotators.check_roster``, as a sweep's rosters are. A config
file nested too deeply for ``json`` to read is a config error too."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass
from pathlib import Path

from .annotators import AnnotatorSpec, check_roster
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
    n_classes = CIFAR10_CLASSES          # a class constant, not a config key
    paths: tuple[str, ...]
    test_paths: tuple[str, ...]
    subset: int | None = None
    test_subset: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.paths or not self.test_paths:
            raise ValueError("paths and test_paths must each name at least one batch file")
        for name, value in (("subset", self.subset), ("test_subset", self.test_subset)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class MethodSpec:
    name: str
    set_index: int = 0

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}; choose from {METHODS}")
        if self.set_index != 0 and self.name != METHOD_BASELINE:
            raise ValueError(f"set_index applies only to {METHOD_BASELINE!r}, "
                             f"not to {self.name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SyntheticSpec | Cifar10Spec
    annotators: tuple[AnnotatorSpec, ...]
    hidden_dims: tuple[int, ...]
    aux_dim = 0                          # a class constant that perfbench reads
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


def _paths(value, where: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{where} must be a list of file paths, got {value!r}")
    return tuple(value)


# The check and conversion of a config value by its spec field's annotation;
# None leaves the value to the spec's own ``__post_init__``. A field named
# ``seed`` goes through ``_seed`` instead.
_CONVERTERS = {
    int: _integer, int | None: _integer, float: _number, str: None,
    tuple[str, ...]: _paths,
}


def _section(cls, payload, where: str, skip: tuple[str, ...] = ()):
    """``cls`` built from one config section. Its keys are ``cls``'s fields
    (less ``skip``), those without a default are required, and each value is
    checked and converted by its field's annotation; a null stays null where
    the annotation allows ``None``. A field whose annotation has no converter
    raises ``TypeError``, so that no new field is taken unchecked."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    for f in fields:
        if hints[f.name] not in _CONVERTERS:
            raise TypeError(f"no config converter for {cls.__name__}.{f.name}: "
                            f"{hints[f.name]}")
    _expect_keys(payload, {f.name for f in fields},
                 {f.name for f in fields
                  if f.default is MISSING and f.default_factory is MISSING}, where)
    values = {}
    for name, value in payload.items():
        convert = _seed if name == "seed" else _CONVERTERS[hints[name]]
        keep_null = value is None and type(None) in typing.get_args(hints[name])
        if convert is not None and not keep_null:
            value = convert(value, f"{where}.{name}")
        values[name] = value
    try:
        return cls(**values)
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
        dataset = _section(SyntheticSpec, payload, "dataset.synthetic")
    elif kind == "cifar10":
        dataset = _section(Cifar10Spec, payload, "dataset.cifar10")
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")

    ann_raw = raw["annotators"]
    if not isinstance(ann_raw, list) or not ann_raw:
        raise ConfigError("annotators must be a nonempty list")
    annotators = tuple(_section(AnnotatorSpec, entry, f"annotators[{i}]")
                       for i, entry in enumerate(ann_raw))
    try:  # builds no n x n matrix, so a large class count costs nothing
        check_roster(annotators, dataset.n_classes)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    model_raw = raw.get("model", {})
    _expect_keys(model_raw, {"hidden_dims", "aux_dim"}, set(), "model")
    hidden_dims = (_integer_list(model_raw["hidden_dims"], "model.hidden_dims")
                   if "hidden_dims" in model_raw else DEFAULT_HIDDEN_DIMS)
    aux_dim = _integer(model_raw.get("aux_dim", 0), "model.aux_dim")
    if any(d < 1 for d in hidden_dims):
        raise ConfigError("model.hidden_dims must be a nonempty list of positive ints")
    if aux_dim != 0:
        raise ConfigError(f"model.aux_dim must be 0, as a classifier takes no auxiliary "
                          f"features; got {aux_dim}")

    meta = _section(MetaConfig, raw.get("meta", {}), "meta", skip=("seed",))
    method = _section(MethodSpec, raw.get("method", {"name": METHOD_OURS}), "method")
    if method.name == METHOD_BASELINE and not 0 <= method.set_index < len(annotators):
        raise ConfigError(f"method.set_index {method.set_index} out of range for "
                          f"{len(annotators)} annotators")

    seeds = _integer_list(raw["seeds"], "seeds", check=_seed)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must not repeat, got {list(seeds)}")
    val_fraction = float(_number(raw.get("val_fraction", 0.2), "val_fraction"))
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if isinstance(dataset, SyntheticSpec):
        pool_size, where = dataset.n_classes * dataset.samples_per_class, "val_fraction"
    else:
        pool_size, where = dataset.subset, "dataset.cifar10.subset"
    if pool_size is not None:
        try:
            validation_size(pool_size, val_fraction)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
    output = check_output(raw.get("output", "results"))
    trace = raw.get("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError(f"trace must be true or false, got {trace!r}")
    if trace and method.name != METHOD_OURS:
        raise ConfigError(f"trace applies only to {METHOD_OURS!r}, not to {method.name!r}")

    return ExperimentConfig(
        dataset=dataset,
        annotators=annotators,
        hidden_dims=hidden_dims,
        meta=meta,
        method=method,
        seeds=seeds,
        val_fraction=val_fraction,
        output=output,
        trace=trace,
    )


def check_output(output, where: str = "output") -> str:
    """``output`` if it names a directory, else a ``ConfigError`` naming ``where``."""
    if not isinstance(output, str) or not output or "\0" in output:
        raise ConfigError(f"{where} must be a nonempty directory path string with no NUL "
                          f"byte, got {output!r}")
    return output


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key (``json`` keeps its last value)."""
    d: dict = {}
    for key, value in pairs:
        if key in d:
            raise ConfigError(f"key {key!r} is written more than once")
        d[key] = value
    return d


def parse_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError(f"config file {path} nests arrays or objects too deeply "
                          f"to read") from err
    return parse_config_dict(raw)


def to_canonical_dict(cfg: ExperimentConfig) -> dict:
    """Fully-resolved plain-dict form, in the config file's layout; the hash
    input. It holds every field but ``meta.seed``, which each run sets to
    its own seed, and two values no config can change, so that every hash
    holds: ``model.aux_dim`` (the class constant 0) and a null
    ``flip_pairs`` in each annotator entry, where the setting was before the
    pairs were fixed."""
    d = asdict(cfg)
    kind = "synthetic" if isinstance(cfg.dataset, SyntheticSpec) else "cifar10"
    d["dataset"] = {kind: d["dataset"]}
    for entry in d["annotators"]:
        entry["flip_pairs"] = None
    d["model"] = {"hidden_dims": d.pop("hidden_dims"), "aux_dim": cfg.aux_dim}
    del d["meta"]["seed"]
    return d


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(to_canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
