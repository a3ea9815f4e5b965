"""Config sections are read from their spec dataclasses: the accepted keys are
the fields, and every value is checked by its field's annotation."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from labelattn import config
from labelattn.annotators import AnnotatorSpec
from labelattn.config import (Cifar10Spec, ConfigError, ExperimentConfig, MethodSpec,
                              parse_config_dict)
from labelattn.data import SyntheticSpec
from labelattn.metatrain import MetaConfig

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = {
    "dataset": {"synthetic": {"n_classes": 4, "dim": 6, "samples_per_class": 10}},
    "annotators": [{"kind": "hammer_spammer", "noise_level": 0.3}],
    "seeds": [0],
}


def field_names(cls, skip=()):
    return {f.name for f in dataclasses.fields(cls)} - set(skip)


def readme_config_blocks() -> list[str]:
    """The JSON blocks of README's "Config file" section, in order."""
    text = README.read_text()
    section = text.split("### Config file\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.MULTILINE)[0]
    return re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)


def assert_keys_are_spec_fields(raw: dict) -> None:
    assert set(raw) - {"model"} <= field_names(ExperimentConfig)
    assert set(raw.get("model", {})) <= field_names(ExperimentConfig)
    (kind, dataset), = raw["dataset"].items()
    assert set(dataset) <= field_names({"synthetic": SyntheticSpec,
                                        "cifar10": Cifar10Spec}[kind])
    for entry in raw["annotators"]:
        assert set(entry) <= field_names(AnnotatorSpec)
    assert set(raw.get("meta", {})) <= field_names(MetaConfig, skip=("seed",))
    assert set(raw.get("method", {})) <= field_names(MethodSpec)


class TestReadmeExamples:
    def test_the_section_holds_the_full_example_and_the_cifar_fragment(self):
        blocks = readme_config_blocks()
        assert len(blocks) == 2
        assert set(json.loads(blocks[0])) == {"dataset", "annotators", "model", "meta",
                                              "method", "seeds", "val_fraction", "output",
                                              "trace"}
        assert list(json.loads("{" + blocks[1] + "}")) == ["dataset"]

    def test_full_example_parses(self):
        raw = json.loads(readme_config_blocks()[0])
        assert_keys_are_spec_fields(raw)
        cfg = parse_config_dict(raw)
        assert isinstance(cfg.dataset, SyntheticSpec) and len(cfg.annotators) == 5

    def test_cifar_fragment_parses_in_a_minimal_config(self):
        raw = {**MINIMAL, **json.loads("{" + readme_config_blocks()[1] + "}")}
        assert_keys_are_spec_fields(raw)
        cfg = parse_config_dict(raw)
        assert isinstance(cfg.dataset, Cifar10Spec) and cfg.dataset.subset == 5000


@dataclasses.dataclass(frozen=True)
class WithAFlag:
    size: int = 1
    shuffle: bool = True


class TestSections:
    @pytest.mark.parametrize("payload", [{}, {"size": 2}, {"shuffle": False}])
    def test_unknown_annotation_raises_instead_of_passing_unchecked(self, payload):
        with pytest.raises(TypeError, match="no config converter for WithAFlag.shuffle"):
            config._section(WithAFlag, payload, "flagged")

    def test_meta_seed_is_not_a_config_key(self):
        with pytest.raises(ConfigError, match="unknown key 'seed' at meta"):
            parse_config_dict({**MINIMAL, "meta": {"seed": 1}})

    @pytest.mark.parametrize("dataset, where", [
        ({"synthetic": {"seed": None}}, "dataset.synthetic.seed"),
        ({"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"], "seed": None}},
         "dataset.cifar10.seed"),
        ({"cifar10": {"paths": ["a.bin"], "test_paths": None}}, "dataset.cifar10.test_paths"),
    ])
    def test_null_refused_where_the_annotation_has_no_none(self, dataset, where):
        with pytest.raises(ConfigError, match=where):
            parse_config_dict({**MINIMAL, "dataset": dataset})

    def test_null_kept_where_the_annotation_allows_none(self):
        cfg = parse_config_dict({**MINIMAL, "dataset": {"cifar10": {
            "paths": ["a.bin"], "test_paths": ["t.bin"], "subset": None, "test_subset": None}}})
        assert cfg.dataset.subset is None and cfg.dataset.test_subset is None

    def test_unknown_method_refused_by_its_spec(self):
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            MethodSpec("magic")

    def test_set_index_off_baseline_refused_by_its_spec(self):
        with pytest.raises(ValueError, match="set_index applies only to 'baseline'"):
            MethodSpec("ours", set_index=7)
        assert MethodSpec("baseline", set_index=7).set_index == 7
        assert MethodSpec("baseline_avg") == MethodSpec("baseline_avg", set_index=0)
