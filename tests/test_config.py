"""Config parsing: defaults, strict keys, ranges, canonical hashing."""

import json

import pytest

from labelattn.config import (ConfigError, config_hash, parse_config,
                              parse_config_dict, to_canonical_dict)

MINIMAL = {
    "dataset": {"synthetic": {"n_classes": 4, "dim": 6, "samples_per_class": 10}},
    "annotators": [{"kind": "hammer_spammer", "noise_level": 0.3}],
    "seeds": [0, 1],
}


def minimal(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return raw


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_dict(minimal())
        assert cfg.meta.alpha == 0.2 and cfg.meta.beta == 1e-4
        assert cfg.meta.k == 50.0 and cfg.meta.t_threshold == 0.5
        assert cfg.meta.batch_size == 32
        assert cfg.hidden_dims == (128, 64) and cfg.aux_dim == 0
        assert cfg.method.name == "ours"
        assert cfg.val_fraction == 0.2 and cfg.trace is False

    def test_unknown_key_rejected_with_location(self):
        raw = minimal()
        raw["meta"] = {"alpha": 0.1, "gamma": 2}
        with pytest.raises(ConfigError, match="unknown key 'gamma' at meta"):
            parse_config_dict(raw)
        raw = minimal()
        raw["dataset"]["synthetic"]["shape"] = 1
        with pytest.raises(ConfigError, match="unknown key 'shape' at dataset.synthetic"):
            parse_config_dict(raw)

    def test_missing_required_key(self):
        raw = minimal()
        del raw["annotators"]
        with pytest.raises(ConfigError, match="missing required key 'annotators'"):
            parse_config_dict(raw)

    def test_threshold_range_error(self):
        raw = minimal()
        raw["meta"] = {"t_threshold": 1.5}
        with pytest.raises(ConfigError, match="t_threshold"):
            parse_config_dict(raw)

    def test_method_validation(self):
        raw = minimal(method={"name": "baseline", "set_index": 3})
        with pytest.raises(ConfigError, match="set_index"):
            parse_config_dict(raw)
        raw = minimal(method={"name": "magic"})
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config_dict(raw)

    def test_annotator_kind_checked(self):
        raw = minimal(annotators=[{"kind": "psychic"}])
        with pytest.raises(ConfigError, match="unknown annotator kind"):
            parse_config_dict(raw)

    def test_all_average_roster_rejected(self):
        raw = minimal(annotators=[{"kind": "average"}])
        with pytest.raises(ConfigError, match="average"):
            parse_config_dict(raw)

    @pytest.mark.parametrize("overrides, where", [
        ({"seeds": ["x"]}, "seeds"),
        ({"seeds": [0.5]}, "seeds"),
        ({"model": {"hidden_dims": "ab"}}, "model.hidden_dims"),
        ({"model": {"aux_dim": True}}, "model.aux_dim"),
        ({"val_fraction": "a"}, "val_fraction"),
        ({"annotators": [{"kind": "structured_flips", "noise_level": 0.3,
                          "flip_pairs": [[1]]}]}, "annotators\\[0\\].flip_pairs"),
        ({"trace": "false"}, "trace"),
        ({"meta": {"epochs": 1.5}}, "meta.epochs"),
        ({"meta": {"batch_size": True}}, "meta.batch_size"),
        ({"method": {"name": "baseline", "set_index": "0"}}, "method.set_index"),
        ({"meta": [1]}, "meta"),
        ({"dataset": {"cifar10": {"paths": 5}}}, "dataset.cifar10.paths"),
        ({"meta": {"alpha": True}}, "meta.alpha"),
        ({"meta": {"beta": True}}, "meta.beta"),
        ({"meta": {"k": True}}, "meta.k"),
        ({"meta": {"t_threshold": False}}, "meta.t_threshold"),
        ({"annotators": [{"kind": "hammer_spammer", "noise_level": True}]},
         "annotators\\[0\\].noise_level"),
        ({"dataset": {"synthetic": {"cluster_std": True}}}, "dataset.synthetic.cluster_std"),
        ({"dataset": {"synthetic": {"center_scale": True}}}, "dataset.synthetic.center_scale"),
        ({"meta": {"alpha": float("nan")}}, "meta.alpha"),
        ({"meta": {"beta": float("inf")}}, "meta.beta"),
        ({"meta": {"k": float("inf")}}, "meta.k"),
        ({"dataset": {"synthetic": {"cluster_std": float("inf")}}},
         "dataset.synthetic.cluster_std"),
        ({"seeds": [0, -1]}, "seeds\\[1\\]"),
        ({"dataset": {"synthetic": {"seed": -3}}}, "dataset.synthetic.seed"),
        ({"dataset": {"cifar10": {"paths": ["a.bin"], "seed": -1}}}, "dataset.cifar10.seed"),
    ])
    def test_bad_types_raise_config_error(self, overrides, where):
        with pytest.raises(ConfigError, match=where):
            parse_config_dict(minimal(**overrides))

    @pytest.mark.parametrize("dataset, annotator", [
        ({"synthetic": {"n_classes": 2}}, {"kind": "ordered_confusion", "noise_level": 0.3}),
        ({"synthetic": {"n_classes": 1}}, {"kind": "adversarial"}),
        ({"synthetic": {"n_classes": 4}},
         {"kind": "structured_flips", "noise_level": 0.3, "flip_pairs": [[0, 4]]}),
        ({"cifar10": {"paths": ["a.bin"]}},
         {"kind": "structured_flips", "noise_level": 0.3, "flip_pairs": [[10, 0]]}),
    ])
    def test_roster_must_fit_the_class_count(self, dataset, annotator):
        raw = minimal(dataset=dataset, annotators=[annotator, {"kind": "average"}])
        with pytest.raises(ConfigError, match="annotators\\[0\\] does not fit"):
            parse_config_dict(raw)

    def test_integral_floats_taken_as_integers(self):
        cfg = parse_config_dict(minimal(seeds=[1.0], meta={"epochs": 2.0}))
        assert cfg.seeds == (1,) and cfg.meta.epochs == 2
        assert isinstance(cfg.meta.epochs, int)

    def test_cifar_dataset(self):
        raw = minimal()
        raw["dataset"] = {"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"],
                                      "subset": 100}}
        cfg = parse_config_dict(raw)
        assert cfg.dataset.paths == ("a.bin",) and cfg.dataset.subset == 100

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal()))
        cfg = parse_config(path)
        assert cfg.seeds == (0, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)


class TestHash:
    def test_stable_across_key_reordering(self):
        a = parse_config_dict(minimal())
        reordered = {k: minimal()[k] for k in reversed(list(minimal()))}
        b = parse_config_dict(reordered)
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_every_field(self):
        base = parse_config_dict(minimal())
        variants = [
            minimal(seeds=[0, 2]),
            minimal(val_fraction=0.25),
            minimal(trace=True),
            minimal(method={"name": "baseline_avg"}),
            minimal(meta={"alpha": 0.3}),
            minimal(model={"hidden_dims": [64]}),
            minimal(annotators=[{"kind": "hammer_spammer", "noise_level": 0.4}]),
        ]
        hashes = {config_hash(base)}
        for raw in variants:
            hashes.add(config_hash(parse_config_dict(raw)))
        assert len(hashes) == len(variants) + 1

    def test_canonical_dict_is_json_serializable(self):
        cfg = parse_config_dict(minimal())
        json.dumps(to_canonical_dict(cfg))
