"""Config parsing: defaults, strict keys, ranges, canonical hashing."""

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelattn.annotators import KINDS, AnnotatorSpec
from labelattn.config import (Cifar10Spec, ConfigError, MethodSpec, config_hash, parse_config,
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

    def test_aux_dim_is_a_constant_not_a_field(self):
        # a field could be set to a value the run ignores but the hash reads
        cfg = parse_config_dict(minimal())
        with pytest.raises(TypeError, match="aux_dim"):
            dataclasses.replace(cfg, aux_dim=3)
        assert to_canonical_dict(cfg)["model"] == {"hidden_dims": (128, 64), "aux_dim": 0}

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

    def test_empty_validation_split_refused(self):
        raw = minimal(val_fraction=0.2)
        raw["dataset"]["synthetic"].update(n_classes=2, samples_per_class=2)
        with pytest.raises(ConfigError, match="pool of 4 samples at val_fraction 0.2"):
            parse_config_dict(raw)
        raw["val_fraction"] = 0.25
        assert parse_config_dict(raw).val_fraction == 0.25

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

    @pytest.mark.parametrize("kind", ["adversarial", "average"])
    def test_level_refused_on_the_kinds_that_take_none(self, kind):
        raw = minimal(annotators=[{"kind": "hammer_spammer", "noise_level": 0.3},
                                  {"kind": kind, "noise_level": 0.9}])
        with pytest.raises(ConfigError, match=f"^invalid value at annotators\\[1\\]: "
                                              f"'{kind}' takes no noise_level, got 0.9$"):
            parse_config_dict(raw)
        raw["annotators"][1]["noise_level"] = 0.0
        assert parse_config_dict(raw).annotators[1].noise_level == 0.0

    @pytest.mark.parametrize("name", ["ours", "baseline_avg"])
    @pytest.mark.parametrize("set_index", [7, -3])
    def test_set_index_refused_off_baseline(self, name, set_index):
        raw = minimal(method={"name": name, "set_index": set_index})
        with pytest.raises(ConfigError, match=f"^invalid value at method: set_index applies "
                                              f"only to 'baseline', not to '{name}'$"):
            parse_config_dict(raw)
        raw["method"]["set_index"] = 0
        assert parse_config_dict(raw).method.name == name

    @pytest.mark.parametrize("method", [{"name": "baseline", "set_index": 0},
                                        {"name": "baseline_avg"}])
    def test_trace_refused_off_ours(self, method):
        # a baseline has no attention weights: the setting would write nothing
        # yet change the config hash
        with pytest.raises(ConfigError, match=f"^trace applies only to 'ours', not to "
                                              f"'{method['name']}'"):
            parse_config_dict(minimal(method=method, trace=True))
        assert parse_config_dict(minimal(method=method, trace=False)).trace is False
        assert parse_config_dict(minimal(method={"name": "ours"}, trace=True)).trace is True

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
        ({"model": {"aux_dim": 2}}, "^model.aux_dim must be 0"),
        ({"model": {"aux_dim": -1}}, "^model.aux_dim must be 0"),
        ({"val_fraction": "a"}, "val_fraction"),
        ({"trace": "false"}, "trace"),
        ({"meta": {"epochs": 1.5}}, "meta.epochs"),
        ({"meta": {"batch_size": True}}, "meta.batch_size"),
        ({"method": {"name": "baseline", "set_index": "0"}}, "method.set_index"),
        ({"meta": [1]}, "meta"),
        ({"dataset": {"cifar10": {"paths": 5, "test_paths": ["t.bin"]}}},
         "dataset.cifar10.paths"),
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
        ({"dataset": {"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"], "seed": -1}}},
         "dataset.cifar10.seed"),
        ({"output": None}, "^output must be"),
        ({"output": ["a", 1]}, "^output must be"),
        ({"output": 3}, "^output must be"),
        ({"output": ""}, "^output must be a nonempty"),
        ({"output": "results\0"}, "NUL byte"),
        ({"seeds": [0, 1, 0]}, "^seeds must not repeat"),
    ])
    def test_bad_types_raise_config_error(self, overrides, where):
        with pytest.raises(ConfigError, match=where):
            parse_config_dict(minimal(**overrides))

    # the class count is the one thing a roster entry can misfit
    @pytest.mark.parametrize("dataset, annotator, message", [
        ({"synthetic": {"n_classes": 2}}, {"kind": "ordered_confusion", "noise_level": 0.3},
         "2 classes: ordered_confusion needs n >= 3"),
        ({"synthetic": {"n_classes": 1}}, {"kind": "adversarial"},
         "1 classes: adversarial needs n >= 2"),
        ({"synthetic": {"n_classes": 1}}, {"kind": "hammer_spammer", "noise_level": 0.3},
         "1 classes: hammer_spammer needs n >= 2"),
        ({"synthetic": {"n_classes": 1}}, {"kind": "structured_flips", "noise_level": 0.3},
         "1 classes: structured_flips needs n >= 2"),
        ({"synthetic": {"n_classes": 1}}, {"kind": "ordered_confusion", "noise_level": 0.3},
         "1 classes: ordered_confusion needs n >= 3"),
    ])
    def test_roster_must_fit_the_class_count(self, dataset, annotator, message):
        raw = minimal(dataset=dataset, annotators=[annotator, {"kind": "average"}])
        with pytest.raises(ConfigError, match=f"^annotators\\[0\\] does not fit {message}$"):
            parse_config_dict(raw)

    def test_million_classes_parse_without_confusion_matrices(self):
        roster = [{"kind": kind, "noise_level": 0.3} if KINDS[kind].levelled
                  else {"kind": kind} for kind in KINDS]
        cfg = parse_config_dict(minimal(dataset={"synthetic": {"n_classes": 10**6}},
                                        annotators=roster))
        assert cfg.dataset.n_classes == 10**6 and len(cfg.annotators) == 5

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

    @pytest.mark.parametrize("subset, val_fraction", [(2, 0.2), (4, 0.2), (1, 0.9)])
    def test_cifar_subset_without_validation_rows_refused(self, subset, val_fraction):
        raw = minimal(val_fraction=val_fraction)
        raw["dataset"] = {"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"],
                                      "subset": subset}}
        with pytest.raises(ConfigError, match="dataset.cifar10.subset: a pool of "
                                              f"{subset} samples .* leaves no validation"):
            parse_config_dict(raw)
        raw["dataset"]["cifar10"]["subset"] = 5
        raw["val_fraction"] = 0.2
        assert parse_config_dict(raw).dataset.subset == 5

    @pytest.mark.parametrize("bad, message", [
        ({"paths": []}, "paths and test_paths must each name at least one batch file"),
        ({"test_paths": []}, "paths and test_paths must each name at least one batch file"),
        ({"subset": 0}, "subset must be at least 1, got 0"),
        ({"test_subset": 0}, "test_subset must be at least 1, got 0"),
        ({"test_subset": -3}, "test_subset must be at least 1, got -3"),
        ({"subset": -1}, "subset must be at least 1, got -1"),
    ], ids=["no-paths", "no-test-paths", "subset-0", "test-subset-0", "test-subset-negative",
            "subset-negative"])
    def test_cifar_section_checks_itself(self, bad, message):
        raw = minimal()
        raw["dataset"] = {"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"], **bad}}
        with pytest.raises(ConfigError, match=f"^invalid value at dataset.cifar10: {message}$"):
            parse_config_dict(raw)

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

    def test_key_written_twice_refused(self, tmp_path):
        # json alone reads a repeated key as its last value: seeds (1, 2)
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(minimal())[:-1] + ', "seeds": [1, 2]}')
        assert json.loads(path.read_text())["seeds"] == [1, 2]
        with pytest.raises(ConfigError, match="^key 'seeds' is written more than once$"):
            parse_config(path)

    def test_key_written_twice_in_a_nested_section_refused(self, tmp_path):
        path = tmp_path / "twice.json"
        text = json.dumps(minimal()).replace('"samples_per_class": 10',
                                             '"samples_per_class": 10, "seed": 1, "seed": 2')
        path.write_text(text)
        assert json.loads(text)["dataset"]["synthetic"]["seed"] == 2
        with pytest.raises(ConfigError, match="^key 'seed' is written more than once$"):
            parse_config(path)


# One row per rule that ExperimentConfig checks when it is built: config
# keys that break it, and the same change made with dataclasses.replace.
CONSTRUCTOR_RULES = {
    "roster": ({"annotators": [{"kind": "average"}]}, {"annotators": (AnnotatorSpec("average"),)}),
    "set-index": ({"method": {"name": "baseline", "set_index": 1}},
                  {"method": MethodSpec("baseline", 1)}),
    "seeds": ({"seeds": [0, 1, 0]}, {"seeds": (0, 1, 0)}),
    "val-fraction": ({"val_fraction": 1.0}, {"val_fraction": 1.0}),
    "validation-rows": ({"val_fraction": 0.01}, {"val_fraction": 0.01}),
    "cifar-validation-rows": (
        {"dataset": {"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"], "subset": 2}}},
        {"dataset": Cifar10Spec(("a.bin",), ("t.bin",), subset=2)}),
    "trace": ({"method": {"name": "baseline_avg"}, "trace": True},
              {"method": MethodSpec("baseline_avg"), "trace": True}),
    "hidden-dims": ({"model": {"hidden_dims": [8, 0]}}, {"hidden_dims": (8, 0)}),
    "output": ({"output": ""}, {"output": ""}),
}


@pytest.mark.parametrize("keys, changes", CONSTRUCTOR_RULES.values(), ids=CONSTRUCTOR_RULES)
def test_replace_raises_the_parsers_message(keys, changes):
    with pytest.raises(ConfigError) as parsed:
        parse_config_dict(minimal(**keys))
    with pytest.raises(ValueError, match=f"^{re.escape(str(parsed.value))}$"):
        dataclasses.replace(parse_config_dict(minimal()), **changes)


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
            minimal(annotators=[{"kind": "structured_flips", "noise_level": 0.3}]),
            minimal(method={"name": "baseline", "set_index": 0}),
            minimal(dataset={"synthetic": {"n_classes": 4, "dim": 6,
                                           "samples_per_class": 10, "seed": 1}}),
            minimal(output="elsewhere"),
        ]
        hashes = {config_hash(base)}
        for raw in variants:
            hashes.add(config_hash(parse_config_dict(raw)))
        assert len(hashes) == len(variants) + 1

    def test_canonical_dict_is_json_serializable(self):
        cfg = parse_config_dict(minimal())
        json.dumps(to_canonical_dict(cfg))

    def test_flip_pairs_null_in_the_hash_input_and_no_config_key(self):
        # the pairs are fixed per class count; the null that stands where
        # they were a setting keeps the hash of every record written then
        roster = [{"kind": "adversarial"}, {"kind": "structured_flips", "noise_level": 0.3}]
        cfg = parse_config_dict(minimal(annotators=roster))
        assert [a["flip_pairs"] for a in to_canonical_dict(cfg)["annotators"]] == [None, None]
        for pairs in ([[0, 1]], [[0, 1], [0, 2]], None):
            roster[1]["flip_pairs"] = pairs
            with pytest.raises(ConfigError,
                               match="^unknown key 'flip_pairs' at annotators\\[1\\]$"):
                parse_config_dict(minimal(annotators=roster))

    @pytest.mark.parametrize("kind, expected", [("adversarial", "7c33bdcf449a4086"),
                                                ("average", "80d8b080d285f2e3")])
    def test_zero_level_hashes_as_no_level(self, kind, expected):
        # on a kind that takes no level, 0 and -0.0 draw the labels of no key
        for entry in ({"kind": kind}, *({"kind": kind, "noise_level": level}
                                        for level in (0.0, 0, -0.0))):
            raw = {"dataset": {"synthetic": {"n_classes": 3, "dim": 4, "samples_per_class": 20}},
                   "annotators": [{"kind": "hammer_spammer", "noise_level": 0.2}, entry],
                   "seeds": [0]}
            assert config_hash(parse_config_dict(raw)) == expected, entry

    def test_fixed_keys_do_not_reach_the_hash(self):
        # model.aux_dim and meta.attention_mode stay keys so that configs that
        # spell their one value parse; the hash input holds that value either way
        bare = {"dataset": {"synthetic": {"n_classes": 3, "dim": 4, "samples_per_class": 20}},
                "annotators": [{"kind": "hammer_spammer", "noise_level": 0.2}], "seeds": [0]}
        spelled = dict(bare, model={"aux_dim": 0}, meta={"attention_mode": "concat"})
        assert config_hash(parse_config_dict(bare)) == "ac27a77e5d39000f"
        assert config_hash(parse_config_dict(spelled)) == "ac27a77e5d39000f"

    # A change to one of these values changes the config_hash of every record
    # already written for that config.
    @pytest.mark.parametrize("raw, expected", [
        ({  # every section set, with a baseline
            "dataset": {"synthetic": {"n_classes": 10, "dim": 32, "samples_per_class": 500,
                                      "cluster_std": 1.0, "center_scale": 3.0, "seed": 7}},
            "annotators": [{"kind": "hammer_spammer", "noise_level": 0.3},
                           {"kind": "structured_flips", "noise_level": 0.4},
                           {"kind": "ordered_confusion", "noise_level": 0.5},
                           {"kind": "adversarial"}, {"kind": "average"}],
            "model": {"hidden_dims": [128, 64], "aux_dim": 0},
            "meta": {"alpha": 0.2, "beta": 1e-4, "k": 50, "t_threshold": 0.5,
                     "batch_size": 32, "epochs": 30, "attention_mode": "concat"},
            "method": {"name": "baseline", "set_index": 2},
            "seeds": [0, 1, 2], "val_fraction": 0.2, "output": "results", "trace": False,
        }, "5fa58e6d1feefc1a"),
        ({
            "dataset": {"cifar10": {"paths": ["data_batch_1.bin"],
                                    "test_paths": ["test_batch.bin"],
                                    "subset": 5000, "test_subset": 2000, "seed": 0}},
            "annotators": [{"kind": "hammer_spammer", "noise_level": 0.3},
                           {"kind": "adversarial"}],
            "seeds": [0],
        }, "0e4b565b4ea9ae4c"),
        ({  # the sweep-noise-serial benchmark workload at seed 0
            "dataset": {"synthetic": {"n_classes": 10, "dim": 32, "samples_per_class": 100,
                                      "seed": 0}},
            "annotators": [{"kind": "hammer_spammer", "noise_level": 0.3},
                           {"kind": "adversarial"}],
            "model": {"hidden_dims": [128, 64]},
            "meta": {"epochs": 2, "batch_size": 32, "beta": 1e-3},
            "method": {"name": "ours"},
            "seeds": [0, 1],
        }, "8908b565b2a425b1"),
    ], ids=["readme", "cifar10", "benchmark"])
    def test_pinned_values(self, raw, expected):
        assert config_hash(parse_config_dict(raw)) == expected


# ---------------------------------------------------------------------------
# property: any JSON value parses to a config or fails with a ConfigError
# ---------------------------------------------------------------------------

# Integers and integral floats reach +-10**6, plus a few numbers too big for
# any array. Parsing checks a roster against the class count without
# building the n x n confusion matrices, so a class count of 10**6 must
# parse (or be refused) without allocating.
_HUGE = [10**6, 2**31, 2**63, -2**63, 10**30, 1e300, -1e300]
_NUMBERS = (st.integers(-10**6, 10**6)
            | st.floats(-10**6, 10**6)
            | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, *_HUGE]))
_WORDS = st.sampled_from(["synthetic", "cifar10", "hammer_spammer", "structured_flips",
                          "ordered_confusion", "adversarial", "average", "ours", "baseline",
                          "baseline_avg", "concat", "shared", "name", "kind", "true", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8) | _WORDS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6) | _WORDS, inner, max_size=4)),
    max_leaves=12)


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_SMALL = st.integers(1, 12)
_FRACTION = st.floats(0.0, 1.0)
_PLAUSIBLE = st.fixed_dictionaries({
    "dataset": (st.fixed_dictionaries({"synthetic": _optional(
        n_classes=_SMALL, dim=_SMALL, samples_per_class=_SMALL, cluster_std=_FRACTION,
        center_scale=_FRACTION, seed=_SMALL)})
        | st.fixed_dictionaries({"cifar10": st.fixed_dictionaries(
            {"paths": st.lists(st.text(max_size=4), max_size=2),
             "test_paths": st.lists(st.text(max_size=4), max_size=2)},
            optional={"subset": _SMALL, "test_subset": _SMALL, "seed": _SMALL})})),
    "annotators": st.lists(st.fixed_dictionaries(
        {"kind": st.sampled_from(list(KINDS))},
        optional={"noise_level": _FRACTION}),
        min_size=1, max_size=4),
    "seeds": st.lists(_SMALL, min_size=1, max_size=3),
}, optional={
    "model": _optional(hidden_dims=st.lists(_SMALL, min_size=1, max_size=3),
                       aux_dim=st.sampled_from([0, 1])),
    "meta": _optional(alpha=_FRACTION, beta=_FRACTION, k=_SMALL, t_threshold=_FRACTION,
                      batch_size=_SMALL, epochs=_SMALL,
                      attention_mode=st.sampled_from(["concat", "shared"])),
    "method": st.fixed_dictionaries({"name": st.sampled_from(["ours", "baseline",
                                                              "baseline_avg"])},
                                    optional={"set_index": _SMALL}),
    "val_fraction": _FRACTION,
    "output": st.text(max_size=4),
    "trace": st.booleans(),
})


def _replace_one_entry(raw, data):
    """Walk down from the root to a random entry and replace it with any
    JSON value."""
    node = raw
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        node[key] = data.draw(_JSON)
        return


def _parses_or_config_error(raw):
    try:
        cfg = parse_config_dict(raw)
    except ConfigError:
        return
    json.dumps(to_canonical_dict(cfg))
    assert len(config_hash(cfg)) == 16


class TestParseProperty:
    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_any_json_value(self, raw):
        _parses_or_config_error(raw)

    @settings(max_examples=300, deadline=None)
    @given(_PLAUSIBLE)
    def test_config_shaped_json(self, raw):
        _parses_or_config_error(raw)

    @settings(max_examples=300, deadline=None)
    @given(_PLAUSIBLE, st.data())
    def test_config_with_one_entry_replaced(self, raw, data):
        _replace_one_entry(raw, data)
        _parses_or_config_error(raw)
