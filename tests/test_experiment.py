"""Experiment harness: runs, sweeps, emission round trips, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from labelattn import experiment
from labelattn.config import parse_config_dict
from labelattn.data import LabeledDataset
from labelattn.experiment import (CSV_COLUMNS, ExperimentError, ResultRecord, build_datasets,
                                  emit, emit_summary, read_records, run_experiment,
                                  run_single, summarize, sweep_annotators, sweep_noise)

TINY = {
    "dataset": {"synthetic": {"n_classes": 3, "dim": 4, "samples_per_class": 30,
                              "center_scale": 6.0, "seed": 5}},
    "annotators": [{"kind": "hammer_spammer", "noise_level": 0.0}],
    "model": {"hidden_dims": [8, 6]},
    "meta": {"epochs": 15, "batch_size": 16, "beta": 1e-2},
    "seeds": [0],
}


def tiny_config(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return parse_config_dict(raw)


def strip_clock(record: ResultRecord) -> dict:
    d = record.to_dict()
    d.pop("wall_clock_seconds")
    return d


class TestRunExperiment:
    def test_clean_baseline_learns_separable_data(self):
        cfg = tiny_config(method={"name": "baseline", "set_index": 0})
        records = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].test_accuracy >= 0.95
        assert records[0].method == "baseline:0"
        assert len(records[0].epochs) == 15

    def test_single_set_collapse_matches_baseline(self):
        ours = run_experiment(tiny_config(method={"name": "ours"}))
        base = run_experiment(tiny_config(method={"name": "baseline", "set_index": 0}))
        assert abs(ours[0].test_accuracy - base[0].test_accuracy) <= 0.02

    def test_bitwise_determinism(self):
        cfg = tiny_config(method={"name": "ours"})
        a = [strip_clock(r) for r in run_experiment(cfg)]
        b = [strip_clock(r) for r in run_experiment(cfg)]
        assert a == b

    def test_record_fields(self):
        cfg = tiny_config()
        rec = run_experiment(cfg)[0]
        assert rec.config_hash and rec.seed == 0 and rec.tag == ""
        assert 0.0 <= rec.test_accuracy <= 1.0
        assert len(rec.per_class_auc) == 3
        assert rec.wall_clock_seconds > 0

    def test_trace_rows_emitted_when_enabled(self):
        cfg = tiny_config(trace=True, meta={"epochs": 2, "batch_size": 16})
        out = run_single(cfg, seed=0)
        assert out.trace_rows
        row = out.trace_rows[0]
        assert set(row) == {"iter", "weights_mean", "loss_pre", "loss_post"}
        assert row["loss_post"] is not None

    def test_aux_configured_model(self):
        cfg = tiny_config(model={"hidden_dims": [8, 6], "aux_dim": 2})
        pool, test = build_datasets(cfg)
        pool, test = (LabeledDataset(features=d.features, clean_labels=d.clean_labels,
                                     n_classes=d.n_classes, label_sets=d.label_sets,
                                     aux=np.zeros((d.n_samples, 2))) for d in (pool, test))
        out = run_single(cfg, seed=0, pool=pool, test=test)
        assert 0.0 <= out.record.test_accuracy <= 1.0

    def test_cifar_config_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        # two tiny synthetic batch files in the CIFAR-10 binary layout
        def write_batch(path, n):
            blob = bytearray()
            for _ in range(n):
                blob.append(int(rng.integers(0, 10)))
                blob.extend(rng.integers(0, 256, size=3072).astype(np.uint8).tobytes())
            path.write_bytes(bytes(blob))
        train_path, test_path = tmp_path / "train.bin", tmp_path / "test.bin"
        write_batch(train_path, 60)
        write_batch(test_path, 30)
        cfg = tiny_config()
        raw = json.loads(json.dumps(TINY))
        raw["dataset"] = {"cifar10": {"paths": [str(train_path)],
                                      "test_paths": [str(test_path)],
                                      "subset": 50, "test_subset": 20}}
        raw["meta"] = {"epochs": 1, "batch_size": 16}
        raw["annotators"] = [{"kind": "hammer_spammer", "noise_level": 0.3},
                             {"kind": "adversarial"}]
        cfg = parse_config_dict(raw)
        records = run_experiment(cfg)
        assert len(records) == 1
        assert 0.0 <= records[0].test_accuracy <= 1.0

    def test_cifar_config_requires_test_paths(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["dataset"] = {"cifar10": {"paths": [str(tmp_path / "t.bin")]}}
        cfg = parse_config_dict(raw)
        with pytest.raises(Exception, match="test_paths"):
            build_datasets(cfg)


class TestSweeps:
    def test_noise_sweep_bookkeeping(self):
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        records = sweep_noise(cfg, [0.2, 0.5])
        # |levels| x (ours + 4 baselines) x |seeds|
        assert len(records) == 2 * 5 * 2
        tags = {r.tag for r in records}
        assert tags == {"noise=0.2", "noise=0.5"}
        keys = [(r.config_hash, r.seed, r.tag) for r in records]
        assert len(keys) == len(set(keys))

    def test_noise_sweep_builds_one_dataset_pair_per_level(self, monkeypatch):
        built = []
        real = experiment.build_datasets
        monkeypatch.setattr(experiment, "build_datasets",
                            lambda cfg: built.append(cfg.annotators) or real(cfg))
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        assert len(sweep_noise(cfg, [0.2, 0.5])) == 20
        assert len(built) == 2 and built[0] != built[1]

    def test_noise_sweep_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="inside"):
            sweep_noise(tiny_config(), [0.0])

    def test_baseline_accuracy_non_increasing_in_noise(self):
        raw = json.loads(json.dumps(TINY))
        raw["dataset"] = {"synthetic": {"n_classes": 5, "dim": 8,
                                        "samples_per_class": 60,
                                        "center_scale": 3.0, "seed": 5}}
        raw["model"] = {"hidden_dims": [16, 8]}
        raw["meta"] = {"epochs": 12, "batch_size": 32, "beta": 5e-3}
        raw["seeds"] = [0, 1]
        records = sweep_noise(parse_config_dict(raw), [0.2, 0.7])
        means = {}
        for rec in records:
            means.setdefault((rec.method, rec.tag), []).append(rec.test_accuracy)
        for i in range(4):
            low = np.mean(means[(f"baseline:{i}", "noise=0.2")])
            high = np.mean(means[(f"baseline:{i}", "noise=0.7")])
            assert high <= low + 0.02

    def test_annotator_sweep_tags(self):
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32})
        records = sweep_annotators(cfg, noise_level=0.3)
        assert [r.tag for r in records] == ["M=2", "M=3", "M=4", "M=5"]
        assert all(r.method == "ours" for r in records)

    def test_failing_variant_keeps_finished_records(self):
        # two classes fit the M=2 roster; the M=3 roster's ordered confusion
        # needs three, so the first M=3 job fails in build_datasets
        raw = json.loads(json.dumps(TINY))
        raw["dataset"]["synthetic"]["n_classes"] = 2
        raw.update(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        with pytest.raises(ExperimentError, match="tag='M=3'") as exc:
            sweep_annotators(parse_config_dict(raw), noise_level=0.3)
        assert len(exc.value.completed) == 2
        assert [(r.tag, r.seed) for r in exc.value.completed] == [("M=2", 0), ("M=2", 1)]


class TestEmission:
    def make_records(self):
        cfg = tiny_config(meta={"epochs": 2, "batch_size": 32}, seeds=[0, 1])
        return run_experiment(cfg, tag="demo")

    def test_csv_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "results.csv"
        emit(records, path, fmt="csv")
        back = read_records(path)
        assert [strip_clock(r) for r in back] == [strip_clock(r) for r in records]
        assert [r.wall_clock_seconds for r in back] == \
            [r.wall_clock_seconds for r in records]

    def test_csv_header_documented_order(self, tmp_path):
        path = tmp_path / "results.csv"
        emit(self.make_records(), path, fmt="csv")
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_jsonl_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "results.jsonl"
        emit(records, path, fmt="jsonl")
        back = read_records(path)
        assert [r.to_dict() for r in back] == [r.to_dict() for r in records]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            emit([], tmp_path / "x.bin", fmt="bin")

    def test_summary_triples(self, tmp_path):
        records = self.make_records()
        rows = summarize(records)
        assert len(rows) == 1
        row = rows[0]
        vals = [r.test_accuracy for r in records]
        assert row["mean"] == pytest.approx(np.mean(vals))
        assert row["stddev"] == pytest.approx(np.std(vals))
        assert row["n"] == 2
        emit_summary(records, tmp_path / "plot.csv")
        assert (tmp_path / "plot.csv").read_text().splitlines()[0] == \
            "x,method,mean,stddev,n"

    def test_nan_mean_auc_round_trips(self, tmp_path):
        rec = self.make_records()[0]
        broken = dataclasses.replace(rec, per_class_auc=(None, None, None),
                                     mean_auc=float("nan"))
        path = tmp_path / "results.csv"
        emit([broken], path, fmt="csv")
        back = read_records(path)[0]
        assert np.isnan(back.mean_auc)
        assert back.per_class_auc == (None, None, None)
