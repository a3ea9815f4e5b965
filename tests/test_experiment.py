"""Experiment harness: runs, sweeps, emission round trips, determinism."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from labelattn import experiment
from labelattn.config import ConfigError, config_hash, parse_config_dict
from labelattn.experiment import (CSV_COLUMNS, ExperimentError, ResultRecord,
                                  annotator_sweep_variants, build_datasets, emit,
                                  emit_summary, evaluate_clean, noise_sweep_variants,
                                  read_records, run_single, run_variants, summarize)
from labelattn.data import Batch, LabeledDataset, minibatches
from labelattn.metatrain import attention_init, collect_feedback, meta_step
from labelattn.model import (EVAL_BLOCK_ROWS, Classifier, classifier_init, forward,
                             forward_arrays, predict_class)

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


def run_built(cfg, seed: int, tag: str = ""):
    """``run_single`` on the pool and test set of the config's own
    ``build_datasets``."""
    pool, test = build_datasets(cfg)
    return run_single(cfg, seed, tag, pool=pool, test=test)


def strip_clock(record: ResultRecord) -> dict:
    d = record.to_dict()
    d.pop("wall_clock_seconds")
    return d


class TestRunExperiment:
    def test_clean_baseline_learns_separable_data(self):
        cfg = tiny_config(method={"name": "baseline", "set_index": 0})
        records = run_variants([(cfg, "")])
        assert len(records) == 1
        assert records[0].test_accuracy >= 0.95
        assert records[0].method == "baseline:0"
        assert len(records[0].epochs) == 15

    def test_single_set_collapse_matches_baseline(self):
        ours = run_variants([(tiny_config(method={"name": "ours"}), "")])
        base = run_variants([(tiny_config(method={"name": "baseline", "set_index": 0}), "")])
        assert abs(ours[0].test_accuracy - base[0].test_accuracy) <= 0.02

    def test_bitwise_determinism(self):
        cfg = tiny_config(method={"name": "ours"})
        a = [strip_clock(r) for r in run_variants([(cfg, "")])]
        b = [strip_clock(r) for r in run_variants([(cfg, "")])]
        assert a == b

    def test_record_fields(self):
        cfg = tiny_config()
        rec = run_variants([(cfg, "")])[0]
        assert rec.config_hash and rec.seed == 0 and rec.tag == ""
        assert 0.0 <= rec.test_accuracy <= 1.0
        assert len(rec.per_class_auc) == 3
        assert rec.wall_clock_seconds > 0

    @pytest.mark.parametrize("method", [{"name": "ours"}, {"name": "baseline", "set_index": 0}])
    def test_zero_epochs_record_no_best_epoch(self, method):
        # a run that trains no epoch names none: -1, not the epoch 0 that never ran
        record = run_built(tiny_config(method=method, meta={"epochs": 0}), seed=0).record
        assert record.epochs == () and record.best_epoch == -1
        assert run_built(tiny_config(method=method, meta={"epochs": 1}),
                         seed=0).record.best_epoch == 0

    def test_trace_rows_emitted_when_enabled(self):
        cfg = tiny_config(trace=True, meta={"epochs": 2, "batch_size": 16})
        out = run_built(cfg, seed=0)
        assert out.trace_rows
        row = out.trace_rows[0]
        assert set(row) == {"iter", "weights_mean", "loss_pre", "loss_post"}
        assert row["loss_post"] is not None

    def test_datasets_are_required(self):
        # no build on a missing pool, whose time would count as the run's
        cfg = tiny_config(meta={"epochs": 1})
        with pytest.raises(TypeError, match="'pool' and 'test'"):
            run_single(cfg, 0)
        with pytest.raises(TypeError, match="positional"):
            run_single(cfg, 0, "", *build_datasets(cfg))

    def test_attention_trainer_is_read_through_the_module_global(self, monkeypatch):
        # perfbench wraps experiment.train_attention to stamp each iteration,
        # and its wrapper refuses a set hook: run_single must look the trainer
        # up when it runs and pass an unset hook as trace_hook=None
        calls = []
        real = experiment.train_attention

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "train_attention", recorder)
        run_built(tiny_config(meta={"epochs": 1}), 0)
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert len(args) == 3 and "trace_hook" in kwargs and kwargs["trace_hook"] is None
        for method in ({"name": "baseline", "set_index": 0}, {"name": "baseline_avg"}):
            run_built(tiny_config(method=method, meta={"epochs": 1}), 0)
        assert len(calls) == 1

    def test_aux_configured_model_refused(self):
        # a classifier takes no auxiliary features, so the parser refuses
        # the config before any library caller can run it
        with pytest.raises(ConfigError, match="model.aux_dim must be 0"):
            tiny_config(model={"hidden_dims": [8, 6], "aux_dim": 2})

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
        records = run_variants([(cfg, "")])
        assert len(records) == 1
        assert 0.0 <= records[0].test_accuracy <= 1.0

    @pytest.mark.parametrize("subset", [None, 50], ids=["whole-files", "subset-over-files"])
    def test_cifar_pool_without_validation_rows_refused_before_decoding(
            self, tmp_path, monkeypatch, subset):
        # two tiny batch files, two records each: at val_fraction 0.2 the
        # four-sample pool leaves no validation rows, which the file sizes show
        paths = []
        for name in ("a.bin", "b.bin"):
            paths.append(tmp_path / name)
            paths[-1].write_bytes(b"".join(bytes([i]) + bytes(3072) for i in range(2)))
        raw = json.loads(json.dumps(TINY))
        raw["dataset"] = {"cifar10": {"paths": [str(p) for p in paths],
                                      "test_paths": [str(paths[1])]}}
        if subset:
            raw["dataset"]["cifar10"]["subset"] = subset
        cfg = parse_config_dict(raw)
        decoded = []
        monkeypatch.setattr(experiment, "load_cifar10", lambda paths: decoded.append(paths))
        with pytest.raises(ValueError, match="a pool of 4 samples at val_fraction 0.2 "
                                             "leaves no validation samples"):
            build_datasets(cfg)
        assert decoded == []

    def test_cifar_config_requires_test_paths(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["dataset"] = {"cifar10": {"paths": [str(tmp_path / "t.bin")]}}
        with pytest.raises(ConfigError, match="missing required key 'test_paths'"):
            parse_config_dict(raw)


def test_aux_names_the_benchmark_reads():
    # perfbench/phases.py and perfbench/endtoend.py, which this suite does not
    # collect, still read these names; each stays and accepts only "no aux"
    cfg = tiny_config()
    assert cfg.aux_dim == 0
    assert Classifier.aux_dim == 0 and Batch.aux is None and LabeledDataset.aux is None
    pool, _ = build_datasets(cfg)
    batch = next(minibatches(pool, 8, 0, 0))
    assert pool.aux is None and batch.aux is None
    model = classifier_init((pool.n_features, *cfg.hidden_dims), pool.n_classes, cfg.aux_dim,
                            rng=np.random.default_rng(0))
    fwd = forward(model, batch.x, batch.aux)
    probes = [meta_step(model, batch.label_sets[m], 0.1, fwd.probs) for m in range(pool.n_sets)]
    stacked = collect_feedback(probes, batch.x, batch.aux)
    attn = attention_init(pool.n_sets, model.feature_dim + model.aux_dim, cfg.meta.attention_mode)
    assert stacked.shape == (8, attn.w.shape[0])

    with pytest.raises(ValueError, match="aux_dim=1"):
        classifier_init((pool.n_features, 8), pool.n_classes, 1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="aux"):
        forward(model, batch.x, np.zeros((8, 1)))
    with pytest.raises(ValueError, match="aux"):
        collect_feedback(probes, batch.x, np.zeros((8, 1)))


class TestEvaluateClean:
    """The test accuracy is the share of argmax predictions equal to the clean labels."""

    def predictions(self, n_classes, n_samples=10_000):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(n_samples, 4))
        model = classifier_init((4, 8), n_classes, rng=rng)
        return features, model, predict_class(forward_arrays(model, features).probs)

    def test_identical(self):
        features, model, pred = self.predictions(10)
        acc, _ = evaluate_clean(model, LabeledDataset(features, pred, 10))
        assert acc == 1.0

    def test_disjoint(self):
        features, model, pred = self.predictions(10)
        acc, _ = evaluate_clean(model, LabeledDataset(features, (pred + 1) % 10, 10))
        assert acc == 0.0

    def test_random_ten_class_rate(self):
        features, model, _ = self.predictions(10)
        truth = np.random.default_rng(1).integers(0, 10, size=features.shape[0])
        acc, aucs = evaluate_clean(model, LabeledDataset(features, truth, 10))
        assert abs(acc - 0.10) < 0.01 and len(aucs) == 10

    def test_peak_is_the_head_input_and_one_blocks_activations(self):
        # the narrow benchmark's test set: 5,000 rows through 32-128-64-10,
        # whose hidden layers run in 9 blocks of at most 556 rows. The peak is
        # the [S, 64] head input, one block's two hidden activations and one
        # [S, N] float64 array of slack for the head's logits, under the two
        # adjacent whole-set hidden activations (7.7 MB) a whole-set forward
        # holds
        rng = np.random.default_rng(0)
        model = classifier_init((32, 128, 64), 10, rng=rng)
        test = LabeledDataset(rng.standard_normal((5000, 32)),
                              rng.integers(0, 10, size=5000), 10)
        expected = evaluate_clean(model, test)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert evaluate_clean(model, test) == expected
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block = -(-5000 // (5000 // EVAL_BLOCK_ROWS))
        bound = 8 * 5000 * 64 + 8 * block * (128 + 64) + 8 * 5000 * 10
        assert peak <= bound, (peak, bound)


class TestSweeps:
    def test_noise_sweep_bookkeeping(self):
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        records = run_variants(noise_sweep_variants(cfg, [0.2, 0.5]))
        # |levels| x (ours + 4 baselines) x |seeds|
        assert len(records) == 2 * 5 * 2
        tags = {r.tag for r in records}
        assert tags == {"noise=0.2", "noise=0.5"}
        keys = [(r.config_hash, r.seed, r.tag) for r in records]
        assert len(keys) == len(set(keys))

    def test_noise_sweep_builds_clean_data_once(self, monkeypatch):
        drawn, rosters = [], []
        real_blobs, real_attach = experiment.synth_blobs, experiment.attach_annotators
        monkeypatch.setattr(experiment, "synth_blobs",
                            lambda spec, stream: drawn.append(stream) or real_blobs(spec, stream))
        monkeypatch.setattr(experiment, "attach_annotators",
                            lambda ds, specs, seed: rosters.append(specs)
                            or real_attach(ds, specs, seed))
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        records = run_variants(noise_sweep_variants(cfg, [0.2, 0.5]))
        assert len(records) == 20
        # one clean build for both levels, and one attach of each level's roster
        assert drawn == ["train", "test"]
        assert len(rosters) == 2 and len(set(rosters)) == 2
        monkeypatch.undo()
        alone = [run_built(v, seed, tag).record
                 for v, tag in experiment.noise_sweep_variants(cfg, [0.2, 0.5])
                 for seed in v.seeds]
        assert [strip_clock(r) for r in records] == [strip_clock(r) for r in alone]

    def test_sweep_records_carry_their_variant_hash(self):
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        variants = experiment.noise_sweep_variants(cfg, [0.2])
        records = run_variants(noise_sweep_variants(cfg, [0.2]))
        assert len(records) == 10
        assert [r.config_hash for r in records] == [config_hash(v) for v, _ in variants
                                                    for _ in v.seeds]

    def test_equal_configs_keep_their_own_hashes(self):
        # alpha 1 and 1.0 compare equal but hash apart: each record carries
        # its own config's hash.
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32})
        ints, floats = (dataclasses.replace(cfg, meta=dataclasses.replace(cfg.meta, alpha=a))
                        for a in (1, 1.0))
        assert ints == floats and config_hash(ints) != config_hash(floats)
        hashes = [run_built(c, 0).record.config_hash for c in (ints, floats, ints)]
        assert hashes == [config_hash(c) for c in (ints, floats, ints)]

    def test_traced_noise_sweep_traces_only_the_attention_variants(self):
        # a baseline has no weights to trace, so its variant is built
        # untraced and its records hash as an untraced sweep's
        dataset = {"synthetic": {"n_classes": 3, "dim": 4, "samples_per_class": 20, "seed": 5}}
        baselines = ["e101bcc51d570422", "f6df5762309014f5", "741c8be4e31677a3",
                     "cf24c8034485cd33"]
        for trace, ours in ((False, "2d55d0e59fe9731f"), (True, "92d2f33e5a88c220")):
            cfg = tiny_config(dataset=dataset, meta={"epochs": 1, "batch_size": 16}, trace=trace)
            variants = noise_sweep_variants(cfg, [0.3])
            assert [v.trace for v, _ in variants] == [trace] + 4 * [False]
            records = run_variants(variants)
            assert [r.method for r in records] == ["ours"] + [f"baseline:{i}" for i in range(4)]
            assert [r.config_hash for r in records] == [ours, *baselines]

    def test_noise_sweep_rejects_bad_levels(self):
        with pytest.raises(ValueError, match="inside"):
            noise_sweep_variants(tiny_config(), [0.0])
        with pytest.raises(ValueError, match="must not repeat"):
            noise_sweep_variants(tiny_config(), [0.3, 0.5, 0.3])
        with pytest.raises(ValueError, match="must not repeat"):  # both tagged noise=0.3
            noise_sweep_variants(tiny_config(), [0.3, 0.3000001])

    def test_baseline_accuracy_non_increasing_in_noise(self):
        raw = json.loads(json.dumps(TINY))
        raw["dataset"] = {"synthetic": {"n_classes": 5, "dim": 8,
                                        "samples_per_class": 60,
                                        "center_scale": 3.0, "seed": 5}}
        raw["model"] = {"hidden_dims": [16, 8]}
        raw["meta"] = {"epochs": 12, "batch_size": 32, "beta": 5e-3}
        raw["seeds"] = [0, 1]
        records = run_variants(noise_sweep_variants(parse_config_dict(raw), [0.2, 0.7]))
        means = {}
        for rec in records:
            means.setdefault((rec.method, rec.tag), []).append(rec.test_accuracy)
        for i in range(4):
            low = np.mean(means[(f"baseline:{i}", "noise=0.2")])
            high = np.mean(means[(f"baseline:{i}", "noise=0.7")])
            assert high <= low + 0.02

    def test_annotator_sweep_tags(self):
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32})
        records = run_variants(annotator_sweep_variants(cfg, 0.3))
        assert [r.tag for r in records] == ["M=2", "M=3", "M=4", "M=5"]
        assert all(r.method == "ours" for r in records)

    def test_failing_variant_keeps_finished_records(self, monkeypatch):
        # a planted failure: every M=3 job raises in training, after both
        # M=2 jobs have finished
        real_train = experiment.train_attention

        def fail_on_three_sets(model, train_ds, *args, **kwargs):
            if train_ds.n_sets == 3:
                raise RuntimeError("planted failure")
            return real_train(model, train_ds, *args, **kwargs)

        monkeypatch.setattr(experiment, "train_attention", fail_on_three_sets)
        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1])
        with pytest.raises(ExperimentError, match="^run failed \\(method=ours, seed=0, "
                                                  "tag='M=3'\\): planted failure$") as exc:
            run_variants(annotator_sweep_variants(cfg, 0.3))
        assert [(r.tag, r.seed) for r in exc.value.completed] == [("M=2", 0), ("M=2", 1)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_trace_write_keeps_its_record(self, jobs):
        # the last seed trains, then its trace rows cannot be written
        def sink(record, rows):
            if record.seed == 1:
                raise OSError("planted trace failure")

        cfg = tiny_config(meta={"epochs": 1, "batch_size": 32}, seeds=[0, 1], trace=True)
        with pytest.raises(ExperimentError) as exc:
            run_variants([(cfg, "demo")], jobs, trace_sink=sink)
        assert str(exc.value) == ("trace write failed (method=ours, seed=1, tag='demo'): "
                                  "planted trace failure")
        assert [r.seed for r in exc.value.completed] == [0, 1]

    @pytest.mark.parametrize("build", [
        lambda cfg: noise_sweep_variants(cfg, [0.3]),
        lambda cfg: annotator_sweep_variants(cfg, 0.3),
    ], ids=["noise", "annotators"])
    def test_sweep_roster_must_fit_the_class_count(self, build):
        # both sweeps add ordered confusion, which needs three classes
        raw = json.loads(json.dumps(TINY))
        raw["dataset"]["synthetic"]["n_classes"] = 2
        cfg = parse_config_dict(raw)
        with pytest.raises(ValueError, match="sweep's annotators\\[2\\] does not fit 2 classes: "
                                             "ordered_confusion needs n >= 3$"):
            build(cfg)

    def test_cifar_config_reads_ten_classes(self):
        cfg = tiny_config(dataset={"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"]}})
        assert cfg.dataset.n_classes == 10
        assert len(annotator_sweep_variants(cfg, 0.3)) == 4


class TestEmission:
    def make_records(self):
        cfg = tiny_config(meta={"epochs": 2, "batch_size": 32}, seeds=[0, 1])
        return run_variants([(cfg, "demo")])

    def test_csv_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "results.csv"
        emit(records, path, fmt="csv")
        back = read_records(path)
        assert [strip_clock(r) for r in back] == [strip_clock(r) for r in records]
        assert [r.wall_clock_seconds for r in back] == \
            [r.wall_clock_seconds for r in records]

    def test_csv_header_documented_order(self, tmp_path):
        # The column list in README's CLI section.
        documented = ("config_hash, tag, method, seed, best_epoch, test_accuracy, mean_auc, "
                      "wall_clock_seconds, per_class_auc, epochs")
        path = tmp_path / "results.csv"
        emit(self.make_records(), path, fmt="csv")
        header = path.read_text().splitlines()[0]
        assert header == documented.replace(", ", ",")
        assert ", ".join(CSV_COLUMNS) == documented

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

    # A record with a NaN mean AUC, an undefined per-class AUC and a tag that
    # needs CSV quoting, and its bytes in each format: files already written
    # must keep reading back, and new ones must compare equal to them.
    PINNED = ResultRecord(
        config_hash="0123456789abcdef", tag='noise=0.3, "odd"', method="baseline:1", seed=3,
        best_epoch=1, test_accuracy=0.875, mean_auc=float("nan"), wall_clock_seconds=1.25,
        per_class_auc=(None, 0.5, 1.0),
        epochs=({"train_loss": 0.693, "val_accuracy": 0.5, "val_loss": 0.7,
                 "mean_weights": [0.25, 0.75]},
                {"train_loss": 0.5, "val_accuracy": 0.75, "val_loss": None,
                 "mean_weights": None}))
    PINNED_CSV_ROW = (
        b'0123456789abcdef,"noise=0.3, ""odd""",baseline:1,3,1,0.875,NaN,1.25,'
        b'"[null, 0.5, 1.0]","[{""train_loss"": 0.693, ""val_accuracy"": 0.5, '
        b'""val_loss"": 0.7, ""mean_weights"": [0.25, 0.75]}, {""train_loss"": 0.5, '
        b'""val_accuracy"": 0.75, ""val_loss"": null, ""mean_weights"": null}]"\r\n')
    PINNED_JSONL = (
        b'{"best_epoch": 1, "config_hash": "0123456789abcdef", "epochs": '
        b'[{"mean_weights": [0.25, 0.75], "train_loss": 0.693, "val_accuracy": 0.5, '
        b'"val_loss": 0.7}, {"mean_weights": null, "train_loss": 0.5, "val_accuracy": 0.75, '
        b'"val_loss": null}], "mean_auc": NaN, "method": "baseline:1", '
        b'"per_class_auc": [null, 0.5, 1.0], "seed": 3, "tag": "noise=0.3, \\"odd\\"", '
        b'"test_accuracy": 0.875, "wall_clock_seconds": 1.25}\n')

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_pinned_bytes(self, tmp_path, fmt):
        path = tmp_path / f"results.{fmt}"
        emit([self.PINNED], path, fmt=fmt)
        data = path.read_bytes()
        if fmt == "csv":
            header, row = data.split(b"\r\n", 1)
            assert header == ",".join(CSV_COLUMNS).encode()
            assert row == self.PINNED_CSV_ROW
        else:
            assert data == self.PINNED_JSONL
        back = read_records(path)
        assert len(back) == 1 and np.isnan(back[0].mean_auc)
        assert strip_nan(back[0]) == strip_nan(self.PINNED)


def strip_nan(record: ResultRecord) -> dict:
    d = record.to_dict()
    d.pop("mean_auc")
    return d


class TestMalformedCsv:
    def read(self, tmp_path, *lines):
        """read_records of a results.csv holding the header, then ``lines``, in
        which ``{row}`` is the pinned record's row."""
        path = tmp_path / "results.csv"
        emit([TestEmission.PINNED], path, fmt="csv")
        header, row = path.read_text().splitlines()
        path.write_text("\n".join([header, *(line.format(row=row) for line in lines)]))
        return read_records(path)

    def test_blank_lines_skipped(self, tmp_path):
        back = self.read(tmp_path, "", "{row}", "", "{row}", "")
        assert [r.tag for r in back] == [TestEmission.PINNED.tag] * 2

    @pytest.mark.parametrize("line, width", [
        ("{row},1", 11),
        ("0123456789abcdef,tag,ours,0,1,0.5,0.5,1.0,[]", 9),
    ], ids=["wide", "short"])
    def test_wrong_width_names_file_and_line(self, tmp_path, line, width):
        with pytest.raises(ValueError, match=f"results.csv line 3: {width} fields, expected 10"):
            self.read(tmp_path, "{row}", line)

    def test_empty_file_refused(self, tmp_path):
        (tmp_path / "results.csv").write_text("")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_records(tmp_path / "results.csv")

    @pytest.mark.parametrize("line, message", [
        ("0123456789abcdef,tag,ours,0,1,abc,0.5,1.0,[],[]", "Expecting value"),
        ("0123456789abcdef,tag,ours,null,1,0.5,0.5,1.0,[],[]", "int"),
        ("0123456789abcdef,tag,ours,0,1,0.5,0.5,1.0,7,[]", "int"),
    ], ids=["not-json", "null-seed", "number-for-list"])
    def test_bad_cell_names_file_and_line(self, tmp_path, line, message):
        with pytest.raises(ValueError, match=f"results.csv line 3: .*{message}"):
            self.read(tmp_path, "{row}", line)


class TestMalformedJsonl:
    def read(self, tmp_path, *lines):
        """read_records of a results.jsonl holding ``lines``, in which
        ``{row}`` is the pinned record's line."""
        path = tmp_path / "results.jsonl"
        emit([TestEmission.PINNED], path, fmt="jsonl")
        row = path.read_text().rstrip("\n")
        path.write_text("\n".join(line.replace("{row}", row) for line in lines))
        return read_records(path)

    def test_blank_lines_skipped(self, tmp_path):
        back = self.read(tmp_path, "", "{row}", "  ", "{row}", "")
        assert [r.tag for r in back] == [TestEmission.PINNED.tag] * 2

    def test_empty_object_names_file_and_line(self, tmp_path):
        with pytest.raises(ValueError,
                           match="results.jsonl line 3: missing field 'config_hash'"):
            self.read(tmp_path, "{row}", "", "{}")

    def test_truncated_line_names_file_and_line(self, tmp_path):
        with pytest.raises(ValueError, match="results.jsonl line 2: Unterminated string"):
            self.read(tmp_path, "{row}", '{"best_epoch": 1, "config_hash": "0123')

    def test_non_object_names_file_and_line(self, tmp_path):
        with pytest.raises(ValueError, match="results.jsonl line 1: "):
            self.read(tmp_path, "[1, 2]", "{row}")
