"""CLI surfaces: subcommands, outputs, exit codes."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import labelattn
from labelattn import experiment
from labelattn.cli import main
from labelattn.experiment import read_records

TINY = {
    "dataset": {"synthetic": {"n_classes": 3, "dim": 4, "samples_per_class": 20,
                              "center_scale": 4.0, "seed": 5}},
    "annotators": [{"kind": "hammer_spammer", "noise_level": 0.2},
                   {"kind": "adversarial"}],
    "model": {"hidden_dims": [8, 6]},
    "meta": {"epochs": 2, "batch_size": 16},
    "seeds": [0],
}


# Two classes: the roster of either sweep holds ordered confusion, which needs
# three, so either sweep is a config error.
TWO_CLASSES = {**TINY, "dataset": {"synthetic": {"n_classes": 2, "dim": 4,
                                                 "samples_per_class": 20,
                                                 "center_scale": 4.0, "seed": 5}},
               "annotators": [{"kind": "hammer_spammer", "noise_level": 0.2}],
               "meta": {"epochs": 1, "batch_size": 16}, "seeds": [0, 1]}


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the process pools the runs start; the pools are real."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def without_clock(path):
    dicts = [r.to_dict() for r in read_records(path)]
    for d in dicts:
        d.pop("wall_clock_seconds")
    return dicts


def write_config(tmp_path, **overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestRun:
    def test_writes_results_and_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg)]) == 0
        csv_records = read_records(tmp_path / "out" / "results.csv")
        jsonl_records = read_records(tmp_path / "out" / "results.jsonl")
        assert len(csv_records) == len(jsonl_records) == 1
        assert csv_records[0].method == "ours"

    def test_out_flag_overrides_config_output(self, tmp_path):
        cfg = write_config(tmp_path, output=str(tmp_path / "ignored"))
        out = tmp_path / "elsewhere"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_traces_written_when_enabled(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, trace=True, output=str(out))
        assert main(["run", "--config", str(cfg)]) == 0
        traces = list((out / "traces").glob("*.jsonl"))
        assert len(traces) == 1
        rows = [json.loads(line) for line in traces[0].read_text().splitlines()]
        assert rows and {"iter", "weights_mean", "loss_pre", "loss_post"} == set(rows[0])
        # loss_post is computed only when a trace row reads it
        assert all(isinstance(rows[0][k], float) for k in ("loss_pre", "loss_post")), rows[0]

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0, 1], output=str(tmp_path / "seq"))
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--jobs", "2",
                     "--out", str(tmp_path / "par")]) == 0
        assert without_clock(tmp_path / "seq" / "results.jsonl") == \
            without_clock(tmp_path / "par" / "results.jsonl")

    def test_traces_with_jobs_match_serial(self, tmp_path, pool_sizes):
        cfg = write_config(tmp_path, trace=True, seeds=[0, 1])
        for jobs in ("1", "2"):
            assert main(["run", "--config", str(cfg), "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
        assert pool_sizes == [2]
        serial = {p.name: p.read_bytes() for p in (tmp_path / "1" / "traces").iterdir()}
        pooled = {p.name: p.read_bytes() for p in (tmp_path / "2" / "traces").iterdir()}
        assert len(serial) == 2 and serial == pooled

    @pytest.mark.parametrize("seeds, jobs, sizes", [([0, 1], "5", [2]), ([0], "3", [])])
    def test_pool_never_larger_than_the_seed_runs(self, tmp_path, pool_sizes,
                                                  seeds, jobs, sizes):
        cfg = write_config(tmp_path, seeds=seeds, output=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg), "--jobs", jobs]) == 0
        assert pool_sizes == sizes
        assert len(read_records(tmp_path / "out" / "results.jsonl")) == len(seeds)


# The config errors of `labelattn run`, by test id: (config, message). The
# config is TINY with these keys replaced, or the file's text, or None for no
# file; the message is the whole stderr line after "config error: ".
CIFAR = {"paths": ["a.bin"], "test_paths": ["t.bin"]}
NO_BATCH_FILE = "paths and test_paths must each name at least one batch file"
CONFIG_ERRORS = {
    "bad_config": ('{"dataset": {}, "annotators": [], "seeds": []}',
                   "dataset must hold exactly one of 'synthetic' or 'cifar10'"),
    "missing_config": (None, "cannot read config file config.json: [Errno 2] No such file or "
                             "directory: 'config.json'"),
    "unknown_key": ({"surprise": 1}, "unknown key 'surprise' at top level"),
    "key_written_twice": (json.dumps(TINY)[:-1] + ', "seeds": [1, 2]}',
                          "key 'seeds' is written more than once"),
    "bad_value_type": ({"seeds": ["x"]}, "seeds[0] must be an integer, got 'x'"),
    "roster_that_does_not_fit": (
        {"annotators": [{"kind": "ordered_confusion", "noise_level": 0.3}],
         "dataset": TWO_CLASSES["dataset"]},
        "annotators[0] does not fit 2 classes: ordered_confusion needs n >= 3"),
    # a classifier takes no auxiliary features: the parser refuses the value
    "aux_dim": ({"model": {"hidden_dims": [8, 6], "aux_dim": 2}},
                "model.aux_dim must be 0, as a classifier takes no auxiliary features; got 2"),
    "settings_a_run_would_ignore-flip-pairs": (
        {"annotators": [{"kind": "structured_flips", "noise_level": 0.3, "flip_pairs": [[0, 1]]}]},
        "unknown key 'flip_pairs' at annotators[0]"),
    **{f"settings_a_run_would_ignore-{kind}-level": (
        {"annotators": [TINY["annotators"][0], {"kind": kind, "noise_level": 0.5}]},
        f"invalid value at annotators[1]: '{kind}' takes no noise_level, got 0.5")
       for kind in ("adversarial", "average")},
    **{f"settings_a_run_would_ignore-{name.replace('_', '-')}-set-index": (
        {"method": {"name": name, "set_index": index}},
        f"invalid value at method: set_index applies only to 'baseline', not to '{name}'")
       for name, index in (("ours", 1), ("baseline_avg", -3))},
    **{f"settings_a_run_would_ignore-{name.replace('_', '-')}-trace": (
        {"method": {"name": name}, "trace": True},
        f"trace applies only to 'ours', not to '{name}'")
       for name in ("baseline", "baseline_avg")},
    # str() of the first three would name a directory "None", "['a', 1]" or
    # "3"; "" would write the records into the working directory, and mkdir
    # raises a bare ValueError on a NUL byte
    **{f"output_that_names_no_directory-{name}": (
        {"output": output},
        f"output must be a nonempty directory path string with no NUL byte, got {output!r}")
       for name, output in (("null", None), ("list", ["a", 1]), ("number", 3), ("empty", ""),
                            ("nul-byte", "a\0b"))},
    # json raises RecursionError, not JSONDecodeError, on this
    "deeply_nested_file": ("[" * 200_000,
                           "config file config.json nests arrays or objects too deeply to read"),
    "empty_validation_split": (
        {"dataset": {"synthetic": {"n_classes": 2, "dim": 4, "samples_per_class": 2}}},
        "val_fraction: a pool of 4 samples at val_fraction 0.2 leaves no validation samples"),
    "cifar_subset_without_validation_rows": (
        {"dataset": {"cifar10": {**CIFAR, "subset": 2}}},
        "dataset.cifar10.subset: a pool of 2 samples at val_fraction 0.2 leaves no validation "
        "samples"),
    # refused when the config is parsed: no batch file is opened
    **{f"bad_cifar_section-{name}": ({"dataset": {"cifar10": {**CIFAR, **bad}}},
                                     f"invalid value at dataset.cifar10: {message}")
       for name, bad, message in (
           ("no-paths", {"paths": []}, NO_BATCH_FILE),
           ("no-test-paths", {"test_paths": []}, NO_BATCH_FILE),
           ("subset-0", {"subset": 0}, "subset must be at least 1, got 0"),
           ("test-subset-0", {"test_subset": 0}, "test_subset must be at least 1, got 0"),
           ("test-subset-negative", {"test_subset": -3},
            "test_subset must be at least 1, got -3"))},
    "refused_config-shared-mode": (
        {"meta": {"attention_mode": "shared"}},
        "invalid value at meta: unknown attention_mode 'shared'; only 'concat' is supported"),
    "refused_config-repeated-seeds": ({"seeds": [0, 0]}, "seeds must not repeat, got [0, 0]"),
}


class TestErrors:
    @pytest.mark.parametrize("config, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
    def test_config_error_exits_two(self, tmp_path, capsys, monkeypatch, config, message):
        # run where a default or relative output would be made
        monkeypatch.chdir(tmp_path)
        path = Path("config.json")
        if config is not None:
            path.write_text(config if isinstance(config, str) else json.dumps({**TINY, **config}))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name] * (config is not None)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_two(self, tmp_path, jobs):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--jobs", jobs])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_two(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", trials])
        assert exc.value.code == 2
        assert "[PASS]" not in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["", "a\0b"], ids=["empty", "nul-byte"])
    def test_out_that_names_no_directory_exits_two(self, tmp_path, capsys, monkeypatch, out):
        # an empty --out is no directory, not the absence of --out: the run
        # writes neither to the config's output nor to the working directory
        cfg = write_config(tmp_path, output="okdir")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", out]) == 2
        assert capsys.readouterr().err == (f"config error: --out must be a nonempty directory "
                                           f"path string with no NUL byte, got {out!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

    def test_empty_cifar_test_file_exits_one_without_records(self, tmp_path, capsys, monkeypatch):
        # zero bytes are a whole number of records, so the file sizes pass;
        # a test set of no rows would score NaN, so the run fails before
        # anything is decoded or trained
        train, test = tmp_path / "train.bin", tmp_path / "test.bin"
        train.write_bytes(b"".join(bytes([i % 10]) + bytes(3072) for i in range(20)))
        test.write_bytes(b"")
        cfg = write_config(tmp_path, output=str(tmp_path / "out"),
                           dataset={"cifar10": {"paths": [str(train)], "test_paths": [str(test)]}})
        decoded = []
        monkeypatch.setattr(experiment, "load_cifar10", lambda paths: decoded.append(paths))
        assert main(["run", "--config", str(cfg)]) == 1
        assert (f"run failure: run failed (method=ours, seed=0, tag=''): the CIFAR-10 test "
                f"files {test} hold no records") in capsys.readouterr().err
        assert decoded == []
        assert list((tmp_path / "out").iterdir()) == []

    def test_failure_keeps_finished_records(self, tmp_path, pool_sizes, monkeypatch):
        # a planted failure: every M=3 job raises in training; the pool's
        # workers are forked, so they inherit the patch
        real_train = experiment.train_attention

        def fail_on_three_sets(model, train_ds, *args, **kwargs):
            if train_ds.n_sets == 3:
                raise RuntimeError("planted failure")
            return real_train(model, train_ds, *args, **kwargs)

        monkeypatch.setattr(experiment, "train_attention", fail_on_three_sets)
        path = write_config(tmp_path, meta={"epochs": 1, "batch_size": 16}, seeds=[0, 1])
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["sweep-annotators", "--config", str(path), "--jobs", jobs,
                         "--out", str(out)]) == 1
            kept = without_clock(out / "results.jsonl")
            assert without_clock(out / "results.csv") == kept
            assert [(d["tag"], d["seed"]) for d in kept] == [("M=2", 0), ("M=2", 1)]
        assert pool_sizes == [2]
        assert without_clock(tmp_path / "1" / "results.jsonl") == \
            without_clock(tmp_path / "2" / "results.jsonl")

    def test_file_named_traces_exits_one_and_keeps_the_record(self, tmp_path, capsys,
                                                               pool_sizes):
        # the first seed trains, then its trace cannot be written: a failed
        # trace write, which keeps that seed's record and no later one
        cfg = write_config(tmp_path, trace=True, seeds=[0, 1],
                           meta={"epochs": 1, "batch_size": 16})
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            out.mkdir()
            (out / "traces").write_text("")
            assert main(["run", "--config", str(cfg), "--jobs", jobs, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(
                "run failure: trace write failed (method=ours, seed=0, tag=''): ")
            kept = without_clock(out / "results.jsonl")
            assert without_clock(out / "results.csv") == kept
            assert [d["seed"] for d in kept] == [0]
        assert pool_sizes == [2]

    @pytest.mark.parametrize("sweep", [["sweep-noise", "--levels", "0.3"],
                                       ["sweep-annotators"]], ids=["noise", "annotators"])
    def test_sweep_roster_that_does_not_fit_exits_two(self, tmp_path, capsys, monkeypatch,
                                                       sweep):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a sweep whose roster does not fit")

        monkeypatch.setattr("labelattn.cli.run_variants", no_training)
        cfg = write_config(tmp_path, output=str(tmp_path / "out"), **TWO_CLASSES)
        assert main([*sweep, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the ") and "sweep's annotators[2] does not fit " \
            "2 classes: ordered_confusion needs n >= 3" in err
        assert not (tmp_path / "out").exists()

    def test_bad_sweep_levels_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"))
        for levels in ("0.0,0.5", ",", "0.3,0.3"):
            assert main(["sweep-noise", "--config", str(cfg), "--levels", levels]) == 2
        assert not (tmp_path / "out").exists()

    def test_unusable_out_exits_two_before_training(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained despite an unusable output directory")

        monkeypatch.setattr("labelattn.cli.run_variants", no_training)
        regular_file = tmp_path / "file"
        regular_file.write_text("")
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(regular_file / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write results to {regular_file / 'out'}: ")

    def test_unwritable_results_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "results.csv").mkdir(parents=True)
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"run failure: cannot write results to {out / 'results.csv'}: ")


class TestSweepCommands:
    def test_sweep_annotators_writes_plot_data(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, output=str(out),
                           seeds=[0], meta={"epochs": 1, "batch_size": 16})
        assert main(["sweep-annotators", "--config", str(cfg), "--noise", "0.3"]) == 0
        records = read_records(out / "results.jsonl")
        assert sorted({r.tag for r in records}) == ["M=2", "M=3", "M=4", "M=5"]
        plot = (out / "plot_annotators.csv").read_text().splitlines()
        assert plot[0] == "x,method,mean,stddev,n"
        assert len(plot) == 5

    def test_sweep_noise_runs_all_methods(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, output=str(out),
                           seeds=[0], meta={"epochs": 1, "batch_size": 16})
        assert main(["sweep-noise", "--config", str(cfg), "--levels", "0.3"]) == 0
        records = read_records(out / "results.jsonl")
        assert len(records) == 5  # ours + 4 per-set baselines
        methods = {r.method for r in records}
        assert methods == {"ours", "baseline:0", "baseline:1", "baseline:2", "baseline:3"}


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--trials", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("loss-reweighting identity" in ln for ln in lines)
        assert all(ln.startswith("[PASS]") for ln in lines if ln.startswith("["))


# Loaded only by the commands that use them: the pool at --jobs > 1, the
# oracle suites by verify.
ON_DEMAND = ("concurrent.futures", "multiprocessing", "labelattn.verification")


def modules_loaded_by(code, modules=ON_DEMAND):
    """The ``modules`` a fresh interpreter holds after running ``code``."""
    src = str(Path(labelattn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


class TestStartup:
    def test_import_loads_no_pool_and_no_verification(self):
        assert modules_loaded_by("import labelattn.cli") == []

    def test_package_import_loads_no_submodule(self):
        package = Path(labelattn.__file__).parent
        submodules = tuple(f"labelattn.{p.stem}" for p in sorted(package.glob("*.py"))
                           if p.stem != "__init__")
        assert "labelattn.experiment" in submodules
        assert modules_loaded_by("import labelattn", submodules) == []

    def test_serial_run_loads_no_pool(self, tmp_path):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"))
        code = f"from labelattn.cli import main; assert main(['run', '--config', {str(cfg)!r}]) == 0"
        assert modules_loaded_by(code) == []

    def test_serial_sweep_loads_no_pool(self, tmp_path):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"),
                           meta={"epochs": 1, "batch_size": 16})
        args = ["sweep-noise", "--config", str(cfg), "--levels", "0.3", "--jobs", "1"]
        code = f"from labelattn.cli import main; assert main({args!r}) == 0"
        assert modules_loaded_by(code) == []

    def test_parallel_run_loads_the_pool(self, tmp_path):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"), seeds=[0, 1])
        args = ["run", "--config", str(cfg), "--jobs", "2"]
        code = f"from labelattn.cli import main; assert main({args!r}) == 0"
        assert modules_loaded_by(code) == ["concurrent.futures", "multiprocessing"]

    def test_verify_loads_the_suites(self):
        code = "from labelattn.cli import main; assert main(['verify', '--trials', '5']) == 0"
        assert modules_loaded_by(code) == ["labelattn.verification"]
