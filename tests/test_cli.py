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


class TestErrors:
    def test_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {}, "annotators": [], "seeds": []}))
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_key_exits_two(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["surprise"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 2

    def test_key_written_twice_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"))
        cfg.write_text(cfg.read_text()[:-1] + ', "seeds": [1, 2]}')
        assert main(["run", "--config", str(cfg)]) == 2
        assert ("config error: key 'seeds' is written more than once"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_bad_value_type_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=["x"])
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: seeds[0] must be an integer" in capsys.readouterr().err

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

    def test_roster_that_does_not_fit_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, annotators=[{"kind": "ordered_confusion",
                                                  "noise_level": 0.3}],
                           dataset=TWO_CLASSES["dataset"])
        assert main(["run", "--config", str(cfg)]) == 2
        assert "annotators[0] does not fit 2 classes" in capsys.readouterr().err

    def test_aux_dim_exits_two(self, tmp_path, capsys):
        # a classifier takes no auxiliary features: the parser refuses the value
        cfg = write_config(tmp_path, output=str(tmp_path / "out"),
                           model={"hidden_dims": [8, 6], "aux_dim": 2})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: model.aux_dim" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"annotators": [{"kind": "structured_flips", "noise_level": 0.3,
                          "flip_pairs": [[0, 1]]}]},
         "unknown key 'flip_pairs' at annotators[0]"),
        ({"annotators": [{"kind": "hammer_spammer", "noise_level": 0.2},
                         {"kind": "adversarial", "noise_level": 0.5}]},
         "annotators[1]: 'adversarial' takes no noise_level"),
        ({"annotators": [{"kind": "hammer_spammer", "noise_level": 0.2},
                         {"kind": "average", "noise_level": 0.5}]},
         "annotators[1]: 'average' takes no noise_level"),
        ({"method": {"name": "ours", "set_index": 1}},
         "method: set_index applies only to 'baseline', not to 'ours'"),
        ({"method": {"name": "baseline_avg", "set_index": -3}},
         "method: set_index applies only to 'baseline', not to 'baseline_avg'"),
        ({"method": {"name": "baseline"}, "trace": True},
         "trace applies only to 'ours', not to 'baseline'"),
        ({"method": {"name": "baseline_avg"}, "trace": True},
         "trace applies only to 'ours', not to 'baseline_avg'"),
    ], ids=["flip-pairs", "adversarial-level", "average-level", "ours-set-index",
            "baseline-avg-set-index", "baseline-trace", "baseline-avg-trace"])
    def test_settings_a_run_would_ignore_exit_two(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"), **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output", [None, ["a", 1], 3, "", "a\0b"],
                             ids=["null", "list", "number", "empty", "nul-byte"])
    def test_output_that_names_no_directory_exits_two(self, tmp_path, capsys, monkeypatch,
                                                      output):
        # str() of the first three would name a directory "None", "['a', 1]"
        # or "3"; "" would write the records into the working directory, and
        # mkdir raises a bare ValueError on a NUL byte
        cfg = write_config(tmp_path, output=output)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: output must be" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

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

    def test_deeply_nested_file_exits_two(self, tmp_path, capsys, monkeypatch):
        # json raises RecursionError, not JSONDecodeError, on this
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200_000)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "too deeply" in err
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

    def test_empty_validation_split_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"),
                           dataset={"synthetic": {"n_classes": 2, "dim": 4,
                                                  "samples_per_class": 2}})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "leaves no validation samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cifar_subset_without_validation_rows_exits_two(self, tmp_path, capsys):
        # two tiny batch files of 3073-byte records: label byte, then pixels
        paths = []
        for name, count in (("train.bin", 4), ("test.bin", 2)):
            path = tmp_path / name
            path.write_bytes(b"".join(bytes([i % 10]) + bytes(3072) for i in range(count)))
            paths.append(str(path))
        cfg = write_config(tmp_path, output=str(tmp_path / "out"),
                           dataset={"cifar10": {"paths": paths[:1], "test_paths": paths[1:],
                                                "subset": 2}})
        assert main(["run", "--config", str(cfg)]) == 2
        assert ("config error: dataset.cifar10.subset: a pool of 2 samples at val_fraction "
                "0.2 leaves no validation samples") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("bad", [{"paths": []}, {"test_paths": []}, {"subset": 0},
                                     {"test_subset": 0}, {"test_subset": -3}],
                             ids=["no-paths", "no-test-paths", "subset-0", "test-subset-0",
                                  "test-subset-negative"])
    def test_bad_cifar_section_exits_two(self, tmp_path, capsys, bad):
        # refused when the config is parsed: no batch file is opened
        cfg = write_config(tmp_path, output=str(tmp_path / "out"),
                           dataset={"cifar10": {"paths": ["a.bin"], "test_paths": ["t.bin"],
                                                **bad}})
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid value at dataset.cifar10: ")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("overrides, message", [
        ({"meta": {"attention_mode": "shared"}},
         "config error: invalid value at meta: unknown attention_mode 'shared'"),
        ({"seeds": [0, 0]}, "config error: seeds must not repeat"),
    ], ids=["shared-mode", "repeated-seeds"])
    def test_refused_config_exits_two(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, output=str(tmp_path / "out"), **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(message)
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
