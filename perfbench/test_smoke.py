"""Smoke test of the benchmark at a tiny size.

Runs every workload once in each mode and checks that the result line has
every metric of BENCHMARK.json with its unit. Also checks that the replay
guard rejects a replay that differs by one bit, that the benchmark refuses to
run without the package sources, and that the accuracy reference used on
another machine fingerprint rejects a drift. Takes about a minute:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())

    facts = json.loads(lines[-2])["facts"]
    assert facts["seed"] == 3 and facts["workload"] == workload
    machine = facts["machine"]
    for key in ("nproc", "python", "numpy", "blas_build", "blas_threads", "pinned_env",
                "source_digest"):
        assert machine[key] is not None, key
    if trace:
        assert "iteration" in facts["trace_overhead"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "attn-m5-narrow", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_guard_rejects_a_replay_one_bit_off():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import numpy as np
    from labelattn.config import parse_config_dict
    from labelattn.data import minibatches
    from labelattn.experiment import build_datasets
    from labelattn.metatrain import attention_init, train_iteration
    from labelattn.model import classifier_init, params_get
    from labelattn.optim import adam_init
    from phases import GuardError, Spans, guard_iteration, replay_iteration
    from workloads import get_workload

    w = get_workload("attn-m5-narrow", tiny=True)
    cfg = parse_config_dict(w.config_dict(0))
    pool, _ = build_datasets(cfg)
    model = classifier_init((w.dim, *w.hidden_dims), w.n_classes,
                            rng=np.random.default_rng(0))
    attn = attention_init(pool.n_sets, model.feature_dim)
    state = adam_init(params_get(model), lr=cfg.meta.beta)
    batch = next(minibatches(pool, w.batch_size, 0, 0))

    real = train_iteration(model, attn, batch, cfg.meta, state)
    replayed = replay_iteration(Spans(), model, attn, batch, cfg.meta, state)
    guard_iteration(real, replayed)

    bumped = replayed[0].params[0].data
    bumped.flat[0] = np.nextafter(bumped.flat[0], np.inf)
    with pytest.raises(GuardError, match="model parameters"):
        guard_iteration(real, replayed)


def test_accuracy_reference_allows_only_a_small_drift():
    sys.path[:0] = [str(HERE)]
    from types import SimpleNamespace

    from checks import ACCURACY_TOLERANCE, Checker

    record = SimpleNamespace(test_accuracy=0.9)
    near = Checker({"test_accuracy": [0.9 + ACCURACY_TOLERANCE / 2]})
    far = Checker({"test_accuracy": [0.9 + ACCURACY_TOLERANCE * 2]})
    assert near.check_reference([record]) == []
    assert far.check_reference([record]) != []
