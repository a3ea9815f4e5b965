"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -s``.

The directional-reproduction criteria (4-7) use the desk-scale synthetic
setup; absolute full-scale accuracies are out of reproduction scope.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from labelattn.annotators import AnnotatorSpec, build_cm, corrupt, empirical_cm, noise_level_of
from labelattn.config import parse_config_dict
from labelattn.experiment import (annotator_sweep_variants, build_datasets, run_single,
                                  run_variants)
from labelattn.verification import (attention_path_chain_gap, gradient_oracle_sweep,
                                    theorem1_sweep)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def synth_config(annotators, method, seeds=(0, 1, 2), epochs=30, per_class=500,
                 trace=False):
    return parse_config_dict({
        "dataset": {"synthetic": {"n_classes": 10, "dim": 32,
                                  "samples_per_class": per_class, "seed": 7}},
        "annotators": annotators,
        "meta": {"epochs": epochs},
        "method": method,
        "seeds": list(seeds),
        "trace": trace,
    })


TABLE2_ROSTER = [
    {"kind": "hammer_spammer", "noise_level": 0.3},
    {"kind": "structured_flips", "noise_level": 0.4},
    {"kind": "ordered_confusion", "noise_level": 0.5},
    {"kind": "adversarial"},
    {"kind": "average"},
]


def test_criterion_1_loss_reweighting_identity():
    start = time.perf_counter()
    gap = theorem1_sweep(trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    check("criterion 1 (loss-reweighting identity)",
          gap <= 1e-10 and elapsed < 5.0,
          f"max gap {gap:.3e} over 1000 draws (tol 1e-10), {elapsed:.1f}s (< 5s)")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    results = gradient_oracle_sweep(trials=100, seed=0)
    chain_gap, fd_ratio = attention_path_chain_gap(trials=50, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.worst_ratio for r in results)
    failing = [r.name for r in results if not r.passed]
    ok = (not failing) and chain_gap <= 1e-8 and fd_ratio <= 1.0 and elapsed < 30.0
    check("criterion 2 (gradient correctness)", ok,
          f"{len(results)} ops x 100 draws worst ratio {worst:.3f} of tolerance"
          f"{(' FAILING: ' + ','.join(failing)) if failing else ''}; "
          f"attention chain gap {chain_gap:.2e} (tol 1e-8), fd ratio {fd_ratio:.3f}; "
          f"{elapsed:.1f}s (< 30s)")


def test_criterion_3_annotator_fidelity():
    start = time.perf_counter()
    matrices = {
        "HS(0.3)": build_cm(AnnotatorSpec("hammer_spammer", 0.3), 10),
        "SF(0.4)": build_cm(AnnotatorSpec("structured_flips", 0.4), 10),
        "OC(0.5)": build_cm(AnnotatorSpec("ordered_confusion", 0.5), 10),
        "AD": build_cm(AnnotatorSpec("adversarial"), 10),
    }
    matrices["AVG"] = build_cm(AnnotatorSpec("average"), 10, roster=list(matrices.values()))
    clean = np.repeat(np.arange(10), 100_000)  # class-balanced, 100k per class
    worst = 0.0
    for i, (name, cm) in enumerate(matrices.items()):
        noisy = corrupt(clean, cm, np.random.default_rng([100, i]))
        err = float(np.max(np.abs(empirical_cm(clean, noisy).rows - cm.rows)))
        worst = max(worst, err)
    exact = (noise_level_of(matrices["HS(0.3)"]) == 0.3
             and noise_level_of(matrices["SF(0.4)"]) == 0.4
             and noise_level_of(matrices["OC(0.5)"]) == 0.5
             and noise_level_of(matrices["AD"]) == 1.0)
    elapsed = time.perf_counter() - start
    check("criterion 3 (annotator fidelity)",
          worst <= 0.01 and exact and elapsed < 30.0,
          f"worst empirical entry error {worst:.4f} (tol 0.01) at 100k/class; "
          f"noise levels exactly {{0.3, 0.4, 0.5, 1.0}}: {exact}; "
          f"{elapsed:.1f}s (< 30s)")


def test_criterion_4_directional_reproduction():
    start = time.perf_counter()
    ours, avg, ad = (run_variants([(synth_config(TABLE2_ROSTER, method), "")])
                     for method in ({"name": "ours"}, {"name": "baseline", "set_index": 4},
                                    {"name": "baseline", "set_index": 3}))
    mean_ours = float(np.mean([r.test_accuracy for r in ours]))
    mean_avg = float(np.mean([r.test_accuracy for r in avg]))
    mean_ad = float(np.mean([r.test_accuracy for r in ad]))
    elapsed = time.perf_counter() - start
    ok = (mean_ours >= mean_avg + 0.05) and (mean_ad <= 0.15) and elapsed < 300.0
    check("criterion 4 (directional reproduction)", ok,
          f"ours {mean_ours:.3f} vs avg-set baseline {mean_avg:.3f} "
          f"(margin {mean_ours - mean_avg:+.3f}, need >= +0.05); "
          f"adversarial-only baseline {mean_ad:.3f} (need <= 0.15); "
          f"{elapsed:.0f}s (< 300s)")


def test_criterion_5_annotator_count_surge():
    start = time.perf_counter()
    cfg = synth_config([{"kind": "hammer_spammer", "noise_level": 0.3},
                        {"kind": "adversarial"}], {"name": "ours"})
    records = run_variants(annotator_sweep_variants(cfg, 0.3))
    by_m = {}
    for rec in records:
        by_m.setdefault(rec.tag, []).append(rec.test_accuracy)
    m2 = float(np.mean(by_m["M=2"]))
    m3 = float(np.mean(by_m["M=3"]))
    m5 = float(np.mean(by_m["M=5"]))
    elapsed = time.perf_counter() - start
    ok = (m3 - m2 >= 0.10) and elapsed < 300.0
    check("criterion 5 (annotator-count surge)", ok,
          f"M=2 {m2:.3f} -> M=3 {m3:.3f} (surge {m3 - m2:+.3f}, need >= +0.10); "
          f"M=5 {m5:.3f}; {elapsed:.0f}s (< 300s)")


def test_criterion_6_attention_discrimination():
    start = time.perf_counter()
    cfg = synth_config([{"kind": "hammer_spammer", "noise_level": 0.0},
                        {"kind": "adversarial"}], {"name": "ours"},
                       epochs=10, trace=True)
    pool, test = build_datasets(cfg)
    fractions = []
    for seed in cfg.seeds:
        rows = run_single(cfg, seed=seed, pool=pool, test=test).trace_rows
        per_epoch = len(rows) // cfg.meta.epochs
        after_first = np.array([row["weights_mean"] for row in rows[per_epoch:]])
        fractions.append(float(np.mean(after_first[:, 0] > after_first[:, 1])))
    elapsed = time.perf_counter() - start
    ok = all(f >= 0.80 for f in fractions)
    check("criterion 6 (attention discrimination)", ok,
          "clean-set weight exceeds adversarial in "
          + ", ".join(f"{f:.1%}" for f in fractions)
          + f" of post-first-epoch iterations per seed (need >= 80%); {elapsed:.0f}s")


def _collapse_records():
    ours_cfg = synth_config([{"kind": "hammer_spammer", "noise_level": 0.3}],
                            {"name": "ours"}, epochs=10, per_class=200)
    base_cfg = synth_config([{"kind": "hammer_spammer", "noise_level": 0.3}],
                            {"name": "baseline", "set_index": 0},
                            epochs=10, per_class=200)
    return run_variants([(ours_cfg, "")]), run_variants([(base_cfg, "")])


def test_criterion_7_single_annotator_collapse():
    start = time.perf_counter()
    ours, base = _collapse_records()
    diffs = [abs(a.test_accuracy - b.test_accuracy) for a, b in zip(ours, base)]
    elapsed = time.perf_counter() - start
    check("criterion 7 (single-annotator collapse)",
          all(d <= 0.02 for d in diffs),
          "per-seed |ours - baseline| = "
          + ", ".join(f"{d:.4f}" for d in diffs)
          + f" (need <= 0.02); {elapsed:.0f}s")


def test_criterion_8_determinism():
    start = time.perf_counter()
    def strip(rec):
        d = rec.to_dict()
        d.pop("wall_clock_seconds")
        return d

    first_ours, first_base = _collapse_records()
    second_ours, second_base = _collapse_records()
    identical = ([strip(r) for r in first_ours] == [strip(r) for r in second_ours]
                 and [strip(r) for r in first_base] == [strip(r) for r in second_base])
    elapsed = time.perf_counter() - start
    check("criterion 8 (determinism)", identical,
          f"two invocations of criterion-7 runs emit bitwise-identical metrics "
          f"(wall clock excluded); {elapsed:.0f}s")


def _find_cifar_batches():
    root = os.environ.get("LABELATTN_CIFAR_DIR", "data/cifar-10-batches-bin")
    root = Path(root)
    train = sorted(root.glob("data_batch_*.bin"))
    test = root / "test_batch.bin"
    if len(train) >= 1 and test.exists():
        return [str(p) for p in train], [str(test)]
    return None, None


def test_criterion_9_cifar_smoke():
    train_paths, test_paths = _find_cifar_batches()
    if train_paths is None:
        pytest.skip("CIFAR-10 binary batches not present "
                    "(set LABELATTN_CIFAR_DIR to enable the smoke run)")
    start = time.perf_counter()
    raw = {
        "dataset": {"cifar10": {"paths": train_paths, "test_paths": test_paths,
                                "subset": 5000, "test_subset": 2000}},
        "annotators": [{"kind": "hammer_spammer", "noise_level": 0.3},
                       {"kind": "adversarial"}],
        "meta": {"epochs": 10},
        "seeds": [0],
    }
    ours, avg = (run_variants([(parse_config_dict({**raw, "method": method}), "")])
                 for method in ({"name": "ours"}, {"name": "baseline_avg"}))
    elapsed = time.perf_counter() - start
    ok = ours[0].test_accuracy >= avg[0].test_accuracy and elapsed < 1200.0
    check("criterion 9 (CIFAR-10 smoke)", ok,
          f"ours {ours[0].test_accuracy:.3f} >= avg baseline "
          f"{avg[0].test_accuracy:.3f}; {elapsed:.0f}s (< 1200s)")
