"""Traced run: per-layer timings from a phase-by-phase replay.

``train_iteration`` and the ``train_baseline`` step call functions that
nothing else calls (``meta_step``, ``final_step``, ``gradients``,
``adam_step``, ...). To time those, the traced run replays the caller's
sequence of public calls with a timer around each one. The replay guard
runs the real function on the same inputs and refuses the per-layer numbers
unless model parameters, attention parameters, Adam state and loss agree
bit for bit, so the timings stay tied to the code they claim to time.

Per-call metrics (``model.forward_ms``, ``autodiff.gradients_ms``, ...) are
taken over every call in the replay; ``metatrain.*_ms`` are per training
iteration (``probe_ms`` sums the M probes of one iteration). Each reports the
least time among its samples, for the reason given at ``endtoend.fastest``.
"""

from __future__ import annotations

import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from labelattn.autodiff import bce_loss, constant, detach, gradients
from labelattn.config import parse_config_dict
from labelattn.data import (attach_annotators, consensus_labels, minibatches, one_hot, split,
                            synth_blobs, take_subset)
from labelattn.experiment import (build_datasets, emit, noise_sweep_variants, run_single)
from labelattn.metatrain import (attend, attention_init, binarize, collect_feedback,
                                 sample_label, train_baseline, train_iteration)
from labelattn.metrics import per_class_auc
from labelattn.model import (classifier_init, forward, params_get, params_set,
                             predict_class)
from labelattn.optim import adam_init, adam_step, sgd_step

from checks import Checker, comparable
from endtoend import check_count, fastest, invoke_sweep, time_import, write_config
from workloads import CLI, SWEEP_LEVELS, Workload

pc = time.perf_counter

REPLAY_SHARE = 0.4        # of --seconds: guarded attention iterations
BASELINE_SHARE = 0.1      # of --seconds: replayed baseline steps
LOOP_SHARE = 0.3          # of --seconds: the workload's own runs
SETUP_REPEATS = 3
GUARD_BASELINE_BATCHES = 4
EVAL_REPEATS = 5
SMALL_REPEATS = 5         # per_class_auc, emit
MIN_ITERATIONS = 8


class GuardError(RuntimeError):
    """The replay and the real function disagree."""


class Spans:
    """Durations by name, kept in memory until the run ends."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn, *args, **kwargs):
        t0 = pc()
        out = fn(*args, **kwargs)
        self.samples[name].append(pc() - t0)
        return out

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def fast(self, name: str) -> float:
        return fastest(self.samples[name])


# ---------------------------------------------------------------------------
# replays: the same public calls as the code in metatrain.py, timed
# ---------------------------------------------------------------------------


def _replay_meta_step(sp: Spans, model, y_m, alpha, pred):
    loss = bce_loss(pred, constant(y_m))
    if not np.isfinite(loss.item()):
        raise ValueError("non-finite meta loss")
    params = params_get(model)
    grads = sp.call("autodiff.gradients", gradients, loss, params)
    new_params = sp.call("optim.sgd_step", sgd_step, params, grads, alpha)
    return sp.call("model.params_set", params_set, model, new_params)


def _replay_final_step(sp: Spans, model, y_tilde, pred, adam_state):
    loss = bce_loss(pred, detach(y_tilde))
    value = loss.item()
    if not np.isfinite(value):
        raise ValueError("non-finite final loss")
    params = params_get(model)
    grads = sp.call("autodiff.gradients", gradients, loss, params)
    new_params, new_state = sp.call("optim.adam_step", adam_step, adam_state, params, grads)
    return sp.call("model.params_set", params_set, model, new_params), new_state, value


def _replay_attention_step(sp: Spans, attn, label_sets, stacked, pred, k, t, beta):
    weights = attend(attn, stacked)
    y_tilde = binarize(sample_label(weights, label_sets), k, t)
    loss = bce_loss(detach(pred), y_tilde)
    if not np.isfinite(loss.item()):
        raise ValueError("non-finite attention loss")
    gw, gb = sp.call("autodiff.gradients", gradients, loss, [attn.w, attn.b])
    new_w, new_b = sp.call("optim.sgd_step", sgd_step, [attn.w, attn.b], [gw, gb], beta)
    return replace(attn, w=new_w, b=new_b)


def replay_iteration(sp: Spans, model, attn, batch, config, adam_state):
    """``train_iteration`` phase by phase. Returns (model, attn, Adam state,
    loss, batch-mean weights, model update norm, attention update norm)."""
    t_start = pc()
    fwd = sp.call("model.forward", forward, model, batch.x, batch.aux)
    pred = fwd.probs

    t0 = pc()
    metas = [_replay_meta_step(sp, model, batch.label_sets[m], config.alpha, pred)
             for m in range(attn.n_sets)]
    sp.add("metatrain.probe", pc() - t0)
    stacked = sp.call("metatrain.feedback", collect_feedback, metas, batch.x, batch.aux)
    weights = sp.call("metatrain.attend", attend, attn, stacked)
    t0 = pc()
    y_tilde = binarize(sample_label(weights, batch.label_sets), config.k, config.t_threshold)
    sp.add("metatrain.label", pc() - t0)

    new_model, new_state, loss_pre = sp.call("metatrain.final_step", _replay_final_step,
                                             sp, model, y_tilde, pred, adam_state)
    new_attn = sp.call("metatrain.attention_step", _replay_attention_step, sp, attn,
                       batch.label_sets, stacked, pred, config.k, config.t_threshold,
                       config.beta)

    model_delta = np.sqrt(sum(float(np.sum((a.data - b.data) ** 2))
                              for a, b in zip(new_model.params, model.params)))
    attn_delta = np.sqrt(float(np.sum((new_attn.w.data - attn.w.data) ** 2))
                         + float(np.sum((new_attn.b.data - attn.b.data) ** 2)))
    weight_means = weights.data.mean(axis=0)
    sp.add("metatrain.iteration", pc() - t_start)
    return new_model, new_attn, new_state, loss_pre, weight_means, model_delta, attn_delta


def replay_baseline_step(sp: Spans, model, batch, target, adam_state):
    """One step of ``train_baseline``'s inner loop."""
    t_start = pc()
    target_arr = (batch.label_sets.mean(axis=0) if target == "avg"
                  else batch.label_sets[int(target)])
    fwd = sp.call("model.forward", forward, model, batch.x, batch.aux)
    loss = bce_loss(fwd.probs, constant(target_arr))
    value = loss.item()
    if not np.isfinite(value):
        raise ValueError("non-finite baseline loss")
    grads = sp.call("autodiff.gradients", gradients, loss, params_get(model))
    new_params, adam_state = sp.call("optim.adam_step", adam_step, adam_state,
                                     params_get(model), grads)
    model = sp.call("model.params_set", params_set, model, new_params)
    sp.add("metatrain.baseline_step", pc() - t_start)
    return model, adam_state, value


def replay_eval(model, val_ds, val_targets):
    """The per-epoch validation pass of the trainers."""
    fwd = forward(model, val_ds.features, val_ds.aux)
    acc = float(np.mean(predict_class(fwd) == val_targets))
    loss = bce_loss(fwd.probs, constant(one_hot(val_targets, val_ds.n_classes)))
    return acc, loss.item()


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _same_params(a, b) -> bool:
    return len(a) == len(b) and all(_bits(x.data) == _bits(y.data) for x, y in zip(a, b))


def guard_iteration(real, replayed) -> None:
    model, attn, state, trace = real
    r_model, r_attn, r_state, r_loss, r_means, r_mdelta, r_adelta = replayed
    checks = {
        "model parameters": _same_params(model.params, r_model.params),
        "attention parameters": _same_params((attn.w, attn.b), (r_attn.w, r_attn.b)),
        "Adam state": (state.t == r_state.t
                       and all(_bits(x) == _bits(y) for x, y in zip(state.m, r_state.m))
                       and all(_bits(x) == _bits(y) for x, y in zip(state.v, r_state.v))),
        "loss": _bits(trace.loss_pre) == _bits(r_loss),
        "attention weights": _bits(trace.weight_means) == _bits(r_means),
        "update norms": (_bits(trace.model_update_norm) == _bits(r_mdelta)
                         and _bits(trace.attn_update_norm) == _bits(r_adelta)),
    }
    bad = [k for k, ok in checks.items() if not ok]
    if bad:
        raise GuardError("replay of train_iteration differs from the real function in: "
                         + ", ".join(bad))


def guard_baseline(sp: Spans, model, train_ds, meta, target) -> None:
    """Replay a few ``train_baseline`` steps and compare with the real
    function on the same rows."""
    rows = min(train_ds.n_samples, GUARD_BASELINE_BATCHES * meta.batch_size)
    sub = take_subset(train_ds, np.arange(rows))
    real = train_baseline(model, sub, target, replace(meta, epochs=1))
    state = adam_init(params_get(model), lr=meta.beta)
    losses = []
    for batch in minibatches(sub, meta.batch_size, meta.seed, 0):
        model, state, value = replay_baseline_step(sp, model, batch, target, state)
        losses.append(value)
    bad = []
    if not _same_params(real.last_model.params, model.params):
        bad.append("model parameters")
    if _bits(real.history[0].train_loss) != _bits(float(np.mean(losses))):
        bad.append("loss")
    if bad:
        raise GuardError("replay of train_baseline differs from the real function in: "
                         + ", ".join(bad))


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _replay_config(w: Workload, seed: int):
    """The config whose training the replay times: the workload's own, or
    for the sweep its attention variant at the first noise level."""
    cfg = parse_config_dict(w.config_dict(seed))
    if w.kind == CLI:
        cfg = noise_sweep_variants(cfg, SWEEP_LEVELS)[0][0]
    return cfg


def time_setup_layers(sp: Spans, cfg, run_seed: int):
    for _ in range(SETUP_REPEATS):
        spec = cfg.dataset
        pool = sp.call("data.synth_blobs", synth_blobs, spec, stream="train")
        sp.call("data.synth_blobs", synth_blobs, spec, stream="test")
        pool = sp.call("annotators.attach", attach_annotators, pool, cfg.annotators,
                       seed=spec.seed)
        del pool
        pool, test = sp.call("experiment.build_datasets", build_datasets, cfg)
        train_ds, val_ds, _ = sp.call("data.split", split, pool, cfg.val_fraction,
                                      seed=run_seed)
    return pool, test, train_ds, val_ds


def _timed(fn, *args):
    t0 = pc()
    out = fn(*args)
    return out, pc() - t0


def replay_training(sp: Spans, cfg, train_ds, val_ds, run_seed: int, budget_s: float):
    """Guarded attention iterations over the training split for ``budget_s``.
    Returns the median ratio of replayed to real time over the iterations
    (each pair runs back to back on the same batch), and the model."""
    meta = replace(cfg.meta, seed=run_seed)
    model = classifier_init((train_ds.features.shape[1], *cfg.hidden_dims),
                            train_ds.n_classes, cfg.aux_dim,
                            rng=np.random.default_rng(run_seed))
    attn = attention_init(train_ds.n_sets, model.feature_dim + model.aux_dim,
                          meta.attention_mode)
    state = adam_init(params_get(model), lr=meta.beta)
    val_targets = consensus_labels(val_ds)
    ratios = []
    start, epoch = pc(), 0
    while pc() - start < budget_s or len(ratios) < MIN_ITERATIONS:
        batches = minibatches(train_ds, meta.batch_size, meta.seed, epoch)
        while True:
            t0 = pc()
            batch = next(batches, None)
            if batch is None:
                break
            sp.add("data.minibatch", pc() - t0)
            # Alternate which runs first so neither always finds warm caches.
            if len(ratios) % 2:
                real, real_s = _timed(train_iteration, model, attn, batch, meta, state)
                replayed, replay_s = _timed(replay_iteration, sp, model, attn, batch, meta,
                                            state)
            else:
                replayed, replay_s = _timed(replay_iteration, sp, model, attn, batch, meta,
                                            state)
                real, real_s = _timed(train_iteration, model, attn, batch, meta, state)
            guard_iteration(real, replayed)
            ratios.append(replay_s / real_s)
            model, attn, state = replayed[:3]
            if pc() - start >= budget_s and len(ratios) >= MIN_ITERATIONS:
                break
        sp.call("metatrain.eval", replay_eval, model, val_ds, val_targets)
        epoch += 1
    for _ in range(EVAL_REPEATS):
        sp.call("metatrain.eval", replay_eval, model, val_ds, val_targets)
    return statistics.median(ratios), model


def replay_baselines(sp: Spans, cfg, train_ds, run_seed: int, budget_s: float) -> None:
    meta = replace(cfg.meta, seed=run_seed)
    model = classifier_init((train_ds.features.shape[1], *cfg.hidden_dims),
                            train_ds.n_classes, cfg.aux_dim,
                            rng=np.random.default_rng(run_seed + 1))
    guard_baseline(sp, model, train_ds, meta, 0)
    state = adam_init(params_get(model), lr=meta.beta)
    start, epoch, steps = pc(), 0, 0
    while pc() - start < budget_s or steps < MIN_ITERATIONS:
        for batch in minibatches(train_ds, meta.batch_size, meta.seed, epoch):
            model, state, _ = replay_baseline_step(sp, model, batch, 0, state)
            steps += 1
        epoch += 1


def traced_run(w: Workload, seed: int, seconds: float, checker: Checker,
               workdir: Path) -> tuple[dict, dict]:
    """Per-layer metrics and the measured tracing overhead."""
    sp = Spans()
    cfg = _replay_config(w, seed)
    run_seed = w.run_seeds(seed)[0]
    pool, test, train_ds, val_ds = time_setup_layers(sp, cfg, run_seed)

    iter_ratio, model = replay_training(sp, cfg, train_ds, val_ds, run_seed,
                                        REPLAY_SHARE * seconds)
    replay_baselines(sp, cfg, train_ds, run_seed, BASELINE_SHARE * seconds)
    probs = forward(model, test.features, test.aux).probs.data
    for _ in range(SMALL_REPEATS):
        sp.call("metrics.per_class_auc", per_class_auc, probs, test.clean_labels,
                test.n_classes)
    del train_ds, val_ds

    # The workload's own runs, for run time per record and worker busy share.
    if w.kind == CLI:
        config = write_config(w, seed, workdir)
        start = pc()
        walls, records = [], []
        while pc() - start < LOOP_SHARE * seconds or not walls:
            wall, got, problems = invoke_sweep(config, 1, workdir / f"traced{len(walls)}")
            checker.count(problems + check_count(got, w) + checker.check_reference(got))
            walls.append(wall)
            records.extend(got)
        busy = sum(r.wall_clock_seconds for r in records) / sum(walls)
    else:
        seeds = w.run_seeds(seed)
        expected: dict = {}
        records = []
        start = pc()
        while pc() - start < LOOP_SHARE * seconds or len(records) < len(seeds):
            s = seeds[len(records) % len(seeds)]
            rec = run_single(cfg, s, pool=pool, test=test).record
            records.append(rec)
            if s in expected:
                checker.count(Checker.check_same([rec], [expected[s]], f"run seed {s}"))
            else:
                expected[s] = comparable(rec)
        checker.count(checker.check_reference(records[:len(seeds)]))
        busy = sum(r.wall_clock_seconds for r in records) / (pc() - start)
    for i in range(SMALL_REPEATS):
        out = workdir / f"emit{i}"
        t0 = pc()
        emit(records, out / "results.csv", fmt="csv")
        emit(records, out / "results.jsonl", fmt="jsonl")
        sp.add("experiment.emit", pc() - t0)
        shutil.rmtree(out, ignore_errors=True)

    metrics = {
        "metatrain.iteration_ms": sp.fast("metatrain.iteration") * 1e3,
        "metatrain.probe_ms": sp.fast("metatrain.probe") * 1e3,
        "metatrain.feedback_ms": sp.fast("metatrain.feedback") * 1e3,
        "metatrain.attend_ms": sp.fast("metatrain.attend") * 1e3,
        "metatrain.label_ms": sp.fast("metatrain.label") * 1e3,
        "metatrain.final_step_ms": sp.fast("metatrain.final_step") * 1e3,
        "metatrain.attention_step_ms": sp.fast("metatrain.attention_step") * 1e3,
        "metatrain.eval_ms": sp.fast("metatrain.eval") * 1e3,
        "metatrain.baseline_step_ms": sp.fast("metatrain.baseline_step") * 1e3,
        "model.forward_ms": sp.fast("model.forward") * 1e3,
        "model.params_set_ms": sp.fast("model.params_set") * 1e3,
        "autodiff.gradients_ms": sp.fast("autodiff.gradients") * 1e3,
        "optim.adam_step_ms": sp.fast("optim.adam_step") * 1e3,
        "optim.sgd_step_ms": sp.fast("optim.sgd_step") * 1e3,
        "data.minibatch_ms": sp.fast("data.minibatch") * 1e3,
        "data.synth_blobs_s": sp.fast("data.synth_blobs"),
        "annotators.attach_s": sp.fast("annotators.attach"),
        "data.split_s": sp.fast("data.split"),
        "experiment.build_datasets_s": sp.fast("experiment.build_datasets"),
        "metrics.per_class_auc_ms": sp.fast("metrics.per_class_auc") * 1e3,
        "experiment.emit_ms": sp.fast("experiment.emit") * 1e3,
        "experiment.run_single_s": fastest([r.wall_clock_seconds for r in records]),
        "cli.worker_busy_share": busy,
        "cli.import_s": time_import(),
    }
    overhead = {
        "iteration": iter_ratio - 1.0,
        "guarded_iterations": len(sp.samples["metatrain.iteration"]),
    }
    return metrics, overhead
