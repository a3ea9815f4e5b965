"""Untraced end-to-end measurement of one workload.

Closed loop: a single caller starts the next run only after the previous one
has finished. The in-process workloads call ``experiment.run_single``; the CLI
workloads start ``python -m labelattn.cli sweep-noise`` as a fresh
interpreter and wait for it.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from labelattn import experiment
from labelattn.config import parse_config_dict
from labelattn.data import split
from labelattn.experiment import build_datasets, read_records, run_single
from labelattn.model import classifier_init

from checks import Checker, comparable
from workloads import SWEEP_LEVELS, Workload

pc = time.perf_counter

SETUP_SHARE = 0.2      # of the measured time: set-up rounds between runs
SETUP_REPEATS = 3      # set-ups back to back in a round; the round keeps the least
MIN_RUNS = 3           # timed runs per measurement even when --seconds is short
SUBPROCESS_TIMEOUT_S = 60   # an invocation takes a few seconds
CALIBRATION_PIECES = 8      # calibration pieces in a block; blocks run on either side of every run
CALIBRATION_REF_S = 1.4e-3  # median piece time on the host this was built on, in its fast state

_CAL_RNG = np.random.default_rng(20091032)
_CAL_SMALL = _CAL_RNG.standard_normal((64, 64)) * 0.1
_CAL_BIG = _CAL_RNG.standard_normal((256, 256)) * 0.1

ALL_CPUS = frozenset(os.sched_getaffinity(0))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def fastest(values) -> float:
    """The least time seen: the cost of the work when the host interferes
    least, since interference only ever adds time."""
    return float(min(values))


def calibration_block() -> float:
    """Median seconds of ``CALIBRATION_PIECES`` pieces of fixed work that uses
    nothing of labelattn: Python bytecode, small numpy operations and a BLAS
    matmul, the kinds of work a training iteration does."""
    times = []
    for _ in range(CALIBRATION_PIECES):
        t0 = pc()
        total = 0
        for k in range(5000):
            total += k * k
        x = _CAL_SMALL
        for _ in range(20):
            x = np.tanh(x @ _CAL_SMALL)
        _CAL_BIG @ _CAL_BIG
        times.append(pc() - t0)
    return statistics.median(times)


class HostClock:
    """Scales measured times to the host speed of reference.

    On a shared 2-vCPU host the same work runs at two speeds, the slower
    1.35-1.5x the faster, for Python bytecode, small numpy operations and
    BLAS alike. The state switches within a second at some times and stays
    slow for minutes at others, so a median of raw times, or even a least
    time over a 30-second measurement, follows the host. A calibration block
    runs right before and right after every timed run (the block after one
    run serves as the block before the next, when nothing ran in between); a
    run's scale is ``CALIBRATION_REF_S`` over the mean of its two blocks, so
    a run at the slow speed is scaled down by the factor that slowed it.
    """

    def __init__(self):
        self.pairs: list[tuple[float, float]] = []
        self._before = None

    def before_run(self) -> None:
        if self._before is None:
            self._before = calibration_block()

    def after_run(self) -> None:
        after = calibration_block()
        self.pairs.append((self._before, after))
        self._before = after

    def interrupted(self) -> None:
        """Other work ran since the last block: calibrate again before the next run."""
        self._before = None

    def scales(self) -> np.ndarray:
        """One scale per run timed so far."""
        return CALIBRATION_REF_S / np.asarray(self.pairs).mean(axis=1)

    @property
    def blocks(self) -> list[float]:
        return [b for pair in self.pairs for b in pair]


def calibrated_least(measure) -> float:
    """One set-up round: ``SETUP_REPEATS`` calls of ``measure`` (each returns
    seconds) back to back, each scaled by the calibration blocks on either
    side of it; the least of the scaled times (see ``fastest``)."""
    clock = HostClock()
    times = []
    for _ in range(SETUP_REPEATS):
        clock.before_run()
        times.append(measure())
        clock.after_run()
    return fastest(np.asarray(times) * clock.scales())


def pin_one_cpu() -> int:
    """Run this process, and the processes it starts, on one CPU: the speed
    of each CPU changes on its own, so the calibration blocks and the timed
    work must share one. Returns the CPU."""
    cpu = min(ALL_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


@contextmanager
def iteration_stamps(stamps: list):
    """Give every ``train_attention`` call that ``run_single`` makes a
    ``trace_hook`` that stamps the time of each finished iteration; tracing
    (``full_trace``) stays off."""
    real = experiment.train_attention

    def with_hook(*args, **kwargs):
        if kwargs.get("trace_hook") is not None or kwargs.get("full_trace"):
            raise RuntimeError("benchmark configs must run with tracing off")
        kwargs["trace_hook"] = lambda it, _trace: stamps.append((it, pc()))
        return real(*args, **kwargs)

    experiment.train_attention = with_hook
    try:
        yield
    finally:
        experiment.train_attention = real


def is_full_step(it: int, w: Workload) -> bool:
    """Whether the interval that ends at iteration ``it`` is one training step
    at the stated batch size: not the first of an epoch (that interval holds
    the previous epoch's validation pass) and not a partial last batch."""
    per_epoch = -(-w.n_train // w.batch_size)
    partial = w.n_train % w.batch_size != 0
    return it % per_epoch != 0 and not (partial and it % per_epoch == per_epoch - 1)


def timed_setup(cfg, run_seed: int, times: list):
    """One set-up round (see ``calibrated_least``) of build_datasets + split
    + classifier_init; appends its time and returns the datasets."""
    built = {}

    def setup_once() -> float:
        # The rebuilt datasets are identical; drop the old ones first so that
        # the peak memory stays that of one set-up.
        built.clear()
        t0 = pc()
        pool, test = build_datasets(cfg)
        train_ds, _, _ = split(pool, cfg.val_fraction, seed=run_seed)
        classifier_init((train_ds.features.shape[1], *cfg.hidden_dims), pool.n_classes,
                        cfg.aux_dim, rng=np.random.default_rng(run_seed))
        t1 = pc()
        built.update(pool=pool, test=test)
        return t1 - t0

    times.append(calibrated_least(setup_once))
    return built["pool"], built["test"]


def summarise_runs(clock: HostClock, run_times, train_times, samples_per_run,
                   iter_times) -> dict:
    """The run metrics at the reference host speed, each time scaled by its
    run's scale: the median whole run, the median training rate and the
    median iteration. ``iter_times`` holds one array of iteration seconds
    per run. The tail percentiles and the unscaled figures go with the facts:
    on this host their spread from run to run is mostly the host's."""
    scales = clock.scales()
    iter_ms = np.concatenate([t * s * 1e3 for t, s in zip(iter_times, scales)])
    measured_ms = np.concatenate(iter_times) * 1e3
    return {
        "run_s": statistics.median(np.asarray(run_times) * scales),
        "train_samples_per_s": statistics.median(
            samples_per_run / (np.asarray(train_times) * scales)),
        "iter_ms_p50": percentile(iter_ms, 50),
        "_host": {"calibration_ms_median": statistics.median(clock.blocks) * 1e3,
                  "scale_min": float(scales.min()), "scale_max": float(scales.max()),
                  "iter_ms_p95": percentile(iter_ms, 95), "iter_ms_p99": percentile(iter_ms, 99),
                  "measured": {"run_s_median": statistics.median(run_times),
                               "run_s_min": fastest(run_times),
                               **{f"iter_ms_p{q}": percentile(measured_ms, q)
                                  for q in (50, 95, 99)}}},
    }


def train_endtoend(w: Workload, seed: int, seconds: float, checker: Checker) -> dict:
    cpu = pin_one_cpu()
    cfg = parse_config_dict(w.config_dict(seed))
    seeds = w.run_seeds(seed)
    setup_times: list[float] = []
    pool, test = timed_setup(cfg, seeds[0], setup_times)

    # Warm-up, one run per run seed: the per-seed reference for every later run.
    first = [run_single(cfg, s, pool=pool, test=test).record for s in seeds]
    checker.count(checker.check_reference(first))
    expected = {r.seed: comparable(r) for r in first}

    # run_s is the whole run_single; train_samples_per_s and the iteration
    # percentiles use the full-batch steps only (the first interval of an
    # epoch also holds the last epoch's validation pass).
    stamps: list = []
    run_times, train_times, iter_times = [], [], []
    setup_spent = 0.0
    start = pc()
    with iteration_stamps(stamps):
        clock = HostClock()
        while pc() - start < seconds or len(run_times) < max(MIN_RUNS, len(seeds)):
            s = seeds[len(run_times) % len(seeds)]
            clock.before_run()
            stamps.clear()
            t0 = pc()
            record = run_single(cfg, s, pool=pool, test=test).record
            t1 = pc()
            clock.after_run()
            run_times.append(t1 - t0)
            intervals = np.diff([t0] + [t for _, t in stamps])
            steps = intervals[[is_full_step(it, w) for it, _ in stamps]]
            train_times.append(steps.sum())
            iter_times.append(steps)
            checker.count(Checker.check_same([record], [expected[s]], f"run seed {s}"))
            if setup_spent < SETUP_SHARE * (pc() - start):
                t = pc()
                pool = test = None
                pool, test = timed_setup(cfg, seeds[0], setup_times)
                setup_spent += pc() - t
                clock.interrupted()
    runs = summarise_runs(clock, run_times, train_times, w.batch_size * len(iter_times[0]),
                          iter_times)
    host = runs.pop("_host")

    return {
        "setup_s": statistics.median(setup_times),
        **runs,
        "records_per_min": 60.0 / runs["run_s"],
        "test_accuracy": float(np.mean([r.test_accuracy for r in first])),
        "peak_rss_mb": peak_rss_mb(children=False),
        "_samples": {"pinned_cpu": cpu, "runs": len(run_times), "setups": len(setup_times),
                     "iterations": sum(len(t) for t in iter_times), **host},
    }


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def run_process(cmd: list[str], all_cpus: bool = False) -> subprocess.CompletedProcess:
    """Run a command in its own process group and wait for it. On timeout the
    whole group goes, so no ``--jobs`` worker outlives its CLI. ``all_cpus``
    lifts a ``pin_one_cpu`` for the command."""
    reset = (lambda: os.sched_setaffinity(0, ALL_CPUS)) if all_cpus else None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True, preexec_fn=reset) as proc:
        try:
            out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nkilled after {SUBPROCESS_TIMEOUT_S} s"
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def import_once() -> float:
    """Seconds for a fresh interpreter to import ``labelattn.cli``."""
    t0 = pc()
    proc = run_process([sys.executable, "-c", "import labelattn.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"importing labelattn.cli failed: {proc.stderr.strip()[-300:]}")
    return pc() - t0


def time_import() -> float:
    """Least seconds, of ``SETUP_REPEATS`` back to back, for a fresh
    interpreter to import ``labelattn.cli``."""
    return fastest(import_once() for _ in range(SETUP_REPEATS))


def write_config(w: Workload, seed: int, workdir: Path) -> Path:
    """The sweep config as a file. Its ``output`` keeps the default: every
    invocation passes ``--out``, and the records' config hash must not depend
    on where the checkout lives."""
    path = workdir / "config.json"
    path.write_text(json.dumps(w.config_dict(seed)))
    return path


def invoke_sweep(config: Path, jobs: int, out: Path):
    """One ``labelattn sweep-noise`` invocation. Returns (wall seconds,
    records read back, problems)."""
    cmd = [sys.executable, "-m", "labelattn.cli", "sweep-noise", "--config", str(config),
           "--levels", ",".join(f"{lv:g}" for lv in SWEEP_LEVELS), "--jobs", str(jobs),
           "--out", str(out)]
    t0 = pc()
    proc = run_process(cmd, all_cpus=jobs > 1)
    wall = pc() - t0
    if proc.returncode != 0:
        return wall, [], [f"sweep-noise --jobs {jobs} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}"]
    problems = []
    try:
        from_csv = read_records(out / "results.csv")
        from_jsonl = read_records(out / "results.jsonl")
    except (OSError, ValueError, KeyError) as err:
        return wall, [], [f"results do not read back: {err}"]
    if [r.to_dict() for r in from_csv] != [r.to_dict() for r in from_jsonl]:
        problems.append("results.csv and results.jsonl disagree after read_records")
    shutil.rmtree(out, ignore_errors=True)
    return wall, from_jsonl, problems


def check_count(records, w: Workload) -> list[str]:
    if len(records) != w.records_per_invocation:
        return [f"{len(records)} records for {w.records_per_invocation} runs attempted"]
    return []


def cli_endtoend(w: Workload, seed: int, seconds: float, checker: Checker,
                 workdir: Path) -> dict:
    cpu = pin_one_cpu()
    config = write_config(w, seed, workdir)
    setup_times = [calibrated_least(import_once)]

    # Warm-up with --jobs 2: its records are the reference, so every timed
    # --jobs 1 run also checks that the process-pool fan-out gives the same.
    _, first, problems = invoke_sweep(config, 2, workdir / "reference")
    problems += check_count(first, w) + checker.check_reference(first)
    checker.count(problems)
    expected = [comparable(r) for r in first]

    # run_s is the whole invocation; train_samples_per_s and the iteration
    # percentiles use the records' own wall-clock times, as the CLI prints no
    # per-iteration times (a record's iteration is its mean one).
    walls, train_times, iter_times = [], [], []
    clock = HostClock()
    setup_spent = 0.0
    start = pc()
    while pc() - start < seconds or len(walls) < MIN_RUNS:
        clock.before_run()
        wall, got, problems = invoke_sweep(config, 1, workdir / f"run{len(walls)}")
        clock.after_run()
        problems += check_count(got, w)
        problems += Checker.check_same(got, expected, "--jobs 1 vs --jobs 2")
        checker.count(problems)
        if problems:
            clock.pairs.pop()
        else:
            times = np.array([r.wall_clock_seconds for r in got])
            walls.append(wall)
            train_times.append(times.sum())
            iter_times.append(times / w.iterations_per_run)
        if setup_spent < SETUP_SHARE * (pc() - start):
            t = pc()
            setup_times.append(calibrated_least(import_once))
            setup_spent += pc() - t
            clock.interrupted()
    if not walls:
        raise RuntimeError("no sweep-noise invocation passed its checks")
    runs = summarise_runs(clock, walls, train_times,
                          w.records_per_invocation * w.n_train * w.epochs, iter_times)
    host = runs.pop("_host")

    return {
        "setup_s": statistics.median(setup_times),
        **runs,
        "records_per_min": w.records_per_invocation * 60.0 / runs["run_s"],
        "test_accuracy": float(np.mean([r.test_accuracy for r in first])),
        "peak_rss_mb": peak_rss_mb(children=True),
        "_samples": {"pinned_cpu": cpu, "runs": len(walls), "setups": len(setup_times),
                     "records": sum(len(t) for t in iter_times), **host},
    }
