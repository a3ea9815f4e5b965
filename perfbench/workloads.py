"""The three benchmark workloads and the experiment configs they run.

Every input derives from the workload seed: it is the synthetic dataset seed
(the blobs and the annotator corruption streams), and the run seeds are
``seed``, ``seed + 1``, ... (split, initialisation and batch order).

Why each workload exists:

- ``attn-m5-narrow``: the Table-2 roster (M=5) on a 32-wide input. An
  iteration is bound by Python and tape overhead; the M probes plus the
  feedback pass are most of it, so stacking the probes shows here.
- ``attn-m3-wide``: the criterion-5 M=3 roster on a CIFAR-shaped 3072-wide
  input at batch 128. The same phases cost BLAS matmuls instead, so a change
  that only removes overhead should barely move it, while a change that
  stacks ``[M, ...]`` arrays shows in its peak memory.
- ``sweep-noise-serial``: ``labelattn sweep-noise`` at two levels and two
  seeds (20 records, 16 of them single-set baselines) in a fresh interpreter.
  Its reference invocation runs the same sweep with ``--jobs 2``, so the
  CLI's process-pool fan-out is checked on every run; a timed ``--jobs 2``
  workload was dropped to give the others longer runs on a noisy host.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

TABLE2_ROSTER = (
    {"kind": "hammer_spammer", "noise_level": 0.3},
    {"kind": "structured_flips", "noise_level": 0.4},
    {"kind": "ordered_confusion", "noise_level": 0.5},
    {"kind": "adversarial"},
    {"kind": "average"},
)
CRITERION5_M3_ROSTER = (
    {"kind": "hammer_spammer", "noise_level": 0.3},
    {"kind": "adversarial"},
    {"kind": "ordered_confusion", "noise_level": 0.3},
)
SWEEP_BASE_ROSTER = (
    {"kind": "hammer_spammer", "noise_level": 0.3},
    {"kind": "adversarial"},
)
SWEEP_LEVELS = (0.3, 0.5)
SWEEP_METHODS_PER_LEVEL = 5   # ours plus one baseline per swept annotator

TRAIN, CLI = "train", "cli"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # TRAIN: in-process run_single; CLI: sweep-noise subprocess
    roster: tuple
    dim: int
    samples_per_class: int
    batch_size: int
    epochs: int
    n_classes: int = 10
    hidden_dims: tuple = (128, 64)
    beta: float = 1e-3            # fast enough that a few epochs give a readable accuracy
    n_run_seeds: int = 2

    def run_seeds(self, seed: int) -> tuple[int, ...]:
        return tuple(range(seed, seed + self.n_run_seeds))

    def config_dict(self, seed: int) -> dict:
        """The experiment config as the JSON object the CLI reads."""
        return {
            "dataset": {"synthetic": {"n_classes": self.n_classes, "dim": self.dim,
                                      "samples_per_class": self.samples_per_class,
                                      "seed": seed}},
            "annotators": [dict(a) for a in self.roster],
            "model": {"hidden_dims": list(self.hidden_dims)},
            "meta": {"epochs": self.epochs, "batch_size": self.batch_size,
                     "beta": self.beta},
            "method": {"name": "ours"},
            "seeds": list(self.run_seeds(seed)),
        }

    @property
    def n_train(self) -> int:
        """Training rows after the default 0.2 validation split."""
        pool = self.n_classes * self.samples_per_class
        return pool - int(pool * 0.2)

    @property
    def iterations_per_run(self) -> int:
        return self.epochs * -(-self.n_train // self.batch_size)

    @property
    def records_per_invocation(self) -> int:
        return len(SWEEP_LEVELS) * SWEEP_METHODS_PER_LEVEL * len(self.run_seeds(0))


WORKLOADS = {w.name: w for w in (
    Workload("attn-m5-narrow", TRAIN, TABLE2_ROSTER, dim=32, samples_per_class=500,
             batch_size=32, epochs=2),
    # One epoch leaves the test accuracy dependent on the run seed (0.69-0.97
    # for one dataset); four run seeds average that out.
    Workload("attn-m3-wide", TRAIN, CRITERION5_M3_ROSTER, dim=3072, samples_per_class=300,
             batch_size=128, epochs=1, n_run_seeds=4),
    Workload("sweep-noise-serial", CLI, SWEEP_BASE_ROSTER, dim=32, samples_per_class=100,
             batch_size=32, epochs=2),
)}

# A few-second version of each workload for the smoke test: same code paths,
# tiny arrays.
TINY_SIZES = {
    "attn-m5-narrow": {"dim": 8},
    "attn-m3-wide": {"dim": 96},
    "sweep-noise-serial": {"dim": 8, "epochs": 1},
}
TINY_COMMON = {"samples_per_class": 12, "batch_size": 16, "hidden_dims": (16, 8)}


def get_workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY_COMMON, **TINY_SIZES[name]) if tiny else w
