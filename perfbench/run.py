"""labelattn training benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload attn-m5-narrow --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced; ``--trace 1``
replays training phase by phase and prints the per-layer metrics instead
(see ``phases.py``). The metric names, units and directions are those of
``BENCHMARK.json``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine facts, the sample counts and the measured tracing
overhead. ``--tiny`` runs the same code paths on tiny arrays (smoke test).

The benchmark imports the package from ``src/`` of the checkout and pins BLAS
to one thread before numpy loads: results then do not depend on the thread
count a machine picks, and the two ``--jobs 2`` workers do not oversubscribe
two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
              "MKL_NUM_THREADS": BLAS_THREADS}


def prepare_environment() -> bool:
    """Pin BLAS threads and put ``src/`` on the import path, for this
    process and the ones it starts. Must run before numpy is imported.
    False when the checkout has no package sources."""
    if not (SRC / "labelattn" / "__init__.py").is_file():
        print(f"error: no labelattn package under {SRC}", file=sys.stderr)
        return False
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    return True


def metric_specs(mode: str) -> dict[str, str]:
    """name -> unit for the metrics one mode must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny arrays, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_environment():
        return 2

    # numpy and the package load only now, after the BLAS pin is in place.
    from checks import Checker, load_reference, machine_facts
    from endtoend import cli_endtoend, train_endtoend
    from phases import GuardError, traced_run
    from workloads import CLI, WORKLOADS, get_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = get_workload(args.workload, tiny=args.tiny)
    reference, reference_source = ((None, "self: tiny size") if args.tiny
                                   else load_reference(w.name, args.seed))
    if not reference_source.startswith("reference.json digest"):
        print(f"reference: {reference_source}", file=sys.stderr)
    checker = Checker(reference)
    workdir = ROOT / ".bench_tmp" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    facts = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "tiny": args.tiny, "reference": reference_source}
    try:
        if args.trace:
            mode = "per_layer"
            values, facts["trace_overhead"] = traced_run(w, args.seed, args.seconds,
                                                         checker, workdir)
        else:
            mode = "end_to_end"
            values = (cli_endtoend(w, args.seed, args.seconds, checker, workdir)
                      if w.kind == CLI else train_endtoend(w, args.seed, args.seconds, checker))
            facts["samples"] = values.pop("_samples")
            values["passed_share"] = checker.share_passed
    except GuardError as err:
        print(f"replay guard failed, no per-layer numbers written: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    units = metric_specs(mode)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    facts["machine"] = machine_facts(PINNED_ENV)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
