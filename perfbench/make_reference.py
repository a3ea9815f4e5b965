"""Write reference.json: for each (workload, seed), the digest of the
records the benchmark checks every run against and each record's test
accuracy, with the fingerprint of the machine that made them (numpy, BLAS
build and kernel, threads, SIMD). A machine with another fingerprint checks
the accuracies only.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py --seeds 0-31

Remake it only when a change is meant to alter the arithmetic; say so in the
change, since every later run is checked against these digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from repeat import seed_list
from run import ROOT, prepare_environment


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31")
    args = p.parse_args(argv)
    if not prepare_environment():
        return 2

    from checks import REFERENCE_FILE, digest, fingerprint
    from endtoend import invoke_sweep, write_config
    from labelattn.config import parse_config_dict
    from labelattn.experiment import build_datasets, run_single
    from workloads import CLI, WORKLOADS

    workdir = ROOT / ".bench_tmp" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    digests: dict[str, dict[str, str]] = {name: {} for name in WORKLOADS}
    accuracy: dict[str, dict[str, list[float]]] = {name: {} for name in WORKLOADS}
    try:
        for seed in seed_list(args.seeds):
            for name, w in WORKLOADS.items():
                if w.kind == CLI:
                    _, records, problems = invoke_sweep(write_config(w, seed, workdir), 1,
                                                        workdir / "out")
                    if problems:
                        raise RuntimeError("; ".join(problems))
                else:
                    cfg = parse_config_dict(w.config_dict(seed))
                    pool, test = build_datasets(cfg)
                    records = [run_single(cfg, s, pool=pool, test=test).record
                               for s in w.run_seeds(seed)]
                digests[name][str(seed)] = digest(records)
                accuracy[name][str(seed)] = [r.test_accuracy for r in records]
            print(f"seed {seed}: " + " ".join(f"{n}={d[str(seed)]}" for n, d in digests.items()),
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    REFERENCE_FILE.write_text(json.dumps({"fingerprint": fingerprint(), "digests": digests,
                                          "test_accuracy": accuracy}, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
