"""Check that this checkout reproduces perfbench/reference.json: run, in a
temporary directory, the records that ``perfbench/make_reference.py``
digests, for each seed and each benchmark workload, and compare their
digests with the reference's. Nothing is written under ``perfbench/``.

Usage, from anywhere:

    python3 tools/check_digests.py --seeds 0,1,2,5

Prints one line per (workload, seed), then ``N of M reference.json digests
match`` and whether this machine's numpy/BLAS fingerprint equals the
reference's. Exits 0 when every digest matches, 1 on any mismatch, and 2,
before any run, when a seed is not in reference.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.dont_write_bytecode = True   # so that importing perfbench/ leaves no cache there
sys.path.insert(0, str(PERFBENCH))

from repeat import seed_list
from run import prepare_environment


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0,1,2,5")
    args = p.parse_args(argv)
    if not prepare_environment():
        return 2

    # numpy and the package load only now, after the BLAS pin is in place.
    from checks import REFERENCE_FILE, digest, fingerprint
    from endtoend import invoke_sweep, write_config
    from labelattn.config import parse_config_dict
    from labelattn.experiment import build_datasets, run_single
    from workloads import CLI, WORKLOADS

    reference = json.loads(REFERENCE_FILE.read_text())
    seeds = seed_list(args.seeds)
    absent = sorted({seed for seed in seeds for name in WORKLOADS
                     if str(seed) not in reference["digests"].get(name, {})})
    if absent:
        print(f"error: seeds {absent} are not in reference.json", file=sys.stderr)
        return 2

    matched = total = 0
    for seed in seeds:
        for name, w in WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
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
            got, expected = digest(records), reference["digests"][name][str(seed)]
            matched += got == expected
            total += 1
            print(f"{name} seed {seed}: {got} "
                  f"{'matches' if got == expected else f'differs from {expected}'}", flush=True)
    print(f"{matched} of {total} reference.json digests match")
    same = fingerprint() == reference["fingerprint"]
    print(f"machine fingerprint {'equals' if same else 'differs from'} the reference's")
    return 0 if matched == total else 1


if __name__ == "__main__":
    sys.exit(main())
