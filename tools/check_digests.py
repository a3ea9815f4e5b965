"""Check that this checkout reproduces perfbench/reference.json: run
``perfbench/make_reference.py --seeds S`` unchanged in a temporary copy of
``src/``, ``perfbench/`` and ``BENCHMARK.json``, and compare the digests it
makes, and its machine fingerprint, with the committed reference's.

Usage, from anywhere:

    python3 tools/check_digests.py --seeds 0,1,2,5

``make_reference.py``'s per-seed progress goes to stderr as it runs (its
closing ``wrote perfbench/reference.json`` names the copy's file). When it
has finished, prints one line per (workload, seed), then ``N of M
reference.json digests match`` and whether this machine's numpy/BLAS
fingerprint equals the reference's. Exits 0 when every digest matches, 1 on
any mismatch, and 2, before any run, when a seed is not in reference.json.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from runpy import run_path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path("perfbench") / "reference.json"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0,1,2,5")
    args = p.parse_args(argv)
    # make_reference.py's own seed parser; run_path compiles it without
    # leaving bytecode under perfbench/
    seeds = run_path(str(ROOT / "perfbench" / "repeat.py"))["seed_list"](args.seeds)

    reference = json.loads((ROOT / REFERENCE).read_text())
    absent = sorted({seed for seed in seeds for digests in reference["digests"].values()
                     if str(seed) not in digests})
    if absent:
        print(f"error: seeds {absent} are not in reference.json", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_tmp"))
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        subprocess.run([sys.executable, "perfbench/make_reference.py", "--seeds", args.seeds],
                       cwd=copy, check=True, stdout=sys.stderr)
        made = json.loads((copy / REFERENCE).read_text())

    rows = [(name, seed, digests[str(seed)], reference["digests"].get(name, {}).get(str(seed)))
            for seed in seeds for name, digests in made["digests"].items()]
    for name, seed, got, expected in rows:
        print(f"{name} seed {seed}: {got} "
              f"{'matches' if got == expected else f'differs from {expected}'}")
    matched = sum(got == expected for *_, got, expected in rows)
    print(f"{matched} of {len(rows)} reference.json digests match")
    same = made["fingerprint"] == reference["fingerprint"]
    print(f"machine fingerprint {'equals' if same else 'differs from'} the reference's")
    return 0 if matched == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
