"""Run the benchmark in two checkouts, in alternating pairs, and compare them.

Usage, from anywhere:

    python3 tools/ab_pairs.py PARENT CHANGE [--pairs 10] [--first-seed 0]

For each workload of BENCHMARK.json, pair i runs ``perfbench/run.py
--workload W --seed FIRST+i --seconds S --trace 0``, unchanged, in each
checkout, S being BENCHMARK.json's ``run_seconds``: the parent first in even
pairs, the change first in odd ones. Per (workload, end-to-end metric) it
prints the parent's median and quartiles (as ``statistics.quantiles(values,
n=4)`` gives them), the change's median, the pairs the change won, lost and
tied by the metric's direction, and two verdicts:

- worse: whether the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median); ``unresolved``
  when the parent's q3 - q1 is itself wider than the bound, unless every
  run of the change reads better than every run of the parent.
- gain: whether at least 9 in 10 of the pairs run were won and the median
  gap is larger than the parent's q3 - q1; ``n/a`` below 10 pairs.

A run that does not read ``correct: true``, or that times out, is listed as
failed with the last line of its stderr; its pair is left out of the
medians and counts against the gain rule.

Exits 2, before any run, when the two resolved checkout paths differ in
length (the timings depend on the checkout's directory by a few percent) or
either lacks ``perfbench/run.py``; 1 when a run failed or a metric is worse
than its bound or unresolved; else 0. Nothing is written beyond what
``run.py`` writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"
GAIN_MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | str:
    """The result line of one ``run.py`` run, or why it failed: the last line
    of its stderr, or the timeout."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return "timed out after 900 s"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode == 0 and result.get("correct") is True:
        return result
    last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}, no stderr"]
    return last[0]


def summarize(parent: list[float], change: list[float], better: str, bound: float,
              pairs_run: int) -> dict:
    """Compare paired values of one metric: ``parent[i]`` and ``change[i]``
    come from completed pair i, of ``pairs_run`` pairs run."""
    q1, med, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    change_med = statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0   # > 0: the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    won = sum(g > 0 for g in gains)
    gap = sign * (med - change_med)
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > bound * abs(med) and not every_run_better:
        worse = "unresolved"
    else:
        worse = "yes" if -gap > bound * abs(med) else "no"
    if pairs_run < GAIN_MIN_PAIRS:
        gain = "n/a"
    else:
        gain = "yes" if won * 10 >= 9 * pairs_run and gap > q3 - q1 else "no"
    return {"median": med, "q1": q1, "q3": q3, "change_median": change_med,
            "won": won, "lost": sum(g < 0 for g in gains), "tied": gains.count(0.0),
            "worse": worse, "gain": gain}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"error: the checkout paths differ in length: {sides['parent']} and "
              f"{sides['change']}", file=sys.stderr)
        return 2
    lacking = [str(path) for path in sides.values() if not (path / RUN).is_file()]
    if lacking:
        print(f"error: no {RUN} in {', '.join(lacking)}", file=sys.stderr)
        return 2

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        pairs, failed = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            results = {side: run_once(sides[side], workload, seed, seconds) for side in order}
            failed += [f"{side} seed {seed}: {results[side]}"
                       for side in order if isinstance(results[side], str)]
            if all(isinstance(r, dict) for r in results.values()):
                pairs.append(results)
        print(f"\n{workload} ({len(pairs)} of {args.pairs} pairs, {seconds:g} s each)")
        if failed:
            ok = False
            print("  failed runs:\n" + "\n".join(f"    {f}" for f in failed))
        if not pairs:
            continue
        print(f"  {'metric':20} {'median':>10} {'q1':>10} {'q3':>10} {'change':>10} "
              f"{'won/lost/tied':>13}  {'worse>bound':>11}  gain")
        for m in spec["end_to_end"]:
            s = summarize([r["parent"]["metrics"][m["name"]]["value"] for r in pairs],
                          [r["change"]["metrics"][m["name"]]["value"] for r in pairs],
                          m["better"], m["bound"], args.pairs)
            ok &= s["worse"] == "no"
            tally = f"{s['won']}/{s['lost']}/{s['tied']}"
            print(f"  {m['name']:20} {s['median']:10.5g} {s['q1']:10.5g} {s['q3']:10.5g} "
                  f"{s['change_median']:10.5g} {tally:>13}  {s['worse']:>11}  {s['gain']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
