"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 0-9 [--trace 0|1] [--append LABEL]

Every workload of BENCHMARK.json runs once per seed for its ``run_seconds``.
Prints, per workload and metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. With
``--append LABEL`` the medians and quartiles are appended as one point to
``trajectory.jsonl``, the series later performance changes add to.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.jsonl"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


def host_figures(samples: dict) -> dict:
    """The figures a run prints with its facts and does not bound: the tail
    iteration percentiles, the calibration and the unscaled times."""
    flat = {k: v for k, v in samples.items() if k.startswith(("iter_ms_", "calibration_"))}
    flat.update({f"measured_{k}": v for k, v in samples.get("measured", {}).items()})
    return flat


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--append", metavar="LABEL", default=None)
    args = p.parse_args(argv)

    mode = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[mode]}
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    point = {"label": args.append, "date": datetime.date.today().isoformat(),
             "seeds": args.seeds, "seconds": seconds, "trace": args.trace,
             "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        facts = []
        for seed in seeds:
            f, result = run_once(workload, seed, seconds, args.trace)
            facts.append(f)
            if not result["correct"]:
                all_ok = False
                print(f"{workload} seed {seed}: correct=false "
                      f"({result['failed']}/{result['attempted']} failed)")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {}
        print(f"\n{workload} ({len(seeds)} seeds, {seconds} s each)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"  {name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name],
                             "values": vals}
        flat = [host_figures(f.get("samples", {})) for f in facts]
        host_bound = {k: statistics.median(f[k] for f in flat) for k in flat[0]}
        if host_bound:
            summary["host_bound_median"] = host_bound
            print("  host-bound figures (median): "
                  + ", ".join(f"{k} {v:.5g}" for k, v in host_bound.items()))
        overhead = [f["trace_overhead"]["iteration"] for f in facts if "trace_overhead" in f]
        if overhead:
            summary["trace_overhead_iteration"] = statistics.median(overhead)
            print(f"  tracing overhead per iteration (median): {summary['trace_overhead_iteration']:+.3%}")
        point["workloads"][workload] = summary
        point["machine"] = facts[0]["machine"]
    if args.append:
        with open(TRAJECTORY, "a") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
        print(f"\nappended '{args.append}' to {TRAJECTORY.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
