"""Command-line experiment runner.

Subcommands: ``run``, ``sweep-noise``, ``sweep-annotators``, ``verify``.
Exit codes: 0 on success, 1 on any run failure, 2 on a config error.
The output directory (``--out``) and tracing (``--trace``) are flags, not
config keys, so neither changes a record's ``config_hash``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import METHOD_OURS, ConfigError, parse_config
from .experiment import (ExperimentError, ResultRecord, annotator_sweep_variants,
                         emit, emit_summary, noise_sweep_variants, run_variants)


def _write_outputs(records: list[ResultRecord], out_dir: Path,
                   summary_name: str | None = None) -> bool:
    """Write the record files (and the sweep summary); False, with a
    ``run failure:`` line, if a file cannot be written."""
    try:
        emit(records, out_dir / "results.csv", fmt="csv")
        emit(records, out_dir / "results.jsonl", fmt="jsonl")
        if summary_name:
            emit_summary(records, out_dir / summary_name)
    except OSError as err:
        print(f"run failure: {err}", file=sys.stderr)
        return False
    print(f"wrote {len(records)} records to {out_dir}")
    return True


def _trace_sink(out_dir: Path):
    def sink(record: ResultRecord, rows: list[dict]) -> None:
        tdir = out_dir / "traces"
        tdir.mkdir(parents=True, exist_ok=True)
        tag = record.tag.replace("=", "-") if record.tag else "run"
        name = f"{tag}_{record.method.replace(':', '-')}_seed{record.seed}.jsonl"
        with open(tdir / name, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    return sink


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="labelattn",
                                     description="attention-over-label-sets experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for the seed runs (default 1)")
    common.add_argument("--trace", action="store_true", help="write the ours runs' traces")
    common.add_argument("--out", default="results", help="output directory (default results)")

    sub.add_parser("run", parents=[common],
                   help="run one configured experiment over its seeds")
    p_noise = sub.add_parser("sweep-noise", parents=[common], help="noise-level sweep")
    p_noise.add_argument("--levels", required=True,
                         help="comma-separated noise levels, e.g. 0.1,0.3,0.5")
    p_ann = sub.add_parser("sweep-annotators", parents=[common], help="annotator-count sweep")
    p_ann.add_argument("--noise", type=float, default=0.3,
                       help="noise level for the adjustable annotators")

    p_verify = sub.add_parser("verify", help="run the numeric oracle suites")
    p_verify.add_argument("--trials", type=_positive_int, default=1000)

    args = parser.parse_args(argv)

    if args.command == "verify":
        from .verification import run_verification
        return 0 if run_verification(trials=args.trials) else 1

    try:  # a ConfigError is a ValueError, as are bad sweep levels
        cfg = parse_config(args.config)
        if not args.out or "\0" in args.out:
            raise ConfigError(f"--out must be a nonempty directory path string with no NUL "
                              f"byte, got {args.out!r}")
        out_dir = Path(args.out)
        if args.command == "run":
            if args.trace and cfg.method.name != METHOD_OURS:
                raise ConfigError(f"--trace applies only to 'ours', not to {cfg.method.name!r}")
            variants, summary = [(cfg, "")], None
        elif args.command == "sweep-noise":
            levels = [float(v) for v in args.levels.split(",") if v.strip()]
            variants, summary = noise_sweep_variants(cfg, levels), "plot_noise.csv"
        else:
            variants, summary = annotator_sweep_variants(cfg, args.noise), "plot_annotators.csv"
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:  # before the first run, so that an unusable directory costs no training
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: cannot write results to {out_dir}: {err}", file=sys.stderr)
        return 2

    try:
        records = run_variants(variants, args.jobs,
                               _trace_sink(out_dir) if args.trace else None)
    except ExperimentError as err:
        print(f"run failure: {err}", file=sys.stderr)
        if err.completed and _write_outputs(err.completed, out_dir):
            print(f"preserved {len(err.completed)} completed records", file=sys.stderr)
        return 1

    return 0 if _write_outputs(records, out_dir, summary) else 1


if __name__ == "__main__":
    sys.exit(main())
