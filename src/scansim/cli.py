"""Command-line harness: single runs, seeded batches, and d_min sweeps.

Exit codes: 0 success, 1 usage error, 2 pipeline error.  Output files land in
--out-dir (default: $SCANSIM_OUT_DIR or ./scansim-out).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .errors import ScanError
from .filters import FILTER_KINDS
from .orchestrator import METHODS, run_scan
from .reporting import (
    BatchAggregate,
    RunSummary,
    aggregate_runs,
    summarize_run,
    write_aggregate_csv,
    write_aggregate_json,
    write_calibration_json,
    write_cdf_csv,
    write_summary_json,
    write_sweep_cdf_csv,
    write_trajectory_csv,
)
from .scenario import Mode, ScenarioConfig, load_scenario
from .simulator import save_frames, simulate

USAGE_EXIT = 1
PIPELINE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse uses exit code 2; we reserve that
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _default_out_dir() -> str:
    return os.environ.get("SCANSIM_OUT_DIR", "scansim-out")


def _add_common(parser):
    parser.add_argument("scenario", help="path to a YAML scenario file")
    parser.add_argument("--filter", choices=FILTER_KINDS, default="ekf")
    parser.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=None,
        help="override the scenario's positioning mode",
    )
    parser.add_argument("--method", choices=METHODS, default="analytical")
    parser.add_argument("--inverse", action="store_true",
                        help="apply the reverse-replay correction pass")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's seed")
    parser.add_argument("--out-dir", default=_default_out_dir())


def _load_config(args) -> ScenarioConfig:
    config = load_scenario(args.scenario)
    if args.mode is not None:
        config = replace(config, mode=Mode(args.mode))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _execute_single(config: ScenarioConfig, filter_kind, method, inverse):
    started = time.perf_counter()
    frames = simulate(config)
    result = run_scan(frames, config, filter_kind, method, inverse=inverse)
    runtime = time.perf_counter() - started
    summary = summarize_run(result, config, runtime)
    return frames, result, summary


def _batch_worker(task):
    config, seed, filter_kind, method, inverse = task
    run_config = replace(config, seed=seed)
    try:
        _, _, summary = _execute_single(run_config, filter_kind, method, inverse)
        return seed, summary, None
    except ScanError as exc:
        return seed, None, f"seed {seed}: {exc}"


def run_batch(
    config: ScenarioConfig,
    runs: int,
    filter_kind: str,
    method: str,
    inverse: bool,
    jobs: int = 1,
) -> tuple[list[RunSummary], BatchAggregate]:
    """Seeded batch: run i uses seed config.seed + i.  Failures are counted."""
    tasks = [
        (config, config.seed + i, filter_kind, method, inverse) for i in range(runs)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_batch_worker, tasks))
    else:
        outcomes = [_batch_worker(t) for t in tasks]
    summaries = [s for _, s, _ in outcomes if s is not None]
    failures = [msg for _, _, msg in outcomes if msg is not None]
    cluster_ids = [u.id for u in config.local_clusters]
    return summaries, aggregate_runs(summaries, failures, cluster_ids)


def _cmd_run(args) -> int:
    config = _load_config(args)
    frames, result, summary = _execute_single(
        config, args.filter, args.method, args.inverse
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", result, frames, config)
    write_calibration_json(out / "calibration.json", result)
    write_summary_json(out / "summary.json", summary)
    if args.save_frames:
        save_frames(frames, out / "frames.json")
    print(f"run complete: {len(result.calibrations)} clusters calibrated, "
          f"global RMSE {result.global_rmse:.4f} m -> {out}")
    return 0


def _check_batch_args(args) -> None:
    if args.runs < 1:
        raise ScanError("--runs must be >= 1")
    if args.jobs < 1:
        raise ScanError("--jobs must be >= 1")


def _cmd_montecarlo(args) -> int:
    _check_batch_args(args)
    config = _load_config(args)
    summaries, aggregate = run_batch(
        config, args.runs, args.filter, args.method, args.inverse, args.jobs
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_aggregate_json(out / "aggregate.json", aggregate)
    write_aggregate_csv(out / "aggregate.csv", aggregate)
    if aggregate.all_beacon_errors:
        write_cdf_csv(out / "cdf.csv", aggregate.cdf())
    for summary in summaries:
        write_summary_json(out / f"run_{summary.seed}.json", summary)
    print(f"batch complete: {len(summaries)}/{args.runs} runs ok, "
          f"worst cluster mean {aggregate.worst_cluster_mean():.4f} m -> {out}")
    return 0


def _cmd_sweep_dmin(args) -> int:
    _check_batch_args(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ScanError(f"--values must list numbers: {exc}") from exc
    if not values:
        raise ScanError("--values must list at least one d_min")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ScanError(f"every d_min value must be finite and > 0, got {args.values}")
    config = _load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {}
    for value in values:
        swept = replace(config, d_min=value)
        _, aggregate = run_batch(
            swept, args.runs, args.filter, args.method, args.inverse, args.jobs
        )
        write_aggregate_json(out / f"aggregate_dmin_{value:g}.json", aggregate)
        if aggregate.all_beacon_errors:
            tables[value] = aggregate.cdf()
    write_sweep_cdf_csv(out / "sweep_cdf.csv", tables)
    print(f"sweep complete: {len(values)} d_min values x {args.runs} runs -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scansim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single simulation run")
    _add_common(run)
    run.add_argument("--save-frames", action="store_true",
                     help="also write the per-epoch measurement log")
    run.set_defaults(func=_cmd_run)

    mc = sub.add_parser("montecarlo", help="seeded batch of runs")
    _add_common(mc)
    mc.add_argument("--runs", type=int, default=100)
    mc.add_argument("--jobs", type=int, default=1, help="worker processes")
    mc.set_defaults(func=_cmd_montecarlo)

    sweep = sub.add_parser("sweep-dmin", help="one batch per d_min value")
    _add_common(sweep)
    sweep.add_argument("--values", default="0.5,1.5,2.5,5.0",
                       help="comma-separated d_min values")
    sweep.add_argument("--runs", type=int, default=100)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.set_defaults(func=_cmd_sweep_dmin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.func(args)
    except ScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PIPELINE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PIPELINE_EXIT


if __name__ == "__main__":
    sys.exit(main())
