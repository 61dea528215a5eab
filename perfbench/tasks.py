"""Units of work the benchmark hands to scansim, and the records they return.

Used both by the gate and accuracy-panel worker pool of ``run.py`` and by the
load process ``load.py``.  scansim is imported inside the functions, so that
importing this module stays cheap.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

#: What the ``scansim`` console script runs.
CONSOLE = "import sys; from scansim.cli import main; sys.exit(main())"

#: Output files of ``scansim run --save-frames``.
RUN_OUTPUTS = ("trajectory.csv", "calibration.json", "summary.json", "frames.json")

#: Zero-noise tolerances on the worst beacon error (criterion 1).
ZERO_NOISE_TOL = {"analytical": 1e-6, "numerical": 1e-4}
ZERO_NOISE_RMSE = 1e-4


def summary_record(summary) -> dict:
    """Comparable record of a ``RunSummary``; ``runtime_s`` is kept apart."""
    data = summary.to_dict()
    runtime = data.pop("runtime_s")
    data["per_beacon_errors"] = summary.per_beacon_errors
    return {"summary": data, "runtime_s": runtime}


def cli_record(out_dir: Path) -> dict:
    """The same record, read from the files ``scansim run`` wrote."""
    data = json.loads((out_dir / "summary.json").read_text())
    runtime = data.pop("runtime_s")
    calibration = json.loads((out_dir / "calibration.json").read_text())
    data["per_beacon_errors"] = {
        c["cluster_id"]: c["per_beacon_errors"] for c in calibration["calibrations"]
    }
    return {"summary": data, "runtime_s": runtime}


def accuracy_input(summary: dict) -> dict:
    """What ``metrics.accuracy`` reads from one run's summary."""
    return {
        "global_rmse": summary["global_rmse"],
        "clusters": summary["per_cluster_mean_error"],
        "beacon_errors": [e for errs in summary["per_beacon_errors"].values() for e in errs],
    }


def check_summary(summary: dict, run, cluster_ids) -> str | None:
    """Why a run's summary is wrong for ``run``, or None if it is sound."""
    expected = {
        "seed": run.seed,
        "filter": run.filter_kind,
        "mode": run.mode,
        "method": run.method,
        "inverse": True,
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            return f"seed {run.seed}: {key} is {summary.get(key)!r}, expected {value!r}"
    if not math.isfinite(summary["global_rmse"]):
        return f"seed {run.seed}: global RMSE is {summary['global_rmse']}"
    if sorted(summary["per_cluster_mean_error"]) != sorted(cluster_ids):
        return f"seed {run.seed}: clusters {sorted(summary['per_cluster_mean_error'])}"
    for cid, value in summary["per_cluster_mean_error"].items():
        if value == "uncalibrated":
            if cid in summary["per_beacon_errors"]:
                return f"seed {run.seed}: uncalibrated {cid} has beacon errors"
            continue
        errors = summary["per_beacon_errors"].get(cid, [])
        if not errors or not all(math.isfinite(e) and e >= 0 for e in errors):
            return f"seed {run.seed}: bad beacon errors for {cid}"
        if abs(sum(errors) / len(errors) - value) > 1e-9 * max(1.0, value):
            return f"seed {run.seed}: {cid} mean error does not match its beacons"
    return None


def zero_noise_check(filter_kind: str, mode: str, method: str) -> str | None:
    """Criterion 1 for one combination; the failure text, or None."""
    from scansim.orchestrator import run_scan
    from scansim.scenario import NoiseParams, default_scenario
    from scansim.simulator import simulate

    config = default_scenario(mode=mode, noise=NoiseParams(0.0, 0.0, 0.0))
    try:
        result = run_scan(simulate(config), config, filter_kind, method)
    except Exception as exc:  # any crash is a gate miss, reported as such
        return f"zero noise {filter_kind}/{mode}/{method}: {type(exc).__name__}: {exc}"
    worst = max((r.beacon_error for r in result.calibrations.values()), default=math.inf)
    problems = []
    if not result.global_rmse <= ZERO_NOISE_RMSE:
        problems.append(f"global RMSE {result.global_rmse:.3g} m")
    if len(result.calibrations) != len(config.local_clusters):
        problems.append(f"{len(result.calibrations)} clusters calibrated")
    if not worst <= ZERO_NOISE_TOL[method]:
        problems.append(f"worst beacon error {worst:.3g} m")
    if problems:
        return f"zero noise {filter_kind}/{mode}/{method}: " + ", ".join(problems)
    return None


def batch(scenario_path: str, first_seed: int, runs: int, filter_kind: str,
          method: str, jobs: int) -> dict:
    """One ``run_batch`` call; the batch record ``load.py`` and the panel use."""
    import scansim.cli as cli
    from scansim.scenario import load_scenario

    config = load_scenario(scenario_path)
    return run_batch(cli, replace(config, seed=first_seed), runs, filter_kind, method, jobs)


def run_batch(cli, config, runs: int, filter_kind: str, method: str, jobs: int) -> dict:
    """Call ``cli.run_batch`` (looked up now, so a traced one is used) and account.

    A batch that an exception other than ``ScanError`` aborts counts all of
    its runs as failed and records the exception type; a run that is neither
    summarised nor reported failed is counted failed as well.
    """
    started = time.perf_counter()
    try:
        summaries, aggregate = cli.run_batch(config, runs, filter_kind, method, True, jobs)
    except Exception as exc:  # a crash must show as failed runs, not vanish
        return {
            "wall_s": time.perf_counter() - started,
            "runs": runs,
            "failed": runs,
            "errors": [f"{type(exc).__name__}: {exc}"],
            "records": [],
        }
    wall = time.perf_counter() - started
    records = [summary_record(s) for s in summaries]
    errors = list(aggregate.failures)
    missing = runs - len(records) - aggregate.failed_runs
    if missing:
        errors.append(f"{missing} runs neither summarised nor reported failed")
    return {
        "wall_s": wall,
        "runs": runs,
        "failed": runs - len(records),
        "errors": errors,
        "records": records,
    }


def cli_argv(scenario_path: str, run, out_dir: Path) -> list[str]:
    return [
        "run", str(scenario_path),
        "--filter", run.filter_kind,
        "--mode", run.mode,
        "--method", run.method,
        "--inverse",
        "--seed", str(run.seed),
        "--save-frames",
        "--out-dir", str(out_dir),
    ]


def output_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size for name in RUN_OUTPUTS)


def cli_in_process(scenario_path: str, run, out_dir: str) -> dict:
    """``scansim.cli.main`` in this process (looked up now); outputs removed after."""
    import scansim.cli as cli

    out = Path(out_dir)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_argv(scenario_path, run, out))
    except Exception as exc:  # a crash must show as a failed run, not vanish
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_s": time.perf_counter() - started, "runs": 1, "failed": 1,
                "errors": [f"{type(exc).__name__}: {exc}"], "records": []}
    wall = time.perf_counter() - started
    return finish_cli_run(out, code, wall, "")


def cli_process(scenario_path: str, run, out_dir: str, env: dict) -> dict:
    """One fresh ``scansim run`` process, timed from launch to exit."""
    out = Path(out_dir)
    argv = [sys.executable, "-c", CONSOLE] + cli_argv(scenario_path, run, out)
    started = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=150)
    wall = time.perf_counter() - started
    return finish_cli_run(out, proc.returncode, wall, proc.stderr)


def finish_cli_run(out: Path, code: int, wall: float, stderr: str) -> dict:
    try:
        if code != 0:
            return {"wall_s": wall, "runs": 1, "failed": 1,
                    "errors": [f"exit {code}: {stderr.strip()[-300:]}"], "records": []}
        try:
            record = cli_record(out)
            record["bytes"] = output_bytes(out)
        except (OSError, ValueError, KeyError) as exc:
            return {"wall_s": wall, "runs": 1, "failed": 1,
                    "errors": [f"unreadable output: {type(exc).__name__}: {exc}"],
                    "records": []}
        record["wall_s"] = wall
        return {"wall_s": wall, "runs": 1, "failed": 0, "errors": [], "records": [record]}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env
