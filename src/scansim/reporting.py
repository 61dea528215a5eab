"""Run summaries, error statistics, and plot-ready file output.

All CSV output uses a header row, '.' as the decimal separator regardless of
locale (plain ``repr`` of Python floats), and newline-terminated rows.  JSON
files use documented keys only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import inverse_transform_point
from .orchestrator import ScanResult
from .scenario import GLOBAL_FRAME, Pose, ScenarioConfig, local_frame
from .simulator import MeasurementFrame, true_transform


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF of error samples: sorted values and fractions (i+1)/n."""

    errors: tuple[float, ...]
    fractions: tuple[float, ...]


def compute_cdf(samples) -> CdfTable:
    """Empirical CDF over a nonempty sample list."""
    values = sorted(float(s) for s in samples)
    if not values:
        raise ValueError("cannot compute a CDF from an empty sample list")
    n = len(values)
    return CdfTable(
        errors=tuple(values),
        fractions=tuple((i + 1) / n for i in range(n)),
    )


def percentile_from_cdf(table: CdfTable, fraction: float) -> float:
    """Smallest error whose cumulative fraction reaches ``fraction``."""
    for err, frac in zip(table.errors, table.fractions):
        if frac >= fraction:
            return err
    return table.errors[-1]


@dataclass(frozen=True)
class RunSummary:
    """Scalar outcome of a single run."""

    seed: int
    filter_kind: str
    mode: str
    method: str
    inverse: bool
    per_cluster_mean_error: dict
    global_rmse: float
    runtime_s: float
    per_beacon_errors: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "filter": self.filter_kind,
            "mode": self.mode,
            "method": self.method,
            "inverse": self.inverse,
            "per_cluster_mean_error": self.per_cluster_mean_error,
            "global_rmse": self.global_rmse,
            "runtime_s": self.runtime_s,
        }


def summarize_run(
    result: ScanResult, config: ScenarioConfig, runtime_s: float
) -> RunSummary:
    per_cluster = {}
    per_beacon = {}
    for u in config.local_clusters:
        record = result.calibrations.get(u.id)
        if record is None:
            per_cluster[u.id] = "uncalibrated"
        else:
            per_cluster[u.id] = record.beacon_error
            per_beacon[u.id] = list(record.per_beacon_errors)
    return RunSummary(
        seed=config.seed,
        filter_kind=result.filter_kind,
        mode=result.mode.value,
        method=result.method,
        inverse=result.inverse_applied,
        per_cluster_mean_error=per_cluster,
        global_rmse=result.global_rmse,
        runtime_s=runtime_s,
        per_beacon_errors=per_beacon,
    )


@dataclass(frozen=True)
class BatchAggregate:
    """Statistics over a seeded batch of runs."""

    runs: int
    failed_runs: int
    failures: tuple
    per_cluster_mean: dict
    per_cluster_std: dict
    per_cluster_count: dict
    per_cluster_uncalibrated: dict
    all_beacon_errors: tuple
    mean_global_rmse: float

    def cdf(self) -> CdfTable:
        return compute_cdf(self.all_beacon_errors)

    def worst_cluster_mean(self) -> float:
        values = [v for v in self.per_cluster_mean.values() if v is not None]
        return max(values) if values else float("nan")

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "failed_runs": self.failed_runs,
            "failures": list(self.failures),
            "per_cluster_mean": self.per_cluster_mean,
            "per_cluster_std": self.per_cluster_std,
            "per_cluster_count": self.per_cluster_count,
            "per_cluster_uncalibrated": self.per_cluster_uncalibrated,
            "mean_global_rmse": self.mean_global_rmse,
        }


def aggregate_runs(summaries, failures, cluster_ids) -> BatchAggregate:
    """Combine per-run summaries; failed runs are excluded but counted."""
    per_values = {cid: [] for cid in cluster_ids}
    uncal = {cid: 0 for cid in cluster_ids}
    beacon_errors = []
    rmses = []
    for summary in summaries:
        rmses.append(summary.global_rmse)
        for cid in cluster_ids:
            value = summary.per_cluster_mean_error.get(cid, "uncalibrated")
            if value == "uncalibrated":
                uncal[cid] += 1
            else:
                per_values[cid].append(float(value))
        for errs in summary.per_beacon_errors.values():
            beacon_errors.extend(float(e) for e in errs)
    per_mean = {
        cid: (float(np.mean(vals)) if vals else None)
        for cid, vals in per_values.items()
    }
    per_std = {
        cid: (float(np.std(vals)) if vals else None)
        for cid, vals in per_values.items()
    }
    per_count = {cid: len(vals) for cid, vals in per_values.items()}
    return BatchAggregate(
        runs=len(summaries) + len(failures),
        failed_runs=len(failures),
        failures=tuple(failures),
        per_cluster_mean=per_mean,
        per_cluster_std=per_std,
        per_cluster_count=per_count,
        per_cluster_uncalibrated=uncal,
        all_beacon_errors=tuple(beacon_errors),
        mean_global_rmse=float(np.mean(rmses)) if rmses else float("nan"),
    )


# ---------------------------------------------------------------------------
# File writers
# ---------------------------------------------------------------------------

def _open_csv(path):
    return open(path, "w", newline="")


def write_trajectory_csv(
    path, result: ScanResult, frames: list[MeasurementFrame], config: ScenarioConfig
) -> None:
    """Estimated trajectories with ground truth, one row per (epoch, frame).

    Global rows carry the true pose directly; local rows carry the true pose
    expressed in that cluster's frame via its ground-truth placement.
    """
    truth = {f.epoch: f.true_pose for f in frames}
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["epoch", "frame", "x", "y", "theta", "truth_x", "truth_y", "truth_theta"]
        )
        for epoch, pose in result.global_trajectory:
            t = truth[epoch]
            writer.writerow(
                [epoch, GLOBAL_FRAME, pose.x, pose.y, pose.theta, t.x, t.y, t.theta]
            )
        for cid in sorted(result.local_trajectories):
            transform = true_transform(config.cluster(cid))
            frame_name = local_frame(cid)
            for epoch, pose in result.local_trajectories[cid]:
                t = Pose(
                    *inverse_transform_point(truth[epoch].as_array(), transform),
                    frame=frame_name,
                )
                writer.writerow(
                    [epoch, frame_name, pose.x, pose.y, pose.theta, t.x, t.y, t.theta]
                )


def _record_to_dict(record) -> dict:
    data = {
        "cluster_id": record.cluster_id,
        "method": record.method,
        "source": record.source,
        "transform": list(record.transform.as_array()),
        "implied_scale": record.implied_scale,
        "calibration_epoch": record.calibration_epoch,
        "beacons": [[b.x, b.y, b.z] for b in record.beacons],
        "beacon_error": record.beacon_error,
        "per_beacon_errors": list(record.per_beacon_errors),
    }
    if record.replaced_forward is not None:
        data["forward"] = _record_to_dict(record.replaced_forward)
    return data


def write_calibration_json(path, result: ScanResult) -> None:
    """Per-cluster calibration report."""
    payload = {
        "calibrations": [
            _record_to_dict(result.calibrations[cid])
            for cid in sorted(result.calibrations)
        ],
        "uncalibrated": list(result.uncalibrated),
        "warnings": list(result.warnings),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_summary_json(path, summary: RunSummary) -> None:
    Path(path).write_text(json.dumps(summary.to_dict(), indent=2) + "\n")


def write_aggregate_json(path, aggregate: BatchAggregate) -> None:
    Path(path).write_text(json.dumps(aggregate.to_dict(), indent=2) + "\n")


def write_aggregate_csv(path, aggregate: BatchAggregate) -> None:
    """Per-cluster mean/std/count table across a batch."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster_id", "mean_error", "std_error", "runs", "uncalibrated"])
        for cid in aggregate.per_cluster_mean:
            writer.writerow(
                [
                    cid,
                    aggregate.per_cluster_mean[cid],
                    aggregate.per_cluster_std[cid],
                    aggregate.per_cluster_count[cid],
                    aggregate.per_cluster_uncalibrated[cid],
                ]
            )


def write_cdf_csv(path, table: CdfTable) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["error", "cum_fraction"])
        for err, frac in zip(table.errors, table.fractions):
            writer.writerow([err, frac])


def write_sweep_cdf_csv(path, tables: dict) -> None:
    """Long-form CDF table for several parameter values, side by side."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["d_min", "error", "cum_fraction"])
        for value in sorted(tables):
            table = tables[value]
            for err, frac in zip(table.errors, table.fractions):
                writer.writerow([value, err, frac])
