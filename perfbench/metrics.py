"""Statistics the benchmark reports: timing percentiles and run accuracy."""

from __future__ import annotations

import math
import statistics

#: A run whose global trajectory RMSE exceeds this has diverged (the
#: hyperbolic chain divergence threshold).
DIVERGED_RMSE_M = 0.5


def nearest_rank(values, fraction: float) -> float:
    """Smallest sample whose cumulative fraction reaches ``fraction``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample among ``n`` sorted samples.

    The tail is the highest percentile with at least ten samples beyond it:
    the sample with exactly ten above it.  Below 21 samples that sample
    would lie under the median, so the upper median is the tail instead.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(n - 10, n // 2 + 1)


def timing(samples) -> dict:
    """Median and tail of per-run times, with the tail's percentile and counts."""
    n = len(samples)
    rank = tail_rank(n)
    return {
        "p50": statistics.median(samples),
        "tail": sorted(samples)[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "tail_beyond": n - rank,
        "samples": n,
    }


def accuracy(records, clusters_per_run: int) -> dict:
    """Accuracy metrics over completed runs.

    Each record has ``global_rmse``, ``clusters`` (cluster id to mean beacon
    error, or ``"uncalibrated"``) and ``beacon_errors`` (every calibrated
    beacon's error).
    """
    if not records:
        raise ValueError("no completed runs")
    rmse = [r["global_rmse"] for r in records]
    per_cluster: dict = {}
    beacon_errors = []
    calibrated = 0
    for r in records:
        for cid, value in r["clusters"].items():
            if value != "uncalibrated":
                calibrated += 1
                per_cluster.setdefault(cid, []).append(value)
        beacon_errors.extend(r["beacon_errors"])
    return {
        "global_rmse_p50_m": statistics.median(rmse),
        "global_rmse_p90_m": nearest_rank(rmse, 0.90),
        "nondiverged_frac": sum(v <= DIVERGED_RMSE_M for v in rmse) / len(rmse),
        "worst_cluster_mean_m": max(statistics.fmean(v) for v in per_cluster.values()),
        "beacon_err_p95_m": nearest_rank(beacon_errors, 0.95),
        "calibrated_frac": calibrated / (len(records) * clusters_per_run),
    }
