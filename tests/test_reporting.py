import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scansim.orchestrator import run_scan
from scansim.reporting import (
    aggregate_runs,
    compute_cdf,
    percentile_from_cdf,
    summarize_run,
    write_calibration_json,
    write_trajectory_csv,
)
from scansim.simulator import simulate


class TestComputeCdf:
    def test_quartile_example(self):
        table = compute_cdf([0.1, 0.2, 0.3, 0.4])
        by_error = dict(zip(table.errors, table.fractions))
        assert by_error[0.3] == pytest.approx(0.75)

    def test_all_equal_single_step(self):
        table = compute_cdf([0.2, 0.2, 0.2])
        assert table.errors == (0.2, 0.2, 0.2)
        assert table.fractions[-1] == 1.0

    def test_order_invariance(self):
        a = compute_cdf([0.5, 0.1, 0.9, 0.3])
        b = compute_cdf([0.9, 0.3, 0.5, 0.1])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_cdf([])

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_fractions_nondecreasing_and_end_at_one(self, samples):
        table = compute_cdf(samples)
        assert list(table.fractions) == sorted(table.fractions)
        assert table.fractions[-1] == pytest.approx(1.0)
        assert list(table.errors) == sorted(table.errors)

    def test_percentile_lookup(self):
        table = compute_cdf([0.1, 0.2, 0.3, 0.4])
        assert percentile_from_cdf(table, 0.95) == 0.4
        assert percentile_from_cdf(table, 0.5) == 0.2


class TestAggregation:
    def _summary(self, seed, errors, rmse=0.1):
        from scansim.reporting import RunSummary

        return RunSummary(
            seed=seed,
            filter_kind="ekf",
            mode="spherical",
            method="analytical",
            inverse=False,
            per_cluster_mean_error=errors,
            global_rmse=rmse,
            runtime_s=0.0,
            per_beacon_errors={
                cid: [v] * 4 for cid, v in errors.items() if v != "uncalibrated"
            },
        )

    def test_aggregate_mean_equals_mean_of_runs(self):
        summaries = [
            self._summary(1, {"lr1": 0.1, "lr2": 0.3}),
            self._summary(2, {"lr1": 0.2, "lr2": 0.5}),
        ]
        agg = aggregate_runs(summaries, [], ["lr1", "lr2"])
        assert agg.per_cluster_mean["lr1"] == pytest.approx(np.mean([0.1, 0.2]))
        assert agg.per_cluster_mean["lr2"] == pytest.approx(np.mean([0.3, 0.5]))
        assert agg.worst_cluster_mean() == pytest.approx(0.4)

    def test_uncalibrated_counted_not_averaged(self):
        summaries = [
            self._summary(1, {"lr1": 0.1}),
            self._summary(2, {"lr1": "uncalibrated"}),
        ]
        agg = aggregate_runs(summaries, [], ["lr1"])
        assert agg.per_cluster_mean["lr1"] == pytest.approx(0.1)
        assert agg.per_cluster_uncalibrated["lr1"] == 1
        assert agg.per_cluster_count["lr1"] == 1

    def test_failed_runs_recorded(self):
        agg = aggregate_runs(
            [self._summary(1, {"lr1": 0.1})], ["seed 2: boom"], ["lr1"]
        )
        assert agg.runs == 2
        assert agg.failed_runs == 1
        assert agg.failures == ("seed 2: boom",)


@pytest.fixture(scope="module")
def run():
    from scansim.scenario import default_scenario

    config = default_scenario(seed=11)
    frames = simulate(config)
    result = run_scan(frames, config, "ekf", "analytical", inverse=True)
    return config, frames, result


class TestRunArtifacts:
    def test_summary_keys_every_local_cluster(self, run):
        config, frames, result = run
        summary = summarize_run(result, config, runtime_s=0.5)
        assert summary.seed == 11
        assert set(summary.per_cluster_mean_error) == {f"lr{k}" for k in range(1, 8)}

    def test_trajectory_csv_schema(self, run, tmp_path):
        config, frames, result = run
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, result, frames, config)
        text = path.read_text()
        assert text.endswith("\n")
        assert "," in text and ";" not in text.splitlines()[0]
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == [
            "epoch", "frame", "x", "y", "theta",
            "truth_x", "truth_y", "truth_theta",
        ]
        global_rows = [r for r in rows[1:] if r[1] == "global"]
        assert len(global_rows) == len(result.global_trajectory)
        # numbers parse with '.' decimal separator and truth matches the frame
        epoch = int(global_rows[10][0])
        truth = {f.epoch: f.true_pose for f in frames}[epoch]
        assert float(global_rows[10][5]) == pytest.approx(truth.x)

    def test_local_truth_expressed_in_local_frame(self, run, tmp_path):
        config, frames, result = run
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, result, frames, config)
        rows = list(csv.reader(path.read_text().splitlines()))
        lr1_rows = [r for r in rows[1:] if r[1] == "local:lr1"]
        # lr1's frame is its true placement; estimates track local truth
        errs = [
            math.hypot(float(r[2]) - float(r[5]), float(r[3]) - float(r[6]))
            for r in lr1_rows
        ]
        assert np.median(errs) < 0.2

    def test_calibration_json_schema(self, run, tmp_path):
        _, _, result = run
        path = tmp_path / "calibration.json"
        write_calibration_json(path, result)
        payload = json.loads(path.read_text())
        assert set(payload) == {"calibrations", "uncalibrated", "warnings"}
        record = payload["calibrations"][0]
        for key in (
            "cluster_id", "method", "source", "transform", "implied_scale",
            "calibration_epoch", "beacons", "beacon_error", "per_beacon_errors",
        ):
            assert key in record
        inverse_records = [r for r in payload["calibrations"] if r["source"] == "inverse"]
        assert inverse_records and all("forward" in r for r in inverse_records)
