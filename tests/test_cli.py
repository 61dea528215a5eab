import json
import pathlib

import pytest

import scansim.cli as cli
from scansim.cli import main, run_batch
from scansim.scenario import default_scenario

SCENARIO = str(pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml")


def run_cli(*args):
    return main(list(args))


def summary_without_runtime(path):
    data = json.loads(path.read_text())
    data.pop("runtime_s")
    return json.dumps(data, sort_keys=True)


class TestRunCommand:
    def test_produces_expected_files(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", SCENARIO, "--filter", "ekf", "--method", "analytical",
            "--seed", "5", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "calibration.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["per_cluster_mean_error"]) == {
            f"lr{k}" for k in range(1, 8)
        }
        assert summary["seed"] == 5
        assert summary["filter"] == "ekf"

    def test_repeat_run_identical_up_to_runtime(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", SCENARIO, "--seed", "9", "--out-dir", str(out)) == 0
        assert summary_without_runtime(a / "summary.json") == summary_without_runtime(
            b / "summary.json"
        )
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "calibration.json").read_bytes() == (b / "calibration.json").read_bytes()

    def test_missing_scenario_exits_2_without_partial_files(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", str(tmp_path / "nope.yaml"), "--out-dir", str(out))
        assert code == 2
        assert not out.exists()

    def test_mode_and_inverse_flags(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", SCENARIO, "--mode", "hyperbolic", "--inverse",
            "--seed", "3", "--out-dir", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "hyperbolic"
        assert summary["inverse"] is True

    def test_save_frames(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", SCENARIO, "--seed", "2", "--out-dir", str(out), "--save-frames"
        )
        assert code == 0
        assert (out / "frames.json").exists()

    @pytest.mark.parametrize("command", [["run"], ["montecarlo", "--runs", "1"]])
    def test_negative_seed_exits_2_without_output(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = run_cli(*command[:1], SCENARIO, *command[1:], "--seed", "-1", "--out-dir", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0], err
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("run", SCENARIO, "--filter", "bogus") == 1
        assert run_cli() == 1


class TestMonteCarloCommand:
    def test_single_run_aggregate_matches_run_summary(self, tmp_path):
        out = tmp_path / "mc"
        code = run_cli(
            "montecarlo", SCENARIO, "--runs", "1", "--seed", "21",
            "--out-dir", str(out),
        )
        assert code == 0
        aggregate = json.loads((out / "aggregate.json").read_text())
        single = json.loads((out / "run_21.json").read_text())
        assert aggregate["runs"] == 1 and aggregate["failed_runs"] == 0
        for cid, value in single["per_cluster_mean_error"].items():
            assert aggregate["per_cluster_mean"][cid] == pytest.approx(value)

    def test_cdf_ends_at_one(self, tmp_path):
        out = tmp_path / "mc"
        assert run_cli(
            "montecarlo", SCENARIO, "--runs", "2", "--seed", "30",
            "--out-dir", str(out),
        ) == 0
        lines = (out / "cdf.csv").read_text().splitlines()
        assert lines[0] == "error,cum_fraction"
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0)

    def test_invalid_runs_rejected(self, tmp_path):
        for command, flag, value in [
            ("montecarlo", "--runs", "0"),
            ("montecarlo", "--jobs", "0"),
            ("montecarlo", "--jobs", "-3"),
            ("sweep-dmin", "--runs", "0"),
            ("sweep-dmin", "--jobs", "0"),
            ("sweep-dmin", "--jobs", "-3"),
        ]:
            assert run_cli(
                command, SCENARIO, flag, value, "--out-dir", str(tmp_path / "x")
            ) == 2, (command, flag, value)

    def test_parallel_matches_serial(self):
        config = default_scenario(seed=40)
        serial, agg_serial = run_batch(config, 3, "ekf", "analytical", False, jobs=1)
        parallel, agg_parallel = run_batch(config, 3, "ekf", "analytical", False, jobs=2)
        assert [s.seed for s in serial] == [s.seed for s in parallel]
        for a, b in zip(serial, parallel):
            assert a.per_cluster_mean_error == b.per_cluster_mean_error
        assert agg_serial.per_cluster_mean == agg_parallel.per_cluster_mean


class TestSweepCommand:
    def test_zero_value_rejected(self, tmp_path):
        assert run_cli(
            "sweep-dmin", SCENARIO, "--values", "0.0,2.5", "--runs", "1",
            "--out-dir", str(tmp_path / "s"),
        ) == 2

    def test_non_numeric_value_rejected_before_any_batch(self, tmp_path, capsys, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch started")

        monkeypatch.setattr(cli, "run_batch", no_batch)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_batch)
        out = tmp_path / "s"
        assert run_cli(
            "sweep-dmin", SCENARIO, "--values", "abc", "--runs", "1",
            "--out-dir", str(out),
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "abc" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("values", ["inf", "nan", "2.5,-inf"])
    def test_non_finite_value_rejected_before_any_batch(
        self, tmp_path, capsys, monkeypatch, values
    ):
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch started")

        monkeypatch.setattr(cli, "run_batch", no_batch)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_batch)
        out = tmp_path / "s"
        assert run_cli(
            "sweep-dmin", SCENARIO, "--values", values, "--runs", "1",
            "--out-dir", str(out),
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0], err
        assert not out.exists()

    def test_single_value_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-dmin", SCENARIO, "--values", "2.5", "--runs", "1",
            "--seed", "50", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "aggregate_dmin_2.5.json").exists()
        lines = (out / "sweep_cdf.csv").read_text().splitlines()
        assert lines[0] == "d_min,error,cum_fraction"
        assert all(line.split(",")[0] == "2.5" for line in lines[1:])


class TestEnvironmentDefaults:
    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SCANSIM_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", SCENARIO, "--seed", "2") == 0
        assert (target / "summary.json").exists()
