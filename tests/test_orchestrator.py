import math
from dataclasses import replace

import numpy as np
import pytest

import scansim.orchestrator as orchestrator
from scansim.filters import FILTER_KINDS
from scansim.orchestrator import inverse_trajectory_pass, merge_inverse_result, run_scan
from scansim.scenario import (
    Mode,
    NoiseParams,
    Pose,
    ScenarioConfig,
    UlpsDescriptor,
    UlpsKind,
    default_scenario,
    in_coverage,
    make_square_cluster,
)
from scansim.simulator import simulate


def run_default(mode=Mode.SPHERICAL, noise=None, seed=1, **kwargs):
    config = default_scenario(mode=mode, seed=seed, noise=noise)
    frames = simulate(config)
    return config, frames, run_scan(frames, config, **kwargs)


class TestZeroNoiseEndToEnd:
    def test_all_clusters_exact(self, quiet_config):
        frames = simulate(quiet_config)
        result = run_scan(frames, quiet_config, "ekf", "analytical")
        assert result.uncalibrated == ()
        assert result.global_rmse <= 1e-6
        for record in result.calibrations.values():
            assert record.beacon_error <= 1e-9
            assert record.implied_scale == pytest.approx(1.0, abs=1e-9)

    def test_calibration_epochs_follow_path_order(self, quiet_config):
        frames = simulate(quiet_config)
        result = run_scan(frames, quiet_config, "ekf", "analytical")
        epochs = [result.calibrations[f"lr{k}"].calibration_epoch for k in range(1, 8)]
        assert epochs == sorted(epochs)
        assert (
            result.calibrations["lr2"].calibration_epoch
            > result.calibrations["lr1"].calibration_epoch
        )

    def test_trajectory_has_one_entry_per_epoch_after_bootstrap(self, quiet_config):
        frames = simulate(quiet_config)
        result = run_scan(frames, quiet_config, "ekf", "analytical")
        epochs = [epoch for epoch, _ in result.global_trajectory]
        assert epochs == list(range(epochs[0], len(frames)))
        assert epochs[0] <= 5  # bootstrap completes within the first few epochs


class TestDeterminism:
    def test_identical_inputs_identical_results(self, default_config):
        frames = simulate(default_config)
        a = run_scan(frames, default_config, "ekf", "analytical", inverse=True)
        b = run_scan(frames, default_config, "ekf", "analytical", inverse=True)
        assert [(e, p.x, p.y, p.theta) for e, p in a.global_trajectory] == [
            (e, p.x, p.y, p.theta) for e, p in b.global_trajectory
        ]
        for cid in a.calibrations:
            assert (
                a.calibrations[cid].transform.as_array().tolist()
                == b.calibrations[cid].transform.as_array().tolist()
            )
        assert a.global_rmse == b.global_rmse


class TestChainingAndPromotion:
    def test_chain_uses_promoted_clusters(self, quiet_config):
        # lr2's common window is only anchored by gr1 up to x=5; calibrating
        # it at all requires lr1 to have been promoted and used as an anchor
        frames = simulate(quiet_config)
        result = run_scan(frames, quiet_config, "ekf", "analytical")
        lr1_epoch = result.calibrations["lr1"].calibration_epoch
        lr2_epoch = result.calibrations["lr2"].calibration_epoch
        assert "lr2" in result.calibrations
        assert lr2_epoch > lr1_epoch

    def test_unreachable_cluster_reported(self, zero_noise):
        # a cluster whose coverage never overlaps an anchored region stays
        # uncalibrated and is reported
        far = UlpsDescriptor(
            "lr_far",
            UlpsKind.LOCALLY_REFERENCED,
            tuple(make_square_cluster((0, 0), 1.0, 3.5)),
            (60.0, 0.0),
            5.0,
        )
        config = default_scenario(noise=zero_noise)
        config = replace(
            config,
            ulps=config.ulps + (far,),
            waypoints=((-2.5, 0.0), (26.5, 0.0), (57.0, 0.0)),
        )
        frames = simulate(config)
        result = run_scan(frames, config, "ekf", "analytical")
        assert "lr_far" in result.uncalibrated
        assert any("lr_far" in w for w in result.warnings)

    def test_log_persists_across_coverage_reentry(self, zero_noise):
        # the robot dips into the local cluster's coverage, backs out, and
        # re-enters; the first exit cannot satisfy d_min so the log must
        # persist and accumulation resume
        lr = UlpsDescriptor(
            "lr",
            UlpsKind.LOCALLY_REFERENCED,
            tuple(make_square_cluster((0, 0), 1.0, 3.5)),
            (6.0, 0.0),
            5.0,
        )
        gr = UlpsDescriptor(
            "gr",
            UlpsKind.GLOBALLY_REFERENCED,
            tuple(make_square_cluster((0, 0), 1.0, 3.5, include_center=True)),
            (0.0, 0.0),
            5.0,
        )
        config = ScenarioConfig(
            ulps=(gr, lr),
            waypoints=((-2.0, 0.0), (1.6, 0.0), (-1.0, 0.0), (4.5, 0.0)),
            speed=0.1,
            z_mr=0.5,
            noise=zero_noise,
            mode=Mode.SPHERICAL,
            d_min=1.0,
            seed=3,
        )
        frames = simulate(config)
        result = run_scan(frames, config, "ekf", "analytical")
        assert "lr" in result.calibrations
        assert result.calibrations["lr"].beacon_error <= 1e-9

    def test_error_reset_near_second_anchor(self):
        # drift accumulates along the chain and resets once the far anchor's
        # known beacons take over
        config, frames, result = run_default(noise=NoiseParams(), seed=7)
        truth = {f.epoch: f.true_pose for f in frames}
        gr2 = config.cluster("gr2")
        inside, middle = [], []
        for epoch, pose in result.global_trajectory:
            err = float(np.hypot(*(pose.xy - truth[epoch].xy)))
            if in_coverage(truth[epoch].xy, gr2):
                inside.append(err)
            elif truth[epoch].x > 5.0:
                middle.append(err)
        assert np.mean(inside) < np.max(middle)


class TestInversePass:
    def test_count_zero_is_identity(self, default_config):
        config = replace(default_config, inverse_correct_count=0)
        frames = simulate(config)
        forward = run_scan(frames, config, "ekf", "analytical")
        merged = run_scan(frames, config, "ekf", "analytical", inverse=True)
        for cid in forward.calibrations:
            assert (
                merged.calibrations[cid].transform.as_array().tolist()
                == forward.calibrations[cid].transform.as_array().tolist()
            )
            assert merged.calibrations[cid].source == "forward"

    def test_zero_noise_inverse_matches_forward(self, quiet_config):
        frames = simulate(quiet_config)
        forward = run_scan(frames, quiet_config, "ekf", "analytical")
        merged = run_scan(frames, quiet_config, "ekf", "analytical", inverse=True)
        assert merged.inverse_applied
        for cid, record in merged.calibrations.items():
            fwd = forward.calibrations[cid]
            for a, b in zip(record.beacons, fwd.beacons):
                assert math.hypot(a.x - b.x, a.y - b.y) <= 1e-9

    def test_last_three_replaced_and_forward_retained(self, default_config):
        frames = simulate(default_config)
        merged = run_scan(frames, default_config, "ekf", "analytical", inverse=True)
        forward_epochs = {
            cid: rec.calibration_epoch
            if rec.source == "forward"
            else rec.replaced_forward.calibration_epoch
            for cid, rec in merged.calibrations.items()
        }
        last_three = sorted(forward_epochs, key=forward_epochs.get)[-3:]
        for cid, rec in merged.calibrations.items():
            if cid in last_three:
                assert rec.source == "inverse"
                assert rec.replaced_forward is not None
                assert rec.replaced_forward.source == "forward"
            else:
                assert rec.source == "forward"

    def test_records_carry_the_forward_method(self, default_config):
        frames = simulate(default_config)
        forward = run_scan(frames, default_config, "ukf", "numerical")
        merged = inverse_trajectory_pass(frames, forward, default_config)
        assert merged.inverse_applied
        assert (merged.filter_kind, merged.method) == ("ukf", "numerical")
        records = list(merged.calibrations.values())
        records += [rec.replaced_forward for rec in records if rec.replaced_forward]
        assert any(rec.source == "inverse" for rec in records)
        assert all(rec.method == merged.method for rec in records)

    def test_mode_mismatch_rejected(self, quiet_config):
        frames = simulate(quiet_config)
        forward = run_scan(frames, quiet_config, "ekf", "analytical")
        hyperbolic = replace(quiet_config, mode=Mode.HYPERBOLIC)
        with pytest.raises(ValueError, match="spherical"):
            inverse_trajectory_pass(frames, forward, hyperbolic)

    def test_one_binding_per_run(self, default_config, monkeypatch):
        binds = []
        bind = orchestrator._RunParams.bind
        monkeypatch.setattr(
            orchestrator._RunParams, "bind",
            classmethod(lambda cls, *args: binds.append(args) or bind(*args)),
        )
        frames = simulate(default_config)
        merged = run_scan(frames, default_config, "ekf", "analytical", inverse=True)
        assert merged.inverse_applied
        assert binds == [(default_config, "ekf", "analytical")]
        # a direct call has no forward binding to take over and binds its own
        forward = run_scan(frames, default_config, "ekf", "analytical")
        direct = inverse_trajectory_pass(frames, forward, default_config)
        assert len(binds) == 3
        assert direct.calibrations == merged.calibrations

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_run_writes_into_neither_bound_covariance(self, default_config, monkeypatch, kind):
        # every lane holds the binding's P0 from its bootstrap on, and every
        # step of both passes gets its Q
        bound = []
        bind = orchestrator._RunParams.bind
        monkeypatch.setattr(
            orchestrator._RunParams, "bind",
            classmethod(lambda cls, *args: bound.append(bind(*args)) or bound[-1]),
        )
        frames = simulate(default_config)
        assert run_scan(frames, default_config, kind, "analytical", inverse=True).inverse_applied
        (params,) = bound
        fresh = bind(default_config, kind, "analytical")
        assert params.P0.tobytes() == fresh.P0.tobytes()
        assert params.Q.tobytes() == fresh.Q.tobytes()

    def test_skipped_when_not_ending_in_global_coverage(self, zero_noise):
        config = default_scenario(noise=zero_noise)
        config = replace(config, waypoints=((-2.5, 0.0), (17.0, 0.0)))
        frames = simulate(config)
        with pytest.warns(UserWarning, match="inverse trajectory pass skipped"):
            result = run_scan(frames, config, "ekf", "analytical", inverse=True)
        assert not result.inverse_applied

    def test_merge_keeps_forward_when_reverse_missing(self, quiet_config):
        frames = simulate(quiet_config)
        forward = run_scan(frames, quiet_config, "ekf", "analytical")
        stripped = replace(
            forward,
            calibrations={
                cid: rec for cid, rec in forward.calibrations.items() if cid != "lr7"
            },
        )
        merged = merge_inverse_result(forward, stripped, count=3)
        assert merged.calibrations["lr7"].source == "forward"
        assert any("lr7" in w for w in merged.warnings)


class TestFlow:
    def test_local_filters_spawn_only_inside_coverage(self, quiet_config):
        frames = simulate(quiet_config)
        result = run_scan(frames, quiet_config, "ekf", "analytical")
        lr1 = quiet_config.cluster("lr1")
        first_covered = next(
            f.epoch for f in frames if in_coverage(f.true_pose.xy, lr1)
        )
        epochs = [e for e, _ in result.local_trajectories["lr1"]]
        assert epochs[0] >= first_covered
        # trajectories are retained for reporting even after promotion
        assert len(epochs) > 10

    def test_global_only_at_start(self, quiet_config):
        # while the robot is inside gr1 only, no local trajectory exists yet
        frames = simulate(quiet_config)
        result = run_scan(frames, quiet_config, "ekf", "analytical")
        gr1_only_epochs = [
            f.epoch
            for f in frames
            if {o.ulps_id for o in f.observations} == {"gr1"}
        ]
        for epochs in ([e for e, _ in t] for t in result.local_trajectories.values()):
            assert not set(epochs) & set(gr1_only_epochs)


class TestBootstrap:
    def test_too_close_fix_neither_starts_nor_replaces_the_held_fix(self, zero_noise):
        # 0.03 m per epoch is below MIN_FIX_SEPARATION: the fix one epoch
        # after the held one is rejected, the next one (0.06 m) starts
        config = replace(default_scenario(noise=zero_noise), speed=0.03)
        frames = simulate(config)
        result = run_scan(frames, config, "ekf", "analytical")
        assert result.global_trajectory[0][0] == 2
        for u in config.local_clusters:
            first_seen = next(
                f.epoch for f in frames if u.id in {o.ulps_id for o in f.observations}
            )
            assert result.local_trajectories[u.id][0][0] == first_seen + 2, u.id

    def test_global_filter_bootstraps_from_an_anchor_listed_second(self, zero_noise):
        config = default_scenario(noise=zero_noise)
        lr1 = replace(config.cluster("lr1"), coverage_center=(2.0, 0.0))
        rest = tuple(u for u in config.ulps if u.id not in ("gr1", "lr1"))
        config = replace(config, ulps=(lr1, config.cluster("gr1"), *rest))
        frames = simulate(config)
        assert [o.ulps_id for o in frames[0].observations] == ["lr1", "gr1"]
        result = run_scan(frames, config, "ekf", "analytical")
        epoch, pose = result.global_trajectory[0]
        assert epoch == 1
        assert pose.frame == "global"
        assert np.hypot(*(pose.xy - frames[1].true_pose.xy)) <= 1e-6
        assert result.local_trajectories["lr1"][0][0] == 1


class TestGroundTruthFirewall:
    @pytest.mark.parametrize("method", ["analytical", "numerical"])
    @pytest.mark.parametrize("filter_kind", ["ekf", "ukf", "hinf"])
    def test_no_truth_is_read(self, default_config, filter_kind, method):
        # the true poses and the true placement of each locally referenced
        # cluster are simulator ground truth: hiding them may change the
        # scores, nothing else
        frames = simulate(default_config)
        unknown = Pose(math.nan, math.nan, math.nan)
        blind_frames = [replace(f, true_pose=unknown) for f in frames]
        blind = replace(
            default_config,
            ulps=tuple(
                u if u.is_global else replace(u, coverage_center=(0.0, 0.0), orientation=0.0)
                for u in default_config.ulps
            ),
        )
        seen = run_scan(frames, default_config, filter_kind, method, inverse=True)
        hidden = run_scan(blind_frames, blind, filter_kind, method, inverse=True)

        def poses(trajectory):
            return [(e, p.x, p.y, p.theta, p.frame) for e, p in trajectory]

        def estimate(record):
            if record is None:
                return None
            return (
                record.transform.as_array().tolist(),
                record.beacons,
                record.calibration_epoch,
                record.source,
                estimate(record.replaced_forward),
            )

        def calibrations(result):
            return {cid: estimate(record) for cid, record in result.calibrations.items()}

        assert seen.inverse_applied and hidden.inverse_applied
        assert poses(hidden.global_trajectory) == poses(seen.global_trajectory)
        assert hidden.local_trajectories.keys() == seen.local_trajectories.keys()
        for cid, trajectory in seen.local_trajectories.items():
            assert poses(hidden.local_trajectories[cid]) == poses(trajectory), cid
        assert calibrations(hidden) == calibrations(seen)
        assert hidden.uncalibrated == seen.uncalibrated
        assert math.isnan(hidden.global_rmse)


class TestReplay:
    def test_saved_frame_log_replays_to_identical_result(self, tmp_path, default_config):
        from scansim.simulator import load_frames, save_frames

        frames = simulate(default_config)
        path = tmp_path / "frames.json"
        save_frames(frames, path)
        original = run_scan(frames, default_config, "ekf", "analytical")
        replayed = run_scan(load_frames(path), default_config, "ekf", "analytical")
        assert replayed.global_rmse == original.global_rmse
        for cid in original.calibrations:
            assert (
                replayed.calibrations[cid].transform.as_array().tolist()
                == original.calibrations[cid].transform.as_array().tolist()
            )


class TestValidation:
    def test_unknown_filter_kind(self, quiet_config):
        with pytest.raises(ValueError, match="filter_kind"):
            run_scan([], quiet_config, "kalman", "analytical")

    def test_unknown_method(self, quiet_config):
        with pytest.raises(ValueError, match="method"):
            run_scan([], quiet_config, "ekf", "magic")

    def test_empty_frames(self, quiet_config):
        result = run_scan([], quiet_config, "ekf", "analytical")
        assert result.global_trajectory == ()
        assert set(result.uncalibrated) == {f"lr{k}" for k in range(1, 8)}
