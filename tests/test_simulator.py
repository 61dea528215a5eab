import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from scansim.errors import ScenarioError
from scansim.geometry import process_model
from scansim.scenario import Beacon, Mode, NoiseParams, Pose, beacon_array, in_coverage
from scansim.simulator import (
    MeasurementFrame,
    OdometryIncrement,
    UsObservation,
    beacon_error,
    frames_from_jsonable,
    frames_to_jsonable,
    generate_trajectory,
    load_frames,
    measure_odometry,
    measure_ultrasound,
    per_beacon_errors,
    reverse_frames,
    save_frames,
    simulate,
    trajectory_rmse,
    true_global_beacons,
    true_transform,
)


def _path_config(config, waypoints, speed=1.0):
    return replace(config, waypoints=waypoints, speed=speed)


class TestGenerateTrajectory:
    def test_straight_line_east(self, quiet_config):
        config = _path_config(quiet_config, ((0.0, 0.0), (10.0, 0.0)))
        poses = generate_trajectory(config)
        assert len(poses) == 11
        assert [p.x for p in poses] == pytest.approx(list(range(11)))
        assert all(p.theta == pytest.approx(0.0) for p in poses)

    def test_straight_line_north(self, quiet_config):
        config = _path_config(quiet_config, ((0.0, 0.0), (0.0, 5.0)))
        poses = generate_trajectory(config)
        assert all(p.theta == pytest.approx(math.pi / 2) for p in poses)

    def test_corner_heading_flip(self, quiet_config):
        config = _path_config(quiet_config, ((0.0, 0.0), (3.0, 0.0), (3.0, 2.0)))
        poses = generate_trajectory(config)
        headings = [p.theta for p in poses]
        # heading is the direction of the motion that reached each pose, so
        # the flip from 0 to pi/2 happens on the step leaving the corner
        assert headings[:4] == pytest.approx([0.0] * 4)
        assert headings[4:] == pytest.approx([math.pi / 2] * 2)
        flips = sum(
            1 for a, b in zip(headings, headings[1:]) if abs(b - a) > 1e-12
        )
        assert flips == 1

    def test_zero_speed_guard(self):
        stub = SimpleNamespace(speed=0.0, waypoints=((0, 0), (1, 0)))
        with pytest.raises(ScenarioError, match="speed"):
            generate_trajectory(stub)

    def test_zero_length_path_rejected(self):
        stub = SimpleNamespace(speed=1.0, waypoints=((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ScenarioError, match="zero-length"):
            generate_trajectory(stub)


class TestMeasureOdometry:
    def test_noise_free_straight(self, zero_noise, rng):
        odo = measure_odometry(Pose(0, 0, 0), Pose(1, 0, 0), zero_noise, rng)
        assert odo.delta_d == pytest.approx(1.0)
        assert odo.delta_theta == pytest.approx(0.0)

    def test_noise_free_turn(self, zero_noise, rng):
        odo = measure_odometry(
            Pose(0, 0, 0), Pose(0, 1, math.pi / 2), zero_noise, rng
        )
        assert odo.delta_d == pytest.approx(1.0)
        assert odo.delta_theta == pytest.approx(math.pi / 2)

    def test_sample_mean_matches_law_of_large_numbers(self):
        noise = NoiseParams(sigma_d_odo=0.03, sigma_theta_odo=0.0, sigma_us=0.0)
        n = 100_000
        rng = np.random.default_rng(2024)
        samples = [
            measure_odometry(Pose(0, 0, 0), Pose(1, 0, 0), noise, rng).delta_d
            for _ in range(n)
        ]
        assert np.mean(samples) == pytest.approx(1.0, abs=3 * 0.03 / math.sqrt(n))

    def test_increments_must_be_finite(self):
        with pytest.raises(ValueError):
            OdometryIncrement(float("nan"), 0.0)


class TestMeasureUltrasound:
    def test_directly_below_beacon(self, zero_noise, rng, gr_cluster):
        obs = measure_ultrasound(
            Pose(0, 0, 0), gr_cluster, gr_cluster.beacon_array(), 0.0, Mode.SPHERICAL,
            zero_noise, rng,
        )
        # fifth beacon sits at the cluster center, straight above the robot
        assert obs.values[4] == pytest.approx(3.5)

    def test_known_3d_distance(self, zero_noise, rng, gr_cluster):
        sq34 = measure_ultrasound(
            Pose(-3.0, -4.0, 0.0), gr_cluster, gr_cluster.beacon_array(), 0.5,
            Mode.SPHERICAL, zero_noise, rng,
        )
        # center beacon: horizontal offset (3, 4), vertical 3.0 -> sqrt(34)
        assert sq34.values[4] == pytest.approx(math.sqrt(34.0))

    def test_hyperbolic_symmetry_gives_zero(self, zero_noise, rng, gr_cluster):
        obs = measure_ultrasound(
            Pose(0, 0, 0), gr_cluster, gr_cluster.beacon_array(), 0.5, Mode.HYPERBOLIC,
            zero_noise, rng,
        )
        # all four corners are equidistant from the center: differences vanish
        assert obs.values[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert len(obs.values) == len(gr_cluster.beacons) - 1

    def test_outside_coverage_rejected(self, zero_noise, rng, gr_cluster):
        with pytest.raises(ScenarioError, match="outside coverage"):
            measure_ultrasound(
                Pose(10, 0, 0), gr_cluster, gr_cluster.beacon_array(), 0.5,
                Mode.SPHERICAL, zero_noise, rng,
            )

    def test_hyperbolic_is_difference_of_same_noisy_distances(
        self, lr_cluster
    ):
        noise = NoiseParams(0.0, 0.0, 0.005)
        pose = Pose(6.0, 2.0, 0.0)
        beacons = beacon_array(true_global_beacons(lr_cluster))
        sph = measure_ultrasound(
            pose, lr_cluster, beacons, 0.5, Mode.SPHERICAL, noise,
            np.random.default_rng(7),
        )
        hyp = measure_ultrasound(
            pose, lr_cluster, beacons, 0.5, Mode.HYPERBOLIC, noise,
            np.random.default_rng(7),
        )
        expected = [v - sph.values[0] for v in sph.values[1:]]
        assert hyp.values == pytest.approx(expected, abs=1e-15)


class TestTrueTransform:
    def test_global_cluster_is_identity(self, gr_cluster):
        assert true_transform(gr_cluster).as_array() == pytest.approx([1, 0, 0, 0])
        assert true_global_beacons(gr_cluster) == gr_cluster.beacons

    def test_local_cluster_rotation_translation(self, lr_cluster):
        t = true_transform(lr_cluster)
        assert t.scale == pytest.approx(1.0)
        beacons = true_global_beacons(lr_cluster)
        c, s = math.cos(lr_cluster.orientation), math.sin(lr_cluster.orientation)
        for local, mapped in zip(lr_cluster.beacons, beacons):
            assert mapped.x == pytest.approx(c * local.x - s * local.y + 6.0)
            assert mapped.y == pytest.approx(s * local.x + c * local.y + 2.0)
            assert mapped.z == local.z


class TestSimulate:
    def test_deterministic_for_seed(self, default_config):
        a = simulate(default_config)
        b = simulate(default_config)
        assert frames_to_jsonable(a) == frames_to_jsonable(b)

    def test_different_seed_differs(self, default_config):
        a = simulate(default_config)
        b = simulate(replace(default_config, seed=2))
        assert frames_to_jsonable(a) != frames_to_jsonable(b)

    def test_first_frame_has_zero_odometry(self, default_config):
        frames = simulate(default_config)
        assert frames[0].odo == OdometryIncrement(0.0, 0.0)

    def test_observation_presence_matches_coverage(self, default_config):
        frames = simulate(default_config)
        for frame in frames:
            covered = {
                u.id
                for u in default_config.ulps
                if in_coverage(frame.true_pose.xy, u)
            }
            assert {o.ulps_id for o in frame.observations} == covered

    def test_every_local_cluster_visited(self, default_config):
        frames = simulate(default_config)
        seen = {o.ulps_id for f in frames for o in f.observations}
        for u in default_config.local_clusters:
            assert u.id in seen

    def test_zero_noise_matches_forward_model(self, quiet_config):
        frames = simulate(quiet_config)
        for frame in frames[::25]:
            for obs in frame.observations:
                u = quiet_config.cluster(obs.ulps_id)
                beacons = true_global_beacons(u)
                arr = np.array([[b.x, b.y, b.z] for b in beacons])
                d = np.sqrt(
                    np.sum((frame.true_pose.xy - arr[:, :2]) ** 2, axis=1)
                    + (quiet_config.z_mr - arr[:, 2]) ** 2
                )
                expected = d if quiet_config.mode is Mode.SPHERICAL else d[1:] - d[0]
                assert obs.values == pytest.approx(expected, abs=1e-12)

    def test_zero_noise_odometry_replay_is_exact(self, quiet_config):
        frames = simulate(quiet_config)
        pose = frames[0].true_pose
        for frame in frames[1:]:
            pose = Pose(*process_model(pose.as_array(), frame.odo))
            assert abs(pose.x - frame.true_pose.x) < 1e-12
            assert abs(pose.y - frame.true_pose.y) < 1e-12
            assert abs(pose.theta - frame.true_pose.theta) < 1e-12


class TestReverseFrames:
    def test_reversed_increments_replay_reversed_dead_reckoning(self, default_config):
        frames = simulate(default_config)
        reversed_stream = reverse_frames(frames)
        # dead-reckon the forward odometry, then check the reversed stream
        # replays the same positions in reverse order exactly
        forward = [frames[0].true_pose]
        for frame in frames[1:]:
            forward.append(Pose(*process_model(forward[-1].as_array(), frame.odo)))
        pose = Pose(forward[-1].x, forward[-1].y, forward[-1].theta + math.pi)
        for j, frame in enumerate(reversed_stream):
            if j > 0:
                pose = Pose(*process_model(pose.as_array(), frame.odo))
            target = forward[len(frames) - 1 - j]
            assert abs(pose.x - target.x) < 1e-12
            assert abs(pose.y - target.y) < 1e-12

    def test_epochs_renumbered_and_observations_reused(self, default_config):
        frames = simulate(default_config)
        reversed_stream = reverse_frames(frames)
        assert [f.epoch for f in reversed_stream] == list(range(len(frames)))
        assert reversed_stream[0].observations == frames[-1].observations
        assert reversed_stream[-1].observations == frames[0].observations

    def test_true_headings_flipped(self, quiet_config):
        from scansim.scenario import wrap_angle

        frames = simulate(quiet_config)
        reversed_stream = reverse_frames(frames)
        for rev, fwd in zip(reversed_stream[::50], frames[::-50]):
            assert rev.true_pose.theta == pytest.approx(
                wrap_angle(fwd.true_pose.theta + math.pi), abs=1e-12
            )

    def test_empty_stream(self):
        assert reverse_frames([]) == []

    def test_increments_read_no_truth(self, default_config):
        frames = simulate(default_config)
        blind = [replace(f, true_pose=Pose(math.nan, math.nan, math.nan)) for f in frames]
        assert [f.odo for f in reverse_frames(blind)] == [f.odo for f in reverse_frames(frames)]


class TestFrameLog:
    def test_round_trip(self, tmp_path, default_config):
        frames = simulate(default_config)[:20]
        path = tmp_path / "frames.json"
        save_frames(frames, path)
        loaded = load_frames(path)
        assert frames_to_jsonable(loaded) == frames_to_jsonable(frames)

    def test_jsonable_round_trip_types(self, default_config):
        frames = simulate(default_config)[:5]
        restored = frames_from_jsonable(frames_to_jsonable(frames))
        assert isinstance(restored[0], MeasurementFrame)
        assert isinstance(restored[0].observations[0], UsObservation)


class TestBeaconError:
    def test_identical_lists(self, lr_cluster):
        assert beacon_error(lr_cluster.beacons, lr_cluster.beacons) == 0.0

    def test_uniform_offset_345(self, lr_cluster):
        shifted = tuple(Beacon(b.x + 0.3, b.y + 0.4, b.z) for b in lr_cluster.beacons)
        assert beacon_error(shifted, lr_cluster.beacons) == pytest.approx(0.5)

    def test_mixed_offsets_hand_computed(self):
        truth = (Beacon(0, 0, 3.5), Beacon(1, 0, 3.5))
        est = (Beacon(0.1, 0, 3.5), Beacon(1, 0.2, 3.5))
        assert beacon_error(est, truth) == pytest.approx((0.1 + 0.2) / 2)
        assert per_beacon_errors(est, truth) == pytest.approx([0.1, 0.2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            beacon_error((Beacon(0, 0, 1),), (Beacon(0, 0, 1), Beacon(1, 1, 1)))


class TestTrajectoryRmse:
    def test_hand_computed(self, quiet_config):
        frames = simulate(quiet_config)[:3]
        trajectory = [
            (1, Pose(frames[1].true_pose.x + 0.3, frames[1].true_pose.y + 0.4, 0.0)),
            (2, frames[2].true_pose),
        ]
        assert trajectory_rmse(trajectory, frames) == pytest.approx(math.sqrt(0.25 / 2))

    def test_empty_trajectory_is_nan(self, quiet_config):
        assert math.isnan(trajectory_rmse((), simulate(quiet_config)))
