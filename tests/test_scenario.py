import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scansim.errors import ScenarioError
from scansim.geometry import wrap_angles
from scansim.scenario import (
    Beacon,
    Mode,
    NoiseParams,
    Pose,
    ScenarioConfig,
    UlpsDescriptor,
    UlpsKind,
    config_from_dict,
    config_to_dict,
    default_scenario,
    in_coverage,
    load_scenario,
    make_square_cluster,
    save_scenario,
    wrap_angle,
)

HALF = 0.35355339059327373  # corner offset of a unit-diagonal square


class TestWrapAngle:
    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_three_half_pi(self):
        assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=100)
    def test_range_invariant(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # wrapping again is a no-op and 2*pi shifts are invisible
        assert wrap_angle(w) == pytest.approx(w)
        assert wrap_angle(theta + 2 * math.pi) == pytest.approx(w, abs=1e-9)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.pi)
    @example(-math.pi)
    @example(0.0)
    @example(-0.0)
    @example(2 * math.pi)
    @example(-2 * math.pi)
    @example(1e-17)
    @example(-1e-17)
    @example(5e-324)
    @settings(max_examples=1000)
    def test_wrapping_is_idempotent_bit_for_bit(self, theta):
        # a filter step wraps its heading with wrap_angles; a Pose built from
        # it wraps again with wrap_angle and must keep the same bits
        w = float(wrap_angles(theta))
        assert wrap_angle(w).hex() == w.hex()
        assert wrap_angle(theta).hex() == w.hex()


class TestPose:
    def test_theta_normalized_on_construction(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_sequence_of_updates_stays_wrapped(self):
        pose = Pose(0, 0, 0)
        for _ in range(50):
            pose = Pose(pose.x, pose.y, pose.theta + 2.5)
            assert -math.pi < pose.theta <= math.pi

    def test_frame_default(self):
        assert Pose(1, 2, 0).frame == "global"


class TestBeacon:
    def test_height_must_be_positive(self):
        with pytest.raises(ScenarioError):
            Beacon(0, 0, 0.0)
        with pytest.raises(ScenarioError):
            Beacon(0, 0, -1.0)


class TestMakeSquareCluster:
    def test_unit_diagonal_corners(self):
        beacons = make_square_cluster((0, 0), 1.0, 3.5)
        assert len(beacons) == 4
        got = sorted((b.x, b.y) for b in beacons)
        want = sorted(
            [(HALF, HALF), (-HALF, HALF), (-HALF, -HALF), (HALF, -HALF)]
        )
        assert got == pytest.approx(want)
        assert all(b.z == 3.5 for b in beacons)

    def test_center_beacon(self):
        beacons = make_square_cluster((0, 0), 1.0, 3.5, include_center=True)
        assert len(beacons) == 5
        assert (beacons[-1].x, beacons[-1].y, beacons[-1].z) == (0.0, 0.0, 3.5)

    def test_translation_equivariance(self):
        base = make_square_cluster((0, 0), 1.0, 3.5)
        moved = make_square_cluster((2, 2), 1.0, 3.5)
        for b0, b1 in zip(base, moved):
            assert b1.x == pytest.approx(b0.x + 2)
            assert b1.y == pytest.approx(b0.y + 2)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ScenarioError):
            make_square_cluster((0, 0), 0.0, 3.5)

    def test_side_length_is_diagonal_over_sqrt2(self):
        beacons = make_square_cluster((0, 0), 1.0, 3.5)
        # corners listed in ring order: consecutive distances are side lengths
        sides = [
            math.hypot(a.x - b.x, a.y - b.y)
            for a, b in zip(beacons, beacons[1:] + beacons[:1])
        ]
        assert sides == pytest.approx([1.0 / math.sqrt(2)] * 4)


class TestInCoverage:
    def test_boundary_inclusive(self, gr_cluster):
        assert in_coverage((3.0, 4.0), gr_cluster)  # distance exactly 5

    def test_outside(self, gr_cluster):
        assert not in_coverage((3.0, 4.1), gr_cluster)

    def test_center(self, gr_cluster):
        assert in_coverage((0.0, 0.0), gr_cluster)


def _minimal_config(**overrides):
    fields = dict(
        ulps=(
            UlpsDescriptor(
                "g",
                UlpsKind.GLOBALLY_REFERENCED,
                tuple(make_square_cluster((0, 0), 1.0, 3.5, include_center=True)),
                (0.0, 0.0),
                5.0,
            ),
        ),
        waypoints=((0.0, 0.0), (3.0, 0.0)),
        speed=0.1,
        z_mr=0.5,
        noise=NoiseParams(),
        mode=Mode.SPHERICAL,
        d_min=2.5,
        seed=1,
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestScenarioValidation:
    def test_minimal_config_valid(self):
        _minimal_config()

    def test_default_scenario_layout(self):
        config = default_scenario()
        gr = [u for u in config.ulps if u.is_global]
        lr = [u for u in config.ulps if not u.is_global]
        assert len(gr) == 2 and all(len(u.beacons) == 5 for u in gr)
        assert len(lr) == 7 and all(len(u.beacons) == 4 for u in lr)
        assert all(u.coverage_radius == 5.0 for u in config.ulps)
        assert all(b.z == 3.5 for u in config.ulps for b in u.beacons)

    def test_too_few_beacons_spherical(self):
        cluster = UlpsDescriptor(
            "g",
            UlpsKind.GLOBALLY_REFERENCED,
            (Beacon(0, 0, 3.5), Beacon(1, 0, 3.5)),
            (0.0, 0.0),
            5.0,
        )
        with pytest.raises(ScenarioError, match="at least 3"):
            _minimal_config(ulps=(cluster,))

    def test_too_few_beacons_hyperbolic(self):
        cluster = UlpsDescriptor(
            "g",
            UlpsKind.GLOBALLY_REFERENCED,
            tuple(make_square_cluster((0, 0), 1.0, 3.5))[:3],
            (0.0, 0.0),
            5.0,
        )
        with pytest.raises(ScenarioError, match="at least 4"):
            _minimal_config(ulps=(cluster,), mode=Mode.HYPERBOLIC)

    def test_empty_waypoints(self):
        with pytest.raises(ScenarioError, match="waypoint"):
            _minimal_config(waypoints=())

    def test_single_waypoint(self):
        with pytest.raises(ScenarioError, match="waypoint"):
            _minimal_config(waypoints=((0.0, 0.0),))

    def test_start_outside_global_coverage(self):
        with pytest.raises(ScenarioError, match="first waypoint"):
            _minimal_config(waypoints=((30.0, 0.0), (40.0, 0.0)))

    def test_nonpositive_d_min(self):
        with pytest.raises(ScenarioError, match="d_min"):
            _minimal_config(d_min=0.0)

    @pytest.mark.parametrize("d_min", [math.inf, math.nan])
    def test_non_finite_d_min(self, d_min):
        with pytest.raises(ScenarioError, match="d_min must be finite"):
            _minimal_config(d_min=d_min)

    def test_zero_speed(self):
        with pytest.raises(ScenarioError, match="speed"):
            _minimal_config(speed=0.0)

    def test_receiver_above_beacons(self):
        with pytest.raises(ScenarioError, match="z_mr"):
            _minimal_config(z_mr=3.5)

    def test_duplicate_ids(self):
        cluster = _minimal_config().ulps[0]
        with pytest.raises(ScenarioError, match="duplicate"):
            _minimal_config(ulps=(cluster, cluster))

    def test_negative_noise_rejected(self):
        with pytest.raises(ScenarioError, match="sigma_us"):
            NoiseParams(sigma_us=-0.1)

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("seed",), -1, "seed must be >= 0"),
            (("speed",), math.inf, "speed must be finite"),
            (("speed",), math.nan, "speed must be finite"),
            (("z_mr",), -math.inf, "z_mr must be finite"),
            (("waypoints", 1, 0), math.inf, "waypoints: every coordinate must be finite"),
            (("waypoints", 0, 1), math.nan, "waypoints: every coordinate must be finite"),
            (("ulps", 1, "coverage_center", 0), math.nan, "'lr1'.* must be finite"),
            (("ulps", 1, "coverage_radius"), math.inf, "'lr1'.* must be finite"),
            (("ulps", 1, "orientation"), math.nan, "'lr1'.* must be finite"),
            (("ulps", 0, "beacons", 0, 0), math.inf, "'gr1'.* must be finite"),
            (("ulps", 0, "beacons", 0, 2), math.inf, "'gr1'.* must be finite"),
            (("noise", "sigma_us"), math.nan, "sigma_us must be finite"),
            (("noise", "sigma_d_odo"), math.inf, "sigma_d_odo must be finite"),
            (("ulps",), None, "ulps: must be a list"),
            (("ulps",), 3, "ulps: must be a list"),
            (("ulps",), "abc", "ulps: must be a list"),
            (("seed",), 1.7, "seed must be an integer"),
            (("seed",), True, "seed must be an integer"),
            (("inverse_correct_count",), False, "inverse_correct_count must be an integer"),
            (("max_points",), 2.9, "max_points must be an integer"),
            (("ulps", 0, "orientation"), 0.3, "'gr1'.* orientation applies only"),
        ],
        ids=[
            "negative-seed", "inf-speed", "nan-speed", "inf-z_mr", "inf-waypoint",
            "nan-start", "nan-coverage-center", "inf-coverage-radius", "nan-orientation",
            "inf-beacon-x", "inf-beacon-z", "nan-sigma_us", "inf-sigma_d_odo",
            "null-ulps", "number-ulps", "string-ulps", "fractional-seed", "bool-seed",
            "bool-inverse_correct_count", "fractional-max_points", "global-orientation",
        ],
    )
    def test_negative_seed_and_non_finite_numbers_rejected(
        self, default_config, path, value, match
    ):
        data = config_to_dict(default_config)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=match):
            config_from_dict(data)


    def test_integral_floats_accepted_as_integers(self, default_config):
        data = config_to_dict(default_config)
        data.update(seed=4.0, inverse_correct_count=2.0, max_points=7.0)
        config = config_from_dict(data)
        assert (config.seed, config.inverse_correct_count, config.max_points) == (4, 2, 7)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path, default_config):
        path = tmp_path / "scenario.yaml"
        save_scenario(default_config, path)
        assert load_scenario(path) == default_config

    def test_dict_round_trip(self, default_config):
        assert config_from_dict(config_to_dict(default_config)) == default_config

    def test_shipped_default_matches_builder(self):
        import pathlib

        shipped = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml"
        assert load_scenario(shipped) == default_scenario()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: [unclosed\n")
        with pytest.raises(ScenarioError, match="parse"):
            load_scenario(path)

    def test_missing_key_reports_field(self, default_config):
        data = config_to_dict(default_config)
        del data["noise"]["sigma_us"]
        with pytest.raises(ScenarioError, match="sigma_us"):
            config_from_dict(data)

    def test_invariants_enforced_on_load(self, tmp_path, default_config):
        data = config_to_dict(default_config)
        data["d_min"] = -1.0
        with pytest.raises(ScenarioError, match="d_min"):
            config_from_dict(data)
