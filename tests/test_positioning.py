import math

import numpy as np
import pytest

from scansim.errors import GeometryError
from scansim.positioning import StaticFix, bootstrap_state, gauss_newton_fix
from scansim.scenario import (
    Beacon,
    Mode,
    NoiseParams,
    Pose,
    UlpsDescriptor,
    UlpsKind,
)
from scansim.simulator import UsObservation, measure_ultrasound

Z_MR = 0.5


def exact_observation(xy, cluster, mode, z_mr=Z_MR):
    """Forward-model observation at a known position (the test oracle input)."""
    arr = cluster.beacon_array()
    d = np.sqrt(
        np.sum((np.asarray(xy, dtype=float) - arr[:, :2]) ** 2, axis=1)
        + (z_mr - arr[:, 2]) ** 2
    )
    values = d if Mode(mode) is Mode.SPHERICAL else d[1:] - d[0]
    return UsObservation(cluster.id, tuple(values))


def grid_refinement_oracle(obs, cluster, mode, z_mr=Z_MR):
    """Exhaustive residual minimization: coarse grid plus two refinements.

    Independent of the Gauss-Newton path: evaluates the same residual on a
    dense grid over the coverage disc and zooms in twice around the best cell.
    """
    arr = cluster.beacon_array()
    z = np.asarray(obs.values)

    def sse(xs, ys):
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d = np.sqrt(
            np.sum((pts[:, None, :] - arr[None, :, :2]) ** 2, axis=2)
            + (z_mr - arr[:, 2]) ** 2
        )
        modeled = d if Mode(mode) is Mode.SPHERICAL else d[:, 1:] - d[:, :1]
        cost = np.sum((modeled - z) ** 2, axis=1)
        best = np.argmin(cost)
        return pts[best]

    cx, cy = np.mean(arr[:, :2], axis=0)
    r = cluster.coverage_radius
    best = sse(np.linspace(cx - r, cx + r, 101), np.linspace(cy - r, cy + r, 101))
    span = 2 * r / 100 * 1.5
    for _ in range(2):
        best = sse(
            np.linspace(best[0] - span, best[0] + span, 101),
            np.linspace(best[1] - span, best[1] + span, 101),
        )
        span = span * 2 / 100 * 1.5
    return best


@pytest.fixture
def cluster5(gr_cluster):
    return gr_cluster


class TestGaussNewtonFix:
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_zero_noise_recovers_position(self, cluster5, mode):
        target = (1.7, -0.9)
        obs = exact_observation(target, cluster5, mode)
        fix = gauss_newton_fix(obs, cluster5, Z_MR, mode)
        assert fix.converged
        assert fix.position == pytest.approx(target, abs=1e-6)
        assert fix.residual_rms < 1e-8
        assert fix.iterations <= 50

    def test_hyperbolic_center_by_symmetry(self, cluster5):
        obs = exact_observation((0.0, 0.0), cluster5, Mode.HYPERBOLIC)
        fix = gauss_newton_fix(obs, cluster5, Z_MR, Mode.HYPERBOLIC)
        assert fix.converged
        assert fix.position == pytest.approx((0.0, 0.0), abs=1e-9)
        assert fix.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_collinear_geometry_degenerates(self):
        collinear = UlpsDescriptor(
            "bad",
            UlpsKind.GLOBALLY_REFERENCED,
            (Beacon(-1, 0, 3.5), Beacon(0, 0, 3.5), Beacon(1, 0, 3.5)),
            (0.0, 0.0),
            5.0,
        )
        obs = exact_observation((1.0, 2.0), collinear, Mode.SPHERICAL)
        # two mirror solutions exist; from the on-axis default guess the solver
        # must either report the singular geometry or fail to converge
        try:
            fix = gauss_newton_fix(obs, collinear, Z_MR, Mode.SPHERICAL)
        except GeometryError:
            return
        assert not fix.converged or fix.residual_rms > 1e-6

    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    @pytest.mark.parametrize("target", [(1.7, -0.9), (-3.0, 1.2), (0.4, 3.9)])
    def test_agrees_with_grid_refinement_oracle(self, cluster5, mode, target):
        obs = exact_observation(target, cluster5, mode)
        fix = gauss_newton_fix(obs, cluster5, Z_MR, mode)
        oracle = grid_refinement_oracle(obs, cluster5, mode)
        assert fix.position == pytest.approx(tuple(oracle), abs=1e-4)

    def test_median_error_under_noise(self, cluster5):
        noise = NoiseParams(0.0, 0.0, 0.005)
        rng = np.random.default_rng(99)
        errors = []
        for _ in range(1000):
            obs = measure_ultrasound(
                Pose(2.0, 1.0, 0.0), cluster5, cluster5.beacon_array(), Z_MR,
                Mode.SPHERICAL, noise, rng,
            )
            fix = gauss_newton_fix(obs, cluster5, Z_MR, Mode.SPHERICAL)
            errors.append(math.hypot(fix.position[0] - 2.0, fix.position[1] - 1.0))
        assert np.median(errors) < 0.05

    def test_frame_independence_under_rigid_transform(self, cluster5):
        angle, shift = 0.85, np.array([12.0, -7.0])
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        moved = UlpsDescriptor(
            "moved",
            UlpsKind.GLOBALLY_REFERENCED,
            tuple(
                Beacon(*(rot @ [b.x, b.y] + shift), b.z) for b in cluster5.beacons
            ),
            tuple(rot @ np.array(cluster5.coverage_center) + shift),
            cluster5.coverage_radius,
        )
        target = np.array([1.7, -0.9])
        obs = exact_observation(target, cluster5, Mode.SPHERICAL)
        # ranges are invariant under the rigid motion, so the same observation
        # solved against the moved beacons must give the moved position
        fix = gauss_newton_fix(obs, cluster5, Z_MR, Mode.SPHERICAL)
        fix_moved = gauss_newton_fix(obs, moved, Z_MR, Mode.SPHERICAL)
        expected = rot @ np.array(fix.position) + shift
        assert fix_moved.position == pytest.approx(tuple(expected), abs=1e-9)

    def test_dimension_mismatch(self, cluster5):
        obs = UsObservation(cluster5.id, (1.0, 2.0))
        with pytest.raises(GeometryError, match="dimension"):
            gauss_newton_fix(obs, cluster5, Z_MR, Mode.SPHERICAL)

    def test_receiver_above_beacons(self, cluster5):
        obs = exact_observation((0.0, 0.0), cluster5, Mode.SPHERICAL)
        with pytest.raises(GeometryError, match="below"):
            gauss_newton_fix(obs, cluster5, 4.0, Mode.SPHERICAL)


class TestBootstrapState:
    def _fix(self, x, y, frame="global"):
        return StaticFix((x, y), 0.0, 3, True, frame)

    def test_diagonal_heading(self):
        pose = bootstrap_state(self._fix(0, 0), self._fix(1, 1))
        assert pose.theta == pytest.approx(math.pi / 4)
        assert (pose.x, pose.y) == (1, 1)

    def test_westward_heading(self):
        pose = bootstrap_state(self._fix(0, 0), self._fix(-1, 0))
        assert pose.theta == pytest.approx(math.pi)

    def test_coincident_fixes_rejected(self):
        with pytest.raises(GeometryError, match="apart"):
            bootstrap_state(self._fix(2, 3), self._fix(2, 3))

    def test_minimum_separation(self):
        with pytest.raises(GeometryError, match="apart"):
            bootstrap_state(self._fix(0, 0), self._fix(0.03, 0.0))
        pose = bootstrap_state(self._fix(0, 0), self._fix(0.06, 0.0))
        assert pose.theta == pytest.approx(0.0)

    def test_frame_mismatch(self):
        with pytest.raises(GeometryError, match="frames"):
            bootstrap_state(self._fix(0, 0), self._fix(1, 0, frame="local:lr1"))

    def test_unconverged_fix_rejected(self):
        bad = StaticFix((0, 0), 1.0, 50, False, "global")
        with pytest.raises(GeometryError, match="converged"):
            bootstrap_state(bad, self._fix(1, 0))

    def test_frame_inherited(self):
        pose = bootstrap_state(
            self._fix(0, 0, "local:lr2"), self._fix(1, 0, "local:lr2")
        )
        assert pose.frame == "local:lr2"
