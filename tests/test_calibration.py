import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scansim.calibration import (
    CorrespondenceLog,
    accumulate_analytical,
    analytical_tc,
    calibrate_beacons,
    mean_distance_error,
    nelder_mead,
    numerical_tc,
    select_spread_points,
)
from scansim.errors import CalibrationError
from scansim.geometry import TransformVector, inverse_transform_point, transform_point
from scansim.simulator import true_global_beacons, true_transform


def make_log(local_points, transform, cluster_id="lr", jitter=None, rng=None):
    log = CorrespondenceLog(cluster_id)
    for epoch, local in enumerate(local_points):
        mapped = transform_point(np.asarray(local, dtype=float), transform)
        if jitter is not None:
            mapped = mapped + rng.normal(0.0, jitter, size=2)
        log.append(local, mapped, epoch)
    return log


class TestTransformPoint:
    def test_identity(self):
        t = TransformVector.identity()
        assert transform_point((3.2, -1.1), t) == pytest.approx([3.2, -1.1])

    def test_quarter_turn(self):
        t = TransformVector(0.0, 1.0, 0.0, 0.0)
        assert transform_point((1.0, 0.0), t) == pytest.approx([0.0, 1.0])

    def test_matches_rotation_matrix_oracle(self):
        angle = math.radians(30.0)
        t = TransformVector(math.cos(angle), math.sin(angle), 2.0, -1.0)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        expected = rot @ np.array([1.0, 1.0]) + np.array([2.0, -1.0])
        assert transform_point((1.0, 1.0), t) == pytest.approx(expected)

    def test_vectorized_points(self):
        t = TransformVector(0.8, 0.6, 1.0, 2.0)
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
        out = transform_point(pts, t)
        for row_in, row_out in zip(pts, out):
            assert transform_point(row_in, t) == pytest.approx(row_out)

    def test_scale_property(self):
        assert TransformVector(3.0, 4.0, 0.0, 0.0).scale == pytest.approx(5.0)

    @given(
        scale=st.floats(0.5, 2.0),
        angle=st.floats(-math.pi, math.pi),
        tx=st.floats(-1e3, 1e3),
        ty=st.floats(-1e3, 1e3),
        x=st.floats(-100, 100),
        y=st.floats(-100, 100),
        theta=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=200)
    def test_inverse_round_trip_property(self, scale, angle, tx, ty, x, y, theta):
        t = TransformVector(scale * math.cos(angle), scale * math.sin(angle), tx, ty)
        back = inverse_transform_point(transform_point((x, y, theta), t), t)
        assert back[:2] == pytest.approx([x, y], rel=0.0, abs=1e-9)
        assert back[2] == pytest.approx(theta, rel=0.0, abs=1e-12)


class TestAnalyticalTc:
    def test_identity_from_matching_pairs(self):
        t = analytical_tc(((0.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 0.0)))
        assert t.as_array() == pytest.approx([1.0, 0.0, 0.0, 0.0])

    def test_quarter_turn_solved_by_hand(self):
        t = analytical_tc(((0.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (0.0, 1.0)))
        assert t.as_array() == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-14)

    def test_round_trip_recovers_random_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            truth = TransformVector(*rng.normal(0.0, 2.0, size=4))
            if truth.scale < 0.1:
                continue
            a_local = rng.normal(0.0, 3.0, size=2)
            b_local = a_local + rng.normal(0.0, 3.0, size=2)
            if np.hypot(*(b_local - a_local)) < 1e-3:
                continue
            recovered = analytical_tc(
                (a_local, transform_point(a_local, truth)),
                (b_local, transform_point(b_local, truth)),
            )
            assert recovered.as_array() == pytest.approx(truth.as_array(), abs=1e-12)

    @given(
        angle=st.floats(-math.pi, math.pi),
        tx=st.floats(-10, 10),
        ty=st.floats(-10, 10),
        ax=st.floats(-5, 5),
        ay=st.floats(-5, 5),
        dx=st.floats(0.5, 5),
        dy=st.floats(-5, 5),
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, angle, tx, ty, ax, ay, dx, dy):
        truth = TransformVector.from_rotation(angle, tx, ty)
        a = np.array([ax, ay])
        b = a + np.array([dx, dy])
        recovered = analytical_tc(
            (a, transform_point(a, truth)), (b, transform_point(b, truth))
        )
        assert recovered.as_array() == pytest.approx(truth.as_array(), abs=1e-10)

    def test_coincident_local_points_rejected(self):
        with pytest.raises(CalibrationError, match="coincident"):
            analytical_tc(((1.0, 1.0), (0.0, 0.0)), ((1.0, 1.0), (5.0, 5.0)))


class TestAccumulateAnalytical:
    def test_exact_log_recovers_transform(self):
        truth = TransformVector.from_rotation(0.6, 4.0, -2.0)
        locals_ = [(0.1 * k, 0.02 * k) for k in range(60)]
        log = make_log(locals_, truth)
        averaged = accumulate_analytical(log, d_min=2.5)
        assert averaged.as_array() == pytest.approx(truth.as_array(), abs=1e-12)

    def test_single_qualifying_pair(self):
        truth = TransformVector.from_rotation(-0.25, 1.0, 1.0)
        log = make_log([(0.0, 0.0), (3.0, 0.0)], truth)
        averaged = accumulate_analytical(log, d_min=2.5)
        assert averaged.as_array() == pytest.approx(truth.as_array(), abs=1e-12)

    def test_no_qualifying_pair_raises(self):
        log = make_log([(0.0, 0.0), (0.5, 0.0)], TransformVector.identity())
        with pytest.raises(CalibrationError, match="d_min"):
            accumulate_analytical(log, d_min=2.5)

    def test_short_log_raises(self):
        log = make_log([(0.0, 0.0)], TransformVector.identity())
        with pytest.raises(CalibrationError):
            accumulate_analytical(log, d_min=2.5)


def reference_pair_solve(la, ga, lb, gb) -> np.ndarray:
    """One 4x4 pair solve, as ``analytical_tc`` did before the stacked solve."""
    if np.allclose(la, lb, rtol=0.0, atol=1e-12):
        raise CalibrationError("coincident local points: transform is underdetermined")
    t_a = np.array(
        [
            [la[0], -la[1], 1.0, 0.0],
            [la[1], la[0], 0.0, 1.0],
            [lb[0], -lb[1], 1.0, 0.0],
            [lb[1], lb[0], 0.0, 1.0],
        ]
    )
    t_b = np.array([ga[0], ga[1], gb[0], gb[1]], dtype=float)
    return TransformVector.from_array(np.linalg.solve(t_a, t_b)).as_array()


def reference_accumulate(log, d_min) -> np.ndarray:
    """The per-epoch loop that ``accumulate_analytical`` replaced."""
    local_pts, global_pts = log.arrays()
    estimates = []
    for k in range(1, len(local_pts)):
        dists = np.hypot(*(local_pts[:k] - local_pts[k]).T)
        qualifying = np.nonzero(dists >= d_min)[0]
        if qualifying.size == 0:
            continue
        j = int(qualifying[-1])
        estimates.append(
            reference_pair_solve(local_pts[j], global_pts[j], local_pts[k], global_pts[k])
        )
    if not estimates:
        raise CalibrationError(f"no point pair separated by d_min={d_min}")
    return np.mean(estimates, axis=0)


def outcome(solve, log, d_min):
    """The mean transform as an array, or the first word of the error raised."""
    try:
        result = solve(log, d_min)
    except CalibrationError as exc:
        return "coincident" if "coincident" in str(exc) else "no pair"
    return result.as_array() if isinstance(result, TransformVector) else result


#: Coordinates drawn from a coarse grid repeat, so that random logs hold
#: coincident points and epochs with and without a qualifying earlier point.
coordinate = st.one_of(
    st.integers(-3, 3).map(lambda v: 0.75 * v), st.floats(-5.0, 5.0)
)
point = st.tuples(coordinate, coordinate)


class TestBatchedAnalyticalMatchesPairLoop:
    @given(
        locals_=st.lists(point, min_size=1, max_size=40),
        globals_=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=40, max_size=40
        ),
        d_min=st.one_of(st.floats(-1.0, 8.0), st.sampled_from([0.0, 0.75, 1.5, 2.5])),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_logs_bit_identical(self, locals_, globals_, d_min):
        log = CorrespondenceLog("lr")
        for epoch, (local, glob) in enumerate(zip(locals_, globals_)):
            log.append(local, glob, epoch)
        got = outcome(accumulate_analytical, log, d_min)
        want = outcome(reference_accumulate, log, d_min)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_partly_qualifying_noisy_log(self, rng):
        truth = TransformVector.from_rotation(0.9, -3.0, 7.0)
        locals_ = [(0.3 * k, 0.1 * np.sin(k)) for k in range(80)]
        log = make_log(locals_, truth, jitter=0.02, rng=rng)
        local_pts, _ = log.arrays()
        qualifying = [
            k for k in range(1, len(local_pts))
            if np.any(np.hypot(*(local_pts[:k] - local_pts[k]).T) >= 2.5)
        ]
        assert 0 < len(qualifying) < len(local_pts) - 1
        assert np.array_equal(
            accumulate_analytical(log, 2.5).as_array(), reference_accumulate(log, 2.5)
        )

    def test_no_qualifying_pair(self):
        log = make_log([(0.0, 0.0), (0.5, 0.0), (0.2, 0.4)], TransformVector.identity())
        assert outcome(reference_accumulate, log, 2.5) == "no pair"
        with pytest.raises(CalibrationError, match="no point pair"):
            accumulate_analytical(log, 2.5)

    def test_one_point_log(self):
        log = make_log([(1.0, 2.0)], TransformVector.identity())
        assert outcome(reference_accumulate, log, 0.5) == "no pair"
        with pytest.raises(CalibrationError, match="no point pair"):
            accumulate_analytical(log, 0.5)

    @pytest.mark.parametrize("d_min", [0.0, -1.0])
    def test_repeated_point_with_nonpositive_d_min(self, d_min):
        log = make_log([(0.0, 0.0), (3.0, 0.0), (3.0, 0.0)], TransformVector.identity())
        assert outcome(reference_accumulate, log, d_min) == "coincident"
        with pytest.raises(CalibrationError, match="coincident"):
            accumulate_analytical(log, d_min)


class TestSelectSpreadPoints:
    def test_greedy_in_epoch_order(self):
        locals_ = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
        log = make_log(locals_, TransformVector.identity())
        chosen, _ = select_spread_points(log, d_min=2.5, max_points=10)
        assert chosen.tolist() == [[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]]

    def test_max_points_cap(self):
        locals_ = [(float(k), 0.0) for k in range(10)]
        log = make_log(locals_, TransformVector.identity())
        chosen, _ = select_spread_points(log, d_min=1.0, max_points=4)
        assert len(chosen) == 4


class TestMeanDistanceError:
    def test_zero_at_exact_transform(self):
        truth = TransformVector.from_rotation(1.2, -3.0, 0.5)
        locals_ = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, -1.0]])
        globals_ = transform_point(locals_, truth)
        assert mean_distance_error(truth, locals_, globals_) == pytest.approx(0.0, abs=1e-14)

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        t = TransformVector.from_rotation(0.4, 1.0, 2.0)
        locals_ = rng.normal(0, 3, size=(12, 2))
        globals_ = transform_point(locals_, t) + rng.normal(0, 0.05, size=(12, 2))
        baseline = mean_distance_error(t, locals_, globals_)
        perm = rng.permutation(12)
        assert mean_distance_error(t, locals_[perm], globals_[perm]) == pytest.approx(
            baseline
        )

    def test_hand_computed_value(self):
        t = TransformVector.identity()
        locals_ = np.array([[0.0, 0.0], [1.0, 0.0]])
        globals_ = np.array([[0.3, 0.4], [1.0, 0.0]])
        assert mean_distance_error(t, locals_, globals_) == pytest.approx(0.25)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        spread=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=200)
    def test_equals_np_mean_formula(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        t = TransformVector(*rng.normal(0, 1, 4).tolist())
        locals_ = rng.normal(0, spread, (n, 2))
        globals_ = rng.normal(0, spread, (n, 2))
        diff = transform_point(locals_, t) - globals_
        expected = float(np.mean(np.hypot(diff[:, 0], diff[:, 1])))
        assert mean_distance_error(t, locals_, globals_) == expected


class TestNumericalTc:
    def test_exact_log_keeps_exact_transform(self):
        truth = TransformVector.from_rotation(0.9, 2.0, 2.0)
        locals_ = [(0.3 * k, -0.1 * k) for k in range(30)]
        log = make_log(locals_, truth)
        out = numerical_tc(log, d_min=2.0, max_points=10, init=truth)
        local_arr, global_arr = log.arrays()
        assert mean_distance_error(out, local_arr, global_arr) <= 1e-12

    def test_identity_data_from_identity_init(self):
        locals_ = [(0.5 * k, 0.2 * k) for k in range(20)]
        log = make_log(locals_, TransformVector.identity())
        out = numerical_tc(log, d_min=1.0, max_points=8, init=TransformVector.identity())
        assert out.as_array() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)

    def test_never_worse_than_analytical_init(self):
        rng = np.random.default_rng(31)
        truth = TransformVector.from_rotation(-0.8, 5.0, 1.0)
        locals_ = [(0.25 * k, 0.05 * k * k % 1.3) for k in range(40)]
        log = make_log(locals_, truth, jitter=0.05, rng=rng)
        init = accumulate_analytical(log, d_min=2.0)
        out = numerical_tc(log, d_min=2.0, max_points=10, init=init)
        local_arr, global_arr = log.arrays()
        selected_l, selected_g = select_spread_points(log, 2.0, 10)
        assert mean_distance_error(out, selected_l, selected_g) <= mean_distance_error(
            init, selected_l, selected_g
        )

    def test_too_few_spread_points(self):
        log = make_log([(0.0, 0.0), (0.2, 0.0)], TransformVector.identity())
        with pytest.raises(CalibrationError, match="fewer than 2"):
            numerical_tc(log, d_min=2.5, max_points=10, init=TransformVector.identity())


@pytest.fixture(scope="module")
def scipy_optimize():
    """scipy's optimizer, the oracle ``nelder_mead`` is ported from (a dev
    dependency only)."""
    return pytest.importorskip("scipy.optimize")


def recording(objective, points):
    def f(x):
        points.append(x.copy())
        return objective(x)

    return f


class TestNelderMeadMatchesScipy:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        zeros=st.lists(st.booleans(), min_size=4, max_size=4),
        surface=st.sampled_from(["smooth", "rounded", "rippled"]),
        tolerances=st.sampled_from([(1e-12, 1e-9), (1e-2, 1e-2), (0.5, 0.5), (1.0, 0.0)]),
        maxfev=st.integers(1, 60),
    )
    # the budget runs out partway through a shrink that has already found a
    # new best vertex
    @example(
        seed=278, n=4, zeros=[False, True, False, False], surface="rippled",
        tolerances=(1e-12, 1e-9), maxfev=38,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_points_and_result(
        self, scipy_optimize, seed, n, zeros, surface, tolerances, maxfev
    ):
        # On a convex objective such as the mean distance a contraction
        # hardly ever fails, so the simplex hardly ever shrinks.  Rounding
        # the values makes plateaus, and a ripple makes local minima, on
        # which it does, so that the budget also runs out mid-shrink.
        rng = np.random.default_rng(seed)
        locals_ = rng.normal(0, 3, (n, 2))
        globals_ = rng.normal(0, 3, (n, 2))
        x0 = rng.normal(0, 1, 4)
        x0[zeros] = 0.0

        def objective(x):
            value = mean_distance_error(TransformVector(*x.tolist()), locals_, globals_)
            if surface == "rounded":
                return round(value, 1)
            if surface == "rippled":
                return value + 0.5 * math.sin(40.0 * x.sum())
            return value

        xatol, fatol = tolerances
        ours, theirs = [], []
        x = nelder_mead(recording(objective, ours), x0, maxfev, xatol, fatol)
        result = scipy_optimize.minimize(
            recording(objective, theirs),
            x0,
            method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol},
        )
        assert len(ours) == len(theirs) <= maxfev
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)
        assert np.array_equal(x, result.x)

    def test_numerical_tc_solve_matches_scipy(self, scipy_optimize):
        rng = np.random.default_rng(31)
        truth = TransformVector.from_rotation(-0.8, 5.0, 1.0)
        log = make_log(
            [(0.25 * k, 0.05 * k * k % 1.3) for k in range(40)], truth, jitter=0.05, rng=rng
        )
        init = accumulate_analytical(log, d_min=2.0)
        locals_, globals_ = select_spread_points(log, 2.0, 10)
        # the objective and the search numerical_tc used before the port
        result = scipy_optimize.minimize(
            lambda x: mean_distance_error(TransformVector.from_array(x), locals_, globals_),
            init.as_array(),
            method="Nelder-Mead",
            options={"maxfev": 500, "fatol": 1e-9, "xatol": 1e-12},
        )
        out = numerical_tc(log, d_min=2.0, max_points=10, init=init)
        assert np.array_equal(out.as_array(), result.x)


class TestCalibrateBeacons:
    def test_identity_leaves_beacons(self, lr_cluster):
        out = calibrate_beacons(lr_cluster, TransformVector.identity())
        for a, b in zip(out, lr_cluster.beacons):
            assert (a.x, a.y, a.z) == pytest.approx((b.x, b.y, b.z))

    def test_pure_translation(self, lr_cluster):
        out = calibrate_beacons(lr_cluster, TransformVector(1.0, 0.0, 5.0, -2.0))
        for a, b in zip(out, lr_cluster.beacons):
            assert (a.x, a.y) == pytest.approx((b.x + 5.0, b.y - 2.0))
            assert a.z == b.z

    def test_true_transform_matches_simulator_truth(self, lr_cluster):
        out = calibrate_beacons(lr_cluster, true_transform(lr_cluster))
        for a, b in zip(out, true_global_beacons(lr_cluster)):
            assert (a.x, a.y, a.z) == pytest.approx((b.x, b.y, b.z), abs=1e-12)

    def test_shares_transform_point_implementation(self, lr_cluster):
        t = TransformVector.from_rotation(0.3, 1.0, 2.0)
        out = calibrate_beacons(lr_cluster, t)
        pts = transform_point(np.array([[b.x, b.y] for b in lr_cluster.beacons]), t)
        assert [[b.x, b.y] for b in out] == pytest.approx(pts)

    def test_global_cluster_rejected(self, gr_cluster):
        with pytest.raises(CalibrationError, match="globally referenced"):
            calibrate_beacons(gr_cluster, TransformVector.identity())

