import math

import numpy as np
import pytest

import scansim.filters as filters
from scansim.errors import FilterError
from scansim.filters import (
    ClusterModel,
    EkfParams,
    FilterState,
    HinfParams,
    MeasurementNoise,
    ProcessNoise,
    UkfParams,
    ekf_step,
    filter_step,
    hinf_step,
    sigma_points,
    ukf_step,
    ukf_weights,
)
from scansim.geometry import predict_ranges, process_model
from scansim.scenario import Beacon, Mode, Pose, UlpsDescriptor, UlpsKind
from scansim.simulator import OdometryIncrement, UsObservation

Z_MR = 0.5

#: Test ids of the three filter kinds, as these cases have always been named.
KIND_IDS = ["ekf_step-kwargs0", "ukf_step-kwargs1", "hinf_step-kwargs2"]


def make_state(x=0.0, y=0.0, theta=0.0, frame="global", p=0.01):
    return FilterState(Pose(x, y, theta, frame=frame), p * np.eye(3))


def cluster_model(u, mode, r):
    return ClusterModel(u.beacon_array(), Z_MR, mode, r.matrix())


def measurement_model(pose, u, z_mr, mode):
    return predict_ranges(pose.as_array(), u.beacon_array(), z_mr, mode)


def measurement_jacobian(pose, u, z_mr, mode):
    return predict_ranges(pose.as_array(), u.beacon_array(), z_mr, mode, jacobian=True)[1]


class TestProcessModel:
    def test_straight(self):
        out = process_model(Pose(0, 0, 0).as_array(), OdometryIncrement(1.0, 0.0))
        assert tuple(out) == pytest.approx((1.0, 0.0, 0.0))

    def test_turn_applied_before_translation(self):
        out = process_model(Pose(0, 0, 0).as_array(), OdometryIncrement(1.0, math.pi / 2))
        assert tuple(out[:2]) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert out[2] == pytest.approx(math.pi / 2)

    def test_westward(self):
        out = process_model(Pose(1, 1, math.pi).as_array(), OdometryIncrement(2.0, 0.0))
        assert tuple(out[:2]) == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert out[2] == pytest.approx(math.pi)

    def test_array_form_matches_pose_form(self):
        # one pose (3,) and the same pose as a row of a batch (m, 3)
        odo = OdometryIncrement(0.7, -0.3)
        pose = Pose(0.4, -1.2, 2.9)
        out = process_model(pose.as_array(), odo)
        arr = process_model(np.array([[0.0, 0.0, 0.0], pose.as_array()]), odo)[1]
        assert arr == pytest.approx(out)

    def test_jacobian_matches_finite_differences(self):
        odo = OdometryIncrement(0.8, 0.25)
        x0 = np.array([0.3, -0.7, 1.1])
        _, jac = process_model(x0, odo, jacobian=True)
        eps = 1e-7
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            fd = (
                process_model(x0 + step, odo)
                - process_model(x0 - step, odo)
            ) / (2 * eps)
            assert jac[:, j] == pytest.approx(fd, abs=1e-6)


class TestMeasurementModel:
    def test_distance_below_beacon(self):
        u = UlpsDescriptor(
            "one", UlpsKind.GLOBALLY_REFERENCED, (Beacon(0, 0, 3.5),), (0, 0), 5.0
        )
        out = measurement_model(Pose(0, 0, 0), u, 0.0, Mode.SPHERICAL)
        assert out == pytest.approx([3.5])

    def test_known_3d_distance(self):
        u = UlpsDescriptor(
            "one", UlpsKind.GLOBALLY_REFERENCED, (Beacon(4, 6, 3.5),), (4, 6), 5.0
        )
        out = measurement_model(Pose(1, 2, 0.37), u, 0.5, Mode.SPHERICAL)
        assert out == pytest.approx([math.sqrt(34.0)])

    def test_hyperbolic_symmetry_zeros(self, gr_cluster):
        out = measurement_model(Pose(0, 0, 1.0), gr_cluster, Z_MR, Mode.HYPERBOLIC)
        assert out[:3] == pytest.approx([0, 0, 0], abs=1e-12)

    def test_heading_independence(self, gr_cluster):
        a = measurement_model(Pose(1, 2, 0.0), gr_cluster, Z_MR, Mode.SPHERICAL)
        b = measurement_model(Pose(1, 2, 2.0), gr_cluster, Z_MR, Mode.SPHERICAL)
        assert a == pytest.approx(b)


class TestMeasurementJacobian:
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_matches_central_differences(self, gr_cluster, mode):
        rng = np.random.default_rng(4)
        eps = 1e-6
        worst = 0.0
        for _ in range(100):
            x, y = rng.uniform(-4, 4, size=2)
            pose = Pose(x, y, rng.uniform(-3, 3))
            jac = measurement_jacobian(pose, gr_cluster, Z_MR, mode)
            beacons = gr_cluster.beacon_array()
            for j, step in enumerate(np.eye(2) * eps):
                hi = predict_ranges(np.array([x, y]) + step, beacons, Z_MR, mode)
                lo = predict_ranges(np.array([x, y]) - step, beacons, Z_MR, mode)
                worst = max(worst, np.max(np.abs(jac[:, j] - (hi - lo) / (2 * eps))))
        assert worst <= 1e-5

    def test_theta_column_exactly_zero(self, gr_cluster):
        jac = measurement_jacobian(Pose(1, -2, 0.4), gr_cluster, Z_MR, Mode.SPHERICAL)
        assert np.all(jac[:, 2] == 0.0)

    def test_below_beacon_row_is_zero(self, gr_cluster):
        # the fifth beacon sits straight above the origin
        jac = measurement_jacobian(Pose(0, 0, 0), gr_cluster, Z_MR, Mode.SPHERICAL)
        assert jac[4] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_dimensions(self, gr_cluster):
        sph = measurement_jacobian(Pose(1, 1, 0), gr_cluster, Z_MR, Mode.SPHERICAL)
        hyp = measurement_jacobian(Pose(1, 1, 0), gr_cluster, Z_MR, Mode.HYPERBOLIC)
        assert sph.shape == (5, 3)
        assert hyp.shape == (4, 3)


class TestNoiseModels:
    def test_spherical_diagonal(self):
        r = MeasurementNoise(Mode.SPHERICAL, 0.005, 5).matrix()
        assert r == pytest.approx(0.005**2 * np.eye(5))

    def test_hyperbolic_structure(self):
        r = MeasurementNoise(Mode.HYPERBOLIC, 0.01, 4).matrix()
        assert np.all(np.diag(r) == pytest.approx(1e-4))
        off = r[~np.eye(4, dtype=bool)]
        assert np.all(off == pytest.approx(0.5e-4))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_hyperbolic_positive_definite(self, dim):
        r = MeasurementNoise(Mode.HYPERBOLIC, 0.005, dim).matrix()
        np.linalg.cholesky(r)  # raises if not PD

    def test_for_cluster_dimensions_and_difference_noise(self):
        sph = MeasurementNoise.for_cluster(Mode.SPHERICAL, 0.005, 5)
        hyp = MeasurementNoise.for_cluster(Mode.HYPERBOLIC, 0.005, 5)
        assert sph.dimension == 5 and hyp.dimension == 4
        assert sph.sigma_us == 0.005
        # a difference of two distance measurements carries sqrt(2) the noise
        assert hyp.sigma_us == pytest.approx(math.sqrt(2) * 0.005)

    def test_zero_sigma_floored(self):
        floored = MeasurementNoise.for_cluster(Mode.SPHERICAL, 0.0, 4)
        assert floored.sigma_us > 0

    def test_process_noise_matrix(self):
        q = ProcessNoise(0.1, 0.2, 0.3).matrix()
        assert q == pytest.approx(np.diag([0.01, 0.04, 0.09]))


class TestUkfWeights:
    def test_reference_values(self):
        w_mean, w_cov, lam = ukf_weights(UkfParams(alpha=0.001, beta=2.0))
        assert lam == pytest.approx(3e-6 - 3)
        assert w_mean[0] == pytest.approx(-9.99999e5, rel=1e-6)
        assert w_mean[1] == pytest.approx(1.6666667e5, rel=1e-6)
        assert np.all(w_mean[1:] == w_mean[1])
        assert w_cov[0] == pytest.approx(w_mean[0] + 1 - 0.001**2 + 2.0)

    def test_mean_weights_sum_to_one(self):
        w_mean, _, _ = ukf_weights(UkfParams())
        assert math.fsum(w_mean) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_range_enforced(self):
        with pytest.raises(FilterError, match="alpha"):
            ukf_weights(UkfParams(alpha=0.0))

    def test_bound_once_per_parameter_object(self, gr_cluster, monkeypatch):
        calls = []
        weights = filters.ukf_weights
        monkeypatch.setattr(
            filters, "ukf_weights", lambda *args: calls.append(args) or weights(*args)
        )
        params = UkfParams()
        r = MeasurementNoise.for_cluster(Mode.SPHERICAL, 0.005, 5)
        model = cluster_model(gr_cluster, Mode.SPHERICAL, r)
        state = make_state()
        values = measurement_model(state.pose, gr_cluster, Z_MR, Mode.SPHERICAL)
        obs = UsObservation("gr", tuple(values))
        Q = ProcessNoise(0.01, 0.01, 0.01).matrix()
        for _ in range(3):
            state = filter_step(state, OdometryIncrement(0.05, 0.0), obs, model, Q, params)
        assert len(calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(params.weights, weights(params)))

    @pytest.mark.parametrize(
        "tuning",
        [{"alpha": 0.0}, {"alpha": 1.5}, {"alpha": math.nan}, {"beta": math.inf}],
        ids=["alpha-0", "alpha-1.5", "alpha-nan", "beta-inf"],
    )
    def test_invalid_tuning_raises_on_construction(self, tuning):
        with pytest.raises(FilterError, match=next(iter(tuning))):
            UkfParams(**tuning)

    def test_invalid_tuning_raises_at_the_step(self):
        with pytest.raises(FilterError, match="alpha"):
            filter_step(
                make_state(), OdometryIncrement(0.05, 0.0), None, None,
                ProcessNoise().matrix(), UkfParams(alpha=0.0),
            )

    def test_sigma_points_reproduce_covariance(self):
        params = UkfParams(alpha=0.5)
        w_mean, w_cov, lam = ukf_weights(params)
        x = np.array([1.0, -2.0, 0.5])
        P = np.array([[0.2, 0.05, 0.0], [0.05, 0.3, 0.01], [0.0, 0.01, 0.1]])
        pts = sigma_points(x, P, lam)
        mean = w_mean @ pts
        res = pts - mean
        cov = (res * w_cov[:, None]).T @ res
        assert mean == pytest.approx(x, abs=1e-12)
        assert cov == pytest.approx(P, abs=1e-10)

    def test_jitter_retry_on_near_singular(self):
        x = np.zeros(3)
        P = np.diag([1.0, 1.0, 0.0])  # semidefinite: plain Cholesky fails
        pts = sigma_points(x, P, 0.0)
        assert pts.shape == (7, 3)

    def test_indefinite_covariance_raises(self):
        with pytest.raises(FilterError, match="positive definite"):
            sigma_points(np.zeros(3), np.diag([1.0, 1.0, -1.0]), 0.0)


def _noise_pair(mode, beacons):
    return ProcessNoise(0.01, 0.01, 0.01).matrix(), MeasurementNoise.for_cluster(
        mode, 0.005, beacons
    )


class TestZeroInnovation:
    def test_ekf_state_unchanged(self, gr_cluster):
        state = make_state(1.0, 0.5, 0.3)
        odo = OdometryIncrement(0.1, 0.05)
        q, r = _noise_pair(Mode.SPHERICAL, 5)
        predicted = Pose(*process_model(state.pose.as_array(), odo))
        z = UsObservation(
            "gr", tuple(measurement_model(predicted, gr_cluster, Z_MR, Mode.SPHERICAL))
        )
        out = filter_step(state, odo, z, cluster_model(gr_cluster, Mode.SPHERICAL, r), q)
        assert out.pose.as_array() == pytest.approx(predicted.as_array(), abs=1e-12)

    def test_hinf_state_unchanged(self, gr_cluster):
        state = make_state(1.0, 0.5, 0.3)
        odo = OdometryIncrement(0.1, 0.05)
        q, r = _noise_pair(Mode.SPHERICAL, 5)
        predicted = Pose(*process_model(state.pose.as_array(), odo))
        z = UsObservation(
            "gr", tuple(measurement_model(predicted, gr_cluster, Z_MR, Mode.SPHERICAL))
        )
        out = filter_step(
            state, odo, z, cluster_model(gr_cluster, Mode.SPHERICAL, r), q, HinfParams()
        )
        assert out.pose.as_array() == pytest.approx(predicted.as_array(), abs=1e-12)

    def test_ukf_state_equals_prior_mean(self, gr_cluster):
        state = make_state(1.0, 0.5, 0.3)
        odo = OdometryIncrement(0.1, 0.05)
        q, r = _noise_pair(Mode.SPHERICAL, 5)
        params = UkfParams()
        # replicate the unscented flow to obtain zhat, then feed it back:
        # the prediction-only step gives the prior, from which the update
        # redraws its sigma points
        prior_only = filter_step(state, odo, None, None, q, params)
        w_mean, _, lam = ukf_weights(params)
        pts = sigma_points(prior_only.pose.as_array(), prior_only.P, lam)
        predicted = predict_ranges(
            pts[:, :2], gr_cluster.beacon_array(), Z_MR, Mode.SPHERICAL
        )
        z_hat = w_mean @ predicted
        out = filter_step(
            state,
            odo,
            UsObservation("gr", tuple(z_hat)),
            cluster_model(gr_cluster, Mode.SPHERICAL, r),
            q,
            params,
        )
        assert out.pose.as_array() == pytest.approx(
            prior_only.pose.as_array(), abs=1e-9
        )


class TestPredictionOnly:
    @pytest.mark.parametrize(
        "params", [EkfParams(), UkfParams(), HinfParams()],
        ids=["ekf_step", "ukf_step", "hinf_step"],
    )
    def test_prediction_follows_odometry(self, params):
        # negligible covariance so the unscented heading contraction vanishes
        state = make_state(0.0, 0.0, 0.0, p=1e-12)
        odo = OdometryIncrement(1.0, 0.0)
        q = ProcessNoise(0.01, 0.01, 0.01).matrix()
        out = filter_step(state, odo, None, None, q, params)
        assert out.pose.x == pytest.approx(1.0)

    def test_ukf_prediction_contracts_with_heading_uncertainty(self):
        # the unscented mean of x + d*cos(theta) is d*(1 - P_theta/2) + O(P^2):
        # a real effect of heading uncertainty, not a bug
        state = make_state(0.0, 0.0, 0.0, p=0.01)
        out = filter_step(
            state, OdometryIncrement(1.0, 0.0), None, None,
            ProcessNoise(0.01, 0.01, 0.01).matrix(), UkfParams(),
        )
        assert out.pose.x == pytest.approx(1.0 - 0.01 / 2, abs=1e-5)

    def test_ekf_trace_nondecreasing_without_observations(self):
        state = make_state()
        q = ProcessNoise(0.01, 0.01, 0.01).matrix()
        traces = [np.trace(state.P)]
        for _ in range(10):
            state = filter_step(state, OdometryIncrement(0.1, 0.0), None, None, q)
            traces.append(np.trace(state.P))
        assert all(b >= a - 1e-15 for a, b in zip(traces, traces[1:]))


class TestZeroNoiseTracking:
    @pytest.mark.parametrize(
        "params,tol",
        [(EkfParams(), 1e-6), (UkfParams(), 1e-6), (HinfParams(), 1e-4)],
        ids=["ekf_step-kwargs0-1e-06", "ukf_step-kwargs1-1e-06", "hinf_step-kwargs2-0.0001"],
    )
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_exact_init_tracks_truth(self, gr_cluster, params, tol, mode):
        # straight pass through the cluster, exact measurements, exact start:
        # the filters must follow the truth to within the stated tolerance
        q = ProcessNoise(1e-6, 1e-6, 1e-6).matrix()
        r = MeasurementNoise.for_cluster(mode, 0.0, 5)
        truth = Pose(-2.5, 0.3, 0.0)
        state = FilterState(truth, 1e-12 * np.eye(3))
        worst = 0.0
        for _ in range(100):
            new_truth = Pose(*process_model(truth.as_array(), OdometryIncrement(0.05, 0.0)))
            z = UsObservation(
                "gr", tuple(measurement_model(new_truth, gr_cluster, Z_MR, mode))
            )
            state = filter_step(
                state, OdometryIncrement(0.05, 0.0), z, cluster_model(gr_cluster, mode, r),
                q, params,
            )
            truth = new_truth
            worst = max(worst, float(np.hypot(*(state.pose.xy - truth.xy))))
        assert worst <= tol


class TestPoseStepMatchesGenericCore:
    @pytest.mark.parametrize("params", [EkfParams(), HinfParams()], ids=["ekf", "hinf"])
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_zero_distance_jacobian_raises(self, params, mode):
        # the receiver height equals the beacon height and the robot stops
        # right under (that is, at) a beacon
        beacons = np.array([[0.0, 0.0, 3.5], [1.0, 0.0, 3.5], [0.0, 1.0, 3.5], [1.0, 1.0, 3.5]])
        r = MeasurementNoise.for_cluster(mode, 0.005, 4)
        model = ClusterModel(beacons, 3.5, mode, r.matrix())
        obs = UsObservation("gr", tuple(np.ones(r.dimension)))
        with pytest.raises(FilterError, match="zero emitter-receiver distance"):
            filter_step(
                make_state(), OdometryIncrement(0.0, 0.0), obs, model,
                ProcessNoise().matrix(), params,
            )


class TestLinearModelCrossValidation:
    def test_ukf_matches_ekf_on_linear_model(self):
        # 2-state linear system: both filters reduce to the plain Kalman filter
        F = np.array([[1.0, 0.1], [0.0, 1.0]])
        H = np.array([[1.0, 0.0]])
        Q = np.diag([1e-4, 1e-4])
        R = np.array([[0.04]])
        weights = ukf_weights(UkfParams(alpha=1.0, beta=2.0), state_dim=2)
        x_e = x_u = np.array([0.0, 1.0])
        P_e = P_u = np.eye(2) * 0.5
        rng = np.random.default_rng(11)
        for _ in range(30):
            z = np.array([rng.normal(1.0, 0.2)])
            x_e, P_e = ekf_step(
                x_e, P_e,
                motion=lambda s: (F @ s, F),
                z=z, measure=lambda s: (H @ s, H),
                Q=Q, R=R,
            )
            x_u, P_u = ukf_step(
                x_u, P_u,
                motion=lambda pts: pts @ F.T,
                z=z, measure=lambda pts: pts @ H.T,
                Q=Q, R=R, weights=weights,
            )
            assert x_u == pytest.approx(x_e, abs=1e-8)
            assert P_u == pytest.approx(P_e, abs=1e-8)

    def test_hinf_approaches_kalman_as_gamma_vanishes(self):
        # scalar random walk; closed-form Kalman recursion as the oracle
        A, H, Q, R = 1.0, 1.0, 0.01, 0.5
        x_h = np.array([0.0])
        P_h = np.array([[1.0]])
        x_k, p_k = 0.0, 1.0
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(0.7, math.sqrt(R))
            x_h, P_h = hinf_step(
                x_h, P_h,
                motion=lambda s: (A * s, np.array([[A]])),
                z=np.array([z]),
                measure=lambda s: (H * s, np.array([[H]])),
                Q=np.array([[Q]]), R_inv=np.linalg.inv(np.array([[R]])),
                gamma=1e-9,
            )
            # predictor-form scalar Kalman filter
            x_pred = A * x_k
            gain = A * p_k * H / (H * p_k * H + R)
            x_k = x_pred + gain * (z - H * x_pred)
            p_k = A * p_k * R / (H * H * p_k + R) * A + Q
            assert x_h[0] == pytest.approx(x_k, abs=1e-6)
            assert P_h[0, 0] == pytest.approx(p_k, abs=1e-6)

    def test_hinf_gamma_too_aggressive_reported(self, gr_cluster):
        state = make_state(p=1.0)
        odo = OdometryIncrement(0.1, 0.0)
        q, r = _noise_pair(Mode.SPHERICAL, 5)
        z = UsObservation(
            "gr",
            tuple(measurement_model(state.pose, gr_cluster, Z_MR, Mode.SPHERICAL)),
        )
        with pytest.raises(FilterError, match="aggressive"):
            filter_step(
                state, odo, z, cluster_model(gr_cluster, Mode.SPHERICAL, r), q,
                HinfParams(gamma=1e9),
            )


class TestFrameTranslationCommutes:
    # the UKF case uses a moderate alpha: the default 0.001 gives +-1e6
    # weights whose cancellation leaves ~1e-7 floating-point noise in the
    # update (prediction-only commutation still holds at 1e-9 regardless)
    @pytest.mark.parametrize(
        "params", [EkfParams(), UkfParams(alpha=0.1), HinfParams()], ids=KIND_IDS
    )
    def test_translation_equivariance(self, gr_cluster, params):
        shift = np.array([7.0, -3.0])
        moved_cluster = UlpsDescriptor(
            "gr",
            UlpsKind.GLOBALLY_REFERENCED,
            tuple(Beacon(b.x + shift[0], b.y + shift[1], b.z) for b in gr_cluster.beacons),
            (shift[0], shift[1]),
            5.0,
        )
        q, r = _noise_pair(Mode.SPHERICAL, 5)
        state = make_state(1.0, 0.2, 0.4)
        moved = make_state(1.0 + shift[0], 0.2 + shift[1], 0.4)
        odo = OdometryIncrement(0.1, 0.02)
        z_values = (3.6, 3.7, 3.8, 3.9, 3.65)
        for obs_pair in [
            (None, None),
            (UsObservation("gr", z_values), UsObservation("gr", z_values)),
        ]:
            obs, obs_moved = obs_pair
            a = filter_step(
                state, odo, obs,
                cluster_model(gr_cluster, Mode.SPHERICAL, r) if obs else None, q, params,
            )
            b = filter_step(
                moved, odo, obs_moved,
                cluster_model(moved_cluster, Mode.SPHERICAL, r) if obs else None, q, params,
            )
            # prediction-only steps commute to 1e-9; update steps with the
            # tiny-alpha sigma weights (+-1e6 with cancellation) keep a bit
            # more floating-point noise
            tol = 1e-9 if obs is None else 1e-8
            assert b.pose.xy - shift == pytest.approx(a.pose.xy, abs=tol)
            assert b.pose.theta == pytest.approx(a.pose.theta, abs=tol)
            assert b.P == pytest.approx(a.P, abs=tol)
            state, moved = a, b


class TestCovarianceHygiene:
    @pytest.mark.parametrize(
        "params", [EkfParams(), UkfParams(), HinfParams()], ids=KIND_IDS
    )
    def test_symmetric_psd_after_noisy_sequence(self, gr_cluster, params):
        rng = np.random.default_rng(8)
        q, r = _noise_pair(Mode.SPHERICAL, 5)
        state = make_state(-2.0, 0.5, 0.1)
        truth = Pose(-2.0, 0.5, 0.1)
        for k in range(60):
            odo = OdometryIncrement(0.05 + rng.normal(0, 0.01), rng.normal(0, 0.01))
            truth = Pose(*process_model(truth.as_array(), odo))
            obs = None
            if k % 3 != 0:
                values = measurement_model(truth, gr_cluster, Z_MR, Mode.SPHERICAL)
                obs = UsObservation("gr", tuple(values + rng.normal(0, 0.005, 5)))
            state = filter_step(
                state, odo, obs,
                cluster_model(gr_cluster, Mode.SPHERICAL, r) if obs else None, q, params,
            )
            assert state.P == pytest.approx(state.P.T, abs=1e-15)
            assert np.min(np.linalg.eigvalsh(state.P)) >= -1e-10

    def test_theta_stays_wrapped_across_pi(self):
        state = make_state(0.0, 0.0, 3.1)
        q = ProcessNoise(0.01, 0.01, 0.01).matrix()
        out = filter_step(state, OdometryIncrement(0.1, 0.2), None, None, q)
        assert -math.pi < out.pose.theta <= math.pi
        assert out.pose.theta == pytest.approx(3.3 - 2 * math.pi)
