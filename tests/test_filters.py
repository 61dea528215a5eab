import math
from dataclasses import replace

import numpy as np
import pytest

import scansim.filters as filters
from scansim.errors import FilterError
from scansim.filters import (
    FILTER_KINDS,
    HINF_GAMMA,
    SIGMA_US_FLOOR,
    THETA_INDEX,
    UKF_BETA,
    UKF_WEIGHTS,
    ClusterModel,
    ekf_step,
    filter_step,
    filter_steps,
    hinf_step,
    sigma_points,
    ukf_step,
    ukf_weights,
)
from scansim.geometry import predict_ranges, process_model
from scansim.orchestrator import _RunParams, run_scan
from scansim.scenario import (
    Beacon,
    Mode,
    NoiseParams,
    Pose,
    UlpsDescriptor,
    UlpsKind,
    default_scenario,
)
from scansim.simulator import OdometryIncrement, UsObservation

Z_MR = 0.5

#: Test ids of the three filter kinds, as these cases have always been named.
KIND_IDS = ["ekf_step-kwargs0", "ukf_step-kwargs1", "hinf_step-kwargs2"]


def make_state(x=0.0, y=0.0, theta=0.0, p=0.01):
    return np.array([x, y, theta]), p * np.eye(3)


def process_noise(sigma_x=0.01, sigma_y=0.01, sigma_theta=0.01):
    return np.diag([sigma_x**2, sigma_y**2, sigma_theta**2])


def cluster_model(u, mode, sigma_us=0.005):
    return ClusterModel(u.beacon_array(), Z_MR, mode, sigma_us)


def noise_model(mode, sigma_us, beacon_count):
    """A cluster model built only for its covariance."""
    return ClusterModel(np.zeros((beacon_count, 3)), Z_MR, mode, sigma_us)


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
        batch = np.array([x0, [2.0, 1.5, -2.9], [-1.0, 0.4, 2.6]])
        _, jac = process_model(x0, odo, jacobian=True)
        _, jacs = process_model(batch, odo, jacobian=True)
        # a batch (k, 3) has one Jacobian per pose, each the one-pose Jacobian
        assert jacs.shape == (3, 3, 3)
        for pose, pose_jac in zip(batch, jacs):
            assert np.array_equal(pose_jac, process_model(pose, odo, jacobian=True)[1])
        eps = 1e-7
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            fd = (
                process_model(x0 + step, odo)
                - process_model(x0 - step, odo)
            ) / (2 * eps)
            assert jac[:, j] == pytest.approx(fd, abs=1e-6)
            fd = (process_model(batch + step, odo) - process_model(batch - step, odo)) / (2 * eps)
            assert jacs[:, :, j] == pytest.approx(fd, abs=1e-6)


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

    @pytest.mark.parametrize("kind", ["ekf", "hinf"])
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_zero_distance_jacobian_raises(self, kind, mode):
        # the receiver height equals the beacon height and the robot stops
        # right under (that is, at) a beacon
        beacons = np.array([[0.0, 0.0, 3.5], [1.0, 0.0, 3.5], [0.0, 1.0, 3.5], [1.0, 1.0, 3.5]])
        model = ClusterModel(beacons, 3.5, mode, 0.005)
        obs = UsObservation("gr", tuple(np.ones(len(model.R))))
        with pytest.raises(FilterError, match="zero emitter-receiver distance"):
            filter_step(
                make_state(), OdometryIncrement(0.0, 0.0), obs, model, process_noise(), kind
            )


class TestNoiseModels:
    def test_spherical_diagonal(self):
        r = noise_model(Mode.SPHERICAL, 0.005, 5).R
        assert r == pytest.approx(0.005**2 * np.eye(5))

    def test_hyperbolic_structure(self):
        # a difference carries sqrt(2) the per-distance noise: sigma^2 = 2e-4
        r = noise_model(Mode.HYPERBOLIC, 0.01, 5).R
        assert np.all(np.diag(r) == pytest.approx(2e-4))
        off = r[~np.eye(4, dtype=bool)]
        assert np.all(off == pytest.approx(1e-4))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_hyperbolic_positive_definite(self, dim):
        r = noise_model(Mode.HYPERBOLIC, 0.005, dim + 1).R
        np.linalg.cholesky(r)  # raises if not PD

    def test_for_cluster_dimensions_and_difference_noise(self):
        sph = noise_model(Mode.SPHERICAL, 0.005, 5).R
        hyp = noise_model(Mode.HYPERBOLIC, 0.005, 5).R
        assert sph.shape == (5, 5) and hyp.shape == (4, 4)
        assert np.diag(sph) == pytest.approx([0.005**2] * 5)
        # a difference of two distance measurements carries sqrt(2) the noise
        assert np.diag(hyp) == pytest.approx([2 * 0.005**2] * 4)

    def test_zero_sigma_floored(self):
        floored = noise_model(Mode.SPHERICAL, 0.0, 4)
        assert np.all(np.diag(floored.R) == SIGMA_US_FLOOR**2)
        assert floored.R_inv == pytest.approx(np.linalg.inv(floored.R))

    def test_process_noise_matrix(self):
        config = default_scenario(noise=NoiseParams(0.1, 0.3, 0.005))
        q = _RunParams.bind(config, "ekf", "analytical").Q
        assert q == pytest.approx(np.diag([0.01, 0.01, 0.09]))


class TestUkfWeights:
    def test_reference_values(self):
        w_mean, w_cov, lam = ukf_weights(0.001, 2.0)
        assert lam == pytest.approx(3e-6 - 3)
        assert w_mean[0] == pytest.approx(-9.99999e5, rel=1e-6)
        assert w_mean[1] == pytest.approx(1.6666667e5, rel=1e-6)
        assert np.all(w_mean[1:] == w_mean[1])
        assert w_cov[0] == pytest.approx(w_mean[0] + 1 - 0.001**2 + 2.0)
        for bound, computed in zip(filters.UKF_WEIGHTS, (w_mean, w_cov, lam)):
            assert np.array_equal(bound, computed)

    def test_mean_weights_sum_to_one(self):
        w_mean, _, _ = filters.UKF_WEIGHTS
        assert math.fsum(w_mean) == pytest.approx(1.0, abs=1e-9)

    def test_tuning_constants_in_range(self):
        # the ranges the filters are defined on: the sigma-point spread in
        # (0, 1], a finite prior-knowledge weight and a positive H-infinity bound
        assert 0 < filters.UKF_ALPHA <= 1
        assert math.isfinite(filters.UKF_BETA)
        assert filters.HINF_GAMMA > 0 and math.isfinite(filters.HINF_GAMMA)

    def test_bound_once_at_import(self, gr_cluster, monkeypatch):
        calls = []
        weights = filters.ukf_weights
        monkeypatch.setattr(
            filters, "ukf_weights", lambda *args: calls.append(args) or weights(*args)
        )
        model = cluster_model(gr_cluster, Mode.SPHERICAL)
        values = measurement_model(Pose(0.0, 0.0, 0.0), gr_cluster, Z_MR, Mode.SPHERICAL)
        obs = UsObservation("gr", tuple(values))
        odo, q = OdometryIncrement(0.05, 0.0), process_noise()
        state = expected = make_state()
        for _ in range(3):
            state = filter_step(state, odo, obs, model, q, "ukf")
            expected = ukf_step(
                *expected,
                lambda points: process_model(points, odo),
                np.asarray(obs.values),
                lambda points: predict_ranges(points, model.beacons, Z_MR, Mode.SPHERICAL),
                q, model.R,
                filters.UKF_WEIGHTS, filters.THETA_INDEX,
            )
        assert calls == []
        assert np.array_equal(state[0], expected[0])
        assert np.array_equal(state[1], expected[1])

    def test_sigma_points_reproduce_covariance(self):
        w_mean, w_cov, lam = ukf_weights(0.5, 2.0)
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


class TestZeroInnovation:
    def test_ekf_state_unchanged(self, gr_cluster):
        state = make_state(1.0, 0.5, 0.3)
        odo = OdometryIncrement(0.1, 0.05)
        q = process_noise()
        predicted = Pose(*process_model(state[0], odo))
        z = UsObservation(
            "gr", tuple(measurement_model(predicted, gr_cluster, Z_MR, Mode.SPHERICAL))
        )
        out, _ = filter_step(state, odo, z, cluster_model(gr_cluster, Mode.SPHERICAL), q)
        assert out == pytest.approx(predicted.as_array(), abs=1e-12)

    def test_hinf_state_unchanged(self, gr_cluster):
        state = make_state(1.0, 0.5, 0.3)
        odo = OdometryIncrement(0.1, 0.05)
        q = process_noise()
        predicted = Pose(*process_model(state[0], odo))
        z = UsObservation(
            "gr", tuple(measurement_model(predicted, gr_cluster, Z_MR, Mode.SPHERICAL))
        )
        out, _ = filter_step(
            state, odo, z, cluster_model(gr_cluster, Mode.SPHERICAL), q, "hinf"
        )
        assert out == pytest.approx(predicted.as_array(), abs=1e-12)

    def test_ukf_state_equals_prior_mean(self, gr_cluster):
        state = make_state(1.0, 0.5, 0.3)
        odo = OdometryIncrement(0.1, 0.05)
        q = process_noise()
        # replicate the unscented flow to obtain zhat, then feed it back:
        # the prediction-only step gives the prior, from which the update
        # redraws its sigma points
        prior_only = filter_step(state, odo, None, None, q, "ukf")
        w_mean, _, lam = filters.UKF_WEIGHTS
        pts = sigma_points(*prior_only, lam)
        predicted = predict_ranges(
            pts[:, :2], gr_cluster.beacon_array(), Z_MR, Mode.SPHERICAL
        )
        z_hat = w_mean @ predicted
        out, _ = filter_step(
            state,
            odo,
            UsObservation("gr", tuple(z_hat)),
            cluster_model(gr_cluster, Mode.SPHERICAL),
            q,
            "ukf",
        )
        assert out == pytest.approx(prior_only[0], abs=1e-9)


class TestPredictionOnly:
    @pytest.mark.parametrize(
        "kind", FILTER_KINDS, ids=["ekf_step", "ukf_step", "hinf_step"]
    )
    def test_prediction_follows_odometry(self, kind):
        # negligible covariance so the unscented heading contraction vanishes
        state = make_state(0.0, 0.0, 0.0, p=1e-12)
        odo = OdometryIncrement(1.0, 0.0)
        q = process_noise()
        out, _ = filter_step(state, odo, None, None, q, kind)
        assert out[0] == pytest.approx(1.0)

    def test_ukf_prediction_contracts_with_heading_uncertainty(self):
        # the unscented mean of x + d*cos(theta) is d*(1 - P_theta/2) + O(P^2):
        # a real effect of heading uncertainty, not a bug
        state = make_state(0.0, 0.0, 0.0, p=0.01)
        out, _ = filter_step(
            state, OdometryIncrement(1.0, 0.0), None, None,
            process_noise(), "ukf",
        )
        assert out[0] == pytest.approx(1.0 - 0.01 / 2, abs=1e-5)

    def test_ekf_trace_nondecreasing_without_observations(self):
        state = make_state()
        q = process_noise()
        traces = [np.trace(state[1])]
        for _ in range(10):
            state = filter_step(state, OdometryIncrement(0.1, 0.0), None, None, q)
            traces.append(np.trace(state[1]))
        assert all(b >= a - 1e-15 for a, b in zip(traces, traces[1:]))


class TestFilterKinds:
    @pytest.mark.parametrize("kind", ["kalman", "EKF"])
    def test_unknown_kind_rejected(self, gr_cluster, kind):
        obs = UsObservation("gr", (3.6, 3.7, 3.8, 3.9, 3.65))
        for z, model in [(None, None), (obs, cluster_model(gr_cluster, Mode.SPHERICAL))]:
            with pytest.raises(FilterError, match="filter kind"):
                filter_step(make_state(), OdometryIncrement(0.1, 0.0), z, model,
                            process_noise(), kind)
        with pytest.raises(ValueError, match="filter_kind"):
            run_scan([], default_scenario(), kind, "analytical")


def step_alone(kind, state, odo, obs, cluster, q):
    """One lane (x, P) through the plain (n,) form of the step functions."""
    x, P = state
    jacobian = kind != "ukf"
    z = measure = R = None
    if obs is not None:
        z = np.array(obs.values)
        R = cluster.R_inv if kind == "hinf" else cluster.R

        def measure(s):
            return predict_ranges(s, cluster.beacons, cluster.z_mr, cluster.mode, jacobian)

    def motion(s):
        return process_model(s, odo, jacobian)

    if kind == "ekf":
        x, P = ekf_step(x, P, motion, z, measure, q, R, THETA_INDEX)
    elif kind == "ukf":
        x, P = ukf_step(x, P, motion, z, measure, q, R, UKF_WEIGHTS, THETA_INDEX)
    else:
        x, P = hinf_step(x, P, motion, z, measure, q, R, HINF_GAMMA, THETA_INDEX)
    return x, P


def spread_lanes(gr_cluster, mode, covariances):
    """One lane per covariance, each in a cluster of its own (shifted,
    stretched, with its own noise) and observing it with noise; the lanes'
    states stacked as (x (k, 3), P (k, 3, 3))."""
    rng = np.random.default_rng(21)
    poses, observations, clusters = [], [], []
    for i, P in enumerate(covariances):
        shift = rng.uniform(-6.0, 6.0, size=2)
        beacons = gr_cluster.beacon_array() * [0.8 + 0.2 * i, 1.1 - 0.1 * i, 1.0]
        beacons[:, :2] += shift
        model = ClusterModel(beacons, Z_MR, mode, 0.004 * (i + 1))
        pose = Pose(*(shift + rng.normal(0.0, 0.6, size=2)), rng.uniform(-3.0, 3.0))
        values = predict_ranges(pose.as_array(), beacons, Z_MR, mode)
        poses.append(pose.as_array())
        noisy = values + rng.normal(0.0, 0.01, len(values))
        observations.append(UsObservation(f"c{i}", tuple(noisy)))
        clusters.append(model)
    return (np.array(poses), np.array(covariances)), tuple(observations), tuple(clusters)


def random_covariances(count):
    rng = np.random.default_rng(5)
    roots = rng.normal(0.0, 0.05, size=(count, 3, 3))
    return [root @ root.T + 1e-3 * np.eye(3) for root in roots]


def lanes_of(states):
    """The (x, P) of each lane of stacked states."""
    return list(zip(*states))


def assert_same_lanes(stacked, alone):
    assert len(stacked[0]) == len(stacked[1]) == len(alone)
    for a, b in zip(lanes_of(stacked), alone):
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestLaneAxis:
    """A stacked step of k lanes gives each lane, bit for bit, what the plain
    one-lane step gives it."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_stacked_step_equals_each_lane_alone(self, gr_cluster, kind, mode):
        states, observations, clusters = spread_lanes(gr_cluster, mode, random_covariances(3))
        odo, q = OdometryIncrement(0.07, -0.04), process_noise()
        for _ in range(4):
            predicted = filter_steps(states, odo, None, None, q, kind)
            assert_same_lanes(
                predicted, [step_alone(kind, s, odo, None, None, q) for s in lanes_of(states)]
            )
            updated = filter_steps(predicted, odo, observations, clusters, q, kind)
            assert_same_lanes(updated, [
                step_alone(kind, s, odo, obs, c, q)
                for s, obs, c in zip(lanes_of(predicted), observations, clusters)
            ])
            states = updated

    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_ukf_jitter_retry_stays_in_its_lane(self, gr_cluster, mode):
        # the middle lane's covariance is semidefinite: its plain Cholesky
        # factorization fails and only it is retried with jitter
        covariances = random_covariances(3)
        covariances[1] = np.diag([0.01, 0.01, 0.0])
        lam = UKF_WEIGHTS[2]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((3 + lam) * np.array(covariances))
        states, observations, clusters = spread_lanes(gr_cluster, mode, covariances)
        odo, q = OdometryIncrement(0.05, 0.02), process_noise()
        for obs, models in [(None, None), (observations, clusters)]:
            stacked = filter_steps(states, odo, obs, models, q, "ukf")
            assert_same_lanes(stacked, [
                step_alone("ukf", s, odo, o, c, q)
                for s, o, c in zip(lanes_of(states), obs or [None] * 3, models or [None] * 3)
            ])

    def test_hinf_existence_violation_raises_in_a_stack(self, gr_cluster):
        # a covariance so loose that P^-1 - gamma*I + H^T R^-1 H is indefinite
        # in the unobserved heading
        covariances = random_covariances(3)
        states, observations, clusters = spread_lanes(gr_cluster, Mode.SPHERICAL, covariances)
        odo, q = OdometryIncrement(0.05, 0.0), process_noise()
        filter_steps(states, odo, observations, clusters, q, "hinf")
        states[1][2] = 100.0 * np.eye(3)
        with pytest.raises(FilterError, match="aggressive"):
            filter_steps(states, odo, observations, clusters, q, "hinf")

    def test_lanes_of_one_step_share_length_and_mode(self, gr_cluster):
        states, observations, clusters = spread_lanes(
            gr_cluster, Mode.SPHERICAL, random_covariances(2)
        )
        odo, q = OdometryIncrement(0.05, 0.0), process_noise()
        hyperbolic = replace(clusters[1], mode=Mode.HYPERBOLIC)
        shorter = UsObservation("c1", observations[1].values[1:])
        for obs, models in [
            ((observations[0], shorter), (clusters[0], hyperbolic)),
            (observations, (clusters[0], replace(clusters[1], z_mr=Z_MR + 0.1))),
        ]:
            with pytest.raises(FilterError, match="one length"):
                filter_steps(states, odo, obs, models, q, "ekf")


class TestInputsUntouched:
    """Every lane of a run bootstraps from the one ``_RunParams.P0`` array
    and every step gets the one ``Q``: a step that wrote into an input would
    corrupt every lane."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_step_writes_into_no_input(self, gr_cluster, kind, mode):
        states, observations, clusters = spread_lanes(gr_cluster, mode, random_covariances(3))
        odo, q = OdometryIncrement(0.07, -0.04), process_noise()
        inputs = [*states, q, *(c.R for c in clusters), *(c.R_inv for c in clusters)]
        before = [a.tobytes() for a in inputs]
        # one lane, as views into the stack
        lane = (states[0][0], states[1][0])
        for obs, models in [(None, None), (observations, clusters)]:
            filter_steps(states, odo, obs, models, q, kind)
            filter_step(lane, odo, obs and obs[0], models and models[0], q, kind)
            assert [a.tobytes() for a in inputs] == before


class TestZeroNoiseTracking:
    @pytest.mark.parametrize(
        "kind,tol",
        [("ekf", 1e-6), ("ukf", 1e-6), ("hinf", 1e-4)],
        ids=["ekf_step-kwargs0-1e-06", "ukf_step-kwargs1-1e-06", "hinf_step-kwargs2-0.0001"],
    )
    @pytest.mark.parametrize("mode", [Mode.SPHERICAL, Mode.HYPERBOLIC])
    def test_exact_init_tracks_truth(self, gr_cluster, kind, tol, mode):
        # straight pass through the cluster, exact measurements, exact start:
        # the filters must follow the truth to within the stated tolerance
        q = process_noise(1e-6, 1e-6, 1e-6)
        truth = Pose(-2.5, 0.3, 0.0)
        state = truth.as_array(), 1e-12 * np.eye(3)
        worst = 0.0
        for _ in range(100):
            new_truth = Pose(*process_model(truth.as_array(), OdometryIncrement(0.05, 0.0)))
            z = UsObservation(
                "gr", tuple(measurement_model(new_truth, gr_cluster, Z_MR, mode))
            )
            state = filter_step(
                state, OdometryIncrement(0.05, 0.0), z, cluster_model(gr_cluster, mode, 0.0),
                q, kind,
            )
            truth = new_truth
            worst = max(worst, float(np.hypot(*(state[0][:2] - truth.xy))))
        assert worst <= tol


class TestLinearModelCrossValidation:
    def test_ukf_matches_ekf_on_linear_model(self):
        # 2-state linear system: both filters reduce to the plain Kalman filter
        F = np.array([[1.0, 0.1], [0.0, 1.0]])
        H = np.array([[1.0, 0.0]])
        Q = np.diag([1e-4, 1e-4])
        R = np.array([[0.04]])
        weights = ukf_weights(1.0, 2.0, state_dim=2)
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

    def test_hinf_gamma_too_aggressive_reported(self, gr_cluster, monkeypatch):
        monkeypatch.setattr(filters, "HINF_GAMMA", 1e9)
        state = make_state(p=1.0)
        odo = OdometryIncrement(0.1, 0.0)
        q = process_noise()
        z = UsObservation(
            "gr",
            tuple(measurement_model(Pose(*state[0]), gr_cluster, Z_MR, Mode.SPHERICAL)),
        )
        with pytest.raises(FilterError, match="aggressive"):
            filter_step(
                state, odo, z, cluster_model(gr_cluster, Mode.SPHERICAL), q, "hinf"
            )


class TestFrameTranslationCommutes:
    # the UKF case uses a moderate alpha: the default 0.001 gives +-1e6
    # weights whose cancellation leaves ~1e-7 floating-point noise in the
    # update (prediction-only commutation still holds at 1e-9 regardless)
    @pytest.mark.parametrize("kind", FILTER_KINDS, ids=KIND_IDS)
    def test_translation_equivariance(self, gr_cluster, kind, monkeypatch):
        monkeypatch.setattr(filters, "UKF_WEIGHTS", ukf_weights(0.1, UKF_BETA))
        shift = np.array([7.0, -3.0])
        moved_cluster = UlpsDescriptor(
            "gr",
            UlpsKind.GLOBALLY_REFERENCED,
            tuple(Beacon(b.x + shift[0], b.y + shift[1], b.z) for b in gr_cluster.beacons),
            (shift[0], shift[1]),
            5.0,
        )
        q = process_noise()
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
                cluster_model(gr_cluster, Mode.SPHERICAL) if obs else None, q, kind,
            )
            b = filter_step(
                moved, odo, obs_moved,
                cluster_model(moved_cluster, Mode.SPHERICAL) if obs else None, q, kind,
            )
            # prediction-only steps commute to 1e-9; update steps with the
            # tiny-alpha sigma weights (+-1e6 with cancellation) keep a bit
            # more floating-point noise
            tol = 1e-9 if obs is None else 1e-8
            assert b[0][:2] - shift == pytest.approx(a[0][:2], abs=tol)
            assert b[0][2] == pytest.approx(a[0][2], abs=tol)
            assert b[1] == pytest.approx(a[1], abs=tol)
            state, moved = a, b


class TestCovarianceHygiene:
    @pytest.mark.parametrize("kind", FILTER_KINDS, ids=KIND_IDS)
    def test_symmetric_psd_after_noisy_sequence(self, gr_cluster, kind):
        rng = np.random.default_rng(8)
        q = process_noise()
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
                cluster_model(gr_cluster, Mode.SPHERICAL) if obs else None, q, kind,
            )
            assert state[1] == pytest.approx(state[1].T, abs=1e-15)
            assert np.min(np.linalg.eigvalsh(state[1])) >= -1e-10

    def test_theta_stays_wrapped_across_pi(self):
        state = make_state(0.0, 0.0, 3.1)
        q = process_noise()
        out, _ = filter_step(state, OdometryIncrement(0.1, 0.2), None, None, q)
        assert -math.pi < out[2] <= math.pi
        assert out[2] == pytest.approx(3.3 - 2 * math.pi)
