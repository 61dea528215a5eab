"""Acceptance suite: runs every criterion at its stated tolerance.

Each test prints one pass/fail line.  The seeded batches (100 runs each) are
shared between criteria through a module-level cache and run on two worker
processes; the whole module takes a few minutes.
"""

import math
import time
from dataclasses import replace

import numpy as np

from scansim.calibration import analytical_tc
from scansim.cli import run_batch
from scansim.filters import (
    FILTER_KINDS,
    UKF_WEIGHTS,
    ClusterModel,
    ekf_step,
    filter_step,
    hinf_step,
    ukf_step,
    ukf_weights,
)
from scansim.geometry import TransformVector, predict_ranges, transform_point
from scansim.orchestrator import inverse_trajectory_pass, run_scan
from scansim.positioning import gauss_newton_fix
from scansim.reporting import compute_cdf, percentile_from_cdf
from scansim.scenario import Mode, NoiseParams, Pose, default_scenario
from scansim.simulator import OdometryIncrement, UsObservation, simulate

from test_positioning import exact_observation, grid_refinement_oracle

RUNS = 100
JOBS = 2
_batches = {}


def check(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion} ({description}): {status} {detail}")
    assert ok, f"criterion {criterion} ({description}): {detail}"


def batch(mode, method, inverse, d_min=2.5):
    """100-run seeded batch on the default scenario, cached across criteria."""
    key = (Mode(mode).value, method, inverse, d_min)
    if key not in _batches:
        config = default_scenario(mode=mode, seed=1, d_min=d_min)
        _batches[key] = run_batch(config, RUNS, "ekf", method, inverse, jobs=JOBS)
    return _batches[key]


def pooled_beacon_errors(summaries):
    pooled = []
    for summary in summaries:
        for errors in summary.per_beacon_errors.values():
            pooled.extend(errors)
    return pooled


def test_criterion_1_zero_noise_oracle_suite():
    started = time.perf_counter()
    quiet = NoiseParams(0.0, 0.0, 0.0)
    failures = []
    for filter_kind in ("ekf", "ukf", "hinf"):
        for mode in (Mode.SPHERICAL, Mode.HYPERBOLIC):
            for method, tol in (("analytical", 1e-6), ("numerical", 1e-4)):
                config = default_scenario(mode=mode, noise=quiet)
                result = run_scan(simulate(config), config, filter_kind, method)
                worst = max(
                    (r.beacon_error for r in result.calibrations.values()),
                    default=math.inf,
                )
                if result.global_rmse > 1e-4:
                    failures.append(f"{filter_kind}/{mode.value}: rmse {result.global_rmse:.2e}")
                if len(result.calibrations) != 7 or worst > tol:
                    failures.append(
                        f"{filter_kind}/{mode.value}/{method}: worst beacon {worst:.2e}"
                    )
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    check(1, "zero-noise oracle suite", not failures,
          f"runtime {elapsed:.1f}s; {'; '.join(failures) or 'all 12 combos exact'}")


def test_criterion_2_nominal_noise_analytical():
    config = default_scenario()
    noise = config.noise
    assert (noise.sigma_d_odo, noise.sigma_theta_odo, noise.sigma_us) == (
        0.03, 0.02, 0.005,
    )
    assert config.d_min == 2.5
    started = time.perf_counter()
    _, sph = batch(Mode.SPHERICAL, "analytical", inverse=True)
    _, hyp = batch(Mode.HYPERBOLIC, "analytical", inverse=True)
    elapsed = time.perf_counter() - started
    ok = (
        sph.failed_runs == 0
        and hyp.failed_runs == 0
        and sph.worst_cluster_mean() <= 0.3
        and hyp.worst_cluster_mean() <= 0.55
        and elapsed < 300.0
    )
    check(2, "nominal noise, analytical, 100 runs", ok,
          f"worst spherical {sph.worst_cluster_mean():.3f} (<=0.3), "
          f"worst hyperbolic {hyp.worst_cluster_mean():.3f} (<=0.55), "
          f"runtime {elapsed:.0f}s (<300s)")


def test_criterion_3_nominal_noise_numerical():
    _, sph = batch(Mode.SPHERICAL, "numerical", inverse=True)
    _, hyp = batch(Mode.HYPERBOLIC, "numerical", inverse=True)
    ok = (
        sph.failed_runs == 0
        and hyp.failed_runs == 0
        and sph.worst_cluster_mean() <= 0.25
        and hyp.worst_cluster_mean() <= 0.5
    )
    check(3, "nominal noise, numerical, 100 runs", ok,
          f"worst spherical {sph.worst_cluster_mean():.3f} (<=0.25), "
          f"worst hyperbolic {hyp.worst_cluster_mean():.3f} (<=0.5)")


def test_criterion_4_d_min_sweep():
    p95 = {}
    for d_min in (0.5, 1.5, 2.5, 5.0):
        summaries, aggregate = batch(Mode.SPHERICAL, "analytical", True, d_min=d_min)
        table = compute_cdf(pooled_beacon_errors(summaries))
        p95[d_min] = percentile_from_cdf(table, 0.95)
    ok = p95[2.5] <= 0.5 and p95[2.5] < p95[0.5] and p95[2.5] < p95[5.0]
    check(4, "d_min sweep 95th percentile ordering", ok,
          "p95 = " + ", ".join(f"{k}: {v:.4f}" for k, v in sorted(p95.items()))
          + " (need 2.5 <= 0.5 m, strictly below 0.5 m and 5.0 m values)")


def test_criterion_5_spatial_error_pattern():
    config = default_scenario()
    centers = [np.array(u.coverage_center) for u in config.global_clusters]
    midpoint = (centers[0] + centers[1]) / 2
    nearest = min(
        config.local_clusters,
        key=lambda u: float(np.hypot(*(np.array(u.coverage_center) - midpoint))),
    )
    _, aggregate = batch(Mode.SPHERICAL, "analytical", inverse=True)
    means = {cid: m for cid, m in aggregate.per_cluster_mean.items() if m is not None}
    worst_cluster = max(means, key=means.get)
    ok = worst_cluster == nearest.id
    check(5, "largest error at mid-path cluster", ok,
          f"expected {nearest.id}, largest is {worst_cluster} "
          + str({k: round(v, 3) for k, v in means.items()}))


def test_criterion_6_inverse_trajectory_benefit():
    forward_means, inverse_means = [], []
    for seed in range(1, RUNS + 1):
        config = default_scenario(mode=Mode.SPHERICAL, seed=seed)
        frames = simulate(config)
        forward = run_scan(frames, config, "ekf", "analytical")
        merged = inverse_trajectory_pass(frames, forward, config)
        order = sorted(
            forward.calibrations.values(), key=lambda r: r.calibration_epoch
        )
        last = [r.cluster_id for r in order[-config.inverse_correct_count:]]
        forward_means.append(
            np.mean([forward.calibrations[cid].beacon_error for cid in last])
        )
        inverse_means.append(
            np.mean([merged.calibrations[cid].beacon_error for cid in last])
        )
    fwd, inv = float(np.mean(forward_means)), float(np.mean(inverse_means))
    ok = inv <= fwd
    check(6, "inverse pass improves last 3 clusters", ok,
          f"forward {fwd:.3f} m vs inverse {inv:.3f} m over {RUNS} paired seeds")


def test_criterion_7_filter_cross_validation():
    # UKF with alpha=1 equals the EKF (both reduce to a Kalman filter) on a
    # linear model
    F = np.array([[1.0, 0.1], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = np.diag([1e-4, 1e-4])
    R = np.array([[0.04]])
    weights = ukf_weights(1.0, 2.0, state_dim=2)
    x_e = x_u = np.array([0.0, 1.0])
    P_e = P_u = np.eye(2) * 0.5
    rng = np.random.default_rng(17)
    ukf_gap = 0.0
    for _ in range(40):
        z = np.array([rng.normal(1.0, 0.2)])
        x_e, P_e = ekf_step(
            x_e, P_e, motion=lambda s: (F @ s, F), z=z,
            measure=lambda s: (H @ s, H), Q=Q, R=R,
        )
        x_u, P_u = ukf_step(
            x_u, P_u, motion=lambda pts: pts @ F.T, z=z,
            measure=lambda pts: pts @ H.T, Q=Q, R=R, weights=weights,
        )
        ukf_gap = max(ukf_gap, float(np.max(np.abs(x_u - x_e))))

    # H-infinity approaches the Kalman sequence as gamma -> 0 on the scalar
    # problem (closed-form Kalman recursion as the oracle)
    A, Hs, Qs, Rs = 1.0, 1.0, 0.01, 0.5
    x_h, P_h = np.array([0.0]), np.array([[1.0]])
    x_k, p_k = 0.0, 1.0
    hinf_gap = 0.0
    for _ in range(50):
        z = rng.normal(0.7, math.sqrt(Rs))
        x_h, P_h = hinf_step(
            x_h, P_h, motion=lambda s: (A * s, np.array([[A]])), z=np.array([z]),
            measure=lambda s: (Hs * s, np.array([[Hs]])),
            Q=np.array([[Qs]]), R_inv=np.linalg.inv(np.array([[Rs]])), gamma=1e-9,
        )
        x_pred = A * x_k
        gain = A * p_k * Hs / (Hs * p_k * Hs + Rs)
        x_k = x_pred + gain * (z - Hs * x_pred)
        p_k = A * p_k * Rs / (Hs * Hs * p_k + Rs) * A + Qs
        hinf_gap = max(hinf_gap, abs(x_h[0] - x_k))
    ok = ukf_gap <= 1e-8 and hinf_gap <= 1e-6
    check(7, "filter cross-validation on linear models", ok,
          f"UKF vs EKF gap {ukf_gap:.2e} (<=1e-8), "
          f"H-inf vs Kalman gap {hinf_gap:.2e} (<=1e-6)")


def test_criterion_8_numerical_property_suite():
    failures = []

    # UKF weight-sum identity
    w_mean, _, _ = UKF_WEIGHTS
    if abs(math.fsum(w_mean) - 1.0) > 1e-9:
        failures.append("UKF weight sum")

    # analytic vs central-difference measurement Jacobian
    config = default_scenario()
    cluster = config.cluster("gr1")
    rng = np.random.default_rng(23)
    eps, worst_fd = 1e-6, 0.0
    for mode in (Mode.SPHERICAL, Mode.HYPERBOLIC):
        for _ in range(100):
            x, y = rng.uniform(-4, 4, size=2)
            beacons = cluster.beacon_array()
            _, jac = predict_ranges(Pose(x, y, 0.0).as_array(), beacons, 0.5, mode, jacobian=True)
            for j, step in enumerate(np.eye(2) * eps):
                hi = predict_ranges(np.array([x, y]) + step, beacons, 0.5, mode)
                lo = predict_ranges(np.array([x, y]) - step, beacons, 0.5, mode)
                worst_fd = max(worst_fd, float(np.max(np.abs(jac[:, j] - (hi - lo) / (2 * eps)))))
    if worst_fd > 1e-5:
        failures.append(f"jacobian FD {worst_fd:.1e}")

    # analytical transform round trip
    worst_rt = 0.0
    for _ in range(200):
        truth = TransformVector.from_rotation(
            rng.uniform(-math.pi, math.pi), *rng.uniform(-8, 8, 2)
        )
        a = rng.uniform(-5, 5, 2)
        b = a + rng.uniform(0.5, 5.0, 2)
        got = analytical_tc(
            (a, transform_point(a, truth)), (b, transform_point(b, truth))
        )
        worst_rt = max(worst_rt, float(np.max(np.abs(got.as_array() - truth.as_array()))))
    if worst_rt > 1e-10:
        failures.append(f"transform round trip {worst_rt:.1e}")

    # hyperbolic measurement covariance positive definite
    try:
        for dim in range(1, 9):
            np.linalg.cholesky(ClusterModel(np.zeros((dim + 1, 3)), 0.5, Mode.HYPERBOLIC, 0.005).R)
    except np.linalg.LinAlgError:
        failures.append("hyperbolic R not PD")

    # Gauss-Newton vs grid-refinement oracle on noise-free fixtures
    worst_gn = 0.0
    for mode in (Mode.SPHERICAL, Mode.HYPERBOLIC):
        for target in ((1.7, -0.9), (-3.0, 1.2)):
            obs = exact_observation(target, cluster, mode, z_mr=0.5)
            fix = gauss_newton_fix(obs, cluster, 0.5, mode)
            oracle = grid_refinement_oracle(obs, cluster, mode, z_mr=0.5)
            worst_gn = max(worst_gn, float(np.hypot(*(fix.xy - oracle))))
    if worst_gn > 1e-4:
        failures.append(f"GN vs grid oracle {worst_gn:.1e}")

    # covariance symmetry after every step of every filter
    q = np.diag([0.03**2, 0.03**2, 0.02**2])
    model = ClusterModel(cluster.beacon_array(), 0.5, Mode.SPHERICAL, 0.005)

    for kind in FILTER_KINDS:
        x, P = np.array([-2.0, 0.1, 0.0]), 0.01 * np.eye(3)
        truth = Pose(-2.0, 0.1, 0.0)
        for k in range(40):
            odo = OdometryIncrement(0.05 + rng.normal(0, 0.01), rng.normal(0, 0.005))
            truth = replace(truth, x=truth.x + 0.05)
            values = predict_ranges(truth.xy, cluster.beacon_array(), 0.5, Mode.SPHERICAL)
            obs = UsObservation("gr1", tuple(values + rng.normal(0, 0.005, 5)))
            x, P = filter_step((x, P), odo, obs, model, q, kind)
            if not np.allclose(P, P.T, atol=1e-15):
                failures.append(f"{kind} covariance asymmetric")
                break
            if np.min(np.linalg.eigvalsh(P)) < -1e-10:
                failures.append(f"{kind} covariance indefinite")
                break

    check(8, "numerical property suite", not failures, "; ".join(failures) or
          f"FD {worst_fd:.1e}, round-trip {worst_rt:.1e}, GN-oracle {worst_gn:.1e}")
