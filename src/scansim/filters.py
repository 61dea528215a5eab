"""State estimation: shared motion/measurement models and EKF, UKF, H-infinity.

All three filters estimate the same 3-state vector [x, y, theta] from
odometry increments and per-cluster ultrasound observations.  Each filter is
one step function on arrays and model callables (``ekf_step``, ``ukf_step``,
``hinf_step``), tuned by module constants.  A step takes one state (n,) or a
stack of lanes (k, n) that it steps together, as the paper runs one filter
per reference frame in parallel; each lane of a stack comes out bit for bit
as it would alone, and no step writes into its inputs.  One pose-level step,
``filter_steps``, binds the motion and range models of ``geometry`` and the
observed clusters' noise (``ClusterModel``) to the step function of the
filter kind it is given, on the lanes' stacked estimates x (k, 3) and
covariances P (k, 3, 3); ``filter_step`` is its one-lane call on one (x, P).
The linear cross-validation fixtures of the test suite call the same step
functions with linear models and other tuning.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import FilterError
from .geometry import Mode, predict_ranges, process_model, wrap_angles
from .simulator import OdometryIncrement, UsObservation

STATE_DIM = 3
THETA_INDEX = 2

#: Smallest measurement noise the filters will model.  A zero-noise scenario
#: would otherwise produce a singular innovation covariance.
SIGMA_US_FLOOR = 1e-6

#: Sigma-point spread of the UKF, lambda = alpha^2 L - L.  kappa is 0: the
#: Julier-Uhlmann choice kappa = 3 - L for the 3-state pose.
UKF_ALPHA = 0.001
UKF_BETA = 2.0

#: Attenuation level of the H-infinity filter; larger is more aggressive.
HINF_GAMMA = 0.2


@dataclass(frozen=True)
class ClusterModel:
    """What a filter update needs to know about one observed cluster.

    ``beacons`` is the (I, 3) beacon array in the filter's frame, ``z_mr``
    the receiver height and ``sigma_us`` the per-distance ultrasound noise
    std.  ``R`` is the observation covariance and ``R_inv`` its inverse, for
    the H-infinity update, both computed once when the model is built.
    Spherical observations are independent: R = sigma^2 * I.  A hyperbolic
    observation is the difference of two distances, so it carries sqrt(2)
    times the per-distance noise, and every pair of them shares the
    reference beacon's noise: sigma^2 on the diagonal and 0.5 * sigma^2 off
    it, which is positive definite for any dimension.  sigma is floored at
    ``SIGMA_US_FLOOR``.
    """

    beacons: np.ndarray
    z_mr: float
    mode: Mode
    sigma_us: float
    R: np.ndarray = field(init=False, repr=False)
    R_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim, sigma = len(self.beacons), float(self.sigma_us)
        if Mode(self.mode) is Mode.SPHERICAL:
            R = max(sigma, SIGMA_US_FLOOR) ** 2 * np.eye(dim)
        else:
            dim, sigma = dim - 1, max(math.sqrt(2.0) * sigma, SIGMA_US_FLOOR)
            R = 0.5 * sigma**2 * (np.eye(dim) + np.ones((dim, dim)))
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "R_inv", np.linalg.inv(R))


# ---------------------------------------------------------------------------
# Filter steps
# ---------------------------------------------------------------------------

def _T(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (of the matrix itself in 2D)."""
    return a.swapaxes(-1, -2)


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for each matrix and vector of a stack."""
    return (A @ v[..., None])[..., 0]


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + _T(P)) / 2.0


def _wrap_component(x: np.ndarray, angle_idx) -> np.ndarray:
    if angle_idx is not None:
        x = x.copy()
        x[..., angle_idx] = wrap_angles(x[..., angle_idx])
    return x


def _propagate(F, P, Q):
    """Prior covariance F P F^T + Q of a linearized prediction."""
    return _symmetrize(F @ P @ _T(F) + Q)


def ekf_step(x, P, motion, z, measure, Q, R, angle_idx=None):
    """One extended-Kalman step; ``z`` may be None for prediction only.

    ``x`` is one state (n,) or a stack of lanes (k, n), with ``P``, ``z`` and
    ``R`` stacked alike; ``Q`` is shared or stacked.  ``motion`` maps the
    state(s) to the predicted state(s) and Jacobian(s), ``measure`` maps the
    predicted state(s) to the predicted observation(s) and Jacobian(s).  The
    component ``angle_idx``, if any, is wrapped to (-pi, pi].
    """
    x_prior, F = motion(x)
    x_prior = _wrap_component(x_prior, angle_idx)
    P_prior = _propagate(F, P, Q)
    if z is None:
        return x_prior, P_prior
    z_hat, jac = measure(x_prior)
    innovation = z - z_hat
    S = jac @ P_prior @ _T(jac) + R
    try:
        gain = _T(np.linalg.solve(S, jac @ P_prior))
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"innovation covariance not invertible: {exc}") from exc
    x_post = _wrap_component(x_prior + _matvec(gain, innovation), angle_idx)
    P_post = _symmetrize((np.eye(x_prior.shape[-1]) - gain @ jac) @ P_prior)
    return x_post, P_post


def ukf_weights(alpha: float, beta: float, state_dim: int = STATE_DIM):
    """Mean and covariance weights for the 2L+1 sigma points, and lambda."""
    lam = alpha**2 * state_dim - state_dim
    denom = state_dim + lam
    w_mean = np.full(2 * state_dim + 1, 1.0 / (2.0 * denom))
    w_cov = w_mean.copy()
    w_mean[0] = lam / denom
    w_cov[0] = lam / denom + 1.0 - alpha**2 + beta
    return w_mean, w_cov, lam


#: ``ukf_weights`` of the pose filter, computed once.
UKF_WEIGHTS = ukf_weights(UKF_ALPHA, UKF_BETA)


def _cholesky_each(scaled: np.ndarray) -> np.ndarray:
    """Cholesky factor of each matrix of a stack, factored alone; one that
    fails is retried once with 1e-12 jitter on the diagonal."""
    root = np.empty_like(scaled)
    jitter = 1e-12 * np.eye(scaled.shape[-1])
    for i in np.ndindex(scaled.shape[:-2]):
        try:
            root[i] = np.linalg.cholesky(scaled[i])
        except np.linalg.LinAlgError:
            try:
                root[i] = np.linalg.cholesky(scaled[i] + jitter)
            except np.linalg.LinAlgError as exc:
                raise FilterError(
                    f"covariance is not positive definite (Cholesky failed): {exc}"
                ) from exc
    return root


def sigma_points(x: np.ndarray, P: np.ndarray, lam: float) -> np.ndarray:
    """Sigma points x, x +- columns of chol((L + lambda) P), as rows: (2L+1,
    L) for one state, (k, 2L+1, L) for a stack of lanes.

    A failed Cholesky factorization is retried once with 1e-12 jitter on the
    diagonal before giving up; in a stack, only on the lanes that fail.
    """
    x = np.asarray(x, dtype=float)
    L = x.shape[-1]
    scaled = (L + lam) * np.asarray(P, dtype=float)
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        root = _cholesky_each(scaled)
    pts = np.empty(x.shape[:-1] + (2 * L + 1, L))
    center, columns = x[..., None, :], _T(root)
    pts[..., :1, :] = center
    pts[..., 1 : L + 1, :] = center + columns
    pts[..., L + 1 :, :] = center - columns
    return pts


def _ut_mean(points: np.ndarray, w_mean: np.ndarray, angle_idx) -> np.ndarray:
    """Weighted sigma-point mean; angle components via weighted sin/cos sums."""
    mean = w_mean @ points
    if angle_idx is not None:
        angles = points[..., angle_idx]
        # a matrix product per lane, then math.atan2: the same bits as one
        # lane's dot products and atan2, which np.arctan2 does not give
        sin = (w_mean @ np.sin(angles)[..., None])[..., 0]
        cos = (w_mean @ np.cos(angles)[..., None])[..., 0]
        heading = map(math.atan2, sin.ravel().tolist(), cos.ravel().tolist())
        mean[..., angle_idx] = np.reshape(list(heading), sin.shape)
    return mean


def _ut_residuals(points: np.ndarray, mean: np.ndarray, angle_idx) -> np.ndarray:
    res = points - mean[..., None, :]
    if angle_idx is not None:
        res[..., angle_idx] = wrap_angles(res[..., angle_idx])
    return res


def ukf_step(x, P, motion, z, measure, Q, R, weights, angle_idx=None):
    """One unscented step with additive noise; ``z`` may be None for
    prediction only.

    ``x`` is one state (n,) or a stack of lanes (k, n), with ``P``, ``z`` and
    ``R`` stacked alike.  ``motion`` and ``measure`` map the (m, n) sigma
    points, or (k, m, n) for a stack, to their propagated states / predicted
    observations; ``weights`` is the ``ukf_weights`` triple.  Q is added to
    the prior covariance after the unscented prediction; the update then
    redraws sigma points from the Q-inflated prior (the standard
    additive-noise form — it is what makes the filter reduce exactly to a
    Kalman filter on linear models) and R is added to the innovation
    covariance.
    """
    w_mean, w_cov, lam = weights
    propagated = motion(sigma_points(x, P, lam))
    x_prior = _ut_mean(propagated, w_mean, angle_idx)
    res_x = _ut_residuals(propagated, x_prior, angle_idx)
    P_prior = _symmetrize(_T(res_x * w_cov[:, None]) @ res_x + Q)
    x_prior = _wrap_component(x_prior, angle_idx)
    if z is None:
        return x_prior, P_prior
    points = sigma_points(x_prior, P_prior, lam)
    res_x = _ut_residuals(points, x_prior, angle_idx)
    predicted = measure(points)
    z_hat = w_mean @ predicted
    res_z = predicted - z_hat[..., None, :]
    P_zz = _T(res_z * w_cov[:, None]) @ res_z + R
    P_xz = _T(res_x * w_cov[:, None]) @ res_z
    try:
        gain = _T(np.linalg.solve(_T(P_zz), _T(P_xz)))
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"innovation covariance not invertible: {exc}") from exc
    x_post = _wrap_component(x_prior + _matvec(gain, z - z_hat), angle_idx)
    P_post = _symmetrize(P_prior - gain @ P_zz @ _T(gain))
    return x_post, P_post


def hinf_step(x, P, motion, z, measure, Q, R_inv, gamma: float, angle_idx=None):
    """One H-infinity step in information form; ``z`` may be None for
    prediction only.

    ``x``, ``P``, ``z``, ``motion`` and ``measure`` are as for ``ekf_step``,
    and ``R_inv`` is the inverse of the observation covariance, stacked like
    ``P``.  With M = P^-1 - gamma*I + H^T R^-1 H (whose positive definiteness
    is the filter's existence condition), the gain is K = A M^-1 H^T R^-1 and
    the updated covariance is A M^-1 A^T + Q, where H is the observation
    Jacobian at the predicted state and A the motion Jacobian.  Without an
    observation the step degrades to covariance propagation A P A^T + Q.
    """
    x_prior, A = motion(x)
    x_prior = _wrap_component(x_prior, angle_idx)
    if z is None:
        return x_prior, _propagate(A, P, Q)
    z_hat, jac = measure(x_prior)
    try:
        P_inv = np.linalg.inv(P)
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"state covariance not invertible: {exc}") from exc
    M = P_inv - gamma * np.eye(x_prior.shape[-1]) + _T(jac) @ R_inv @ jac
    try:
        np.linalg.cholesky(_symmetrize(M))
    except np.linalg.LinAlgError as exc:
        raise FilterError(
            f"gamma={gamma} too aggressive: existence condition violated"
        ) from exc
    M_inv = np.linalg.inv(M)
    gain = A @ M_inv @ _T(jac) @ R_inv
    innovation = z - z_hat
    x_post = _wrap_component(x_prior + _matvec(gain, innovation), angle_idx)
    P_post = _symmetrize(A @ M_inv @ _T(A) + Q)
    return x_post, P_post


# ---------------------------------------------------------------------------
# Pose-level filter step
# ---------------------------------------------------------------------------

def filter_steps(
    states: tuple[np.ndarray, np.ndarray],
    odo: OdometryIncrement,
    observations: tuple[UsObservation, ...] | None,
    clusters: Sequence[ClusterModel] | None,
    Q: np.ndarray,
    kind: str = "ekf",
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the filter named ``kind`` (one of ``FILTER_KINDS``) for
    every lane of ``states``, stacked in one call.

    ``states`` is the lanes' estimates [x, y, theta] as x (k, 3) and their
    covariances as P (k, 3, 3).  All lanes move by the same odometry ``odo``
    and per-epoch process covariance ``Q``.  Prediction only when
    ``observations`` is None; otherwise it holds one observation per lane,
    all of one length, and ``clusters`` the observed cluster of each lane in
    that lane's frame, all of one receiver height and mode.  Returns the new
    (x, P), lanes in the order of ``states``, each bit for bit what a step of
    its lane alone gives.  Each kind evaluates the motion and range models
    once per step.
    """
    z = beacons = R = z_mr = mode = None
    if observations is not None:
        if clusters is None:
            raise FilterError("a cluster model is required when an observation is present")
        z_mr, mode = clusters[0].z_mr, clusters[0].mode
        shared = (len(observations[0].values), z_mr, mode)
        for obs, cluster in zip(observations, clusters, strict=True):
            if len(obs.values) != len(cluster.R):
                raise FilterError(
                    f"observation dimension {len(obs.values)} != noise dimension {len(cluster.R)}"
                )
            if (len(obs.values), cluster.z_mr, cluster.mode) != shared:
                raise FilterError(
                    "the lanes of one step need observations of one length from "
                    "clusters of one receiver height and mode"
                )
        z = np.array([obs.values for obs in observations])
        beacons = np.array([cluster.beacons for cluster in clusters])
        # the H-infinity update takes the bound inverse
        R = np.array([cluster.R_inv if kind == "hinf" else cluster.R for cluster in clusters])
    x, P = states
    if kind == "ekf":
        return ekf_step(
            x, P, lambda s: process_model(s, odo, jacobian=True), z,
            lambda s: predict_ranges(s, beacons, z_mr, mode, jacobian=True), Q, R, THETA_INDEX,
        )
    if kind == "ukf":
        # each lane's sigma points meet that lane's beacons
        return ukf_step(
            x, P, lambda points: process_model(points, odo), z,
            lambda points: predict_ranges(points, beacons[:, None], z_mr, mode),
            Q, R, UKF_WEIGHTS, THETA_INDEX,
        )
    if kind == "hinf":
        return hinf_step(
            x, P, lambda s: process_model(s, odo, jacobian=True), z,
            lambda s: predict_ranges(s, beacons, z_mr, mode, jacobian=True), Q, R, HINF_GAMMA,
            THETA_INDEX,
        )
    raise FilterError(f"filter kind must be one of {FILTER_KINDS}, got {kind!r}")


def filter_step(
    state: tuple[np.ndarray, np.ndarray],
    odo: OdometryIncrement,
    obs: UsObservation | None,
    cluster: ClusterModel | None,
    Q: np.ndarray,
    kind: str = "ekf",
) -> tuple[np.ndarray, np.ndarray]:
    """One step of one lane, ``state`` = (x (3,), P (3, 3)): ``filter_steps``
    of the lane alone.

    Prediction only when ``obs`` is None; otherwise ``cluster`` describes the
    observed cluster in the lane's frame.
    """
    x, P = state
    observations = None if obs is None else (obs,)
    clusters = None if cluster is None else (cluster,)
    x, P = filter_steps((x[None], P[None]), odo, observations, clusters, Q, kind)
    return x[0], P[0]


#: The filter kinds ``filter_steps`` runs.
FILTER_KINDS = ("ekf", "ukf", "hinf")

#: The stacked step of each filter kind.  All kinds share ``filter_steps``;
#: callers look the step up here by kind on every call, so that one kind's
#: steps can be wrapped (to trace or time them) apart from the others.  The
#: observations are always the third positional argument: None, or a tuple
#: of one observation per lane.
FILTER_STEPS = dict.fromkeys(FILTER_KINDS, filter_steps)
