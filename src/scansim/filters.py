"""State estimation: shared motion/measurement models and EKF, UKF, H-infinity.

All three filters estimate the same 3-state vector [x, y, theta] from
odometry increments and per-cluster ultrasound observations.  Each filter is
one step function on arrays and model callables (``ekf_step``, ``ukf_step``,
``hinf_step``), tuned by module constants.  One pose-level step,
``filter_step``, binds the motion and range models of ``geometry`` and the
observed cluster's noise (``ClusterModel``) to the step function of the
filter kind it is given.  The linear cross-validation fixtures of the test
suite call the same step functions with linear models and other tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FilterError
from .geometry import Mode, predict_ranges, process_model, wrap_angles
from .scenario import Pose
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

    def ranges(self, x, jacobian: bool = False):
        """``geometry.predict_ranges`` of this cluster at the state(s) ``x``."""
        return predict_ranges(x, self.beacons, self.z_mr, self.mode, jacobian)


@dataclass
class FilterState:
    """State estimate and (3, 3) covariance for one reference frame.

    ``P`` is kept as given, not copied: the filter steps never write into a
    covariance, they return a new one.
    """

    pose: Pose
    P: np.ndarray

    @property
    def frame(self) -> str:
        return self.pose.frame


# ---------------------------------------------------------------------------
# Filter steps
# ---------------------------------------------------------------------------

def _symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def _wrap_component(x: np.ndarray, angle_idx) -> np.ndarray:
    if angle_idx is not None:
        x = x.copy()
        x[..., angle_idx] = wrap_angles(x[..., angle_idx])
    return x


def _propagate(F, P, Q):
    """Prior covariance F P F^T + Q of a linearized prediction."""
    return _symmetrize(F @ P @ F.T + Q)


def ekf_step(x, P, motion, z, measure, Q, R, angle_idx=None):
    """One extended-Kalman step; ``z`` may be None for prediction only.

    ``motion`` maps the state to the predicted state and its Jacobian,
    ``measure`` maps the predicted state to the predicted observation and its
    Jacobian.  The component ``angle_idx``, if any, is wrapped to (-pi, pi].
    """
    x_prior, F = motion(x)
    x_prior = _wrap_component(x_prior, angle_idx)
    P_prior = _propagate(F, P, Q)
    if z is None:
        return x_prior, P_prior
    z_hat, jac = measure(x_prior)
    innovation = z - z_hat
    S = jac @ P_prior @ jac.T + R
    try:
        gain = np.linalg.solve(S, jac @ P_prior).T
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"innovation covariance not invertible: {exc}") from exc
    x_post = _wrap_component(x_prior + gain @ innovation, angle_idx)
    P_post = _symmetrize((np.eye(len(x_prior)) - gain @ jac) @ P_prior)
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


def sigma_points(x: np.ndarray, P: np.ndarray, lam: float) -> np.ndarray:
    """Sigma points x, x +- columns of chol((L + lambda) P), as rows.

    A failed Cholesky factorization is retried once with 1e-12 jitter on the
    diagonal before giving up.
    """
    x = np.asarray(x, dtype=float)
    L = len(x)
    scaled = (L + lam) * np.asarray(P, dtype=float)
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        try:
            root = np.linalg.cholesky(scaled + 1e-12 * np.eye(L))
        except np.linalg.LinAlgError as exc:
            raise FilterError(
                f"covariance is not positive definite (Cholesky failed): {exc}"
            ) from exc
    pts = np.empty((2 * L + 1, L))
    pts[0] = x
    pts[1 : L + 1] = x + root.T
    pts[L + 1 :] = x - root.T
    return pts


def _ut_mean(points: np.ndarray, w_mean: np.ndarray, angle_idx) -> np.ndarray:
    """Weighted sigma-point mean; angle components via weighted sin/cos sums."""
    mean = w_mean @ points
    if angle_idx is not None:
        angles = points[:, angle_idx]
        mean[angle_idx] = math.atan2(
            float(w_mean @ np.sin(angles)), float(w_mean @ np.cos(angles))
        )
    return mean


def _ut_residuals(points: np.ndarray, mean: np.ndarray, angle_idx) -> np.ndarray:
    res = points - mean
    if angle_idx is not None:
        res[:, angle_idx] = wrap_angles(res[:, angle_idx])
    return res


def ukf_step(x, P, motion, z, measure, Q, R, weights, angle_idx=None):
    """One unscented step with additive noise; ``z`` may be None for
    prediction only.

    ``motion`` and ``measure`` map an (m, n) array of sigma points to their
    propagated states / predicted observations; ``weights`` is the
    ``ukf_weights`` triple.  Q is added to the prior covariance after the
    unscented prediction; the update then redraws sigma points from the
    Q-inflated prior (the standard additive-noise form — it is what makes the
    filter reduce exactly to a Kalman filter on linear models) and R is added
    to the innovation covariance.
    """
    w_mean, w_cov, lam = weights
    propagated = motion(sigma_points(x, P, lam))
    x_prior = _ut_mean(propagated, w_mean, angle_idx)
    res_x = _ut_residuals(propagated, x_prior, angle_idx)
    P_prior = _symmetrize((res_x * w_cov[:, None]).T @ res_x + Q)
    x_prior = _wrap_component(x_prior, angle_idx)
    if z is None:
        return x_prior, P_prior
    points = sigma_points(x_prior, P_prior, lam)
    res_x = _ut_residuals(points, x_prior, angle_idx)
    predicted = measure(points)
    z_hat = w_mean @ predicted
    res_z = predicted - z_hat
    P_zz = (res_z * w_cov[:, None]).T @ res_z + R
    P_xz = (res_x * w_cov[:, None]).T @ res_z
    try:
        gain = np.linalg.solve(P_zz.T, P_xz.T).T
    except np.linalg.LinAlgError as exc:
        raise FilterError(f"innovation covariance not invertible: {exc}") from exc
    x_post = _wrap_component(x_prior + gain @ (z - z_hat), angle_idx)
    P_post = _symmetrize(P_prior - gain @ P_zz @ gain.T)
    return x_post, P_post


def hinf_step(x, P, motion, z, measure, Q, R_inv, gamma: float, angle_idx=None):
    """One H-infinity step in information form; ``z`` may be None for
    prediction only.

    ``motion`` and ``measure`` are as for ``ekf_step``, and ``R_inv`` is the
    inverse of the observation covariance.  With M = P^-1 - gamma*I +
    H^T R^-1 H (whose positive definiteness is the filter's existence
    condition), the gain is K = A M^-1 H^T R^-1 and the updated covariance is
    A M^-1 A^T + Q, where H is the observation Jacobian at the predicted state
    and A the motion Jacobian.  Without an observation the step degrades to
    covariance propagation A P A^T + Q.
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
    M = P_inv - gamma * np.eye(len(x_prior)) + jac.T @ R_inv @ jac
    try:
        np.linalg.cholesky(_symmetrize(M))
    except np.linalg.LinAlgError as exc:
        raise FilterError(
            f"gamma={gamma} too aggressive: existence condition violated"
        ) from exc
    M_inv = np.linalg.inv(M)
    gain = A @ M_inv @ jac.T @ R_inv
    innovation = z - z_hat
    x_post = _wrap_component(x_prior + gain @ innovation, angle_idx)
    P_post = _symmetrize(A @ M_inv @ A.T + Q)
    return x_post, P_post


# ---------------------------------------------------------------------------
# Pose-level filter step
# ---------------------------------------------------------------------------

def filter_step(
    state: FilterState,
    odo: OdometryIncrement,
    obs: UsObservation | None,
    cluster: ClusterModel | None,
    Q: np.ndarray,
    kind: str = "ekf",
) -> FilterState:
    """One step of the filter named ``kind`` (one of ``FILTER_KINDS``).

    ``Q`` is the per-epoch process covariance.  Prediction only when ``obs``
    is None; otherwise ``cluster`` describes the observed cluster in the
    frame of ``state``.  Each kind evaluates the motion and range models once
    per step.
    """
    z = R = None
    if obs is not None:
        if cluster is None:
            raise FilterError("a cluster model is required when an observation is present")
        z = np.asarray(obs.values, dtype=float)
        if len(z) != len(cluster.R):
            raise FilterError(
                f"observation dimension {len(z)} != noise dimension {len(cluster.R)}"
            )
        # the H-infinity update takes the bound inverse
        R = cluster.R_inv if kind == "hinf" else cluster.R
    x, P = state.pose.as_array(), state.P
    if kind == "ekf":
        x, P = ekf_step(
            x, P, lambda s: process_model(s, odo, jacobian=True), z,
            lambda s: cluster.ranges(s, jacobian=True), Q, R, THETA_INDEX,
        )
    elif kind == "ukf":
        # the range model reads ``cluster`` only when there is an observation
        x, P = ukf_step(
            x, P, lambda points: process_model(points, odo), z,
            lambda points: cluster.ranges(points), Q, R, UKF_WEIGHTS, THETA_INDEX,
        )
    elif kind == "hinf":
        x, P = hinf_step(
            x, P, lambda s: process_model(s, odo, jacobian=True), z,
            lambda s: cluster.ranges(s, jacobian=True), Q, R, HINF_GAMMA, THETA_INDEX,
        )
    else:
        raise FilterError(f"filter kind must be one of {FILTER_KINDS}, got {kind!r}")
    return FilterState(Pose(x[0], x[1], x[2], frame=state.frame), P)


#: The filter kinds ``filter_step`` runs.
FILTER_KINDS = ("ekf", "ukf", "hinf")

#: The step of each filter kind.  All kinds share ``filter_step``; callers
#: look the step up here by kind on every call, so that one kind's steps can
#: be wrapped (to trace or time them) apart from the others.  The
#: observation is always the third positional argument.
FILTER_STEPS = dict.fromkeys(FILTER_KINDS, filter_step)
