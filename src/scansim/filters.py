"""State estimation: shared motion/measurement models and EKF, UKF, H-infinity.

All three filters estimate the same 3-state vector [x, y, theta] from
odometry increments and per-cluster ultrasound observations.  Each filter is
one step function on arrays and model callables (``ekf_step``, ``ukf_step``,
``hinf_step``).  The parameter object of each filter kind binds the motion
and range models of ``geometry`` and the observed cluster's noise to its step
function, and one pose-level step (``filter_step``) hands the pose to it.
The linear cross-validation fixtures of the test suite call the same step
functions with linear models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessNoise:
    """Diagonal per-epoch process noise (x, y in meters, theta in radians)."""

    sigma_x: float = 0.01
    sigma_y: float = 0.01
    sigma_theta: float = 0.01

    def matrix(self) -> np.ndarray:
        return np.diag(
            [self.sigma_x**2, self.sigma_y**2, self.sigma_theta**2]
        )


@dataclass(frozen=True)
class MeasurementNoise:
    """Ultrasound measurement covariance for one cluster.

    Spherical observations are independent: R = sigma^2 * I.  Hyperbolic
    observations are differences against a shared reference beacon, so every
    pair of them shares the reference's noise: sigma^2 on the diagonal and
    0.5 * sigma^2 off it.  That matrix is positive definite for any dimension.
    """

    mode: Mode
    sigma_us: float
    dimension: int

    def __post_init__(self):
        if not self.sigma_us > 0:
            raise FilterError("measurement noise sigma must be > 0")
        if self.dimension < 1:
            raise FilterError("measurement dimension must be >= 1")

    @classmethod
    def for_cluster(cls, mode: Mode, sigma_us: float, beacon_count: int) -> "MeasurementNoise":
        """Noise model matching the simulator for a per-distance std ``sigma_us``.

        Hyperbolic observations are differences of two distance measurements,
        so one difference carries sqrt(2) times the per-distance noise.
        """
        mode = Mode(mode)
        if mode is Mode.SPHERICAL:
            dim, sigma = beacon_count, float(sigma_us)
        else:
            dim, sigma = beacon_count - 1, math.sqrt(2.0) * float(sigma_us)
        return cls(mode, max(sigma, SIGMA_US_FLOOR), dim)

    def matrix(self) -> np.ndarray:
        var = self.sigma_us**2
        if Mode(self.mode) is Mode.SPHERICAL:
            return var * np.eye(self.dimension)
        return 0.5 * var * (np.eye(self.dimension) + np.ones((self.dimension, self.dimension)))


@dataclass(frozen=True)
class UkfParams:
    """Sigma-point spread parameters; lambda = alpha^2 L - L.

    kappa is 0: the Julier-Uhlmann choice kappa = 3 - L for the 3-state pose.
    """

    alpha: float = 0.001
    beta: float = 2.0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise FilterError(f"alpha must be in (0, 1], got {self.alpha}")
        if not math.isfinite(self.beta):
            raise FilterError(f"beta must be finite, got {self.beta}")

    @cached_property
    def weights(self):
        """``ukf_weights`` for the pose state, computed on first use and then
        kept, since a run binds one parameter object."""
        return ukf_weights(self)

    def step(self, x, P, odo, z, cluster, Q):
        """Unscented step on a pose state; the models need no Jacobians."""
        # the range model reads ``cluster`` only when there is an observation
        return ukf_step(
            x, P, lambda points: process_model(points, odo), z,
            lambda points: cluster.ranges(points),
            Q, None if z is None else cluster.R, self.weights, THETA_INDEX,
        )


@dataclass(frozen=True)
class HinfParams:
    """Attenuation level for the minimax filter; larger is more aggressive."""

    gamma: float = 0.2

    def __post_init__(self):
        if not self.gamma > 0:
            raise FilterError("gamma must be > 0")

    def step(self, x, P, odo, z, cluster, Q):
        """H-infinity step on a pose state, with the cluster's bound R^-1."""
        return hinf_step(
            x, P, lambda s: process_model(s, odo, jacobian=True), z,
            lambda s: cluster.ranges(s, jacobian=True),
            Q, None if z is None else cluster.R_inv, self.gamma, THETA_INDEX,
        )


@dataclass(frozen=True)
class EkfParams:
    """The extended Kalman filter, which has no tuning of its own."""

    def step(self, x, P, odo, z, cluster, Q):
        """Extended-Kalman step on a pose state."""
        return ekf_step(
            x, P, lambda s: process_model(s, odo, jacobian=True), z,
            lambda s: cluster.ranges(s, jacobian=True),
            Q, None if z is None else cluster.R, THETA_INDEX,
        )


@dataclass(frozen=True)
class ClusterModel:
    """What a filter update needs to know about one observed cluster.

    ``beacons`` is the (I, 3) beacon array in the filter's frame, ``z_mr``
    the receiver height and ``R`` the observation covariance (see
    ``MeasurementNoise``).  ``R_inv`` is its inverse, for the H-infinity
    update, computed once when the model is built.
    """

    beacons: np.ndarray
    z_mr: float
    mode: Mode
    R: np.ndarray
    R_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "R_inv", np.linalg.inv(self.R))

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


def ukf_weights(params: UkfParams, state_dim: int = STATE_DIM):
    """Mean and covariance weights for the 2L+1 sigma points, and lambda."""
    lam = params.alpha**2 * state_dim - state_dim
    denom = state_dim + lam
    w_mean = np.full(2 * state_dim + 1, 1.0 / (2.0 * denom))
    w_cov = w_mean.copy()
    w_mean[0] = lam / denom
    w_cov[0] = lam / denom + 1.0 - params.alpha**2 + params.beta
    return w_mean, w_cov, lam


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
    params: EkfParams | UkfParams | HinfParams = EkfParams(),
) -> FilterState:
    """One step of the filter that ``params`` selects.

    ``Q`` is the per-epoch process covariance (``ProcessNoise.matrix()``).
    Prediction only when ``obs`` is None; otherwise ``cluster`` describes
    the observed cluster in the frame of ``state``.  Each kind evaluates the
    motion and range models once per step.
    """
    z = None
    if obs is not None:
        if cluster is None:
            raise FilterError("a cluster model is required when an observation is present")
        z = np.asarray(obs.values, dtype=float)
        if len(z) != len(cluster.R):
            raise FilterError(
                f"observation dimension {len(z)} != noise dimension {len(cluster.R)}"
            )
    x, P = params.step(state.pose.as_array(), state.P, odo, z, cluster, Q)
    return FilterState(Pose(x[0], x[1], x[2], frame=state.frame), P)


#: The step of each filter kind.  All kinds share ``filter_step``; callers
#: look the step up here by kind on every call, so that one kind's steps can
#: be wrapped (to trace or time them) apart from the others.
FILTER_STEPS = {"ekf": filter_step, "ukf": filter_step, "hinf": filter_step}
