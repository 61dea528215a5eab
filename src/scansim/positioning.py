"""Filter-free position solving from a single observation set.

Gauss-Newton minimization of the squared residuals between observed and
modeled distances (or distance differences) over the floor-plane position,
plus the two-fix heading bootstrap used to initialize a state vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import Mode, predict_ranges
from .scenario import Pose, UlpsDescriptor
from .simulator import UsObservation

MAX_ITERATIONS = 50
STEP_TOL = 1e-6
CONDITION_LIMIT = 1e12
DAMPING = 1e-6

#: Fixes closer than this give an unreliable heading; callers should wait for
#: a later epoch instead.
MIN_FIX_SEPARATION = 0.05


@dataclass(frozen=True)
class StaticFix:
    """Result of one Gauss-Newton solve."""

    position: tuple[float, float]
    residual_rms: float
    iterations: int
    converged: bool
    frame: str

    @property
    def xy(self) -> np.ndarray:
        return np.array(self.position)


def gauss_newton_fix(
    obs: UsObservation,
    u: UlpsDescriptor,
    z_mr: float,
    mode: Mode,
) -> StaticFix:
    """Solve the floor-plane position from one observation set.

    Iterates Gauss-Newton steps on the residual between observed and modeled
    values with the receiver height fixed, starting from the beacon centroid
    (the cluster center for the square layouts used here).  Stops when the
    step norm drops below ``STEP_TOL`` or after ``MAX_ITERATIONS``.

    An ill-conditioned normal matrix is retried once with diagonal damping;
    a second occurrence raises ``GeometryError`` (near-collinear beacons).
    """
    mode = Mode(mode)
    u.validate_for_mode(mode)
    beacons = u.beacon_array()
    if not z_mr < float(np.min(beacons[:, 2])):
        raise GeometryError("receiver height must be below the lowest beacon")

    z = np.asarray(obs.values, dtype=float)
    expected_dim = len(beacons) if mode is Mode.SPHERICAL else len(beacons) - 1
    if len(z) != expected_dim:
        raise GeometryError(
            f"observation dimension {len(z)} does not match cluster "
            f"'{u.id}' in {mode.value} mode (expected {expected_dim})"
        )

    xy = beacons[:, :2].mean(axis=0)
    damped = False
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        modeled, jac = predict_ranges(xy, beacons, z_mr, mode, jacobian=True)
        residual = modeled - z
        normal = jac.T @ jac
        gradient = jac.T @ residual
        if not np.isfinite(normal).all() or np.linalg.cond(normal) > CONDITION_LIMIT:
            if damped:
                raise GeometryError(
                    f"cluster '{u.id}': singular normal equations "
                    "(near-collinear beacon geometry)"
                )
            damped = True
            normal = normal + DAMPING * np.eye(2)
        step = np.linalg.solve(normal, -gradient)
        xy = xy + step
        if float(np.hypot(*step)) < STEP_TOL:
            converged = True
            break

    modeled = predict_ranges(xy, beacons, z_mr, mode)
    residual_rms = float(np.sqrt(np.mean((modeled - z) ** 2)))
    return StaticFix(
        position=(float(xy[0]), float(xy[1])),
        residual_rms=residual_rms,
        iterations=iterations,
        converged=converged,
        frame=u.frame,
    )


def bootstrap_state(fix0: StaticFix, fix1: StaticFix) -> Pose:
    """State vector from two consecutive fixes: second position, motion heading."""
    if not (fix0.converged and fix1.converged):
        raise GeometryError("both fixes must have converged")
    if fix0.frame != fix1.frame:
        raise GeometryError(f"fix frames differ: {fix0.frame} vs {fix1.frame}")
    dx = fix1.position[0] - fix0.position[0]
    dy = fix1.position[1] - fix0.position[1]
    if math.hypot(dx, dy) < MIN_FIX_SEPARATION:
        raise GeometryError(
            f"fixes are {math.hypot(dx, dy):.4f} m apart; "
            f"need at least {MIN_FIX_SEPARATION} m for a usable heading"
        )
    return Pose(fix1.position[0], fix1.position[1], math.atan2(dy, dx), frame=fix1.frame)
