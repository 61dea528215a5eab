"""The shared math: angles, the ultrasound range model, the odometry motion
model and the local-to-global similarity transform.

Each of these is written once here and used by the simulator, positioning,
the filters, calibration and reporting alike.  The module imports nothing
from the package but its exception types, so any module can import it
without an import cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FilterError

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap a scalar angle to (-pi, pi]; the same bits as ``wrap_angles``,
    since a Python float's ``%`` is numpy's ``mod``, fmod-based alike."""
    return math.pi - (math.pi - float(theta)) % TWO_PI


def wrap_angles(theta) -> np.ndarray:
    """Elementwise wrap to (-pi, pi] for arrays."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), TWO_PI)


class Mode(str, Enum):
    """Positioning mode: absolute distances or differences vs. beacon 1."""

    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"

    def min_beacons(self) -> int:
        return 3 if self is Mode.SPHERICAL else 4


# ---------------------------------------------------------------------------
# Range model
# ---------------------------------------------------------------------------

def observe(distances, mode: Mode) -> np.ndarray:
    """Observation vector from the distances to each beacon (last axis).

    Spherical: the distances themselves.  Hyperbolic: each distance to
    beacons 2..I minus the distance to beacon 1.
    """
    if Mode(mode) is Mode.SPHERICAL:
        return distances
    return distances[..., 1:] - distances[..., :1]


def predict_ranges(points, beacons: np.ndarray, z_mr: float, mode: Mode, jacobian: bool = False):
    """Predicted observations of one cluster from floor positions.

    ``points`` is one point (k,) or a batch (..., k) whose first two
    components are the floor position (x, y); further components (such as a
    heading) do not affect the ranges.  ``beacons`` is the (I, 3) beacon
    array in the same frame, or a stack (..., I, 3) whose leading axes
    broadcast against the batch axes of ``points`` (one cluster per lane of
    a stacked filter step), and ``z_mr`` the receiver height.  Returns the
    3D emitter-receiver distances (spherical) or their differences against
    beacon 1 (hyperbolic), see ``observe``.

    With ``jacobian=True`` also returns the partials of the observations
    w.r.t. the k point components, shape (..., observations, k); the
    columns beyond x and y are exactly zero.  Raises ``FilterError`` at zero
    distance from a beacon, where they are undefined (cannot happen for a
    receiver below ceiling-mounted beacons).
    """
    mode = Mode(mode)
    points = np.asarray(points, dtype=float)
    delta = points[..., None, :2] - beacons[..., :2]
    dz = z_mr - beacons[..., 2]
    dists = np.sqrt((delta**2).sum(axis=-1) + dz**2)
    values = observe(dists, mode)
    if not jacobian:
        return values
    if (dists <= 0.0).any():
        raise FilterError("zero emitter-receiver distance: Jacobian undefined")
    rows = np.zeros(dists.shape + points.shape[-1:])
    rows[..., :2] = delta / dists[..., None]
    if mode is Mode.HYPERBOLIC:
        rows = rows[..., 1:, :] - rows[..., :1, :]
    return values, rows


# ---------------------------------------------------------------------------
# Motion model
# ---------------------------------------------------------------------------

def process_model(state, odo, jacobian: bool = False):
    """Propagate poses [x, y, theta], one (3,) or a batch (..., 3), by one
    odometry increment ``odo`` (its ``delta_d`` and ``delta_theta``).

    The heading increment is applied before the translation:

        theta' = theta + dtheta
        x'     = x + dd * cos(theta')
        y'     = y + dd * sin(theta')

    The propagated heading is wrapped to (-pi, pi].  With ``jacobian=True``
    also returns the derivative of the propagated pose w.r.t. the previous
    one: (3, 3) for one pose, (..., 3, 3) for a batch.
    """
    state = np.asarray(state, dtype=float)
    theta = state[..., 2] + odo.delta_theta
    dx, dy = odo.delta_d * np.cos(theta), odo.delta_d * np.sin(theta)
    out = np.empty_like(state)
    out[..., 0] = state[..., 0] + dx
    out[..., 1] = state[..., 1] + dy
    out[..., 2] = wrap_angles(theta)
    if not jacobian:
        return out
    jac = np.zeros(state.shape + (3,))
    jac[..., 0, 0] = jac[..., 1, 1] = jac[..., 2, 2] = 1.0
    jac[..., 0, 2] = -dy
    jac[..., 1, 2] = dx
    return out, jac


# ---------------------------------------------------------------------------
# Local-to-global similarity transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformVector:
    """Local-to-global similarity transform (t1, t2 rotation/scale; t3, t4 shift).

        x' = x*t1 - y*t2 + t3
        y' = y*t1 + x*t2 + t4
    """

    t1: float
    t2: float
    t3: float
    t4: float

    @property
    def scale(self) -> float:
        """Implied scale factor; 1.0 for a rigid scene (diagnostic only)."""
        return float(np.hypot(self.t1, self.t2))

    def as_array(self) -> np.ndarray:
        return np.array([self.t1, self.t2, self.t3, self.t4])

    @classmethod
    def from_array(cls, values) -> "TransformVector":
        t1, t2, t3, t4 = (float(v) for v in values)
        return cls(t1, t2, t3, t4)

    @classmethod
    def identity(cls) -> "TransformVector":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_rotation(cls, angle: float, tx: float, ty: float) -> "TransformVector":
        return cls(float(np.cos(angle)), float(np.sin(angle)), float(tx), float(ty))


def transform_point(p, t: TransformVector) -> np.ndarray:
    """Map local-frame points to the map frame.

    ``p`` is one point or an (n, 2) array of points, or poses with a third
    (heading) component, which turns by the transform's rotation angle.
    """
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    out = np.empty(p.shape[:-1] + (3 if p.shape[-1] == 3 else 2,))
    out[..., 0] = x * t.t1 - y * t.t2 + t.t3
    out[..., 1] = y * t.t1 + x * t.t2 + t.t4
    if p.shape[-1] == 3:
        out[..., 2] = p[..., 2] + math.atan2(t.t2, t.t1)
    return out


def inverse_transform_point(p, t: TransformVector) -> np.ndarray:
    """Map map-frame points (or poses) into the local frame: the inverse of
    ``transform_point``."""
    p = np.asarray(p, dtype=float)
    s2 = t.t1**2 + t.t2**2
    dx, dy = p[..., 0] - t.t3, p[..., 1] - t.t4
    out = np.empty(p.shape[:-1] + (3 if p.shape[-1] == 3 else 2,))
    out[..., 0] = (t.t1 * dx + t.t2 * dy) / s2
    out[..., 1] = (-t.t2 * dx + t.t1 * dy) / s2
    if p.shape[-1] == 3:
        out[..., 2] = p[..., 2] - math.atan2(t.t2, t.t1)
    return out
