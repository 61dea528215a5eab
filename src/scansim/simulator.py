"""Ground-truth trajectory generation and noisy measurement synthesis.

The simulator walks the waypoint path at constant speed, producing one
measurement frame per epoch: the odometry increment since the previous epoch
plus one ultrasound observation per cluster whose coverage disc contains the
true position.  Everything is a pure function of (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .calibration import calibrate_beacons
from .errors import ScenarioError
from .geometry import Mode, TransformVector, observe, predict_ranges, process_model, wrap_angle
from .scenario import (
    Beacon,
    NoiseParams,
    Pose,
    ScenarioConfig,
    UlpsDescriptor,
    beacon_array,
    in_coverage,
)


@dataclass(frozen=True)
class OdometryIncrement:
    """Distance and heading change reported by the odometer for one epoch."""

    delta_d: float
    delta_theta: float

    def __post_init__(self):
        object.__setattr__(self, "delta_d", float(self.delta_d))
        object.__setattr__(self, "delta_theta", float(self.delta_theta))
        if not (math.isfinite(self.delta_d) and math.isfinite(self.delta_theta)):
            raise ValueError("odometry increments must be finite")


@dataclass(frozen=True)
class UsObservation:
    """One cluster's ultrasound readings for one epoch.

    Spherical mode: one distance per beacon.  Hyperbolic mode: one difference
    per beacon 2..I, each relative to beacon 1.
    """

    ulps_id: str
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class MeasurementFrame:
    """Everything produced in one epoch.

    ``true_pose`` is simulator ground truth carried along for scoring; the
    estimator reads only ``odo`` and ``observations``.
    """

    epoch: int
    odo: OdometryIncrement
    true_pose: Pose
    observations: tuple[UsObservation, ...]

    @cached_property
    def by_cluster(self) -> dict[str, UsObservation]:
        """Observations by cluster id, in order; the first one if an id repeats."""
        observed = {}
        for obs in self.observations:
            observed.setdefault(obs.ulps_id, obs)
        return observed


# ---------------------------------------------------------------------------
# Ground truth, and the scores of estimates against it
# ---------------------------------------------------------------------------

def true_transform(u: UlpsDescriptor) -> TransformVector:
    """Ground-truth local-to-global transform of a cluster's frame."""
    if u.is_global:
        return TransformVector.identity()
    cx, cy = u.coverage_center
    return TransformVector.from_rotation(u.orientation, cx, cy)


def true_global_beacons(u: UlpsDescriptor) -> tuple[Beacon, ...]:
    """Beacon positions in the map frame (ground truth; simulator only).

    A locally referenced cluster is calibrated with its true transform.
    """
    if u.is_global:
        return u.beacons
    return calibrate_beacons(u, true_transform(u))


def per_beacon_errors(estimated, truth) -> np.ndarray:
    """Floor-plane distance between each estimated beacon and its true twin."""
    if len(estimated) != len(truth):
        raise ValueError(
            f"beacon count mismatch: {len(estimated)} estimated vs {len(truth)} true"
        )
    diff = np.array([[b.x, b.y] for b in estimated]) - np.array([[b.x, b.y] for b in truth])
    return np.hypot(diff[:, 0], diff[:, 1])


def beacon_error(estimated, truth) -> float:
    """Mean floor-plane beacon position error for one cluster."""
    return float(np.mean(per_beacon_errors(estimated, truth)))


def trajectory_rmse(trajectory, frames: list[MeasurementFrame]) -> float:
    """RMS floor-plane distance of ``(epoch, pose)`` estimates from the
    frames' true poses; NaN for an empty trajectory."""
    if not trajectory:
        return float("nan")
    truth = {f.epoch: f.true_pose for f in frames}
    errors = [np.hypot(*(pose.xy - truth[epoch].xy)) for epoch, pose in trajectory]
    return float(np.sqrt(np.mean(np.square(errors))))


# ---------------------------------------------------------------------------
# Trajectory and measurements
# ---------------------------------------------------------------------------

def generate_trajectory(config: ScenarioConfig) -> list[Pose]:
    """Ground-truth poses along the waypoint polyline at constant speed.

    One pose per epoch, ``speed`` meters of arc length apart.  The heading of
    each pose is the direction of the motion that reached it (waypoint turns
    are instantaneous), which makes the sequence exactly reproducible by
    replaying the noise-free odometry increments through the motion model.
    """
    if not config.speed > 0:
        raise ScenarioError("speed must be > 0")
    points = [np.asarray(w, dtype=float) for w in config.waypoints]
    segments = []
    for a, b in zip(points[:-1], points[1:]):
        length = float(np.hypot(*(b - a)))
        if length > 0:
            segments.append((a, (b - a) / length, length))
    if not segments:
        raise ScenarioError("waypoints describe a zero-length path")

    cumulative = np.concatenate([[0.0], np.cumsum([s[2] for s in segments])])
    total = float(cumulative[-1])
    n_epochs = int(math.floor(total / config.speed + 1e-9)) + 1

    positions = []
    for k in range(n_epochs):
        s = min(k * config.speed, total)
        i = min(int(np.searchsorted(cumulative, s, side="right")) - 1, len(segments) - 1)
        origin, direction, _ = segments[i]
        positions.append(origin + (s - cumulative[i]) * direction)

    poses = []
    first_dir = segments[0][1]
    prev_theta = math.atan2(first_dir[1], first_dir[0])
    for k, pos in enumerate(positions):
        if k > 0:
            step = pos - positions[k - 1]
            if np.hypot(*step) > 0:
                prev_theta = math.atan2(step[1], step[0])
        poses.append(Pose(pos[0], pos[1], prev_theta))
    return poses


def measure_odometry(
    prev: Pose, curr: Pose, noise: NoiseParams, rng: np.random.Generator
) -> OdometryIncrement:
    """Noisy odometry increment between two consecutive poses."""
    true_d = float(np.hypot(*(curr.xy - prev.xy)))
    true_dtheta = wrap_angle(curr.theta - prev.theta)
    return OdometryIncrement(
        true_d + rng.normal(0.0, noise.sigma_d_odo),
        true_dtheta + rng.normal(0.0, noise.sigma_theta_odo),
    )


def measure_ultrasound(
    p: Pose,
    u: UlpsDescriptor,
    beacons: np.ndarray,
    z_mr: float,
    mode: Mode,
    noise: NoiseParams,
    rng: np.random.Generator,
) -> UsObservation:
    """Noisy ultrasound observation of one cluster from the true pose.

    ``beacons`` is the (I, 3) array of the cluster's true beacon positions in
    the map frame (see ``true_global_beacons``).  Distances are 3D
    emitter-receiver distances to them, each with independent Gaussian
    noise.  Hyperbolic observations difference the *same* noisy distances
    against beacon 1, which is what makes their errors correlated.
    """
    if not in_coverage(p.xy, u):
        raise ScenarioError(
            f"point ({p.x:.3f}, {p.y:.3f}) is outside coverage of cluster '{u.id}'"
        )
    dists = predict_ranges(p.xy, beacons, z_mr, Mode.SPHERICAL)
    noisy = dists + rng.normal(0.0, noise.sigma_us, size=len(dists))
    return UsObservation(u.id, tuple(float(v) for v in observe(noisy, mode)))


def simulate(config: ScenarioConfig) -> list[MeasurementFrame]:
    """Run the full measurement simulation; deterministic for a given seed.

    Frame 0 carries zero odometry increments.  Observations are generated in
    cluster declaration order for every cluster whose coverage contains the
    true position.
    """
    rng = np.random.default_rng(config.seed)
    trajectory = generate_trajectory(config)
    beacons = {u.id: beacon_array(true_global_beacons(u)) for u in config.ulps}
    frames = []
    for epoch, pose in enumerate(trajectory):
        if epoch == 0:
            odo = OdometryIncrement(0.0, 0.0)
        else:
            odo = measure_odometry(trajectory[epoch - 1], pose, config.noise, rng)
        observations = tuple(
            measure_ultrasound(
                pose, u, beacons[u.id], config.z_mr, config.mode, config.noise, rng
            )
            for u in config.ulps
            if in_coverage(pose.xy, u)
        )
        frames.append(MeasurementFrame(epoch, odo, pose, observations))
    return frames


def reverse_frames(frames: list[MeasurementFrame]) -> list[MeasurementFrame]:
    """Reversed measurement stream for the backward replay.

    The recorded odometry is dead-reckoned from the origin (the increments
    do not depend on where it starts, so no truth is read) and differenced in
    reverse order, headings flipped by pi, with no new noise.  Each frame
    reuses the observations of its forward epoch and turns its true pose.
    """
    dead_reckoned = [np.zeros(3)]
    for frame in frames[1:]:
        dead_reckoned.append(process_model(dead_reckoned[-1], frame.odo))
    theta = wrap_angle(dead_reckoned[-1][2] + math.pi)
    odos = [OdometryIncrement(0.0, 0.0)]
    for start, end in zip(dead_reckoned[::-1], dead_reckoned[-2::-1]):
        step = end[:2] - start[:2]
        dist = float(np.hypot(*step))
        heading = math.atan2(step[1], step[0]) if dist > 0 else theta
        odos.append(OdometryIncrement(dist, wrap_angle(heading - theta)))
        theta = heading
    return [
        MeasurementFrame(
            j, odo, replace(f.true_pose, theta=f.true_pose.theta + math.pi), f.observations
        )
        for j, (odo, f) in enumerate(zip(odos, reversed(frames)))
    ]


# ---------------------------------------------------------------------------
# Frame log I/O (replay format)
# ---------------------------------------------------------------------------

def frames_to_jsonable(frames: list[MeasurementFrame]) -> list[dict]:
    return [
        {
            "epoch": f.epoch,
            "odo": [f.odo.delta_d, f.odo.delta_theta],
            "true_pose": [f.true_pose.x, f.true_pose.y, f.true_pose.theta],
            "observations": [
                {"ulps_id": o.ulps_id, "values": list(o.values)}
                for o in f.observations
            ],
        }
        for f in frames
    ]


def frames_from_jsonable(data: list[dict]) -> list[MeasurementFrame]:
    frames = []
    for item in data:
        frames.append(
            MeasurementFrame(
                epoch=int(item["epoch"]),
                odo=OdometryIncrement(*item["odo"]),
                true_pose=Pose(*item["true_pose"]),
                observations=tuple(
                    UsObservation(o["ulps_id"], tuple(o["values"]))
                    for o in item["observations"]
                ),
            )
        )
    return frames


def save_frames(frames: list[MeasurementFrame], path) -> None:
    """Write the per-epoch frame log as JSON for replay."""
    Path(path).write_text(json.dumps(frames_to_jsonable(frames)) + "\n")


def load_frames(path) -> list[MeasurementFrame]:
    return frames_from_jsonable(json.loads(Path(path).read_text()))
