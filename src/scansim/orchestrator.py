"""The simultaneous calibration and navigation state machine.

Every filter of a run is one ``_Lane``: the global filter in the map frame,
and one local filter per locally referenced cluster in that cluster's own
frame.  A lane holds its estimate as the arrays the filter steps take, x (3,)
and P (3, 3); a ``Pose`` is built only for its trajectory record.  Each lane
starts from two Gauss-Newton fixes and then steps once per epoch, together
with the other running lanes whose observations have the same length, in one
stacked filter call.  The global lane bootstraps inside an anchor cluster and
updates with the nearest one; a local lane logs (local, global) trajectory
correspondences while both estimates are anchored, and its cluster is
promoted to globally referenced once the robot leaves the common coverage
area and its transform has been solved.  Promoted clusters immediately start
anchoring the global filter, which is what lets the calibration chain from
cluster to cluster between the globally referenced ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import simulator
from .calibration import (
    CorrespondenceLog,
    accumulate_analytical,
    calibrate_beacons,
    numerical_tc,
)
from .errors import CalibrationError, GeometryError, ScanError
from .filters import FILTER_KINDS, FILTER_STEPS, ClusterModel
from .geometry import Mode, TransformVector
from .positioning import StaticFix, bootstrap_state, gauss_newton_fix
from .scenario import GLOBAL_FRAME, Beacon, Pose, ScenarioConfig, beacon_array

METHODS = ("analytical", "numerical")

#: Covariance assigned right after a two-fix bootstrap: generous enough to
#: absorb the fix and heading error of the bootstrap itself.
BOOTSTRAP_SIGMA_XY = 0.05
BOOTSTRAP_SIGMA_THETA = 0.1

#: Stand-ins for the above when the scenario declares no noise at all: a
#: noiseless system is estimated with matching near-zero uncertainties,
#: otherwise the sigma-point filter keeps applying curvature corrections for
#: uncertainty that does not exist.
ZERO_NOISE_SIGMA = 1e-6


@dataclass
class CalibrationRecord:
    """Outcome of calibrating one locally referenced cluster; its score
    against ground truth, ``per_beacon_errors``, stays empty until the run
    is scored."""

    cluster_id: str
    method: str
    transform: TransformVector
    beacons: tuple[Beacon, ...]
    calibration_epoch: int
    source: str = "forward"
    per_beacon_errors: tuple[float, ...] = ()
    replaced_forward: "CalibrationRecord | None" = None

    @property
    def implied_scale(self) -> float:
        return self.transform.scale

    @property
    def beacon_error(self) -> float | None:
        """Mean floor-plane beacon error; None until the run is scored."""
        return float(np.mean(self.per_beacon_errors)) if self.per_beacon_errors else None


@dataclass(frozen=True)
class _RunParams:
    """What one run binds once: the scenario, the estimator, the process
    covariance ``Q`` every filter step uses and the covariance ``P0`` every
    lane holds from its bootstrap on.  Both arrays are shared by every lane
    and step of the run, as no filter step writes into its inputs."""

    config: ScenarioConfig
    filter_kind: str
    method: str
    Q: np.ndarray
    P0: np.ndarray

    @classmethod
    def bind(cls, config: ScenarioConfig, filter_kind: str, method: str) -> "_RunParams":
        if filter_kind not in FILTER_KINDS:
            raise ValueError(f"filter_kind must be one of {FILTER_KINDS}, got {filter_kind!r}")
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        noise = config.noise
        if noise.sigma_d_odo == noise.sigma_theta_odo == noise.sigma_us == 0:
            sigma_xy = sigma_theta = ZERO_NOISE_SIGMA
        else:
            sigma_xy, sigma_theta = BOOTSTRAP_SIGMA_XY, BOOTSTRAP_SIGMA_THETA
        # the per-epoch process noise of this motion model is the odometry
        # noise itself
        q_xy = max(noise.sigma_d_odo, ZERO_NOISE_SIGMA)
        q_theta = max(noise.sigma_theta_odo, ZERO_NOISE_SIGMA)
        return cls(
            config=config,
            filter_kind=filter_kind,
            method=method,
            Q=np.diag([q_xy**2, q_xy**2, q_theta**2]),
            P0=np.diag([sigma_xy**2, sigma_xy**2, sigma_theta**2]),
        )

    def cluster_model(self, beacons: tuple[Beacon, ...]) -> ClusterModel:
        config = self.config
        return ClusterModel(beacon_array(beacons), config.z_mr, config.mode, config.noise.sigma_us)


@dataclass
class _Lane:
    """One filter in the reference frame ``frame`` and what it records.

    ``x`` (3,) and ``P`` (3, 3) are the filter's estimate [x, y, theta] and
    covariance, both None until the filter starts; until then ``held_fix``
    holds the first fix of the two-fix bootstrap.  ``trajectory`` lists
    ``(epoch, pose)`` from the bootstrap on.  Only a local lane has a
    correspondence ``log``; ``logged_last`` says whether it logged in the
    latest epoch, i.e. whether the robot was inside the common coverage area.
    """

    frame: str
    log: CorrespondenceLog | None = None
    logged_last: bool = False
    x: np.ndarray | None = None
    P: np.ndarray | None = None
    held_fix: StaticFix | None = None
    trajectory: list = field(default_factory=list)

    def bootstrap(self, obs: simulator.UsObservation, epoch: int, params: _RunParams) -> bool:
        """Feed one observation to the bootstrap; False if it yields no fix.

        A fix that did not converge is ignored and the first converged one is
        held.  A later one starts the filter at its position, heading away
        from the held fix, unless ``bootstrap_state`` rejects the pair (too
        close for a heading), in which case the held fix is kept.
        """
        config = params.config
        try:
            fix = gauss_newton_fix(obs, config.cluster(obs.ulps_id), config.z_mr, config.mode)
        except (GeometryError, ScanError):
            return False
        if not fix.converged:
            return True
        if self.held_fix is None:
            self.held_fix = fix
            return True
        try:
            pose = bootstrap_state(self.held_fix, fix)
        except GeometryError:
            return True
        self.x, self.P = pose.as_array(), params.P0
        self.trajectory.append((epoch, pose))
        return True


@dataclass
class ScanState:
    """Mutable state folded over the measurement frames.

    ``models`` holds each cluster's ``ClusterModel`` in the frame of the
    filter it anchors: the cluster's own frame until it is promoted, the map
    frame from then on.  ``anchor_centers`` holds the map-frame centre of
    each cluster that can anchor the global filter: the coverage centre of a
    globally referenced cluster, the mean of the calibrated beacons of a
    promoted one.  ``lanes`` holds one local lane per locally referenced
    cluster, in scenario order.
    """

    models: dict
    anchor_centers: dict
    global_lane: _Lane
    lanes: dict
    calibrated: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


@dataclass(frozen=True)
class ScanResult:
    """Everything a run produces; ``global_rmse`` and the records'
    ``per_beacon_errors`` are its scores, NaN and empty until it is scored."""

    global_trajectory: tuple
    local_trajectories: dict
    calibrations: dict
    uncalibrated: tuple
    warnings: tuple
    filter_kind: str
    method: str
    mode: Mode
    inverse_applied: bool = False
    global_rmse: float = float("nan")


def _finalize_cluster(state: ScanState, cid: str, epoch: int, params: _RunParams) -> None:
    """Solve the transform for one cluster and promote it, or warn."""
    config = params.config
    lane = state.lanes[cid]
    lane.logged_last = False
    log = lane.log
    if len(log) < 2:
        state.warnings.append(
            f"cluster '{cid}': left common coverage with too few correspondences"
        )
        return
    try:
        if params.method == "analytical":
            transform = accumulate_analytical(log, config.d_min)
        else:
            try:
                init = accumulate_analytical(log, config.d_min)
            except CalibrationError:
                init = TransformVector.identity()
            transform = numerical_tc(log, config.d_min, config.max_points, init)
    except CalibrationError as exc:
        state.warnings.append(str(exc))
        return

    beacons = calibrate_beacons(config.cluster(cid), transform)
    state.calibrated[cid] = CalibrationRecord(cid, params.method, transform, beacons, epoch)
    state.models[cid] = params.cluster_model(beacons)
    state.anchor_centers[cid] = np.mean([[b.x, b.y] for b in beacons], axis=0)


def _step_lanes(
    stepping: list, frame: simulator.MeasurementFrame, models: dict, params: _RunParams
) -> None:
    """Step every running lane on the frame's odometry, each updating with
    its observation if it has one: one ``FILTER_STEPS`` call per group of
    lanes whose observations have one length, and one for the lanes that
    only predict."""
    groups = {}
    for lane, obs in stepping:
        groups.setdefault(None if obs is None else len(obs.values), []).append((lane, obs))
    for size, members in groups.items():
        lanes, observations = zip(*members)
        clusters = None if size is None else tuple(models[obs.ulps_id] for obs in observations)
        x, P = FILTER_STEPS[params.filter_kind](
            (np.array([lane.x for lane in lanes]), np.array([lane.P for lane in lanes])),
            frame.odo, None if size is None else observations, clusters, params.Q,
            params.filter_kind,
        )
        for lane, lane_x, lane_P, pose in zip(lanes, x, P, x.tolist()):
            lane.x, lane.P = lane_x, lane_P
            lane.trajectory.append((frame.epoch, Pose(*pose, frame=lane.frame)))


def scan_step(
    state: ScanState, frame: simulator.MeasurementFrame, params: _RunParams
) -> ScanState:
    """Advance the state machine by one measurement frame (mutates state)."""
    observed = frame.by_cluster
    lanes = state.lanes

    def in_common_area(cid: str) -> bool:
        return cid in observed and not state.anchor_centers.keys().isdisjoint(observed)

    # -- 1. finalize clusters whose common coverage area ended this epoch ----
    # by first logged epoch, ties in bootstrap order (epoch, then scenario)
    ending = sorted(
        (cid for cid, lane in lanes.items() if lane.logged_last and not in_common_area(cid)),
        key=lambda cid: (lanes[cid].log.epochs[0], lanes[cid].trajectory[0][0]),
    )
    for cid in ending:
        if not in_common_area(cid):  # else rescued by a promotion earlier in this loop
            _finalize_cluster(state, cid, frame.epoch, params)

    # -- 2. the global lane bootstraps inside an anchor, or is to step with
    # the anchor nearest to its estimate before this step
    global_lane = state.global_lane
    stepping = []
    if global_lane.x is None:
        for obs in frame.observations:
            if obs.ulps_id in state.anchor_centers and global_lane.bootstrap(
                obs, frame.epoch, params
            ):
                break
        global_updated = global_lane.x is not None
    else:
        estimate = global_lane.x[:2]
        anchor_choices = [
            (float(np.hypot(*(state.anchor_centers[obs.ulps_id] - estimate))), obs)
            for obs in frame.observations
            if obs.ulps_id in state.anchor_centers
        ]
        obs = min(anchor_choices, key=lambda item: item[0])[1] if anchor_choices else None
        stepping.append((global_lane, obs))
        global_updated = obs is not None

    # -- 3. the running lanes step together; then the local lanes of
    # uncalibrated clusters, in scenario order, bootstrap or log
    running = [
        (lane, observed.get(cid)) for cid, lane in lanes.items() if cid not in state.calibrated
    ]
    stepping += [(lane, obs) for lane, obs in running if lane.x is not None]
    _step_lanes(stepping, frame, state.models, params)
    for lane, obs in running:
        if lane.x is None and obs is not None:
            lane.bootstrap(obs, frame.epoch, params)
        if lane.x is None:
            continue
        # correspondence logging while both estimates are anchored
        lane.logged_last = global_updated and obs is not None
        if lane.logged_last:
            lane.log.append(lane.x[:2], global_lane.x[:2], frame.epoch)
    return state


def _fold(frames: list[simulator.MeasurementFrame], params: _RunParams) -> ScanResult:
    """Fold the state machine over ``frames`` into an unscored result."""
    config = params.config
    state = ScanState(
        models={u.id: params.cluster_model(u.beacons) for u in config.ulps},
        anchor_centers={
            u.id: np.array(u.coverage_center) for u in config.global_clusters
        },
        global_lane=_Lane(GLOBAL_FRAME),
        lanes={u.id: _Lane(u.frame, CorrespondenceLog(u.id)) for u in config.local_clusters},
    )
    for frame in frames:
        scan_step(state, frame, params)

    # end-of-log flush for clusters still inside their common coverage area,
    # by first logged epoch, ties in scenario order
    leftovers = sorted(
        (
            cid
            for cid, lane in state.lanes.items()
            if cid not in state.calibrated and len(lane.log) >= 2
        ),
        key=lambda cid: state.lanes[cid].log.epochs[0],
    )
    last_epoch = frames[-1].epoch if frames else 0
    for cid in leftovers:
        _finalize_cluster(state, cid, last_epoch, params)

    uncalibrated = tuple(cid for cid in state.lanes if cid not in state.calibrated)
    for cid in uncalibrated:
        state.warnings.append(f"cluster '{cid}' was not calibrated in this pass")

    return ScanResult(
        global_trajectory=tuple(state.global_lane.trajectory),
        local_trajectories={
            cid: tuple(lane.trajectory)
            for cid, lane in state.lanes.items()
            if lane.trajectory
        },
        calibrations=dict(state.calibrated),
        uncalibrated=uncalibrated,
        warnings=tuple(state.warnings),
        filter_kind=params.filter_kind,
        method=params.method,
        mode=config.mode,
    )


def _score(result: ScanResult, frames: list, config: ScenarioConfig) -> ScanResult:
    """Score a result against the simulator's ground truth, the forward
    records an inverse pass replaced included.  The only step of a run that
    reads truth."""

    def scored(record):
        truth = simulator.true_global_beacons(config.cluster(record.cluster_id))
        return replace(
            record,
            per_beacon_errors=tuple(simulator.per_beacon_errors(record.beacons, truth).tolist()),
            replaced_forward=record.replaced_forward and scored(record.replaced_forward),
        )

    return replace(
        result,
        calibrations={cid: scored(record) for cid, record in result.calibrations.items()},
        global_rmse=simulator.trajectory_rmse(result.global_trajectory, frames),
    )


def run_scan(
    frames: list[simulator.MeasurementFrame],
    config: ScenarioConfig,
    filter_kind: str = "ekf",
    method: str = "analytical",
    inverse: bool = False,
) -> ScanResult:
    """Fold the state machine over all frames and score the outcome.

    With ``inverse=True`` the forward result goes on through
    ``inverse_trajectory_pass``, which scores the merged result.
    """
    params = _RunParams.bind(config, filter_kind, method)
    forward = _fold(frames, params)
    if inverse:
        return inverse_trajectory_pass(frames, forward, config, _params=params)
    return _score(forward, frames, config)


def inverse_trajectory_pass(frames, forward_result, config, *, _params=None):
    """Fold the reversed stream (``simulator.reverse_frames``) with the
    filter kind and method of ``forward_result``, merge it into
    ``forward_result`` and score the merged result.

    The last ``inverse_correct_count`` clusters calibrated in the forward
    pass take their reverse-pass calibrations, which see them first and so
    with the least accumulated drift.  Skipped with a warning when the run
    did not end inside a globally referenced cluster's coverage; the
    forward result is then returned scored.  ``_params`` is private:
    ``run_scan`` hands over the binding of its forward pass, so that one run
    binds once; any other caller leaves it out.
    """
    if forward_result.mode != config.mode:
        raise ValueError(
            f"the forward result is in {forward_result.mode.value} mode, "
            f"the scenario in {config.mode.value} mode"
        )
    merged = forward_result
    count = config.inverse_correct_count
    if count > 0 and forward_result.calibrations:
        if {u.id for u in config.global_clusters}.isdisjoint(frames[-1].by_cluster):
            warnings.warn(
                "inverse trajectory pass skipped: the run did not end inside a "
                "globally referenced cluster's coverage",
                stacklevel=2,
            )
        else:
            params = _params
            if params is None:
                params = _RunParams.bind(config, forward_result.filter_kind, forward_result.method)
            reverse = _fold(simulator.reverse_frames(frames), params)
            merged = merge_inverse_result(forward_result, reverse, count)
    return _score(merged, frames, config)


def merge_inverse_result(
    forward: ScanResult, reverse: ScanResult, count: int
) -> ScanResult:
    """Replace the last ``count`` forward calibrations with reverse-pass ones.

    Clusters are ranked by forward calibration epoch; a cluster the reverse
    pass failed to calibrate keeps its forward record (with a warning).  The
    returned result keeps the forward trajectories; it is scored afterwards,
    as a whole.
    """
    order = sorted(
        forward.calibrations.values(), key=lambda rec: rec.calibration_epoch
    )
    to_replace = [rec.cluster_id for rec in order[-count:]] if count > 0 else []
    merged = dict(forward.calibrations)
    warnings = list(forward.warnings)
    for cid in to_replace:
        reverse_record = reverse.calibrations.get(cid)
        if reverse_record is None:
            warnings.append(
                f"cluster '{cid}': reverse pass produced no calibration; "
                "keeping the forward one"
            )
            continue
        merged[cid] = replace(
            reverse_record, source="inverse", replaced_forward=forward.calibrations[cid]
        )
    return replace(
        forward,
        calibrations=merged,
        warnings=tuple(warnings),
        inverse_applied=True,
    )
