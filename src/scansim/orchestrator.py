"""The simultaneous calibration and navigation state machine.

Per epoch: bootstrap the global filter from Gauss-Newton fixes inside a
globally referenced cluster, keep one filter running per not-yet-calibrated
locally referenced cluster in its own frame, log (local, global) trajectory
correspondences while both estimates are anchored, and promote a cluster to
globally referenced once the robot leaves the common coverage area and its
transform has been solved.  Promoted clusters immediately start anchoring the
global filter, which is what lets the calibration chain from cluster to
cluster between the globally referenced ones.
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
    per_beacon_errors,
)
from .errors import CalibrationError, GeometryError, ScanError
from .filters import (
    FILTER_STEPS,
    ClusterModel,
    EkfParams,
    FilterState,
    HinfParams,
    MeasurementNoise,
    ProcessNoise,
    UkfParams,
)
from .geometry import Mode, TransformVector
from .positioning import MIN_FIX_SEPARATION, StaticFix, bootstrap_state, gauss_newton_fix
from .scenario import Beacon, ScenarioConfig, UlpsDescriptor, beacon_array

FILTER_KINDS = ("ekf", "ukf", "hinf")
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
    """Outcome of calibrating one locally referenced cluster."""

    cluster_id: str
    method: str
    transform: TransformVector
    beacons: tuple[Beacon, ...]
    calibration_epoch: int
    source: str = "forward"
    beacon_error: float | None = None
    per_beacon_errors: tuple[float, ...] = ()
    replaced_forward: "CalibrationRecord | None" = None

    @property
    def implied_scale(self) -> float:
        return self.transform.scale


@dataclass
class ScanState:
    """Mutable state folded over the measurement frames.

    ``models`` holds each cluster's ``ClusterModel`` in the frame of the
    filter it anchors: the cluster's own frame until it is promoted, the map
    frame from then on.  ``anchor_centers`` holds the map-frame centre of
    each cluster that can anchor the global filter: the coverage centre of a
    globally referenced cluster, the mean of the calibrated beacons of a
    promoted one.
    """

    models: dict
    anchor_centers: dict
    global_filter: FilterState | None = None
    local_filters: dict = field(default_factory=dict)
    calibrated: dict = field(default_factory=dict)
    logs: dict = field(default_factory=dict)
    trajectory_global: list = field(default_factory=list)
    trajectories_local: dict = field(default_factory=dict)
    pending_global_fix: tuple[int, StaticFix] | None = None
    pending_local_fixes: dict = field(default_factory=dict)
    common_prev: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    global_updated: bool = False


@dataclass(frozen=True)
class ScanResult:
    """Everything a run produces, plus ground-truth scoring."""

    global_trajectory: tuple
    local_trajectories: dict
    calibrations: dict
    uncalibrated: tuple
    warnings: tuple
    global_rmse: float
    filter_kind: str
    method: str
    mode: Mode
    inverse_applied: bool = False


@dataclass(frozen=True)
class _RunParams:
    """What one run binds once: the scenario, the estimator and its tuning,
    the process covariance ``Q`` every filter step uses, and the scenario's
    cluster lookups every epoch makes."""

    config: ScenarioConfig
    filter_kind: str
    method: str
    filter_params: EkfParams | UkfParams | HinfParams
    Q: np.ndarray
    global_ids: frozenset[str]
    local_clusters: tuple[UlpsDescriptor, ...]
    bootstrap_sigma_xy: float = BOOTSTRAP_SIGMA_XY
    bootstrap_sigma_theta: float = BOOTSTRAP_SIGMA_THETA

    def bootstrap_covariance(self) -> np.ndarray:
        return np.diag(
            [
                self.bootstrap_sigma_xy**2,
                self.bootstrap_sigma_xy**2,
                self.bootstrap_sigma_theta**2,
            ]
        )

    def cluster_model(self, beacons: tuple[Beacon, ...]) -> ClusterModel:
        config = self.config
        noise = MeasurementNoise.for_cluster(config.mode, config.noise.sigma_us, len(beacons))
        return ClusterModel(beacon_array(beacons), config.z_mr, config.mode, noise.matrix())

    def step_filter(self, state: FilterState, odo, obs, cluster: ClusterModel | None):
        return FILTER_STEPS[self.filter_kind](
            state, odo, obs, cluster, self.Q, self.filter_params
        )


def _finalize_cluster(
    state: ScanState, cid: str, epoch: int, params: _RunParams
) -> bool:
    """Solve the transform for one cluster and promote it; False on failure."""
    config = params.config
    u = config.cluster(cid)
    log = state.logs.get(cid)
    if log is None or len(log) < 2:
        state.warnings.append(
            f"cluster '{cid}': left common coverage with too few correspondences"
        )
        state.common_prev[cid] = False
        return False
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
        state.common_prev[cid] = False
        return False

    beacons = calibrate_beacons(u, transform)
    truth = simulator.true_global_beacons(u)
    errors = per_beacon_errors(beacons, truth)
    state.calibrated[cid] = CalibrationRecord(
        cluster_id=cid,
        method=params.method,
        transform=transform,
        beacons=beacons,
        calibration_epoch=epoch,
        beacon_error=float(np.mean(errors)),
        per_beacon_errors=tuple(float(e) for e in errors),
    )
    state.models[cid] = params.cluster_model(beacons)
    state.anchor_centers[cid] = np.mean([[b.x, b.y] for b in beacons], axis=0)
    state.local_filters.pop(cid, None)
    state.pending_local_fixes.pop(cid, None)
    state.common_prev.pop(cid, None)
    return True


def _try_bootstrap(
    pending: tuple[int, StaticFix] | None,
    fix: StaticFix,
    epoch: int,
):
    """Two-fix bootstrap staging: returns (new_pending, pose_or_None)."""
    if not fix.converged:
        return pending, None
    if pending is None:
        return (epoch, fix), None
    _, first = pending
    if float(np.hypot(*(fix.xy - first.xy))) < MIN_FIX_SEPARATION:
        return pending, None
    return None, bootstrap_state(first, fix)


def scan_step(
    state: ScanState, frame: simulator.MeasurementFrame, params: _RunParams
) -> ScanState:
    """Advance the state machine by one measurement frame (mutates state)."""
    config = params.config
    observed = {o.ulps_id for o in frame.observations}

    def anchored_now() -> bool:
        return not params.global_ids.isdisjoint(observed) or any(
            c in observed for c in state.calibrated
        )

    # -- 1. finalize clusters whose common coverage area ended this epoch ----
    candidates = [
        cid
        for cid, was_common in state.common_prev.items()
        if was_common and not (anchored_now() and cid in observed)
    ]
    candidates.sort(key=lambda cid: state.logs[cid].epochs[0])
    for cid in candidates:
        if anchored_now() and cid in observed:
            continue  # rescued by a promotion earlier in this loop
        _finalize_cluster(state, cid, frame.epoch, params)

    # -- 2. global filter: bootstrap or step -------------------------------
    state.global_updated = False
    if state.global_filter is None:
        for obs in frame.observations:
            if obs.ulps_id not in params.global_ids:
                continue
            u = config.cluster(obs.ulps_id)
            try:
                fix = gauss_newton_fix(obs, u, config.z_mr, config.mode)
            except (GeometryError, ScanError):
                continue
            try:
                state.pending_global_fix, pose = _try_bootstrap(
                    state.pending_global_fix, fix, frame.epoch
                )
            except GeometryError:
                pose = None
            if pose is not None:
                state.global_filter = FilterState(pose, params.bootstrap_covariance())
                state.trajectory_global.append((frame.epoch, pose))
                state.global_updated = True
            break
    else:
        anchor_choices = []
        estimate = state.global_filter.pose.xy
        for obs in frame.observations:
            center = state.anchor_centers.get(obs.ulps_id)
            if center is None:
                continue
            anchor_choices.append((float(np.hypot(*(center - estimate))), obs))
        if anchor_choices:
            _, obs = min(anchor_choices, key=lambda item: item[0])
            state.global_filter = params.step_filter(
                state.global_filter, frame.odo, obs, state.models[obs.ulps_id]
            )
            state.global_updated = True
        else:
            state.global_filter = params.step_filter(
                state.global_filter, frame.odo, None, None
            )
        state.trajectory_global.append((frame.epoch, state.global_filter.pose))

    # -- 3. local filters for uncalibrated clusters ------------------------
    for u in params.local_clusters:
        cid = u.id
        if cid in state.calibrated:
            continue
        obs = frame.observation_for(cid)
        if cid in state.local_filters:
            state.local_filters[cid] = params.step_filter(
                state.local_filters[cid], frame.odo, obs, state.models[cid]
            )
            state.trajectories_local.setdefault(cid, []).append(
                (frame.epoch, state.local_filters[cid].pose)
            )
        elif obs is not None:
            try:
                fix = gauss_newton_fix(obs, u, config.z_mr, config.mode)
            except (GeometryError, ScanError):
                continue
            try:
                new_pending, pose = _try_bootstrap(
                    state.pending_local_fixes.get(cid), fix, frame.epoch
                )
            except GeometryError:
                new_pending, pose = state.pending_local_fixes.get(cid), None
            state.pending_local_fixes[cid] = new_pending
            if pose is not None:
                state.local_filters[cid] = FilterState(pose, params.bootstrap_covariance())
                state.trajectories_local.setdefault(cid, []).append((frame.epoch, pose))

    # -- 4. correspondence logging -----------------------------------------
    for cid, local_filter in state.local_filters.items():
        common = state.global_updated and cid in observed
        if common:
            log = state.logs.setdefault(cid, CorrespondenceLog(cid))
            log.append(
                local_filter.pose.xy, state.global_filter.pose.xy, frame.epoch
            )
        state.common_prev[cid] = common
    return state


def _global_rmse(state: ScanState, frames: list[simulator.MeasurementFrame]) -> float:
    if not state.trajectory_global:
        return float("nan")
    truth = {f.epoch: f.true_pose for f in frames}
    errors = [
        np.hypot(*(pose.xy - truth[epoch].xy))
        for epoch, pose in state.trajectory_global
    ]
    return float(np.sqrt(np.mean(np.square(errors))))


def run_scan(
    frames: list[simulator.MeasurementFrame],
    config: ScenarioConfig,
    filter_kind: str = "ekf",
    method: str = "analytical",
    inverse: bool = False,
    process_noise: ProcessNoise | None = None,
    ukf_params: UkfParams | None = None,
    hinf_params: HinfParams | None = None,
) -> ScanResult:
    """Fold the state machine over all frames and score the outcome.

    With ``inverse=True`` the recorded stream is replayed backwards afterwards
    and the calibrations of the last ``config.inverse_correct_count`` clusters
    calibrated in the forward pass are replaced by their reverse-pass values.
    """
    if filter_kind not in FILTER_KINDS:
        raise ValueError(f"filter_kind must be one of {FILTER_KINDS}, got {filter_kind!r}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    noise = config.noise
    noiseless = (
        noise.sigma_d_odo == 0 and noise.sigma_theta_odo == 0 and noise.sigma_us == 0
    )
    if process_noise is None:
        # The per-epoch process noise of this motion model is the odometry
        # noise itself, so the scenario's declared levels are the defaults.
        process_noise = ProcessNoise(
            max(noise.sigma_d_odo, ZERO_NOISE_SIGMA),
            max(noise.sigma_d_odo, ZERO_NOISE_SIGMA),
            max(noise.sigma_theta_odo, ZERO_NOISE_SIGMA),
        )
    filter_params = {
        "ekf": EkfParams(),
        "ukf": ukf_params or UkfParams(),
        "hinf": hinf_params or HinfParams(),
    }[filter_kind]
    params = _RunParams(
        config=config,
        filter_kind=filter_kind,
        method=method,
        filter_params=filter_params,
        Q=process_noise.matrix(),
        global_ids=frozenset(u.id for u in config.global_clusters),
        local_clusters=config.local_clusters,
        bootstrap_sigma_xy=ZERO_NOISE_SIGMA if noiseless else BOOTSTRAP_SIGMA_XY,
        bootstrap_sigma_theta=ZERO_NOISE_SIGMA if noiseless else BOOTSTRAP_SIGMA_THETA,
    )

    state = ScanState(
        models={u.id: params.cluster_model(u.beacons) for u in config.ulps},
        anchor_centers={
            u.id: np.array(u.coverage_center) for u in config.global_clusters
        },
    )
    for frame in frames:
        scan_step(state, frame, params)

    # end-of-log flush for clusters still inside their common coverage area
    leftovers = [
        cid
        for cid in (u.id for u in config.local_clusters)
        if cid not in state.calibrated and len(state.logs.get(cid, ())) >= 2
    ]
    leftovers.sort(key=lambda cid: state.logs[cid].epochs[0])
    last_epoch = frames[-1].epoch if frames else 0
    for cid in leftovers:
        _finalize_cluster(state, cid, last_epoch, params)

    uncalibrated = tuple(
        u.id for u in config.local_clusters if u.id not in state.calibrated
    )
    for cid in uncalibrated:
        state.warnings.append(f"cluster '{cid}' was not calibrated in this pass")

    result = ScanResult(
        global_trajectory=tuple(state.trajectory_global),
        local_trajectories={
            cid: tuple(traj) for cid, traj in state.trajectories_local.items()
        },
        calibrations=dict(state.calibrated),
        uncalibrated=uncalibrated,
        warnings=tuple(state.warnings),
        global_rmse=_global_rmse(state, frames),
        filter_kind=filter_kind,
        method=method,
        mode=config.mode,
    )
    if inverse:
        result = inverse_trajectory_pass(
            frames,
            result,
            config,
            filter_kind,
            method,
            process_noise=process_noise,
            ukf_params=ukf_params,
            hinf_params=hinf_params,
        )
    return result


def inverse_trajectory_pass(
    frames, forward_result, config, filter_kind, method, **estimator_kwargs
):
    """Re-run the pipeline on the reversed measurement stream and merge.

    The recorded odometry is dead-reckoned, the implied pose sequence is
    differenced in reverse (headings flipped by pi) to produce reversed
    increments with no fresh noise, and the full pipeline runs again from the
    final position.  The calibrations of the last ``inverse_correct_count``
    clusters calibrated in the forward pass are replaced by their reverse-pass
    counterparts, which see those clusters first and therefore with the least
    accumulated drift.  Extra keyword arguments (estimator tuning) are passed
    through to the reverse run so both passes use identical settings.

    Skipped with a warning when the forward pass did not end inside the
    coverage of a globally referenced cluster.
    """
    count = config.inverse_correct_count
    if count == 0 or not forward_result.calibrations:
        return forward_result

    gr_ids = {u.id for u in config.global_clusters}
    last_obs_ids = {o.ulps_id for o in frames[-1].observations}
    if not (gr_ids & last_obs_ids):
        warnings.warn(
            "inverse trajectory pass skipped: the run did not end inside a "
            "globally referenced cluster's coverage",
            stacklevel=2,
        )
        return forward_result

    reversed_stream = simulator.reverse_frames(frames)
    reverse_result = run_scan(
        reversed_stream, config, filter_kind, method, inverse=False,
        **estimator_kwargs,
    )
    return merge_inverse_result(forward_result, reverse_result, count)


def merge_inverse_result(
    forward: ScanResult, reverse: ScanResult, count: int
) -> ScanResult:
    """Replace the last ``count`` forward calibrations with reverse-pass ones.

    Clusters are ranked by forward calibration epoch; a cluster the reverse
    pass failed to calibrate keeps its forward record (with a warning).  The
    returned result keeps the forward trajectories and scoring.
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
