"""Simultaneous calibration and navigation of ultrasonic beacon clusters.

A robot with noisy odometry drives through a field of ceiling-mounted
ultrasonic beacon clusters.  Clusters at known map positions anchor its
trajectory; the positions of the remaining clusters are estimated on the fly
from corresponding points of the robot's global and per-cluster local
trajectories.  The package provides the world model, the measurement
simulator, Gauss-Newton positioning, EKF/UKF/H-infinity filters, the
transform-vector calibration engine, the orchestrating state machine, and a
CLI for single runs, seeded batches, and parameter sweeps.
"""

from .calibration import (
    CorrespondenceLog,
    accumulate_analytical,
    analytical_tc,
    calibrate_beacons,
    mean_distance_error,
    numerical_tc,
)
from .errors import (
    CalibrationError,
    FilterError,
    GeometryError,
    ScanError,
    ScenarioError,
)
from .filters import (
    ClusterModel,
    EkfParams,
    FilterState,
    HinfParams,
    MeasurementNoise,
    ProcessNoise,
    UkfParams,
    filter_step,
)
from .geometry import (
    Mode,
    TransformVector,
    inverse_transform_point,
    predict_ranges,
    process_model,
    transform_point,
    wrap_angle,
)
from .orchestrator import CalibrationRecord, ScanResult, inverse_trajectory_pass, run_scan
from .positioning import StaticFix, bootstrap_state, gauss_newton_fix
from .reporting import CdfTable, RunSummary, compute_cdf
from .scenario import (
    Beacon,
    NoiseParams,
    Pose,
    ScenarioConfig,
    UlpsDescriptor,
    UlpsKind,
    default_scenario,
    in_coverage,
    load_scenario,
    make_square_cluster,
    save_scenario,
)
from .simulator import (
    MeasurementFrame,
    OdometryIncrement,
    UsObservation,
    beacon_error,
    generate_trajectory,
    load_frames,
    measure_odometry,
    measure_ultrasound,
    reverse_frames,
    save_frames,
    simulate,
    true_global_beacons,
    true_transform,
)

__version__ = "0.1.0"
