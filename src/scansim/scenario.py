"""World model: reference frames, beacon clusters, robot and noise parameters.

A scenario consists of ultrasonic beacon clusters mounted on the ceiling
(globally referenced clusters whose beacon map coordinates are known, and
locally referenced clusters whose geometry is known only in their own frame),
a ground-truth waypoint path for the robot, and the noise levels used by the
simulator.  Scenario files are YAML; see ``load_scenario`` for the schema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .errors import ScenarioError
from .geometry import Mode, wrap_angle

GLOBAL_FRAME = "global"


def local_frame(cluster_id: str) -> str:
    """Frame identifier for a cluster's own reference system."""
    return f"local:{cluster_id}"


class UlpsKind(str, Enum):
    GLOBALLY_REFERENCED = "globally_referenced"
    LOCALLY_REFERENCED = "locally_referenced"


@dataclass(frozen=True)
class Pose:
    """2D position plus heading in a named reference frame.

    The heading is normalized to (-pi, pi] on construction, so any update
    that goes through the constructor keeps the invariant.
    """

    x: float
    y: float
    theta: float
    frame: str = GLOBAL_FRAME

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


@dataclass(frozen=True)
class Beacon:
    """One ultrasound emitter: floor-plane coordinates plus mounting height."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        if not self.z > 0:
            raise ScenarioError(f"beacon height must be > 0, got z={self.z}")

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


def beacon_array(beacons) -> np.ndarray:
    """Beacon coordinates as an (I, 3) array."""
    return np.array([[b.x, b.y, b.z] for b in beacons])


@dataclass(frozen=True)
class UlpsDescriptor:
    """One beacon cluster.

    For globally referenced clusters the beacon coordinates are map
    coordinates.  For locally referenced clusters they are coordinates in the
    cluster's own frame; ``coverage_center`` and ``orientation`` then describe
    the true placement of that frame in the map.  They are ground truth: only
    the simulator reads them, to synthesize measurements and to score
    estimates; the estimator never does.
    """

    id: str
    kind: UlpsKind
    beacons: tuple[Beacon, ...]
    coverage_center: tuple[float, float]
    coverage_radius: float
    orientation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", UlpsKind(self.kind))
        object.__setattr__(self, "beacons", tuple(self.beacons))
        cx, cy = self.coverage_center
        object.__setattr__(self, "coverage_center", (float(cx), float(cy)))
        object.__setattr__(self, "coverage_radius", float(self.coverage_radius))
        object.__setattr__(self, "orientation", float(self.orientation))
        if not self.id:
            raise ScenarioError("cluster id must be non-empty")
        if not self.beacons:
            raise ScenarioError(f"cluster '{self.id}': beacon list is empty")
        if not self.coverage_radius > 0:
            raise ScenarioError(f"cluster '{self.id}': coverage_radius must be > 0")
        numbers = [*self.coverage_center, self.coverage_radius, self.orientation]
        numbers += [c for b in self.beacons for c in (b.x, b.y, b.z)]
        if not all(map(math.isfinite, numbers)):
            raise ScenarioError(
                f"cluster '{self.id}': beacon coordinates, coverage_center, "
                "coverage_radius and orientation must be finite"
            )
        if self.is_global and self.orientation != 0.0:
            raise ScenarioError(
                f"cluster '{self.id}': orientation applies only to locally "
                f"referenced clusters, got {self.orientation} on a globally referenced one"
            )

    @property
    def is_global(self) -> bool:
        return self.kind is UlpsKind.GLOBALLY_REFERENCED

    @property
    def frame(self) -> str:
        return GLOBAL_FRAME if self.is_global else local_frame(self.id)

    def beacon_array(self) -> np.ndarray:
        """Beacon coordinates as an (I, 3) array, in the descriptor's frame."""
        return beacon_array(self.beacons)

    def validate_for_mode(self, mode: Mode) -> None:
        need = mode.min_beacons()
        if len(self.beacons) < need:
            raise ScenarioError(
                f"cluster '{self.id}': {len(self.beacons)} beacons, "
                f"{mode.value} mode needs at least {need}"
            )


@dataclass(frozen=True)
class NoiseParams:
    """Standard deviations of the simulated noise sources (0 disables one)."""

    sigma_d_odo: float = 0.03
    sigma_theta_odo: float = 0.02
    sigma_us: float = 0.005

    def __post_init__(self):
        for name in ("sigma_d_odo", "sigma_theta_odo", "sigma_us"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (math.isfinite(value) and value >= 0):
                raise ScenarioError(f"noise.{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete, validated simulation scenario."""

    ulps: tuple[UlpsDescriptor, ...]
    waypoints: tuple[tuple[float, float], ...]
    speed: float
    z_mr: float
    noise: NoiseParams
    mode: Mode
    d_min: float
    seed: int
    inverse_correct_count: int = 3
    max_points: int = 10

    def __post_init__(self):
        object.__setattr__(self, "ulps", tuple(self.ulps))
        object.__setattr__(
            self,
            "waypoints",
            tuple((float(x), float(y)) for x, y in self.waypoints),
        )
        object.__setattr__(self, "speed", float(self.speed))
        object.__setattr__(self, "z_mr", float(self.z_mr))
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "d_min", float(self.d_min))
        for name in ("seed", "inverse_correct_count", "max_points"):
            # a bool or a fractional number is rejected rather than truncated
            value = getattr(self, name)
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))

        if not self.ulps:
            raise ScenarioError("ulps: no clusters defined")
        ids = [u.id for u in self.ulps]
        if len(set(ids)) != len(ids):
            raise ScenarioError("ulps: duplicate cluster ids")
        for u in self.ulps:
            u.validate_for_mode(self.mode)
        if not math.isfinite(self.z_mr):
            raise ScenarioError(f"z_mr must be finite, got {self.z_mr}")
        min_z = min(b.z for u in self.ulps for b in u.beacons)
        if not self.z_mr < min_z:
            raise ScenarioError(
                f"z_mr={self.z_mr} must be below the lowest beacon (z={min_z})"
            )
        if len(self.waypoints) < 2:
            raise ScenarioError("waypoints: at least two waypoints required")
        if not all(math.isfinite(v) for w in self.waypoints for v in w):
            raise ScenarioError("waypoints: every coordinate must be finite")
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ScenarioError(f"speed must be finite and > 0, got {self.speed}")
        if not (math.isfinite(self.d_min) and self.d_min > 0):
            raise ScenarioError(f"d_min must be finite and > 0, got {self.d_min}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.inverse_correct_count < 0:
            raise ScenarioError("inverse_correct_count must be >= 0")
        if self.max_points < 2:
            raise ScenarioError("max_points must be >= 2")

        start = self.waypoints[0]
        if not any(in_coverage(start, u) for u in self.ulps if u.is_global):
            raise ScenarioError(
                "waypoints: first waypoint must lie inside the coverage of a "
                "globally referenced cluster"
            )

    def cluster(self, cluster_id: str) -> UlpsDescriptor:
        for u in self.ulps:
            if u.id == cluster_id:
                return u
        raise KeyError(cluster_id)

    @property
    def global_clusters(self) -> tuple[UlpsDescriptor, ...]:
        return tuple(u for u in self.ulps if u.is_global)

    @property
    def local_clusters(self) -> tuple[UlpsDescriptor, ...]:
        return tuple(u for u in self.ulps if not u.is_global)


def make_square_cluster(
    center: Sequence[float],
    diagonal: float,
    height: float,
    include_center: bool = False,
) -> list[Beacon]:
    """Beacons at the corners of an axis-aligned square with the given diagonal.

    The corner offset from the center is diagonal/2 along each diagonal, i.e.
    diagonal / (2*sqrt(2)) per axis.  With ``include_center`` a fifth beacon is
    added at the center (the usual layout for globally referenced clusters).
    """
    if not diagonal > 0:
        raise ScenarioError(f"diagonal must be > 0, got {diagonal}")
    cx, cy = float(center[0]), float(center[1])
    h = diagonal / (2.0 * math.sqrt(2.0))
    corners = [(cx + h, cy + h), (cx - h, cy + h), (cx - h, cy - h), (cx + h, cy - h)]
    beacons = [Beacon(x, y, height) for x, y in corners]
    if include_center:
        beacons.append(Beacon(cx, cy, height))
    return beacons


def in_coverage(p: Sequence[float], u: UlpsDescriptor) -> bool:
    """True iff the floor point lies within the cluster's coverage disc.

    The boundary is inclusive.
    """
    dx = float(p[0]) - u.coverage_center[0]
    dy = float(p[1]) - u.coverage_center[1]
    return math.hypot(dx, dy) <= u.coverage_radius


# ---------------------------------------------------------------------------
# Scenario file I/O
# ---------------------------------------------------------------------------

def config_to_dict(config: ScenarioConfig) -> dict:
    return {
        "mode": config.mode.value,
        "seed": config.seed,
        "speed": config.speed,
        "z_mr": config.z_mr,
        "d_min": config.d_min,
        "inverse_correct_count": config.inverse_correct_count,
        "max_points": config.max_points,
        "noise": {
            "sigma_d_odo": config.noise.sigma_d_odo,
            "sigma_theta_odo": config.noise.sigma_theta_odo,
            "sigma_us": config.noise.sigma_us,
        },
        "waypoints": [[x, y] for x, y in config.waypoints],
        "ulps": [
            {
                "id": u.id,
                "kind": u.kind.value,
                "coverage_center": [u.coverage_center[0], u.coverage_center[1]],
                "coverage_radius": u.coverage_radius,
                "orientation": u.orientation,
                "beacons": [[b.x, b.y, b.z] for b in u.beacons],
            }
            for u in config.ulps
        ],
    }


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ScenarioError(f"{where}: missing required key '{key}'")
    return section[key]


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be a mapping")
    noise_raw = _get(data, "noise", "scenario")
    try:
        noise = NoiseParams(
            sigma_d_odo=_get(noise_raw, "sigma_d_odo", "noise"),
            sigma_theta_odo=_get(noise_raw, "sigma_theta_odo", "noise"),
            sigma_us=_get(noise_raw, "sigma_us", "noise"),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"noise: {exc}") from exc

    ulps_raw = _get(data, "ulps", "scenario")
    if not isinstance(ulps_raw, list):
        raise ScenarioError("ulps: must be a list of clusters")
    ulps = []
    for idx, raw in enumerate(ulps_raw):
        where = f"ulps[{idx}]"
        try:
            ulps.append(
                UlpsDescriptor(
                    id=str(_get(raw, "id", where)),
                    kind=UlpsKind(_get(raw, "kind", where)),
                    beacons=tuple(
                        Beacon(*xyz) for xyz in _get(raw, "beacons", where)
                    ),
                    coverage_center=tuple(_get(raw, "coverage_center", where)),
                    coverage_radius=_get(raw, "coverage_radius", where),
                    orientation=raw.get("orientation", 0.0),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    waypoints = _get(data, "waypoints", "scenario")
    if not isinstance(waypoints, list):
        raise ScenarioError("waypoints: must be a list of [x, y] pairs")

    try:
        return ScenarioConfig(
            ulps=tuple(ulps),
            waypoints=tuple((w[0], w[1]) for w in waypoints),
            speed=_get(data, "speed", "scenario"),
            z_mr=_get(data, "z_mr", "scenario"),
            noise=noise,
            mode=Mode(_get(data, "mode", "scenario")),
            d_min=_get(data, "d_min", "scenario"),
            seed=_get(data, "seed", "scenario"),
            inverse_correct_count=data.get("inverse_correct_count", 3),
            max_points=data.get("max_points", 10),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"scenario: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a YAML scenario file.

    Schema (all lengths in meters, angles in radians)::

        mode: spherical | hyperbolic
        seed: <int>
        speed: <meters per epoch>
        z_mr: <receiver height>
        d_min: <minimum correspondence baseline>
        inverse_correct_count: <int, optional, default 3>
        max_points: <int, optional, default 10>
        noise:
          sigma_d_odo: <float>
          sigma_theta_odo: <float>
          sigma_us: <float>
        waypoints:
          - [x, y]
          - ...
        ulps:
          - id: <string>
            kind: globally_referenced | locally_referenced
            coverage_center: [x, y]
            coverage_radius: <float>
            orientation: <radians, optional, locally referenced only>
            beacons:
              - [x, y, z]
              - ...
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file '{path}': {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario file '{path}': {exc}") from exc
    return config_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    """Write a scenario as YAML; ``load_scenario`` round-trips it exactly."""
    Path(path).write_text(
        yaml.safe_dump(config_to_dict(config), sort_keys=False, default_flow_style=None)
    )


# ---------------------------------------------------------------------------
# Default scenario
# ---------------------------------------------------------------------------

#: Orientation of each locally referenced cluster frame in the default
#: scenario (ground truth used by the simulator only).
_DEFAULT_LR_ORIENTATIONS = (0.0, 0.5235987755982988, -0.7853981633974483,
                            1.5707963267948966, 2.5, -2.0, 0.7)


#: Spacing between consecutive cluster centers in the default scenario.
#: Heavily overlapped coverage (5 m radius, 3 m spacing) keeps the robot's
#: correspondence window spanning each cluster's center rather than only the
#: entry crescent, which is what makes the transform fit an interpolation
#: instead of an extrapolation.
_DEFAULT_SPACING = 3.0


def default_scenario(
    mode: Mode | str = Mode.SPHERICAL,
    seed: int = 1,
    noise: NoiseParams | None = None,
    d_min: float = 2.5,
) -> ScenarioConfig:
    """The shipped corridor scenario.

    A 29 m straight corridor with a 5-beacon globally referenced cluster at
    each end (centers at x=0 and x=24) and seven 4-beacon locally referenced
    clusters every 3 m in between, their coverage discs heavily overlapped.
    Beacon height 3.5 m, square clusters with a 1 m diagonal, 5 m coverage
    radius.  The cluster at x=12 sits exactly halfway between the two
    globally referenced ones.  The layout approximates the kind of
    instrumented building corridor the defaults were modeled on; exact
    coordinates are explicit in ``scenarios/default.yaml``.
    """
    height = 3.5
    radius = 5.0
    gr2_x = _DEFAULT_SPACING * 8
    ulps = [
        UlpsDescriptor(
            id="gr1",
            kind=UlpsKind.GLOBALLY_REFERENCED,
            beacons=tuple(make_square_cluster((0.0, 0.0), 1.0, height, include_center=True)),
            coverage_center=(0.0, 0.0),
            coverage_radius=radius,
        )
    ]
    for k, orientation in enumerate(_DEFAULT_LR_ORIENTATIONS, start=1):
        ulps.append(
            UlpsDescriptor(
                id=f"lr{k}",
                kind=UlpsKind.LOCALLY_REFERENCED,
                beacons=tuple(make_square_cluster((0.0, 0.0), 1.0, height)),
                coverage_center=(_DEFAULT_SPACING * k, 0.0),
                coverage_radius=radius,
                orientation=orientation,
            )
        )
    ulps.append(
        UlpsDescriptor(
            id="gr2",
            kind=UlpsKind.GLOBALLY_REFERENCED,
            beacons=tuple(make_square_cluster((gr2_x, 0.0), 1.0, height, include_center=True)),
            coverage_center=(gr2_x, 0.0),
            coverage_radius=radius,
        )
    )
    return ScenarioConfig(
        ulps=tuple(ulps),
        waypoints=((-2.5, 0.0), (gr2_x + 2.5, 0.0)),
        speed=0.1,
        z_mr=0.5,
        noise=noise if noise is not None else NoiseParams(),
        mode=Mode(mode),
        d_min=d_min,
        seed=seed,
    )
