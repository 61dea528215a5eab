"""Local-to-global transform estimation and beacon calibration.

A locally referenced cluster is calibrated by estimating the 4-component
similarity transform (rotation/scale pair t1, t2 plus translation t3, t4)
that maps its local frame onto the map frame:

    x' = x*t1 - y*t2 + t3
    y' = y*t1 + x*t2 + t4

The transform is solved from corresponding points of the robot's local and
global trajectories collected while both estimates are valid, either
analytically from point pairs or numerically by minimizing the mean
point-to-point distance after transformation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError
from .geometry import TransformVector, transform_point
from .scenario import Beacon, UlpsDescriptor, UlpsKind


@dataclass
class CorrespondenceLog:
    """Paired (local, global, epoch) trajectory points for one cluster.

    Both members of a pair come from the same epoch; pairs are appended in
    epoch order by the orchestrator.
    """

    cluster_id: str
    local_points: list = field(default_factory=list)
    global_points: list = field(default_factory=list)
    epochs: list = field(default_factory=list)

    def append(self, local_xy, global_xy, epoch: int) -> None:
        self.local_points.append((float(local_xy[0]), float(local_xy[1])))
        self.global_points.append((float(global_xy[0]), float(global_xy[1])))
        self.epochs.append(int(epoch))

    def __len__(self) -> int:
        return len(self.epochs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array(self.local_points, dtype=float).reshape(-1, 2),
            np.array(self.global_points, dtype=float).reshape(-1, 2),
        )


#: Most (point, earlier point) distances ``accumulate_analytical`` holds at
#: once; longer logs are scanned in blocks of rows.
PAIR_BLOCK = 1 << 16


def _solve_pairs(la, ga, lb, gb) -> np.ndarray:
    """Transforms solved exactly from point pairs, one row per pair.

    Row i of each (m, 2) array belongs to pair i: local points ``la``,
    ``lb`` and their global counterparts ``ga``, ``gb``.  Each pair gives
    the 4x4 system

        [x_a, -y_a, 1, 0]            [gx_a]
        [y_a,  x_a, 0, 1]  (t1..t4) = [gy_a]
        [x_b, -y_b, 1, 0]            [gx_b]
        [y_b,  x_b, 0, 1]            [gy_b]

    which is singular iff the two local points coincide; all m are solved
    in one stacked call.
    """
    if np.isclose(la, lb, rtol=0.0, atol=1e-12).all(axis=1).any():
        raise CalibrationError("coincident local points: transform is underdetermined")
    systems = np.zeros((len(la), 4, 4))
    for row, p in ((0, la), (2, lb)):
        systems[:, row, 0] = p[:, 0]
        systems[:, row, 1] = -p[:, 1]
        systems[:, row + 1, 0] = p[:, 1]
        systems[:, row + 1, 1] = p[:, 0]
    systems[:, (0, 2), 2] = 1.0
    systems[:, (1, 3), 3] = 1.0
    targets = np.concatenate([ga, gb], axis=1)[..., None]
    try:
        return np.linalg.solve(systems, targets)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"singular correspondence system: {exc}") from exc


def analytical_tc(pair_a, pair_b) -> TransformVector:
    """Solve the transform exactly from two (local, global) point pairs.

    Each pair is ``(local_xy, global_xy)``.  The 4x4 system is singular iff
    the two local points coincide.
    """
    (la, ga), (lb, gb) = pair_a, pair_b
    rows = [np.asarray(p, dtype=float).reshape(1, 2) for p in (la, ga, lb, gb)]
    return TransformVector.from_array(_solve_pairs(*rows)[0])


def _last_separated(points: np.ndarray, d_min: float) -> np.ndarray:
    """For each point k, the index of the last earlier point at distance
    >= ``d_min`` from it, or -1 where there is none."""
    n = len(points)
    index = np.arange(n)
    last = np.full(n, -1)
    block = max(1, PAIR_BLOCK // max(n, 1))
    for start in range(0, n, block):
        stop = min(n, start + block)
        delta = points[None, :stop] - points[start:stop, None]
        dists = np.hypot(delta[..., 0], delta[..., 1])
        earlier = index[:stop] < index[start:stop, None]
        last[start:stop] = np.where(earlier & (dists >= d_min), index[:stop], -1).max(axis=1)
    return last


def accumulate_analytical(log: CorrespondenceLog, d_min: float) -> TransformVector:
    """Averaged analytical transform over the whole correspondence log.

    At each epoch whose local point is at least ``d_min`` away from some
    earlier logged local point, a transform is solved from the newest point
    and the most recent such earlier point; the result is the component-wise
    mean of all per-epoch transforms.
    """
    local_pts, global_pts = log.arrays()
    last = _last_separated(local_pts, d_min)
    k = np.nonzero(last >= 0)[0]
    if k.size == 0:
        raise CalibrationError(
            f"cluster '{log.cluster_id}': no point pair separated by d_min={d_min}"
        )
    j = last[k]
    estimates = _solve_pairs(local_pts[j], global_pts[j], local_pts[k], global_pts[k])
    return TransformVector.from_array(np.mean(estimates, axis=0))


def mean_distance_error(t: TransformVector, local_pts, global_pts) -> float:
    """Mean Euclidean distance between transformed local points and global ones."""
    local_pts = np.asarray(local_pts, dtype=float)
    global_pts = np.asarray(global_pts, dtype=float)
    diff = transform_point(local_pts, t) - global_pts
    d = np.hypot(diff[:, 0], diff[:, 1])
    return float(np.add.reduce(d) / len(d))


def select_spread_points(
    log: CorrespondenceLog, d_min: float, max_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy point selection in epoch order with pairwise local separation >= d_min."""
    local_pts, global_pts = log.arrays()
    chosen: list[int] = []
    for k in range(len(local_pts)):
        if len(chosen) >= max_points:
            break
        if all(
            np.hypot(*(local_pts[k] - local_pts[j])) >= d_min for j in chosen
        ):
            chosen.append(k)
    return local_pts[chosen], global_pts[chosen]


class _BudgetSpent(Exception):
    """Raised by ``nelder_mead``'s evaluation counter once ``maxfev`` calls
    have been made; it ends the iteration in progress wherever it stands."""


def nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float) -> np.ndarray:
    """Minimize ``f`` with the Nelder-Mead downhill simplex; returns the best
    vertex.

    This is the unbounded, non-adaptive path of scipy's
    ``minimize(method="Nelder-Mead")`` (scipy 1.17) with the ``maxfev``,
    ``xatol`` and ``fatol`` options, reproduced operation for operation so
    that it evaluates the same points and returns the same bits:

    - the initial simplex is ``x0`` plus, for each component k, ``x0`` with
      component k scaled by 1.05, or set to 0.00025 where it is 0;
    - reflection 1, expansion 2, contraction 0.5 and shrink 0.5;
    - the search stops once every vertex lies within ``xatol`` of the best
      one in every component and every vertex value within ``fatol`` of the
      best value, or once ``maxfev`` evaluations have been made.  The budget
      can run out partway through an iteration, a shrink included; the
      simplex is then re-sorted as it stands, so a vertex a shrink has moved
      but not yet evaluated keeps its old value.

    ``f`` receives a 1-D float array that it must neither keep nor modify.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def evaluate(x) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(x)

    def by_value(sim, fsim):
        ind = fsim.argsort()
        return sim[ind], fsim[ind]

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the first simplex twice; the second sort is kept because
    # an unstable argsort may reorder ties.
    sim, fsim = by_value(*by_value(sim, fsim))

    while calls < maxfev:
        try:
            if (
                np.abs(sim[1:] - sim[0]).max() <= xatol
                and np.abs(fsim[0] - fsim[1:]).max() <= fatol
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = evaluate(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0]


def numerical_tc(
    log: CorrespondenceLog,
    d_min: float,
    max_points: int,
    init: TransformVector,
) -> TransformVector:
    """Minimize the mean distance error over the 4 transform components.

    Points are selected greedily in epoch order subject to pairwise local
    separation >= ``d_min``, up to ``max_points``.  The optimizer is the
    derivative-free simplex search ``nelder_mead`` started at ``init``; if it
    fails to improve on the initial value, ``init`` is returned with a
    warning.
    """
    local_sel, global_sel = select_spread_points(log, d_min, max_points)
    if len(local_sel) < 2:
        raise CalibrationError(
            f"cluster '{log.cluster_id}': fewer than 2 points separated by "
            f"d_min={d_min}"
        )

    def objective(params):
        return mean_distance_error(TransformVector(*params.tolist()), local_sel, global_sel)

    x0 = init.as_array()
    x = nelder_mead(objective, x0, maxfev=500, fatol=1e-9, xatol=1e-12)
    if objective(x) <= objective(x0):
        return TransformVector.from_array(x)
    warnings.warn(
        f"cluster '{log.cluster_id}': numerical refinement did not improve on "
        "its initial transform; returning the initial one",
        stacklevel=2,
    )
    return init


def calibrate_beacons(u: UlpsDescriptor, t: TransformVector) -> tuple[Beacon, ...]:
    """Map a locally referenced cluster's beacons into the map frame.

    Heights are kept as-is: the cluster structure fixes them and only the
    floor-plane placement is unknown.
    """
    if u.kind is not UlpsKind.LOCALLY_REFERENCED:
        raise CalibrationError(f"cluster '{u.id}' is already globally referenced")
    mapped = transform_point(np.array([[b.x, b.y] for b in u.beacons]), t)
    return tuple(
        Beacon(float(x), float(y), b.z) for (x, y), b in zip(mapped, u.beacons)
    )

