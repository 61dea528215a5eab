"""The names the per-layer benchmark wraps are the ones the program calls.

``perfbench/layers.py`` times and counts layers by replacing functions where
their callers look them up: each entry of ``filters.FILTER_STEPS``; the
state machine's ``scan_step``, ``gauss_newton_fix``, ``accumulate_analytical``,
``numerical_tc``, ``calibrate_beacons`` and ``inverse_trajectory_pass`` in
``orchestrator``; ``simulator.reverse_frames``, which the inverse pass calls
through its module; and ``calibration.mean_distance_error``, which the
Nelder-Mead objective calls through its module.  A refactor that binds one of
them elsewhere would make its metric read 0 without any error; these counters
catch that.  A ``FILTER_STEPS`` call steps a group of lanes together, and
perfbench's ``filters.update_frac`` reads the group's observations as its
third positional argument (an update when it is not None), so every call
must get None there or a non-empty tuple of ``UsObservation``s of one
length.
"""

from collections import Counter
from dataclasses import replace

import pytest

import scansim.calibration as calibration
import scansim.filters as filters
import scansim.orchestrator as orchestrator
import scansim.simulator as simulator
from scansim.scenario import default_scenario
from scansim.simulator import UsObservation, simulate


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def is_update(observations) -> bool:
    """A non-empty tuple of ``UsObservation``s of one length."""
    return (
        isinstance(observations, tuple)
        and len(observations) > 0
        and all(isinstance(obs, UsObservation) for obs in observations)
        and len({len(obs.values) for obs in observations}) == 1
    )


def counted_step(counts, kind, fn):
    """``counted``, also counting the steps by their third positional
    argument: an update, a prediction, or anything else."""

    def wrapper(*args, **kwargs):
        observations = args[2]
        if is_update(observations):
            counts["step_updates"] += 1
        else:
            counts["step_predictions" if observations is None else "step_other"] += 1
        return fn(*args, **kwargs)

    return counted(counts, f"{kind}_step", wrapper)


@pytest.fixture
def counts(monkeypatch):
    counts = Counter()
    for kind in list(filters.FILTER_STEPS):
        monkeypatch.setitem(
            filters.FILTER_STEPS, kind,
            counted_step(counts, kind, filters.FILTER_STEPS[kind]),
        )
    for owner, name in [
        (orchestrator, "scan_step"),
        (orchestrator, "gauss_newton_fix"),
        (orchestrator, "accumulate_analytical"),
        (orchestrator, "numerical_tc"),
        (orchestrator, "calibrate_beacons"),
        (orchestrator, "inverse_trajectory_pass"),
        (simulator, "reverse_frames"),
        (calibration, "mean_distance_error"),
    ]:
        monkeypatch.setattr(owner, name, counted(counts, name, getattr(owner, name)))
    return counts


def test_every_wrapped_layer_is_called(counts):
    config = default_scenario(seed=1)
    frames = simulate(config)
    for kind, method in [
        ("ekf", "analytical"),
        ("ukf", "analytical"),
        ("hinf", "analytical"),
        ("ekf", "numerical"),
    ]:
        result = orchestrator.run_scan(frames, config, kind, method)
        assert result.calibrations, (kind, method)
    for name in [
        "ekf_step",
        "ukf_step",
        "hinf_step",
        "accumulate_analytical",
        "numerical_tc",
        "mean_distance_error",
    ]:
        assert counts[name] > 0, name


def test_every_filter_step_gets_an_observation_or_none(counts):
    config = default_scenario(seed=1)
    frames = simulate(config)
    # the default corridor is covered throughout, so every step updates; the
    # same corridor driven 5.5 m past the end of its coverage adds
    # prediction-only steps
    (x0, y0), (x1, y1) = config.waypoints
    beyond = replace(config, waypoints=((x0, y0), (x1 + 8.0, y1)))
    beyond_frames = simulate(beyond)
    for kind in filters.FILTER_STEPS:
        orchestrator.run_scan(frames, config, kind, "analytical", inverse=True)
        orchestrator.run_scan(beyond_frames, beyond, kind, "analytical")
    steps = sum(counts[f"{kind}_step"] for kind in filters.FILTER_STEPS)
    assert counts["step_updates"] > 0
    assert counts["step_predictions"] > 0
    assert counts["step_other"] == 0
    assert counts["step_updates"] + counts["step_predictions"] == steps


def test_inverse_run_calls_every_wrapped_state_machine_layer(counts):
    config = default_scenario(seed=1)
    result = orchestrator.run_scan(simulate(config), config, "ekf", "analytical", inverse=True)
    assert result.inverse_applied
    for name in [
        "scan_step",
        "gauss_newton_fix",
        "calibrate_beacons",
        "inverse_trajectory_pass",
        "reverse_frames",
    ]:
        assert counts[name] > 0, name
