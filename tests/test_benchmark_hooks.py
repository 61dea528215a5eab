"""The names the per-layer benchmark wraps are the ones the program calls.

``perfbench/layers.py`` times and counts layers by replacing functions where
their callers look them up: each entry of ``filters.FILTER_STEPS``; the
state machine's ``scan_step``, ``gauss_newton_fix``, ``accumulate_analytical``,
``numerical_tc``, ``calibrate_beacons`` and ``inverse_trajectory_pass`` in
``orchestrator``; ``simulator.reverse_frames``, which the inverse pass calls
through its module; and ``calibration.mean_distance_error``, which the
Nelder-Mead objective calls through its module.  A refactor that binds one of
them elsewhere would make its metric read 0 without any error; these counters
catch that.
"""

from collections import Counter

import pytest

import scansim.calibration as calibration
import scansim.filters as filters
import scansim.orchestrator as orchestrator
import scansim.simulator as simulator
from scansim.scenario import default_scenario
from scansim.simulator import simulate


def counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def counts(monkeypatch):
    counts = Counter()
    for kind in list(filters.FILTER_STEPS):
        monkeypatch.setitem(
            filters.FILTER_STEPS, kind,
            counted(counts, f"{kind}_step", filters.FILTER_STEPS[kind]),
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
