"""Where the traced run enters each scansim layer, and the per-layer metrics.

Every public function is wrapped where its caller looks it up, so the
program itself is unchanged: ``scansim.cli`` for what the CLI and
``run_batch`` call, ``scansim.orchestrator`` for what the state machine
calls, ``scansim.calibration`` for what the transform solvers call, and
``scansim.simulator`` for ``reverse_frames``, which the inverse pass imports
at call time.  The filter steps are swapped inside ``FILTER_STEPS``.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import Tracer, layer_of, self_times

WRITERS = (
    "write_trajectory_csv",
    "write_calibration_json",
    "write_summary_json",
    "write_aggregate_json",
    "write_aggregate_csv",
    "write_cdf_csv",
)

#: Message fragments of the ``warnings.warn`` calls in ``calibration.py``.
NO_IMPROVE = "did not improve on its initial transform"
INVERSE_SKIPPED = "inverse trajectory pass skipped"


def _frames(counts, args, frames):
    counts["simulator.frames"] += len(frames)
    counts["simulator.observations"] += sum(len(f.observations) for f in frames)


def _fix(counts, args, fix):
    counts["positioning.gn_iterations"] += fix.iterations
    counts["positioning.converged"] += bool(fix.converged)


def _step(counts, args, state):
    counts["filters.updates"] += args[2] is not None


def _scan(counts, args, result):
    counts["orchestrator.run_warnings"] += len(result.warnings)
    counts["orchestrator.inverse_replaced"] += sum(
        r.source == "inverse" for r in result.calibrations.values()
    )


def _file_size(index, key):
    def observe(counts, args, result):
        counts[key] += os.path.getsize(args[index])

    return observe


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""
    import scansim.calibration as calibration
    import scansim.cli as cli
    import scansim.filters as filters
    import scansim.orchestrator as orchestrator
    import scansim.simulator as simulator

    def timed(owner, attr, name, observe=None):
        tracer.patch(owner, attr, tracer.timed(name, getattr(owner, attr), observe))

    timed(cli, "main", "cli.main")
    timed(cli, "run_batch", "cli.run_batch")
    timed(cli, "load_scenario", "scenario.load_scenario")
    timed(cli, "simulate", "simulator.simulate", _frames)
    timed(cli, "save_frames", "simulator.save_frames",
          _file_size(1, "simulator.save_bytes"))
    timed(simulator, "reverse_frames", "simulator.reverse_frames")
    timed(cli, "run_scan", "orchestrator.run_scan", _scan)
    timed(orchestrator, "inverse_trajectory_pass", "orchestrator.inverse_trajectory_pass")
    tracer.patch(orchestrator, "scan_step",
                 tracer.counted("orchestrator.epochs", orchestrator.scan_step))
    timed(orchestrator, "gauss_newton_fix", "positioning.gauss_newton_fix", _fix)
    for kind in list(filters.FILTER_STEPS):
        tracer.patch(filters.FILTER_STEPS, kind, tracer.timed(
            f"filters.{kind}_step", filters.FILTER_STEPS[kind], _step))
    timed(orchestrator, "accumulate_analytical", "calibration.accumulate_analytical")
    timed(orchestrator, "numerical_tc", "calibration.numerical_tc")
    timed(orchestrator, "calibrate_beacons", "calibration.calibrate_beacons")
    tracer.patch(calibration, "analytical_tc",
                 tracer.counted("calibration.pair_solves", calibration.analytical_tc))
    tracer.patch(calibration, "mean_distance_error",
                 tracer.counted("calibration.objective_evals",
                                calibration.mean_distance_error))
    timed(cli, "summarize_run", "reporting.summarize_run")
    timed(cli, "aggregate_runs", "reporting.aggregate_runs")
    for writer in WRITERS:
        timed(cli, writer, f"reporting.{writer}", _file_size(0, "reporting.bytes_written"))


def count_warnings(caught) -> dict:
    """Count the ``calibration.py`` warnings among ``warnings.catch_warnings`` records.

    They are told apart by their text alone: both calls pass ``stacklevel=2``,
    so a record names the caller's file (a tracer wrapper or
    ``orchestrator.py``), never ``calibration.py``.
    """
    counts = {"calibration.no_improve": 0, "orchestrator.inverse_skipped": 0}
    for w in caught:
        text = str(w.message)
        if NO_IMPROVE in text:
            counts["calibration.no_improve"] += 1
        elif INVERSE_SKIPPED in text:
            counts["orchestrator.inverse_skipped"] += 1
    return counts


def layer_metrics(tracer: Tracer, runs: int, warning_counts: dict) -> dict:
    """Per-run layer metrics of a traced pass over ``runs`` runs.

    ``cli.batch_s``, ``cli.worker_busy_frac`` and the ``trace.*`` metrics
    come from the untraced pass and are filled in by the caller.
    """
    spans = tracer.spans
    counts = tracer.counts
    total = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
    orchestrator_self = sum(
        t for span, t in zip(spans, self_times(spans))
        if layer_of(span[0]) == "orchestrator"
    )

    def errors(name):
        return sum(v for k, v in counts.items() if k.startswith(name + "!"))

    def per_run(value):
        return value / runs

    def ratio(num, den):
        return num / den if den else 0.0

    steps = sum(calls[f"filters.{k}_step"] for k in ("ekf", "ukf", "hinf"))
    writes = sum(total[f"reporting.{w}"] for w in WRITERS)
    fixes = calls["positioning.gauss_newton_fix"]
    values = {
        "scenario.load_s": per_run(total["scenario.load_scenario"]),
        "simulator.simulate_s": per_run(total["simulator.simulate"]),
        "simulator.frames": per_run(counts["simulator.frames"]),
        "simulator.observations": per_run(counts["simulator.observations"]),
        "simulator.reverse_s": per_run(total["simulator.reverse_frames"]),
        "simulator.save_s": per_run(total["simulator.save_frames"]),
        "simulator.save_bytes": per_run(counts["simulator.save_bytes"]),
        "positioning.fix_s": per_run(total["positioning.gauss_newton_fix"]),
        "positioning.fixes": per_run(fixes),
        "positioning.gn_iterations": per_run(counts["positioning.gn_iterations"]),
        "positioning.converged_frac": ratio(counts["positioning.converged"], fixes),
        "positioning.geometry_errors": per_run(errors("positioning.gauss_newton_fix")),
        "filters.step_s": per_run(sum(total[f"filters.{k}_step"] for k in ("ekf", "ukf", "hinf"))),
        "filters.steps": per_run(steps),
        "filters.update_frac": ratio(counts["filters.updates"], steps),
        "filters.errors": per_run(sum(errors(f"filters.{k}_step") for k in ("ekf", "ukf", "hinf"))),
        "calibration.analytical_s": per_run(total["calibration.accumulate_analytical"]),
        "calibration.pair_solves": per_run(counts["calibration.pair_solves"]),
        "calibration.numerical_s": per_run(total["calibration.numerical_tc"]),
        "calibration.objective_evals": per_run(counts["calibration.objective_evals"]),
        "calibration.no_improve": per_run(warning_counts["calibration.no_improve"]),
        "calibration.failures": per_run(
            errors("calibration.accumulate_analytical") + errors("calibration.numerical_tc")
        ),
        "calibration.map_s": per_run(total["calibration.calibrate_beacons"]),
        "orchestrator.forward_s": per_run(
            total["orchestrator.run_scan"] - total["orchestrator.inverse_trajectory_pass"]
        ),
        "orchestrator.inverse_s": per_run(total["orchestrator.inverse_trajectory_pass"]),
        "orchestrator.self_s": per_run(orchestrator_self),
        "orchestrator.epochs": per_run(counts["orchestrator.epochs"]),
        "orchestrator.promotions": per_run(calls["calibration.calibrate_beacons"]),
        "orchestrator.inverse_replaced": per_run(counts["orchestrator.inverse_replaced"]),
        "orchestrator.inverse_skipped": per_run(warning_counts["orchestrator.inverse_skipped"]),
        "orchestrator.run_warnings": per_run(counts["orchestrator.run_warnings"]),
        "reporting.summarize_s": per_run(total["reporting.summarize_run"]),
        "reporting.aggregate_s": per_run(total["reporting.aggregate_runs"]),
        "reporting.write_s": per_run(writes),
        "reporting.bytes_written": per_run(counts["reporting.bytes_written"]),
        "cli.main_s": per_run(total["cli.main"]),
    }
    for kind in ("ekf", "ukf", "hinf"):
        name = f"filters.{kind}_step"
        values[f"filters.{kind}_step_us"] = 1e6 * ratio(total[name], calls[name])
    return values


def batch_use(batches: list[dict], jobs: int) -> dict:
    """``cli.batch_s`` and ``cli.worker_busy_frac`` of untraced batch records."""
    if not batches:
        return {"cli.batch_s": 0.0, "cli.worker_busy_frac": 0.0}
    wall = sum(b["wall_s"] for b in batches)
    busy = sum(r["runtime_s"] for b in batches for r in b["records"])
    return {
        "cli.batch_s": statistics.fmean(b["wall_s"] for b in batches),
        "cli.worker_busy_frac": busy / (jobs * wall),
    }
