"""The load process: runs one workload for a set time and reports every run.

    python3 perfbench/load.py --workload NAME --base SEED_BASE --seconds S \
        --scenario-dir DIR --work-dir DIR --result FILE [--trace]

Untimed set-up (imports, scenario load) happens before the clock starts.
Without ``--trace`` it runs the workload as a user would and records every
batch or invocation.  With ``--trace`` it measures per-layer metrics: one
untraced round in the workload's own shape (for the batch metrics), then
pairs of identical rounds, untraced and traced, in this process at one job.
A speed reading (``speed.py``) follows each batch or invocation.
The result file is JSON; scansim's own output goes to stdout and stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import scansim.cli as cli
import speed
import tasks
from scansim.scenario import load_scenario
from workloads import COMBOS, FILTERS, TRACE_PER_FILTER, WORKLOADS, BatchWorkload


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Load:
    def __init__(self, workload, base, scenario_dir: Path, work_dir: Path):
        self.workload = workload
        self.base = base
        self.work_dir = work_dir
        if isinstance(workload, BatchWorkload):
            self.scenario = scenario_dir / f"scenario-{workload.mode}.yaml"
            self.config = load_scenario(self.scenario)
        else:
            self.scenario = scenario_dir / "scenario-spherical.yaml"
        self.env = tasks.child_env(Path(cli.__file__).resolve().parents[1])

    # -- batch workloads -----------------------------------------------------
    def batch_round(self, r: int, per_filter: int, jobs: int, run=None) -> list[dict]:
        """Round ``r``: one ``run_batch`` call per filter, each made through ``run``."""
        run = run or (lambda call: call())
        out = []
        for first, k, kind in self.workload.batches(self.base + r * len(FILTERS) * per_filter,
                                                    1, per_filter):
            def call(first=first, k=k, kind=kind):
                record = tasks.run_batch(cli, replace(self.config, seed=first),
                                         k, kind, self.workload.method, jobs)
                record.update(first_seed=first, filter=kind)
                return record

            out.append(run(call))
        return out

    # -- CLI workload ----------------------------------------------------------
    def cli_run(self, i: int, in_process: bool) -> dict:
        run = self.workload.run(self.base, i)
        out_dir = self.work_dir / f"run-{i}"
        if in_process:
            record = tasks.cli_in_process(self.scenario, run, out_dir)
        else:
            record = tasks.cli_process(self.scenario, run, out_dir, self.env)
        record.update(first_seed=run.seed, filter=run.filter_kind)
        return record

    # -- the timed workload ----------------------------------------------------
    def timed(self, seconds: float) -> dict:
        """Run the workload for about ``seconds``, with speed readings between units."""
        speed_probe = SpeedProbe()
        if isinstance(self.workload, BatchWorkload):
            def one_round(r):
                return self.batch_round(r, self.workload.per_filter, self.workload.jobs,
                                        speed_probe.run_and_read)
        else:
            def one_round(r):
                return [speed_probe.run_and_read(
                            lambda i=i: self.cli_run(COMBOS * r + i, in_process=False))
                        for i in range(COMBOS)]

        started = time.perf_counter()
        units = []
        round_times = []
        # Whole rounds keep the mix of filters (and, for the CLI, of modes and
        # methods) the same in every invocation, so the median run time does
        # not jump between them; stop at the round whose expected end lies
        # nearest the time budget.
        while not round_times or (
            time.perf_counter() - started + sum(round_times) / len(round_times) / 2
            < seconds
        ):
            t = time.perf_counter()
            units += one_round(len(round_times))
            round_times.append(time.perf_counter() - t)
        return {"wall_s": time.perf_counter() - started, "units": units,
                "ref_readings_s": speed_probe.readings, "peak_rss_mb": peak_rss_mb()}

    # -- the traced run --------------------------------------------------------
    def traced(self, seconds: float, spans_path: Path) -> dict:
        from layers import batch_use, count_warnings, instrument, layer_metrics
        from spans import Tracer

        speed_probe = SpeedProbe()
        started = time.perf_counter()
        shape = []
        if isinstance(self.workload, BatchWorkload):
            shape = self.batch_round(0, self.workload.per_filter, self.workload.jobs)

        def one_round(r):
            if isinstance(self.workload, BatchWorkload):
                return self.batch_round(r, TRACE_PER_FILTER, 1, speed_probe.run_and_read)
            return [speed_probe.run_and_read(
                        lambda i=i: self.cli_run(COMBOS * r + i, in_process=True))
                    for i in range(COMBOS)]

        tracer = Tracer()
        untraced, traced, caught = [], [], []
        pair_times = []
        r = 0
        while not pair_times or (
            time.perf_counter() - started + sum(pair_times) / len(pair_times) < seconds
        ):
            t = time.perf_counter()
            untraced += one_round(r)
            instrument(tracer)
            try:
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter("always")
                    traced += one_round(r)
                caught += got
            finally:
                tracer.restore()
            pair_times.append(time.perf_counter() - t)
            r += 1
        tracer.write(spans_path)

        runs = sum(u["runs"] for u in traced)
        metrics = layer_metrics(tracer, runs, count_warnings(caught))
        metrics.update(batch_use(shape, self.workload.jobs))
        run_time = "runtime_s" if isinstance(self.workload, BatchWorkload) else "wall_s"

        def total_s(units):
            return sum(rec[run_time] for u in units for rec in u["records"])

        plain, with_spans = total_s(untraced), total_s(traced)
        metrics["trace.overhead_s"] = (
            (with_spans - plain) / runs * speed.scale(speed_probe.readings)
        )
        metrics["trace.overhead_frac"] = with_spans / plain - 1.0
        return {
            "wall_s": time.perf_counter() - started,
            "units": shape + untraced + traced,
            "layers": metrics,
            "spans": len(tracer.spans),
            "peak_rss_mb": peak_rss_mb(),
        }


class SpeedProbe:
    """Reads the reference kernel before the first unit of work and after each."""

    def __init__(self):
        self.readings = [speed.reference_s()]

    def run_and_read(self, call) -> dict:
        """Run ``call`` and read the kernel after it; returns what ``call`` returned."""
        record = call()
        self.readings.append(speed.reference_s())
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--base", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scenario-dir", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if workload.jobs == 1:
        speed.pin_to_one_cpu()
    load = Load(workload, args.base, args.scenario_dir, args.work_dir)
    if args.trace:
        result = load.traced(args.seconds, args.result.with_suffix(".spans.jsonl"))
    else:
        result = load.timed(args.seconds)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
