"""scansim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a scansim checkout; the program is imported from
``./src``.  Order of work:

1. correctness gate (zero-noise oracle for every filter x mode x method, and
   one seed of the workload run twice), in a two-worker pool; with
   ``--trace 0`` the fixed accuracy panel runs in the same pool;
2. ``--trace 0``: set-up time (fresh interpreters), then the timed workload
   in its own load process, then the end-to-end metrics, with times in
   reference seconds (``speed.py``);
   ``--trace 1``: the traced load process, then the per-layer metrics.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it holds the machine facts and the noise
evidence; both are also written to ``perfbench/out/``.  A gate miss, or a
directory without the scansim source, exits with status 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import machine
import metrics
import speed
import tasks
from workloads import (
    FILTERS,
    METHODS,
    MODES,
    PANEL_PER_FILTER,
    PANEL_ROUNDS,
    PANEL_SEED,
    WORKLOADS,
    BatchWorkload,
    Run,
    panel_runs,
    seed_base,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Names, units and directions of the metrics: the one table of them.
SPEC = HERE.parent / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up that
#: also compiles the byte code of a new checkout.
SETUP_REPEATS = 7

#: Seconds a whole invocation may take before the load process is stopped.
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def declared_units(kind: str) -> dict:
    """Name to unit of each metric ``BENCHMARK.json`` lists under ``kind``, in order."""
    try:
        return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the {kind} metrics of {SPEC}: {exc!r}")


def write_scenarios(work: Path) -> None:
    from scansim.scenario import default_scenario, save_scenario

    for mode in MODES:
        save_scenario(default_scenario(mode=mode), work / f"scenario-{mode}.yaml")


def scenario_for(workload, work: Path) -> Path:
    mode = workload.mode if isinstance(workload, BatchWorkload) else "spherical"
    return work / f"scenario-{mode}.yaml"


def submit_run(pool, workload, run, scenario: Path, out_dir: Path):
    """One run of ``workload`` in the pool, through the path the workload uses."""
    if isinstance(workload, BatchWorkload):
        return pool.submit(tasks.batch, str(scenario), run.seed, 1, run.filter_kind,
                           run.method, 1)
    return pool.submit(tasks.cli_in_process, str(scenario), run, str(out_dir))


def gate_and_panel(workload, base: int, work: Path, with_panel: bool):
    """Run the correctness gate (and the accuracy panel) in a two-worker pool.

    Returns the gate's repeated-seed record and the panel's units.
    """
    scenario = scenario_for(workload, work)
    first = workload.runs(base, 1)[0]
    # Fork, as run_batch does: this process has no threads yet, and a spawn
    # context would leave a resource-tracker process running after exit.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        zero = [pool.submit(tasks.zero_noise_check, f, mode, method)
                for f in FILTERS for mode in MODES for method in METHODS]
        repeat = [submit_run(pool, workload, first, scenario, work / f"gate-{i}")
                  for i in range(2)]
        panel = []
        if with_panel:
            if isinstance(workload, BatchWorkload):
                panel = [pool.submit(tasks.batch, str(scenario), seed0, k, kind,
                                     workload.method, 1)
                         for seed0, k, kind in workload.batches(PANEL_SEED, PANEL_ROUNDS,
                                                                PANEL_PER_FILTER)]
            else:
                panel = [pool.submit(tasks.cli_in_process, str(scenario), run,
                                     str(work / f"panel-{i}"))
                         for i, run in enumerate(panel_runs(workload))]
        problems = [p for p in (f.result() for f in zero) if p]
        again = [f.result() for f in repeat]
        panel_units = [f.result() for f in panel]
    for unit in again:
        if unit["failed"] or len(unit["records"]) != 1:
            problems.append(f"seed {first.seed} failed: {unit['errors']}")
    if not problems and again[0]["records"][0]["summary"] != again[1]["records"][0]["summary"]:
        problems.append(f"seed {first.seed}: two runs gave different summaries")
    if problems:
        raise BenchError("correctness gate failed: " + "; ".join(problems))
    return again[0]["records"][0]["summary"], panel_units


def measure_setup(workload, work: Path, env: dict) -> tuple[list[float], list[float]]:
    """Raw set-up times of fresh interpreters, and speed readings between them."""
    jobs = workload.jobs
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(scenario_for(workload, work)),
            str(jobs)]
    times, readings = [], []
    cpus = speed.pin_to_one_cpu() if jobs == 1 else None
    try:
        for i in range(SETUP_REPEATS + 1):
            elapsed = probe_once(argv, env)
            readings.append(speed.reference_s())
            if i:
                times.append(elapsed)
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    return times, readings


def probe_once(argv, env) -> float:
    """Seconds from launching the set-up probe to its ``ready`` line."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def run_load(args, base: int, work: Path, env: dict, deadline: float) -> dict:
    result = work / "load.json"
    argv = [sys.executable, str(HERE / "load.py"), "--workload", args.workload,
            "--base", str(base), "--seconds", str(args.seconds),
            "--scenario-dir", str(work), "--work-dir", str(work / "runs"),
            "--result", str(result)]
    if args.trace:
        argv.append("--trace")
    (work / "runs").mkdir()
    log = work / "load.log"
    with open(log, "w") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("load process ran past the deadline")
    if code != 0:
        raise BenchError(f"load process exited {code}: {log.read_text()[-2000:]}")
    data = json.loads(result.read_text())
    if args.trace:
        spans = result.with_suffix(".spans.jsonl")
        shutil.move(spans, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return data


def check_units(units, expected_runs, cluster_ids) -> list[str]:
    """Every completed run's summary is sound and belongs to an expected run.

    A run made more than once (traced and untraced) must give the same
    summary each time.
    """
    expected = {(r.seed, r.filter_kind): r for r in expected_runs}
    seen = {}
    problems = []
    for record in records(units):
        summary = record["summary"]
        key = (summary["seed"], summary["filter"])
        if key not in expected:
            problems.append(f"unexpected run {key}")
            continue
        problem = tasks.check_summary(summary, expected[key], cluster_ids)
        if problem:
            problems.append(problem)
        if seen.setdefault(key, summary) != summary:
            problems.append(f"run {key} gave two different summaries")
    return problems


def expected_runs(workload, base: int, units) -> list:
    """The runs the load process was asked to make, in order."""
    if isinstance(workload, BatchWorkload):
        return [Run(u["first_seed"] + i, u["filter"], workload.mode, workload.method)
                for u in units for i in range(u["runs"])]
    return workload.runs(base, len(units))


def records(units):
    return [rec for u in units for rec in u["records"]]


def measure(args) -> tuple[dict, dict]:
    root = Path.cwd()
    src = root / "src"
    if not (src / "scansim" / "__init__.py").is_file():
        raise BenchError("no scansim source under ./src; run from the root of a checkout")
    sys.path.insert(0, str(src))
    env = tasks.child_env(src)
    os.environ["PYTHONPATH"] = env["PYTHONPATH"]
    import scansim

    if Path(scansim.__file__).resolve().parent != (src / "scansim").resolve():
        raise BenchError(f"imported scansim from {scansim.__file__}, not from ./src")
    from scansim.scenario import default_scenario

    declared = declared_units("per_layer" if args.trace else "end_to_end")
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    base = seed_base(args.seed)
    cluster_ids = [u.id for u in default_scenario().local_clusters]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        write_scenarios(work)
        phase_s = {}
        t = time.perf_counter()
        gate_summary, panel_units = gate_and_panel(workload, base, work, not args.trace)
        phase_s["gate"] = time.perf_counter() - t
        setup, setup_readings = ([], []) if args.trace else measure_setup(workload, work, env)
        phase_s["setup"] = time.perf_counter() - t - phase_s["gate"]
        before = machine.cpu_ticks()
        load = run_load(args, base, work, env, deadline)
        noise = machine.ticks_delta(before, machine.cpu_ticks())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = load["units"]
    problems = check_units(units, expected_runs(workload, base, units), cluster_ids)
    if not args.trace:
        problems += check_units(panel_units, panel_runs(workload), cluster_ids)
        first = records(units)[:1]
        if first and first[0]["summary"] != gate_summary:
            problems.append("the timed load's first run differs from the gate's run of "
                            "the same seed")
    all_units = units + panel_units
    attempted = sum(u["runs"] for u in all_units)
    failed = sum(u["failed"] for u in all_units)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "run_seed_base": base,
        "trace": int(args.trace),
        "machine": machine.facts(),
        "phase_s": phase_s,
        "load_wall_s": load["wall_s"],
        "cpu_during_load": noise,
        "errors": [e for u in all_units for e in u["errors"]],
        "problems": problems,
    }
    if args.trace:
        values = load["layers"]
        info["spans"] = load["spans"]
    else:
        panel = [tasks.accuracy_input(r["summary"]) for r in records(panel_units)]
        if not records(units) or not panel:
            raise BenchError("no run completed")
        key = "runtime_s" if isinstance(workload, BatchWorkload) else "wall_s"
        raw = [r[key] for u in units for r in u["records"]]
        raw_wall = sum(u["wall_s"] for u in units)
        load_scale = speed.scale(load["ref_readings_s"])
        setup_scale = speed.scale(setup_readings)
        timing = metrics.timing([t * load_scale for t in raw])
        values = {
            "setup_s": statistics.median(setup) * setup_scale,
            "runs_per_s": len(raw) / (raw_wall * load_scale),
            "run_s_p50": timing["p50"],
            "run_s_tail": timing["tail"],
            "completed_frac": (attempted - failed) / attempted,
            **metrics.accuracy(panel, len(cluster_ids)),
            "peak_rss_mb": load["peak_rss_mb"],
        }
        info.update(
            run_time=timing,
            run_time_source=key,
            panel_runs=len(panel),
            speed={
                "ref_s": speed.REF_S,
                "load_scale": load_scale,
                "load_readings_s": load["ref_readings_s"],
                "setup_scale": setup_scale,
                "setup_readings_s": setup_readings,
            },
            raw={
                "setup_s": statistics.median(setup),
                "setup_samples_s": setup,
                "runs_per_s": len(raw) / raw_wall,
                "run_time": metrics.timing(raw),
            },
        )
    if set(values) != set(declared):
        raise BenchError(f"measured and declared metrics differ: "
                         f"{sorted(set(values) ^ set(declared))}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{name}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
