"""Byte-parity check of seeded CLI outputs between two source trees.

Run the 36 combinations of ``scansim run scenarios/default.yaml --inverse
--save-frames`` (seeds 1-3 x ekf/ukf/hinf x spherical/hyperbolic x
analytical/numerical) with the package taken from ``--src``, one directory
per combination under OUT, with ``runtime_s`` removed from each
``summary.json``::

    python tools/parity.py --src /path/to/parent/src parent-out
    python tools/parity.py --src src change-out
    python tools/parity.py --compare parent-out change-out

``--compare A B`` lists every file that differs or exists on one side only
and exits 1 if there is any.  A JSON file that differs is listed with the
largest absolute difference between the numbers at the same place in its
two versions, so that a change is sized as well as located.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml"
SEEDS = (1, 2, 3)
FILTERS = ("ekf", "ukf", "hinf")
MODES = ("spherical", "hyperbolic")
METHODS = ("analytical", "numerical")


def run_all(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for seed, kind, mode, method in itertools.product(SEEDS, FILTERS, MODES, METHODS):
        run_dir = out / f"seed{seed}-{kind}-{mode}-{method}"
        subprocess.run(
            [
                sys.executable, "-m", "scansim.cli", "run", str(SCENARIO),
                "--seed", str(seed), "--filter", kind, "--mode", mode,
                "--method", method, "--inverse", "--save-frames",
                "--out-dir", str(run_dir),
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        summary = run_dir / "summary.json"
        data = json.loads(summary.read_text())
        data.pop("runtime_s")
        summary.write_text(json.dumps(data, indent=2) + "\n")


def compare(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ or exist on one side only."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = [
        str(rel)
        for rel in sorted(files_a | files_b)
        if rel not in files_a
        or rel not in files_b
        or (a / rel).read_bytes() != (b / rel).read_bytes()
    ]
    print(f"{len(files_a | files_b)} files compared, {len(differ)} differ")
    return differ


def numeric_leaves(data, path=()) -> dict:
    """``{path: number}`` for every number in a parsed JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        return {path: float(data)}
    else:
        return {}
    leaves = {}
    for key, value in items:
        leaves.update(numeric_leaves(value, path + (key,)))
    return leaves


def largest_difference(a: Path, b: Path) -> float:
    """Largest absolute difference between the numbers at the same place in
    two JSON files: 0 if only other values differ, inf where one is NaN."""
    left, right = (numeric_leaves(json.loads(path.read_text())) for path in (a, b))
    largest = 0.0
    for key in left.keys() & right.keys():
        x, y = left[key], right[key]
        if x != y and not (math.isnan(x) and math.isnan(y)):
            diff = abs(x - y)
            largest = max(largest, math.inf if math.isnan(diff) else diff)
    return largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the source tree holding the scansim package")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("out", nargs="?", type=Path, help="output directory")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = args.compare
        differ = compare(a, b)
        for rel in differ:
            if rel.endswith(".json") and (a / rel).is_file() and (b / rel).is_file():
                size = largest_difference(a / rel, b / rel)
                print(f"{rel}  largest numeric difference {size:.3g}")
            else:
                print(rel)
        return 1 if differ else 0
    if args.src is None or args.out is None:
        parser.error("give --src SRC OUT, or --compare A B")
    run_all(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
