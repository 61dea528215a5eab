"""The benchmark's workloads: which runs each one makes from its seed.

A *run* is one closed-loop navigate-and-calibrate run of the default
scenario: simulate, forward pass, reverse replay (``--inverse``), scoring.
Batch workloads group runs into *rounds*; a round is one ``run_batch`` call
per filter, over consecutive seeds, so every round splits its seeds evenly
across ``ekf``, ``ukf`` and ``hinf``.  The CLI workload makes one fresh
``scansim run`` process per seed and rotates filter, mode and method; its
rounds run each of the 12 combinations once.
"""

from __future__ import annotations

from dataclasses import dataclass

FILTERS = ("ekf", "ukf", "hinf")
MODES = ("spherical", "hyperbolic")
METHODS = ("analytical", "numerical")

#: Filter x mode x method combinations; a CLI round runs each once.
COMBOS = len(FILTERS) * len(MODES) * len(METHODS)

#: Run seeds of invocation ``--seed n`` start at ``SEED_STRIDE * n``, so two
#: invocations with different seeds never share a run seed.
SEED_STRIDE = 10_000

#: Seed base of the accuracy panel.  The panel is the same for every
#: invocation, so the accuracy metrics are exact functions of the program:
#: a change of one run shows, and sampling noise between seeds does not.
PANEL_SEED = 1

#: Runs per ``run_batch`` call in the accuracy panel and in traced rounds.
PANEL_PER_FILTER = 4
PANEL_ROUNDS = 2
TRACE_PER_FILTER = 2


@dataclass(frozen=True)
class Run:
    """One run: its seed and its estimator configuration."""

    seed: int
    filter_kind: str
    mode: str
    method: str


@dataclass(frozen=True)
class BatchWorkload:
    """Rounds of ``scansim.cli.run_batch`` calls, one per filter."""

    name: str
    mode: str
    method: str
    jobs: int
    per_filter: int

    def batches(self, base: int, rounds: int, per_filter: int | None = None):
        """``[(first_seed, runs, filter_kind)]`` for ``rounds`` rounds from ``base``."""
        k = per_filter or self.per_filter
        out = []
        for r in range(rounds):
            for f, kind in enumerate(FILTERS):
                out.append((base + (len(FILTERS) * r + f) * k, k, kind))
        return out

    def runs(self, base: int, rounds: int, per_filter: int | None = None):
        return [
            Run(first + i, kind, self.mode, self.method)
            for first, k, kind in self.batches(base, rounds, per_filter)
            for i in range(k)
        ]


@dataclass(frozen=True)
class CliWorkload:
    """Sequential fresh-process ``scansim run ... --inverse --save-frames``."""

    name: str
    jobs: int = 1

    @staticmethod
    def combo(i: int) -> tuple[str, str, str]:
        """Filter, mode and method of the ``i``-th run: all 12 cycle in order."""
        return (
            FILTERS[i % 3],
            MODES[(i // 3) % 2],
            METHODS[(i // 6) % 2],
        )

    def run(self, base: int, i: int) -> Run:
        return Run(base + i, *self.combo(i))

    def runs(self, base: int, count: int):
        return [self.run(base, i) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload("mc-sph-analytical", "spherical", "analytical", jobs=1, per_filter=2),
        BatchWorkload("mc-hyp-numerical-j2", "hyperbolic", "numerical", jobs=2, per_filter=4),
        CliWorkload("cli-single-run"),
    )
}


def seed_base(seed: int) -> int:
    return SEED_STRIDE * seed


def panel_runs(workload) -> list[Run]:
    """The fixed accuracy panel of a workload."""
    if isinstance(workload, BatchWorkload):
        return workload.runs(PANEL_SEED, PANEL_ROUNDS, PANEL_PER_FILTER)
    return workload.runs(PANEL_SEED, COMBOS)
