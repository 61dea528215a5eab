"""Machine speed at the moment of a measurement, from a fixed reference kernel.

The reference machine is a shared 2-vCPU VM whose speed drifts by a third
within a minute, with steal time near zero: the same run of the same seed
took a median 0.24 s in one 7-second window and 0.40 s in another.  Each
vCPU flips between a fast and a slow state on its own, several times a
second.  A reference kernel read between the measured units of work, on the
CPUs they run on, tracks that drift.

Reported times are therefore *reference seconds*: a measured time multiplied
by ``REF_S`` over the mean kernel time of the readings taken between the
units of that measurement, ``REF_S`` being the kernel's time on the
reference machine.  The raw times stay in the info line.  The kernel is the
benchmark's own code, so a change to scansim cannot move it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: The kernel's time on the reference machine (Intel Xeon, 2 vCPU,
#: Python 3.11.7, numpy 2.4.6) at its usual speed.
REF_S = 0.005

#: Kernel repeats per reading; the reading is their median.
REPEATS = 3


def kernel() -> float:
    """Small-matrix numpy calls and plain Python arithmetic, as scansim does."""
    a = np.eye(3)
    acc = 0.0
    for i in range(800):
        b = a @ a + 0.001 * i
        acc += float(b[0, 0]) + i % 7
    n = 0
    for i in range(30000):
        n += i * i % 7
    return acc + n


def kernel_s() -> float:
    """The kernel's median time over ``REPEATS`` calls, in seconds."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def reference_s() -> float:
    """One reading: the kernel's time on each CPU this process may use, averaged.

    The process moves itself to each CPU in turn and then gets its old CPU
    set back, so children it starts later are not affected.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return kernel_s()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def pin_to_one_cpu() -> set:
    """Keep this process, and the children it starts, on one CPU; returns the old set.

    A one-job workload runs on one CPU at a time anyway; pinning it makes
    that the CPU the speed readings measure.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


def scale(readings) -> float:
    """Factor from raw seconds to reference seconds, from a run's readings.

    The mean, not the median: a reading catches its CPU in the fast or the
    slow state, and the work between readings runs through both in the
    proportion the readings sample.
    """
    return REF_S / statistics.fmean(readings)
