"""Facts about the machine a number was measured on (read-only)."""

from __future__ import annotations

import os
import platform
import sys


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks() -> dict | None:
    """Whole-machine CPU time from ``/proc/stat``, in seconds, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    hz = os.sysconf("SC_CLK_TCK")
    user, nice, system, idle, iowait, irq, softirq, steal = (int(v) for v in fields[1:9])
    return {
        "busy_s": (user + nice + system + irq + softirq) / hz,
        "idle_s": (idle + iowait) / hz,
        "steal_s": steal / hz,
    }


def ticks_delta(before: dict | None, after: dict | None) -> dict | None:
    if before is None or after is None:
        return None
    return {key: after[key] - before[key] for key in before}


def facts() -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": cpu_model(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
