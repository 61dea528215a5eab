"""In-memory span recorder for the traced run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in ``Tracer.spans``, or -1.  Names are ``<layer>.<function>``.
The tracer wraps functions where their callers look them up and puts the
originals back on ``restore``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def timed(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(counts, args, result)`` runs after it.

        An exception leaving ``fn`` is counted as ``<name>!<ExceptionType>``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.clock(), 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = self.clock()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that each call adds one to ``counts[name]``; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until ``restore``."""
        if isinstance(owner, dict):
            self._originals.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
