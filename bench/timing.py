"""Timing, in-memory span tracing and child processes for the hvlab benchmark.

A `Timer` adds up the time spent inside the program's calls, per part of a
round.  A `Tracer` does the same and also records one span (name, start,
end, parent) per call; spans of calls made while another span is open get
that span as parent, and only top-level spans count towards `wall`.  Span
names are `<module>.<function>`, so the module is the layer.

The speed of a shared host drifts by tens of percent over tens of seconds.
So each part is bracketed by a fixed reference computation, the probe, and
a part's time can be scaled to reference speed: t * PROBE_S / (probe time
around it), the time it would take where the probe takes PROBE_S.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

MODULES = ("qmath", "ensembles", "hvmodels", "contextuality", "nonlocality", "simlab", "cli")


_PROBE_A = np.arange(16.0).reshape(4, 4)
_PROBE_B = np.ones(4)


PROBE_S = 1e-3  # reference speed: where the probe takes 1 ms (0.5 to 1.0 ms on a 2-core test host)


def probe() -> float:
    """Seconds taken by the reference computation: 300 small numpy products in
    a Python loop, the mix of interpreter and numpy work the program does."""
    t0 = perf_counter()
    for _ in range(300):
        float(np.dot(_PROBE_A @ _PROBE_B, _PROBE_B))
    return perf_counter() - t0


class Timer:
    """Sums the duration of top-level program calls, in total and per part."""

    def __init__(self):
        self.wall = 0.0
        self.parts: dict[str, float] = defaultdict(float)
        self.refs: dict[str, float] = {}  # part -> mean probe time at its two ends
        self.part = None
        self._ref = 0.0

    def begin(self, part=None) -> None:
        """End the current part and start `part` (None: end only), probing between."""
        ref = probe()
        if self.part is not None:
            self.refs[self.part] = 0.5 * (self._ref + ref)
        self.part, self._ref = part, ref

    def add(self, seconds: float) -> None:
        """Count time measured elsewhere (a child process) in the current part."""
        self.wall += seconds
        self.parts[self.part] += seconds

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.add(perf_counter() - t0)
        return result


class Tracer(Timer):
    """A Timer that also keeps every call as a span in memory."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._open.pop()
            span[1], span[2] = t0, t1
            if parent == -1:
                self.add(t1 - t0)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_stats(spans) -> dict[str, list]:
    """name -> [calls, total self seconds]."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = stats[span[0]]
        entry[0] += 1
        entry[1] += own
    return stats


def layer_self_seconds(spans) -> dict[str, float]:
    totals = dict.fromkeys(MODULES, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        if layer in totals:
            totals[layer] += own
    return totals


class ChildResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_mb: float


def run_child(argv, workdir, env, timeout: float = 120.0) -> ChildResult:
    """Run argv to completion; report its wall time and its own peak RSS.

    The child is reaped with wait4, so its resource usage is its own.  A
    child still running after `timeout` seconds is killed.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
        out.seek(0)
        err.seek(0)
        return ChildResult(
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
            seconds,
            usage.ru_maxrss / 1024.0,
        )
