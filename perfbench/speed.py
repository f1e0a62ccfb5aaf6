"""Machine-speed calibration for timings taken on a shared host.

On a shared virtual machine the same code runs up to 40% slower for seconds
to minutes at a time, and CPU time slows with wall time, so neither tells a
slow program from a busy host.  The runner therefore interleaves a fixed
calibration loop with its timed calls, about every ``PERIOD_NS``, and scales
each wall time by ``REF_NS`` over the median calibration time within
``WINDOW_NS`` of it: a time is reported at the speed where the loop takes
``REF_NS``.  Over ten runs per workload, this cut the spread of the median
call time between runs from 0.17 to 0.03 on certify and from 0.13 to 0.08
on small-solve (see BENCHMARK.md).

The loop uses only this file, the standard library and numpy, never
kneejerk, so a change to kneejerk cannot move it.  Like kneejerk's step, it
walks a tree of Python dicts with ``math`` and runs numpy vector kernels;
of the kernels tried, these two tracked the speed of repeated K5 solves
best (correlation 0.8 over 10-second bins).
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Calibration time that defines the reference speed (about the loop's time
# on the 2-vCPU Intel Xeon virtual machine where the baseline was taken).
REF_NS = 1_000_000
PERIOD_NS = 50_000_000
WINDOW_NS = 2_000_000_000


def _tree(rng, depth: int) -> dict:
    if depth == 0:
        return {"op": "var", "index": int(rng.integers(6))}
    kind = ("sum", "prod")[depth % 2]
    return {"op": kind, "kids": [_tree(rng, depth - 1) for _ in range(3)]}


def _walk(node: dict, logs: list) -> float:
    if node["op"] == "var":
        return logs[node["index"]]
    vals = [_walk(k, logs) for k in node["kids"]]
    if node["op"] == "prod":
        return sum(vals)
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


class Calibration:
    """Runs the calibration loop on demand and scales wall times by it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tree = _tree(rng, 5)
        self._points = [rng.dirichlet(np.ones(6)).tolist() for _ in range(4)]
        self._vec = rng.uniform(-3.0, 3.0, 2000)
        self._at: list[int] = []  # start of each calibration, in ns
        self._ns: list[int] = []  # its duration
        self._last = -PERIOD_NS
        for _ in range(5):  # warm-up, not recorded
            self._loop()

    def _loop(self) -> float:
        s = 0.0
        for x in self._points:
            s += _walk(self._tree, [math.log(v) for v in x])
        for _ in range(8):
            s += float(np.logaddexp(self._vec, -self._vec).sum())
        return s

    def tick(self, force: bool = False) -> None:
        """Runs the loop if ``PERIOD_NS`` has passed since the last one."""
        t0 = time.perf_counter_ns()
        if not force and t0 - self._last < PERIOD_NS:
            return
        self._loop()
        self._at.append(t0)
        self._ns.append(time.perf_counter_ns() - t0)
        self._last = t0

    @property
    def samples(self) -> int:
        return len(self._ns)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """``REF_NS`` over the median calibration within ``WINDOW_NS`` of
        ``[start_ns, end_ns]``.  The runner ticks before every timed call, so
        a calibration starts at most ``PERIOD_NS`` before any call and the
        window always holds one."""
        lo = bisect.bisect_left(self._at, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self._at, end_ns + WINDOW_NS)
        return REF_NS / statistics.median(self._ns[lo:hi])
