"""The machine's speed while the benchmark runs, for scaling its times.

The shared virtual machine the benchmark was built on changes speed by up to a
third, in phases of seconds to minutes, and CPU time follows wall time, so
neither measures the program alone. `SpeedSampler` runs a fixed probe of the
program's kind (an integer loop, and closures evaluated point by point on
numpy rows, the form `hibarrier.expr.compile_ast` gives an expression) every
`interval` seconds on SIGALRM, between bytecodes of whatever is running, and
keeps each probe's start and duration. An operation's time at the reference
speed is its time, less the probes run inside it, times `PROBE_REF_S` over the
median probe time near it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The probe's time at the speed the scaled metrics are given in: about its
# median while the workloads run, on a 2-vCPU Xeon VM with Python 3.11.7 and
# numpy 2.4.6, so that scaled times read about as that machine's seconds.
PROBE_REF_S = 0.0105


def _probe_tree():
    """x0*x0 + 3*(x1 - 0.5) as nested closures on one point."""
    def var(i):
        return lambda x: float(x[i])

    def const(v):
        return lambda x: v

    def op(f, left, right):
        return lambda x: f(left(x), right(x))

    def add(a, b):
        return a + b

    def mul(a, b):
        return a * b

    return op(add, op(mul, var(0), var(0)), op(mul, const(3.0), op(add, var(1), const(-0.5))))


def _probe(tree, points) -> float:
    """Seconds one run of the probe takes."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    v = 0.0
    for x in points:
        v += tree(x)
    return time.perf_counter() - t0


class SpeedSampler:
    """Probes the machine's speed every `interval` seconds while entered.

    Create it after `import hibarrier` has loaded numpy, so that set-up time
    stays the program's own."""

    def __init__(self, interval: float = 0.2) -> None:
        import numpy as np

        self.interval = interval
        self._tree = _probe_tree()
        self._points = np.random.default_rng(0).standard_normal((3000, 2))
        self.starts: list[float] = []   # perf_counter at each probe's start
        self.probes: list[float] = []   # each probe's duration
        self.spent_wall = 0.0           # wall and CPU time spent probing
        self.spent_cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.probes.append(_probe(self._tree, self._points))
        self.starts.append(t0)
        self.spent_cpu += time.process_time() - c0
        self.spent_wall += time.perf_counter() - t0

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float, margin: float = 0.5) -> float:
        """PROBE_REF_S over the median probe that started within `margin`
        seconds of [t0, t1], widening the margin until there is one."""
        while True:
            lo = bisect.bisect_left(self.starts, t0 - margin)
            hi = bisect.bisect_right(self.starts, t1 + margin)
            if hi > lo:
                return PROBE_REF_S / statistics.median(self.probes[lo:hi])
            if not self.starts:
                raise RuntimeError("no speed probe ran")
            margin *= 2.0
