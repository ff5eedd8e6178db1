"""Times a command against a reference loop run around it and during it.

On a shared host the speed of a CPU drifts by tens of percent within
seconds, with process CPU time following wall time, so the seconds one
command takes say as much about the host as about the program. The
gauge runs a fixed reference loop, shaped like the program's own work
(small objects made, read and dropped, float arithmetic), a few times
before and after each command and, from a SIGALRM timer, every
INTERVAL_S while the command runs. The command's time divided by the
mean time of those loops is its time in units of the host's current
speed; times NOMINAL_S it reads in the seconds of a nominal machine,
one that runs the reference loop in NOMINAL_S.

The timer handler runs on the main thread between bytecodes, so the
benchmark stays single-threaded; the time spent in the handler is taken
out of the command's time.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

NOMINAL_S = 1e-3  # the reference loop's time on the nominal machine
INTERVAL_S = 0.03
EDGE = 2  # reference loops before and after each measurement


class _P:
    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def reference() -> float:
    """The fixed work the host's speed is read from."""
    ps = [_P(i * 0.5, 1.0) for i in range(1000)]
    s = 0.0
    for p in ps:
        q = _P(p.y, -p.x)
        s += math.sqrt(q.x * q.x + q.y * q.y)
    return s


def nominal(ns: float, reference_ns: float) -> float:
    """ns at the host speed reference_ns, in seconds of the nominal machine."""
    return ns / reference_ns * NOMINAL_S


class Gauge:
    def __init__(self):
        self.samples: list[int] = []
        self.spent = 0  # ns spent in timer handlers while armed
        self.armed = False
        self.busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> None:
        # collections would time the program's young objects, not the host
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            reference()
            self.samples.append(time.perf_counter_ns() - t0)
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        if not self.armed or self.busy:
            return
        self.busy = True
        t0 = time.perf_counter_ns()
        self._sample()
        self.spent += time.perf_counter_ns() - t0
        self.busy = False

    def measure(self, fn, during: bool = True):
        """Run fn() and return (its result, its ns without the handler's
        time, the mean ns of the reference loops). With during=False the
        loop runs only before and after fn, as when fn waits on a child
        process that the handler would compete with."""
        self.samples = []
        self.spent = 0
        for _ in range(EDGE):
            self._sample()
        t0 = time.perf_counter_ns()
        self.armed = during
        if during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
            elapsed = time.perf_counter_ns() - t0 - self.spent
        for _ in range(EDGE):
            self._sample()
        return result, elapsed, statistics.fmean(self.samples)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
