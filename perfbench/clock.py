"""Operation timings rescaled to the speed of a fixed reference loop.

On a shared host the speed of one core swings by up to a factor of two
within seconds (other tenants on the same core, frequency scaling), which
swamps the differences the benchmark is meant to show.  While an operation
runs, an interval timer interrupts it every ``INTERVAL`` seconds to time a
short pure-Python reference loop; the loop's time measures the core's speed
at that moment.  An operation's time is then

    (wall seconds - seconds spent in the loop) * mean(REF_SECONDS / loop time) ** EXPONENT

which reads as its time on a core where the loop takes exactly
``REF_SECONDS``.  The package's sweeps slow down less than the loop when the
core is contended: over repeated identical calls, wall time went as the loop
speed to the power -0.75 (fitted on a 2-vCPU cloud VM, Python 3.11), and
that exponent minimised the spread of the rescaled times.  The loop is
benchmark code, so no change to the package under test moves it.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

REF_SECONDS = 0.0003         # nominal time of one reference loop
INTERVAL = 0.01              # seconds between speed samples during an operation
EXPONENT = 0.75              # sensitivity of the package's speed to the loop's


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def reference_loop(k: int = 300) -> float:
    """Float maths, attribute access and list appends, like the sweep's own."""
    acc = 0.0
    out = []
    for i in range(k):
        p = _Point(i * 0.5, (i % 17) * 0.25)
        a = math.atan2(p.y - 1.0, p.x + 1.0)
        d = math.hypot(p.x, p.y)
        if d > a:
            acc += d - a
        out.append(a)
    return acc + len(out)


class SpeedMeter:
    """Times operations of one run in reference seconds (main thread only)."""

    def __init__(self):
        self.speeds = []          # REF_SECONDS / loop time, every sample of the run
        self.wall = 0.0           # wall seconds inside timed operations, loop excluded
        self.spent = 0.0          # wall seconds spent in the loop during operations
        self._op_speeds = []
        self._spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self._spent += dt
        self._op_speeds.append(REF_SECONDS / dt)

    def time(self, fn):
        """Runs ``fn()``; returns its result and its time in reference seconds."""
        self._op_speeds = []
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0 - self._spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not self._op_speeds:
            self._sample()        # an operation shorter than INTERVAL
        self.speeds += self._op_speeds
        self.wall += wall
        self.spent += self._spent
        return result, wall * statistics.fmean(self._op_speeds) ** EXPONENT

    def mark(self) -> tuple:
        return len(self.speeds), self.wall, self.spent

    def factor(self, since: tuple = (0, 0.0, 0.0)) -> float:
        """Reference seconds per wall second of timed operations since ``mark()``.

        For times taken inside operations, which include the loop's
        interruptions, unlike the operations' own times.
        """
        n, wall, spent = since
        wall = self.wall - wall
        share = wall / (wall + self.spent - spent) if wall > 0.0 else 1.0
        return statistics.fmean(self.speeds[n:]) ** EXPONENT * share
