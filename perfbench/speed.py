"""Interpreter-speed sampling, to take other tenants' load out of timings.

On a shared machine the same op runs up to 1.7x slower while neighbours
load the core, in phases lasting seconds to minutes, so wall times of
whole 10-second runs spread by about 20%.  A SIGALRM handler therefore
runs a fixed pure-Python workload (the probe) every INTERVAL seconds of
the measured phase and records how long it took.  A timed interval is
then reported as its wall time minus the probe time inside it, scaled by
REFERENCE / (mean probe time around it): the time it would have taken at
the speed where the probe takes REFERENCE seconds.  Load slows probe and
op alike, so the ratio cancels it.

The probe does the kind of work the program does, Fraction arithmetic,
because load slows that kind of work more than plain int loops: over
111 repeats of one adjoint cohomology op under load, per-op times spread
by 0.236 raw, 0.169 scaled by an int-only probe and 0.081 scaled by
this one.  It must not be slowed by the program itself, though, so it
runs with the garbage collector off: no collection of the program's
objects can land inside it, whatever the program's heap size.

Set-up runs in a child process, so it is scaled by probes the parent
runs just before the spawn and just after the child is ready.

These checks, and the others in README.md, ran on a shared 2-vCPU
virtual machine.
"""

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.05
# Probe time on an unloaded core of the machine the bounds were tuned on;
# it fixes the scale of reported times, not their ratios.
REFERENCE = 0.0008
# Probe samples this far either side of an interval count towards its speed.
MARGIN = 0.25


def probe():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


def timed_probe():
    """Duration of one probe, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        probe()
        return start, perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_seconds(count=20):
    """Mean duration of `count` probes run back to back, now."""
    return sum(timed_probe()[1] for _ in range(count)) / count


class SpeedMeter:
    """Probe samples (start, duration) taken while the meter runs."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        start, duration = timed_probe()
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start, end):
        """Seconds from start to end, without probe time, at reference speed."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        busy = (end - start) - sum(self.durations[lo:hi])
        lo = bisect_left(self.starts, start - MARGIN)
        hi = bisect_right(self.starts, end + MARGIN)
        if lo == hi:
            raise RuntimeError("no speed samples near a timed interval")
        near = self.durations[lo:hi]
        return busy * REFERENCE * len(near) / sum(near)
