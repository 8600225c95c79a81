"""A reference clock that runs alongside the measured work.

On a shared machine the speed of one core drifts by half or more over tens
of seconds, so raw times of one workload spread that much between runs.
``RefClock`` runs a fixed pure-Python snippet (Fraction and float arithmetic,
list and dict work, none of it from the library) from SIGALRM every
``interval`` seconds of wall time and records how long each run took.  A
pass time divided by the harmonic mean of the snippet times during that
pass is the pass's cost in snippet runs ("ref"), which the core's momentary
speed scales out of.  The snippet takes about 1.5% of the core at the
default interval.

The harmonic mean is the right average here: each sample stands for one
interval of wall time, during which the core did ``interval / t`` snippet
runs' worth of work, so the cost of a pass is the sum of those terms.  The
speed changes within a pass, and on a 2-vCPU VM the median snippet time
tracks that far worse: over 21 passes of the gauge suite the quartile
spread of the pass cost was 0.18 with the median, 0.07 with the harmonic
mean, 0.27 for the raw pass time.  A sample inflated by a preemption moves
the harmonic mean by at most one part in the number of samples.

The cyclic garbage collector is off while the snippet runs, so that a
collection made due by the measured code's allocations is charged to that
code and not to the reference.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

_XS = [0.5 * i for i in range(16)]


def reference_snippet():
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        row = [x * 1.0001 + i for x in _XS]
        table[i % 13] = (sum(row), acc)
    return table


def time_snippet():
    """Seconds one run of the snippet takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        reference_snippet()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Context manager: samples the snippet's duration while it is open."""

    def __init__(self, interval=0.02):
        self.interval = interval
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_snippet())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_since(self, start):
        """Harmonic mean of the snippet times sampled after index ``start``
        (one fresh sample if the interval had no tick)."""
        if len(self.samples) == start:
            self._tick(None, None)
        return statistics.harmonic_mean(self.samples[start:])
