"""The host's current speed, read from a fixed pure-Python loop.

The benchmark shares a few cores of a busy host whose speed changes by up
to ~75 % within a fraction of a second: the same request takes 69 ms in
one phase and 120 ms in another, and process CPU time moves with it.  A
request timed alone therefore measures the host as much as the program.

``reading()`` times one pass of ``work``, a fixed loop that touches
nothing of wordstats.  The benchmark takes a reading before and after
every timed request and reports the request's time at the nominal speed:
``elapsed * NOMINAL_S / local``, where ``local`` is the mean of the two
readings around it.  A change to wordstats moves the request's own time
and leaves the readings alone, so the scaled figures keep every change of
the program and drop most of the host's.

``work`` formats and joins terms, as the program does when it renders its
answers.  Of the loops tried it follows the program best between slow and
fast phases: for requests of every workload the scaled time moved by 1-8 %
from one phase to the other, where a loop of integer arithmetic and dict
updates over-corrected by 7-15 %, and the raw time moved by 60-80 %.
"""

from __future__ import annotations

import time

# One pass of ``work`` in the fast phase of a 2-vCPU Xeon VM, Python 3.11:
# the speed every scaled time is reported at.  A constant, so that runs and
# commits are comparable; it sets the scale of the figures and nothing else.
NOMINAL_S = 0.0004


def work() -> int:
    """A fixed amount of interpreter work; the result only defeats dead-code shortcuts."""
    size = 0
    for count in (200, 400, 200, 400):
        size += len(" + ".join([f"{i}*x{i % 5}^{i % 3}" for i in range(count)]))
    return size


def reading() -> float:
    """Seconds one pass of ``work`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the nominal speed, from the readings taken around it."""
    return elapsed * NOMINAL_S * 2 / (before + after)


class Scaler:
    """Scales a sequence of back-to-back timings; call it right after each one.

    Each call takes the reading that closes the interval just timed and
    opens the next, so every timing has a reading on either side.
    """

    def __init__(self):
        self.readings = [reading()]
        self.measured_s = 0.0  # the timings as measured, before scaling

    def __call__(self, elapsed: float) -> float:
        self.readings.append(reading())
        self.measured_s += elapsed
        return scale(elapsed, self.readings[-2], self.readings[-1])
