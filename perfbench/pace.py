"""Pacing: op times scaled to the machine's unloaded speed.

On a host shared with other tenants the same code can run about half as
fast for stretches of tens of seconds, and process CPU time slows with wall
time, so neither the best nor the median of a run's op times repeats from
run to run.  A fixed stdlib kernel (``Fraction`` and float arithmetic, no
polyfield code) tracks that speed: it is timed once between ops and, from a
CPU-time interval timer, every ``PERIOD_S`` during an op.  An op's paced
time is its wall time less the kernel's own time, scaled by
``KERNEL_NOMINAL_S`` over the kernel's mean time across those samples.  On
an unloaded machine the kernel runs at about its nominal time and the paced
time is the wall time.

In 200 s recordings on a shared 2-vCPU Intel Xeon host, where the kernel
ran at half speed for stretches of up to 30 s, the interquartile spread of
``ops_per_s`` over 25 s windows was 5-29% from each op's best wall time and
0.5-1.1% paced.  Per op, the kernel's slowdown tracked the op's with a
correlation of 0.92-0.94 and a slope of 0.87-0.98.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from fractions import Fraction

#: the kernel's time on an unloaded core of the host named above; it sets
#: the scale of paced times, not their spread
KERNEL_NOMINAL_S = 0.0005
#: process CPU time between kernel samples inside an op
PERIOD_S = 0.02


def kernel():
    s = Fraction(0)
    f = 0.0
    for i in range(1, 120):
        s += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        f += math.sin(i * 0.1) * 1.0001
    return s, f


def time_kernel() -> float:
    """The kernel's wall time.  Garbage collection is held off meanwhile,
    so a collection of the op's garbage is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Samples the kernel around and during the ops of one process.

    ``begin`` and ``end`` bracket an op (``stop`` may end the sampling
    first); ``end`` returns the seconds the kernel took inside the op and
    the speed factor to scale the rest by.
    SIGPROF and ITIMER_PROF are the pacer's; the op deadline keeps SIGALRM.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.edge: float | None = None
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        dt = time_kernel()
        self.samples.append(dt)
        self.spent += dt

    def begin(self) -> None:
        if self.edge is None:
            self.edge = time_kernel()
        self.samples = [self.edge]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def end(self) -> tuple[float, float]:
        self.stop()
        self.edge = time_kernel()
        self.samples.append(self.edge)
        return self.spent, \
            KERNEL_NOMINAL_S * len(self.samples) / sum(self.samples)
