"""Machine speed probe.

The machines this benchmark runs on change speed by tens of percent over
tens of seconds (other tenants share the cores), far more than the
bounds a timing metric needs.  A fixed reference kernel, timed between
operations, measures that drift; an operation's time is then reported at
the reference speed: raw seconds * NOMINAL_S / kernel seconds around it.
Raw wall times are reported alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.004  # the kernel's time at the reference speed
EVERY_S = 0.25     # probe when this much time passed since the last probe
WINDOW_S = 1.0     # an operation is scaled by the probes this close to it
_DATA = np.arange(100_000, dtype=np.int64) % 997


def kernel_s() -> float:
    """Best of two timings of a fixed mix of interpreter and numpy work."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        for _ in range(3):
            np.bincount(_DATA, minlength=997)
            np.sort(_DATA[:30_000])
        best = min(best, time.perf_counter() - t0)
    return best


class Probe:
    """Kernel timings taken between operations, at most every EVERY_S."""

    def __init__(self):
        self.samples = []  # (perf_counter at the probe, kernel seconds)

    def maybe(self) -> None:
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= EVERY_S:
            self.samples.append((now, kernel_s()))

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel time probed within WINDOW_S of
        the interval [t0, t1]."""
        near = [k for t, k in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return NOMINAL_S / statistics.median(near)
