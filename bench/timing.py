"""Calibration kernel, drift correction and order statistics.

The machine's speed drifts in phases of several seconds, so every timing
is rescaled by how fast a fixed kernel ran around it:

    corrected = raw * KERNEL_REF_S / local_kernel_time

The kernel is a pure-Python float recurrence plus a short numpy loop; it
calls nothing in `hulthen`.  KERNEL_REF_S was measured once (see the
README) and stays fixed, so corrected figures are in "reference machine"
seconds and comparable between runs and commits.
"""

import math
import time
from bisect import bisect_left

KERNEL_REF_S = 0.0043

# the tail percentile needs this many samples (10 beyond the 75th)
MIN_TAIL_SAMPLES = 40


def kernel() -> float:
    """One calibration pass; returns its duration in seconds."""
    import numpy as np

    t0 = time.perf_counter()
    y_prev, y_cur = 0.0, 1e-3
    c = 2.0 * math.cos(0.001)
    nodes = 0
    for i in range(12000):
        y_prev, y_cur = y_cur, c * y_cur - y_prev + 1e-9 * (i & 7)
        if abs(y_cur) > 1e250:
            y_cur *= 1e-250
        if math.copysign(1.0, y_cur) != math.copysign(1.0, y_prev):
            nodes += 1
    x = np.linspace(0.1, 1.0, 256)
    acc = 0.0
    for _ in range(40):
        x = np.exp(-x) * (1.0 - x) + 0.5
        acc += float(np.sum(x))
    if not math.isfinite(acc + y_cur + nodes):
        raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - t0


class DriftClock:
    """Kernel samples (time, duration) and the speed correction they imply."""

    def __init__(self, times=(), durations=()):
        self.times = list(times)
        self.durations = list(durations)

    def sample(self) -> None:
        t = time.perf_counter()
        d = kernel()
        self.times.append(t + 0.5 * d)
        self.durations.append(d)

    def local_kernel(self, t0: float, t1: float) -> float:
        """Median kernel time of the samples that bracket [t0, t1]: the
        last one before t0, any inside and the first one after t1.  The
        machine's speed switches on a scale of 0.1 s, so only the samples
        next to a timing tell the speed it ran at."""
        lo = max(0, bisect_left(self.times, t0) - 1)
        hi = bisect_left(self.times, t1) + 1
        window = self.durations[lo:hi]
        if not window:
            raise ValueError("no kernel samples")
        return median(window)

    def factor(self, t0: float, t1: float) -> float:
        """Multiplier taking a raw duration over [t0, t1] to reference speed."""
        return KERNEL_REF_S / self.local_kernel(t0, t1)


def median(values) -> float:
    return percentile(values, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """Highest whole percentile (at most 99) with at least 10 of `count`
    samples beyond it; needs count >= 40, which gives the 75th."""
    if count < MIN_TAIL_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_TAIL_SAMPLES} samples, got {count}")
    return min(99, 100 * (count - 10) // count)
