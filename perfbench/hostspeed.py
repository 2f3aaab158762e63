"""Host-speed calibration for the timed loop.

The benchmark runs on shared cores whose speed changes by up to a factor of
two within seconds, as neighbours load the same hardware.  A fixed kernel
of small dense solves, independent of medsolve, is timed between operations;
its duration tracks the host's momentary speed.  Each operation's latency is
scaled by ``KERNEL_REF_S / kernel time`` around it, which gives its latency
at the reference speed: the speed at which the kernel takes ``KERNEL_REF_S``.
A change to the program moves the scaled latency as much as the raw one;
a change of host speed moves both the operation and the kernel, and cancels.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: kernel duration that defines the reference speed (about its median on the
#: 2-core shared host the benchmark was tuned on)
KERNEL_REF_S = 3.5e-3
#: the kernel runs before an operation when this long has passed since the
#: last run, so short operations share a sample and long ones get their own
EVERY_S = 0.05
_N, _SOLVES = 25, 150


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(_N, _N)) + _N**0.5 * np.eye(_N)
        self._b = rng.normal(size=_N)
        self.at: list[float] = []       # end times of the kernel runs
        self.took: list[float] = []     # their durations
        for _ in range(3):
            self._kernel()

    def _kernel(self) -> float:
        x = self._b
        t0 = time.perf_counter()
        for _ in range(_SOLVES):
            x = np.linalg.solve(self._a, x)
            x = x / np.linalg.norm(x)
        return time.perf_counter() - t0

    def sample(self, force: bool = False) -> None:
        """Time the kernel if ``EVERY_S`` has passed since the last sample."""
        if force or not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            took = self._kernel()
            self.at.append(time.perf_counter())
            self.took.append(took)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw seconds to reference seconds for an interval: the
        kernel's reference time over the mean of the samples just before
        ``start`` and just after ``end``."""
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return KERNEL_REF_S / (0.5 * (self.took[before] + self.took[after]))
