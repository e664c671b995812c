"""Host-speed correction for timings taken on a shared machine.

On a shared host the same op's time swings by up to 2x in phases that last
from a second to tens of seconds, as other tenants load the cores.  Wall
time and process CPU time swing alike, so no in-process clock removes it,
and a run's median follows whichever phase filled most of it.

Between ops the benchmark times a fixed kernel of the same kind of work the
program does: interpreted float and complex arithmetic, float formatting
and 2x2 numpy products.  A timed op is scaled by REF_S / k, where k is the
median kernel time of the WINDOW samples taken before it and the WINDOW
taken after it.  The result is the op's time on a host where the kernel
takes REF_S.  The kernel does not call the program, so a change to the
program moves the scaled times in full.
"""

from __future__ import annotations

import math
from statistics import median, quantiles
from time import perf_counter

import numpy as np

REF_S = 0.005           # kernel time of the reference host speed
GAP_S = 0.1             # longest wall time between two samples, ops allowing
WINDOW = 3              # samples on each side of a timed op
KERNEL_STEPS = 6000
_ROTATE = np.array([[0.6, -0.8], [0.8, 0.6]])


def kernel() -> float:
    """Seconds one run of the fixed kernel takes."""
    t0 = perf_counter()
    c, acc, text, m = 0j, 0.0, [], np.eye(2)
    for k in range(KERNEL_STEPS):
        c += 1e-3 * (-(1.0 + 0.5j) * c + 1.0)
        acc += math.sin(k * 1e-3) * abs(c)
        if k % 8 == 0:
            text.append(repr(acc))
        if k % 4 == 0:
            m = _ROTATE @ m
    elapsed = perf_counter() - t0
    if not (math.isfinite(acc) and len(text) and m.shape == (2, 2)):
        raise RuntimeError("host-speed kernel went wrong")
    return elapsed


class HostSpeed:
    """Kernel samples of one run, and the scaling of the times between them."""

    def __init__(self, sample=kernel):
        self._sample = sample
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples.append(self._sample())
        self._last = perf_counter()

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= GAP_S:
            self.sample()

    def mark(self) -> int:
        """Position of a time taken now among the samples."""
        return len(self.samples)

    def finish(self) -> None:
        """Samples after the last timed op, so its window is full."""
        for _ in range(WINDOW):
            self.sample()

    def scaled(self, elapsed: float, mark: int) -> float:
        near = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return elapsed * REF_S / median(near)

    def describe(self) -> dict:
        q1, q2, q3 = quantiles(self.samples, n=4)
        return {"ref_s": REF_S, "samples": len(self.samples), "min_s": min(self.samples),
                "q1_s": q1, "median_s": q2, "q3_s": q3, "max_s": max(self.samples)}
