"""Machine-speed calibration for timing on a shared machine.

On the shared 2-core machine this benchmark was defined on, the same pass
of a workload takes anywhere from 4 to 8 seconds depending on what other
tenants run, and the speed changes within seconds. A fixed kernel that does
the same kind of work as the workload, timed right after each of its
points, slows down by the same factor: over one pass the workload time
scaled point by point varies by about 4 % where the raw time varies by 25 %.

The end-to-end times are therefore reported at a reference machine speed:

    normalized = measured * REFERENCE_S[kind] / kernel time

with the kernel timed before a pass and after each of its points. Each
point is scaled by the mean of the readings on either side of it, the
machine speed of its own moment; the rest of a pass (config load, output)
is scaled by the points' average factor.
The kernels share no code with crlink, so a change to crlink cannot move
them. REFERENCE_S are round figures near the kernels' times on that
machine, which makes the normalized times read in seconds at that speed.
Raw times are printed beside them.

Two kernels, matching what dominates the workloads:

* ``overhead``: many numpy calls on 15-element arrays plus scalar math,
  like quadrature panels and the scalar incomplete-gamma loop;
* ``bulk``: best-of-5 gamma draws on arrays of 200 000, like one batch of
  the Monte Carlo oracle.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

REFERENCE_S = {"overhead": 0.004, "bulk": 0.040}

_W = np.linspace(0.1, 1.0, 15)
_A = np.linspace(0.0, 3.0, 15)


def _overhead(rng) -> float:
    s = 0.0
    for i in range(600):
        x = np.exp(-_A * (1.0 + i * 1e-4)) * np.log1p(_A)
        s += float(np.dot(_W, x)) + math.lgamma(1.5 + i * 1e-3)
    return s


def _bulk(rng) -> float:
    x = rng.gamma(2.0, 0.5, size=(5, 200_000)).max(axis=0)
    return float(np.sum(np.where(x > 1.0, np.log2(x), 0.0)))


_KERNELS = {"overhead": _overhead, "bulk": _bulk}


REPS = 2                             # kernel runs per reading


class Calibrator:
    """Times the kernel of one kind; each sample() call is one reading, the
    mean of REPS kernel runs, in seconds."""

    def __init__(self, kind: str):
        self._kernel = _KERNELS[kind]
        self._rng = np.random.Generator(np.random.PCG64(12345))
        self.samples = []
        self.spent_s = 0.0           # time inside sample(), to subtract

    def sample(self) -> None:
        start = perf_counter_ns()
        for _ in range(REPS):
            self._kernel(self._rng)
        spent = (perf_counter_ns() - start) / 1e9
        self.samples.append(spent / REPS)
        self.spent_s += spent

    def take(self):
        """(readings, time spent calibrating) since the last take."""
        out = (self.samples, self.spent_s)
        self.samples, self.spent_s = [], 0.0
        return out


def normalize(kind: str, wall_s: float, point_ms, kernel_s):
    """A pass's wall time and point latencies at the reference speed.

    kernel_s holds one reading before the pass and one after each point;
    a point is scaled by the mean of the readings on either side of it."""
    ref = REFERENCE_S[kind]
    points = [t * 2.0 * ref / (a + b)
              for t, a, b in zip(point_ms, kernel_s, kernel_s[1:])]
    return wall_s * sum(points) / sum(point_ms), points
