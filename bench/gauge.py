"""CPU-speed gauge: normalises measured times to a reference machine speed.

On a machine whose CPUs are shared with other tenants (measured on a 2-vCPU
sandbox) the speed of the same command drifts by up to 2x over minutes, in
CPU time as much as in wall time, so raw times from two runs are not
comparable.  A fixed kernel owned by the benchmark (Python float arithmetic,
4x4 LAPACK calls, number formatting: the instruction mix of gclab's per-row
work) is timed between commands; its time tracks the drift to a few per
cent.  A raw time t measured between kernel times c0 and c1 is reported as
t * REFERENCE_S / ((c0 + c1) / 2), i.e. in seconds at the speed where the
kernel takes REFERENCE_S.

The kernel does not call gclab, so a change to gclab moves normalised times
exactly as it moves raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 4.0e-3      # kernel time on an uncontended 2-vCPU x86-64 sandbox
REPEATS = 3               # a gauge reading is the median of this many kernel runs


class Gauge:
    def __init__(self):
        self._mats = np.random.default_rng(0).normal(size=(200, 4, 4))
        # bound now, so a tracer patching numpy.linalg later never slows the kernel
        self._det = np.linalg.det
        self._eigvals = np.linalg.eigvals

    def _kernel(self) -> str:
        x = 0.0
        for i in range(3000):
            x += math.sqrt(i + 1.0) * 1.0001
        out = [f"{x:.12g}"]
        for m in self._mats:
            out.append(f"{float(self._det(m)):.12g}")
            out.append(f"{float(np.abs(self._eigvals(m)).max()):.12g}")
        return ",".join(out)

    def read(self) -> float:
        """Seconds one kernel run takes right now."""
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a raw time measured between two readings to
        reference seconds."""
        return REFERENCE_S / (0.5 * (before + after))
