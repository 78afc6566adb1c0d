"""Machine-speed normalisation of the benchmark's times.

On the shared 2-vCPU VM this benchmark was built on, the CPU speed one
process gets drifts by 20-40 % over minutes: ten 34 s runs of the same
workload gave ops_per_s IQRs of 0.15-0.23 of the median, more than a
regression bound can allow. A fixed reference kernel, independent of ssdopt
(exact fractions, an int64 matrix product and a plain Python loop, the mix
ssdopt's commands spend their time in), runs before every command and once
more per quarter second of command time. Every time the benchmark reports is
scaled by ``REFERENCE_S / median kernel time`` of the pass or set-up it was
measured in: it reads as seconds on a machine where the kernel takes
``REFERENCE_S``, which is about its median on that VM. The raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.25

_MATRIX = np.array([[(i * j) % 3 - 1 for j in range(256)] for i in range(24)], dtype=np.int64)


def kernel() -> float:
    """Run the reference work once; returns its seconds."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(3**i, 7 * i + 1) * Fraction(i, 2 ** (i % 61) + 1)
    _MATRIX.T @ _MATRIX
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Reference-kernel samples taken alongside one stretch of measurement."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, measured_s: float = 0.0) -> None:
        """One kernel run, plus one per SAMPLE_EVERY_S of the time just measured."""
        for _ in range(1 + int(measured_s / SAMPLE_EVERY_S)):
            self.samples.append(kernel())

    def factor(self) -> float:
        """Multiply raw seconds by this to get seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
