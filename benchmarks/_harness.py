"""Timing and machine description shared by the ``bench_*.py`` scripts."""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np


def timed(fn, repeats: int) -> tuple[list[float], object]:
    """The ``time.perf_counter`` seconds of ``repeats`` calls of ``fn``, and
    the result of the last one."""
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def summary(times: list[float]) -> dict:
    return {
        "best_s": min(times),
        "median_s": statistics.median(times),
        "runs": len(times),
    }


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
