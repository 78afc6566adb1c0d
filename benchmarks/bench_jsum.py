"""Layer timings of the exhaustive J enumeration.

Times ``sum_j_squared`` of orders 3 and 4 on the saturated design
``hadamard_design(n)`` at n = 12, 24, 32, 48, 64, every anchored table
``anchored_j_squared_sums(design, s, a)`` for s in {3, 4} and a in {1, 2} on
the same designs at n = 24, 48, 64, and the whole ``verify_lemma1(n)`` suite
(default cap) at n = 12, 24, 32, 48, with plain ``time.perf_counter``. Each
sum and each table runs on a fresh design instance, so the per-instance memo
never answers it (a table's time includes the plain sum it is checked
against). Writes one JSON file with the machine, the best and median times,
and the values (a sha256 of each table), so two files compare outputs as
well as times.

    PYTHONPATH=src python benchmarks/bench_jsum.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from ssdopt import anchored_j_squared_sums, hadamard_design, sum_j_squared, verify_lemma1

SUM_ORDERS = (12, 24, 32, 48, 64)
TABLE_ORDERS = (24, 48, 64)
TABLE_REPEATS = 5
LEMMA1_ORDERS = (12, 24, 32, 48)
SUM_REPEATS = 7
LEMMA1_REPEATS = 3
DEFAULT_OUT = Path(__file__).with_name("BENCH_jkernel.json")


def _timed(fn, repeats: int) -> tuple[list[float], object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def _summary(times: list[float]) -> dict:
    return {
        "best_s": min(times),
        "median_s": statistics.median(times),
        "runs": len(times),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    sums = []
    for n in SUM_ORDERS:
        for s in (3, 4):
            designs = [hadamard_design(n) for _ in range(SUM_REPEATS)]
            times, value = _timed(lambda: sum_j_squared(designs.pop(), s), SUM_REPEATS)
            sums.append(
                {"n": n, "s": s, "subsets": math.comb(n - 1, s), "value": value}
                | _summary(times)
            )
            print(f"sum_j_squared n={n} s={s}: {min(times):.4f} s", file=sys.stderr)
    tables = []
    for n in TABLE_ORDERS:
        for s, anchors in ((3, 1), (3, 2), (4, 1), (4, 2)):
            designs = [hadamard_design(n) for _ in range(TABLE_REPEATS)]
            times, table = _timed(
                lambda: anchored_j_squared_sums(designs.pop(), s, anchors), TABLE_REPEATS
            )
            tables.append(
                {"n": n, "s": s, "anchors": anchors, "total": int(table.sum()),
                 "table_sha256": hashlib.sha256(table.tobytes()).hexdigest()}
                | _summary(times)
            )
            print(f"anchored_j_squared_sums n={n} s={s} a={anchors}: "
                  f"{min(times) * 1e3:.2f} ms", file=sys.stderr)
    lemma1 = []
    for n in LEMMA1_ORDERS:
        times, results = _timed(lambda: verify_lemma1(n), LEMMA1_REPEATS)
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        lemma1.append(
            {"n": n, "checks": len(results), "all_ok": all(r.ok for r in results),
             "results_sha256": digest}
            | _summary(times)
        )
        print(f"verify_lemma1 n={n}: {min(times):.3f} s", file=sys.stderr)
    report = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "sum_j_squared": sums,
        "anchored_j_squared_sums": tables,
        "verify_lemma1": lemma1,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
