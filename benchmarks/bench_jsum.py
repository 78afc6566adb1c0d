"""Layer timings of the exhaustive J enumeration.

Times ``sum_j_squared`` of orders 3 and 4 on the saturated design
``hadamard_design(n)`` at n = 12, 24, 32, 48, 64; the fill of each theorem
start's memo at n = 24, 48, 64 with every J term of the capped (cap 500, the
CLI default) theorem sweep's choices on that start, as ``verify_theorems``
fills it before its verdicts (plain sums included); and the whole
``verify_lemma1(n)`` suite (default cap) at n = 12, 24, 32, 48, with plain
``time.perf_counter``. Each sum and each fill runs on a fresh design
instance, so the per-instance memo never answers it. Writes one JSON file
with the machine, the best and median times, and the values (a sha256 of
each filled memo), so two files compare outputs as well as times.

    PYTHONPATH=src python benchmarks/bench_jsum.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from _harness import machine, summary, timed
from ssdopt import (
    FAMILIES,
    SignMatrix,
    drop_columns,
    filtered_sums,
    hadamard_design,
    j_terms,
    sum_j_squared,
    verify_lemma1,
)
from ssdopt.verify import _THEOREM_DEFICITS, _choices

SUM_ORDERS = (12, 24, 32, 48, 64)
FILL_ORDERS = (24, 48, 64)
FILL_REPEATS = 5
THEOREM_CAP = 500
LEMMA1_ORDERS = (12, 24, 32, 48)
SUM_REPEATS = 7
LEMMA1_REPEATS = 3
DEFAULT_OUT = Path(__file__).with_name("BENCH_jkernel.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    sums = []
    for n in SUM_ORDERS:
        for s in (3, 4):
            designs = [hadamard_design(n) for _ in range(SUM_REPEATS)]
            times, value = timed(lambda: sum_j_squared(designs.pop(), s), SUM_REPEATS)
            sums.append(
                {"n": n, "s": s, "subsets": math.comb(n - 1, s), "value": value}
                | summary(times)
            )
            print(f"sum_j_squared n={n} s={s}: {min(times):.4f} s", file=sys.stderr)
    fills = []
    for n in FILL_ORDERS:
        for deficit in _THEOREM_DEFICITS:
            start, removed = drop_columns(hadamard_design(n), list(range(n - deficit, n - 1)))
            families = [
                family
                for kind, cells in FAMILIES.items() if deficit in cells
                for _, family, _ in _choices(kind, start, removed, THEOREM_CAP)
            ]
            # Fresh starts with their full augmentation built, as the sweep's
            # choices leave them before the fill.
            starts = [SignMatrix(start.entries, start.labels) for _ in range(FILL_REPEATS)]
            for fresh in starts:
                fresh.augmented
            filled = []

            def fill():
                fresh = starts.pop()
                filled.append(fresh)
                terms = (term for family in families for term in j_terms(fresh, family))
                filtered_sums(fresh, dict.fromkeys((s, fixed) for _, s, fixed in terms))

            times, _ = timed(fill, FILL_REPEATS)
            memo = sorted(filled[-1].j_squared_sums.items())
            fills.append(
                {"n": n, "q": n - deficit, "choices": len(families), "keys": len(memo),
                 "memo_sha256": hashlib.sha256(repr(memo).encode()).hexdigest()}
                | summary(times)
            )
            print(f"theorem term fill n={n} q=n-{deficit} ({len(memo)} keys): "
                  f"{min(times) * 1e3:.2f} ms", file=sys.stderr)
    lemma1 = []
    for n in LEMMA1_ORDERS:
        times, results = timed(lambda: verify_lemma1(n), LEMMA1_REPEATS)
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        lemma1.append(
            {"n": n, "checks": len(results), "all_ok": all(r.ok for r in results),
             "results_sha256": digest}
            | summary(times)
        )
        print(f"verify_lemma1 n={n}: {min(times):.3f} s", file=sys.stderr)
    report = {
        "machine": machine(),
        "sum_j_squared": sums,
        "theorem_term_fill": fills,
        "verify_lemma1": lemma1,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
