"""Layer timings of the verify commands and the verdict plumbing under them.

Times ``verify_lemma1(n)``, ``verify_lemma2(n)`` and ``verify_theorems(n)``
(cap 500, the CLI default) at n = 12, 24, 32, 48, 64, the exhaustive
``verify_theorems(64, cap=0)``, every minus-one build and verdict of the
q = n - 1 start at the same orders (on a fresh start whose J memo is filled
before the clock starts, so only the builds and verdicts are timed),
``SignMatrix.row_gram`` on the full augmentation of ``hadamard_design(n)`` at
the same orders, and ``aliasing_report`` on the n = 32 and n = 64 Sylvester
full augmentations, with plain ``time.perf_counter``. Every verify call
builds its designs afresh, so no per-instance memo carries over between
runs. Writes one JSON file with the machine, the best and median times, and
a sha256 of each result, so two files compare outputs as well as times.

    PYTHONPATH=src python benchmarks/bench_verify.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from _harness import machine, summary, timed
from ssdopt import (
    SsdFamily,
    aliasing_report,
    build_full,
    build_minus_one,
    filtered_sums,
    hadamard_design,
    j_terms,
    verdict,
    verify_lemma1,
    verify_lemma2,
    verify_theorems,
)

ORDERS = (12, 24, 32, 48, 64)
ALIASING_ORDERS = (32, 64)
EXHAUSTIVE_ORDER = 64
CAP = 500
VERIFY_REPEATS = 3
KERNEL_REPEATS = 7
DEFAULT_OUT = Path(__file__).with_name("BENCH_verify.json")


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        data = part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode()
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def _minus_one_sweep(n: int) -> tuple[float, list]:
    """Seconds to build and judge every minus-one deletion of a fresh q = n - 1
    start, whose J memo is filled untimed, and each verdict's claims."""
    start = hadamard_design(n)
    labels = start.augmented.labels
    terms = (term for label in labels for term in j_terms(start, SsdFamily.minus_one(label)))
    filtered_sums(start, [(s, fixed) for _, s, fixed in terms])
    begin = time.perf_counter()
    reports = [verdict(build_minus_one(start, label)) for label in labels]
    elapsed = time.perf_counter() - begin
    return elapsed, [(report.es2, report.gap, report.claims) for report in reports]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    verify = []
    for fn in (verify_lemma1, verify_lemma2, verify_theorems):
        name = fn.__name__
        for n in ORDERS:
            times, results = timed(lambda: fn(n, cap=CAP), VERIFY_REPEATS)
            verify.append(
                {"function": name, "n": n, "cap": CAP, "checks": len(results),
                 "all_ok": all(r.ok for r in results),
                 "results_sha256": _sha256(results)}
                | summary(times)
            )
            print(f"{name} n={n}: {min(times):.3f} s", file=sys.stderr)
    times, results = timed(
        lambda: verify_theorems(EXHAUSTIVE_ORDER, cap=0), VERIFY_REPEATS
    )
    exhaustive = (
        {"function": "verify_theorems", "n": EXHAUSTIVE_ORDER, "cap": 0,
         "checks": len(results), "all_ok": all(r.ok for r in results),
         "results_sha256": _sha256(results)}
        | summary(times)
    )
    print(f"verify_theorems n={EXHAUSTIVE_ORDER} cap=0: {min(times):.3f} s", file=sys.stderr)
    minus_one = []
    for n in ORDERS:
        runs = [_minus_one_sweep(n) for _ in range(VERIFY_REPEATS)]
        times = [elapsed for elapsed, _ in runs]
        claims = runs[-1][1]
        minus_one.append(
            {"n": n, "q": n - 1, "builds": len(claims), "claims_sha256": _sha256(claims)}
            | summary(times)
        )
        print(f"minus-one builds+verdicts n={n}: {min(times) * 1e3:.1f} ms", file=sys.stderr)
    row_gram = []
    for n in ORDERS:
        design = build_full(hadamard_design(n)).design
        times, gram = timed(design.row_gram, KERNEL_REPEATS)
        row_gram.append(
            {"n": n, "m": design.cols, "gram_sha256": _sha256(gram)} | summary(times)
        )
        print(f"row_gram n={n} m={design.cols}: {min(times) * 1e3:.3f} ms", file=sys.stderr)
    aliasing = []
    for n in ALIASING_ORDERS:
        design = build_full(hadamard_design(n, "sylvester")).design
        times, pairs = timed(lambda: aliasing_report(design), KERNEL_REPEATS)
        aliasing.append(
            {"n": n, "construction": "sylvester", "m": design.cols, "pairs": len(pairs),
             "pairs_sha256": _sha256(pairs.i, pairs.j, pairs.inner, pairs.names)}
            | summary(times)
        )
        print(f"aliasing_report n={n}: {min(times) * 1e3:.3f} ms", file=sys.stderr)
    report = {
        "machine": machine(),
        "verify": verify,
        "verify_exhaustive": exhaustive,
        "minus_one_verdicts": minus_one,
        "row_gram": row_gram,
        "aliasing_report": aliasing,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
