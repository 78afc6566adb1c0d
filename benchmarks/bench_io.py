"""Layer timings of the design CSV and JSON report writers.

Times ``design_csv_text``, ``sidecar_json`` and ``json_text`` of the sidecar
and of its verdict report for ``build_full(hadamard_design(n))`` at
n = 12, 24, 32, 48, 64 (automatic construction) and for the n = 32
Sylvester start, whose full augmentation has thousands of fully aliased
pairs. The "generate writers" entry times what ``generate`` does after its
verdict: the design CSV, the sidecar and the report files, written by
``write_design_csv`` and ``dump_json`` into a temporary directory, on a
fresh start, build and verdict per run (made outside the timed region), so
no label string or pair list is cached from an earlier run. Uses plain
``time.perf_counter``, best and median of 7 runs. Writes one JSON file with
the machine, the times, the output sizes and the sha256 of the output
bytes, so two files compare outputs as well as times.

    PYTHONPATH=src python benchmarks/bench_io.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from _harness import machine, summary, timed
from ssdopt import (
    build_full,
    design_csv_text,
    dump_json,
    hadamard_design,
    json_text,
    sidecar_json,
    verdict,
    write_design_csv,
)

STARTS = (
    (12, "auto"),
    (24, "auto"),
    (32, "auto"),
    (48, "auto"),
    (64, "auto"),
    (32, "sylvester"),
)
REPEATS = 7
DEFAULT_OUT = Path(__file__).with_name("BENCH_io.json")


def _entry(name: str, fn) -> dict:
    times, result = timed(fn, REPEATS)
    out = {"name": name} | summary(times)
    if isinstance(result, str):
        data = result.encode("utf-8")
        out |= {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return out


def _generate_writers(n: int, construction: str) -> dict:
    """The files ``generate`` writes after its verdict, timed on a fresh
    start, build and verdict per run; the sha256 covers all three files."""
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        csv, meta, report_path = (Path(tmp) / name for name in ("d.csv", "d.meta.json", "r.json"))
        for _ in range(REPEATS):
            build = build_full(hadamard_design(n, construction))
            report = verdict(build)
            start = time.perf_counter()
            write_design_csv(csv, build.design)
            sidecar = sidecar_json(build, report)
            dump_json(sidecar, meta)
            dump_json(sidecar["report"], report_path)
            times.append(time.perf_counter() - start)
        data = b"".join(path.read_bytes() for path in (csv, meta, report_path))
    return ({"name": "generate writers"} | summary(times)
            | {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    cases = []
    for n, construction in STARTS:
        build = build_full(hadamard_design(n, construction))
        report = verdict(build)
        sidecar = sidecar_json(build, report)
        entries = [
            _entry("design_csv_text", lambda: design_csv_text(build.design)),
            _entry("sidecar_json", lambda: sidecar_json(build, report)),
            _entry("json_text(sidecar)", lambda: json_text(sidecar)),
            _entry("json_text(report)", lambda: json_text(sidecar["report"])),
            _generate_writers(n, construction),
        ]
        cases.append({
            "n": n,
            "construction": construction,
            "m": build.design.cols,
            "aliased_pairs": len(report.aliased),
            "timings": entries,
        })
        for e in entries:
            print(f"n={n} {construction} {e['name']}: {e['best_s'] * 1e3:.2f} ms",
                  file=sys.stderr)
    result = {"machine": machine(), "cases": cases}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
