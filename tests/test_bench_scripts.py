"""Smoke tests of the scripts under ``benchmarks/``: each runs end to end on
its smallest case (n = 12, the n = 16 Sylvester start for aliasing, one
repeat) and writes the JSON it documents."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

SMALLEST = {
    "bench_cli": {
        "STARTS": ((12, "auto"),), "EVALUATED": ((12, "full"),),
        "VERIFY": (["verify-theorems", "--n", "12", "--cap", "5"],), "REPEATS": 1,
    },
    "bench_io": {"STARTS": ((12, "auto"), (16, "sylvester")), "REPEATS": 1},
    "bench_jsum": {
        "SUM_ORDERS": (12,), "FILL_ORDERS": (12,), "LEMMA1_ORDERS": (12,),
        "SUM_REPEATS": 1, "FILL_REPEATS": 1, "LEMMA1_REPEATS": 1,
    },
    "bench_verify": {
        "ORDERS": (12,), "ALIASING_ORDERS": (16,), "EXHAUSTIVE_ORDER": 12,
        "VERIFY_REPEATS": 1, "KERNEL_REPEATS": 1,
    },
}
TOP_LEVEL = {
    "bench_cli": {"machine", "commands"},
    "bench_io": {"machine", "cases"},
    "bench_jsum": {"machine", "sum_j_squared", "theorem_term_fill", "verify_lemma1"},
    "bench_verify": {"machine", "verify", "verify_exhaustive", "minus_one_verdicts",
                     "row_gram", "aliasing_report"},
}


def load(name: str, monkeypatch):
    """Import ``benchmarks/<name>.py`` as its scripts run, with the
    benchmarks directory first on ``sys.path``, which is restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(BENCHMARKS), *sys.path])
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_script_writes_its_json(name, monkeypatch, tmp_path):
    script = load(name, monkeypatch)
    for constant, value in SMALLEST[name].items():
        monkeypatch.setattr(script, constant, value)
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text()).keys() == TOP_LEVEL[name]


def test_output_digests_hashes_verify_results(monkeypatch):
    script = load("output_digests", monkeypatch)
    monkeypatch.setattr(script, "VERIFY_RUNS", ((12, 1),))
    assert script.digest_checks(hashlib.sha256()) == 3
