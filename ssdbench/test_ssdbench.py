"""Tests of the benchmark itself, on its short workloads.

    python3 -m pytest ssdbench -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "ssdbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def short_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.fixture
def scratch():
    path = ROOT / ".bench_work" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_prints_with_its_unit(workload, trace):
    result, stdout = short_run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in stdout.splitlines()), metric["name"]
    if not trace:
        assert "error_rate" in stdout


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.METRICS.items()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_cover_every_named_function():
    import ssdopt.es2
    import ssdopt.spectral

    original = ssdopt.spectral.sum_j_squared
    tracer = tracing.Tracer()
    bound = tracer.install()
    try:
        assert set(bound) == {f"{layer}.{name}" for layer, fns in tracing.TRACED.items()
                              for name in fns}
        assert all(count >= 1 for count in bound.values()), bound
        # defined in spectral, imported by es2, verify and the package
        assert bound["spectral.sum_j_squared"] >= 4
        assert ssdopt.es2.sum_j_squared is not original
    finally:
        tracer.uninstall()
    assert ssdopt.spectral.sum_j_squared is original and ssdopt.es2.sum_j_squared is original
    timed = {timed for fns in tracing.TRACED.values() for timed, _ in fns.values() if timed}
    seconds = {n for n, (unit, _) in tracing.METRICS.items() if unit == "s"}
    assert seconds == timed | {f"{layer}.self_s" for layer in tracing.LAYERS}


def test_a_renamed_function_fails_loudly(monkeypatch):
    import ssdopt.spectral

    original = ssdopt.spectral.sum_j_squared
    monkeypatch.delattr(ssdopt.spectral, "gwp_via_krawtchouk")
    with pytest.raises(LookupError, match="gwp_via_krawtchouk"):
        tracing.Tracer().install()
    assert ssdopt.spectral.sum_j_squared is original


@pytest.mark.parametrize("workload", ["gen-grid", "verify-sweep"])
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, _ = short_run(workload, 1)
    second, _ = short_run(workload, 1)
    counts = {n for n, (unit, _) in tracing.METRICS.items()
              if unit != "s" and n != "trace_overhead_frac"}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["builder.builds"]["value"] > 0
    assert 0 < first["metrics"]["core.gram_distinct_ratio"]["value"] <= 1


def test_corrupted_reference_shows_in_error_rate(monkeypatch, capsys):
    reference = run.load_reference("gen-grid")
    assert 0 in reference["seeds"]
    key = next(k for k in reference["ops"] if k.startswith("generate --n 12 "))
    reference["ops"][key]["report"]["es2"] = "1/3"
    monkeypatch.setattr(run, "load_reference", lambda workload: reference)
    assert run.main(["--workload", "gen-grid", "--seed", "0", "--seconds", "0.01",
                     "--short"]) == 0
    stdout = capsys.readouterr().out
    result = json.loads(stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    error_rate = next(ln for ln in stdout.splitlines() if ln.startswith("error_rate"))
    assert float(error_rate.split()[1]) == pytest.approx(1 / result["attempted"])


def test_identity_checks_catch_a_wrong_report(scratch):
    from ssdopt import cli

    (op,) = [o for o in workloads._gen_ops(0, scratch, True) if "minus-one" in o.key][:1]
    _, code, stdout = run.run_op(cli, op.argv)
    assert checks.check(op, code, stdout, None) == []
    report = json.loads(op.files["report"].read_text())
    report["es2"]["num"] += 1
    op.files["report"].write_text(json.dumps(report))
    assert any("row-Gram identity" in p for p in checks.check(op, code, stdout, None))


def test_outputs_match_a_manual_cli_run(scratch):
    from ssdopt import cli

    args = ["generate", "--n", "12", "--family", "minus-one", "--delete", "c2*c5"]
    manual, benched = scratch / "manual.csv", scratch / "benched.csv"
    subprocess.run([sys.executable, "-m", "ssdopt", *args, "--out", str(manual),
                    "--report", str(scratch / "manual.json")],
                   cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, check=True,
                   capture_output=True)
    assert run.run_op(cli, args + ["--out", str(benched), "--report",
                                   str(scratch / "benched.json")])[1] == 0
    for a, b in [(manual, benched), (manual.with_suffix(".meta.json"),
                                     benched.with_suffix(".meta.json")),
                 (scratch / "manual.json", scratch / "benched.json")]:
        assert a.read_bytes() == b.read_bytes()


def test_fails_without_the_program_sources(scratch):
    shutil.copytree(HERE, scratch / "ssdbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = bench("--workload", "gen-grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=scratch)
    assert proc.returncode != 0 and proc.stdout == ""
