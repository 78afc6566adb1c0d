#!/usr/bin/env python3
"""Benchmark of the ssdopt command line: one workload per process.

    python3 ssdbench/run.py --workload gen-grid --seed 0 --seconds 34 --trace 0

Runs the workload's commands in-process through ``ssdopt.cli.main(argv)``,
one client in a closed loop on one thread, and checks every output (see
``checks.py``). The program is imported from ``src/`` of the checkout this
file sits in, never from an installed copy.

The run measures whole passes over the workload's commands: as many as fit
in ``--seconds`` (rounded, at least one), so every pass has the same mix.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of
``tracing.py`` plus the tracing overhead. Reported times are scaled to a
reference machine speed (``speed.py``); the raw ones are printed beside them.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

``--record`` runs one pass and stores the outputs' fingerprints as the
references later runs compare against; ``--short`` runs the cheap subset the
benchmark's own tests use.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
SETUP_REPS = 3
TAIL_BEYOND = 10

# name -> unit of every end-to-end metric in the result line
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MiB"}

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def load_program():
    """Import ssdopt.cli from this checkout's src/; returns the module."""
    if not (SRC / "ssdopt" / "cli.py").is_file():
        raise FileNotFoundError(f"no ssdopt sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ssdopt.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ssdopt was imported from {cli.__file__}, not {SRC}")
    return cli


def import_seconds() -> float:
    """Median time to import ssdopt.cli (numpy included) in SETUP_REPS fresh interpreters."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import ssdopt.cli; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", probe, str(SRC)], check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(SETUP_REPS)]
    return statistics.median(times)


def run_op(cli, argv: list[str]) -> tuple[float, object, str]:
    """Run one command; returns (seconds, exit code or exception text, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)  # looked up per call, so the traced run sees its wrapper
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing command is a failed operation, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {"seeds": [], "ops": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def run_pass(cli, ops, reference: dict, strict: bool, tracer=None) -> dict:
    """One pass over the operations: per-op seconds, every failed check, and the
    factor that scales this pass's seconds to the reference machine speed."""
    gc.collect()
    wall = time.perf_counter()
    pace = speed.Speed()
    times, failures = [], []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        pace.sample()
        seconds, code, stdout = run_op(cli, op.argv)
        times.append(seconds)
        pace.sample(seconds)
        expected = reference["ops"].get(op.key)
        problems = checks.check(op, code, stdout, expected)
        if expected is None and strict:
            problems.append("no recorded reference for this operation")
        if problems:
            failures.append((op.key, problems))
    return {"times": times, "failures": failures, "wall": time.perf_counter() - wall,
            "tracer": tracer, "factor": pace.factor()}


def hd_quantile(samples: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order statistics
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each one's rank interval.

    The command sizes of a workload form clusters; where a sample quantile
    falls between two of them it jumps from run to run, the weighted mean
    does not.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if n < 3 or a < 1 or b < 1:
        return ordered[min(n - 1, max(0, math.ceil(p * n) - 1))]
    width = 1 / (n * steps)
    weights = []
    for i in range(n):
        points = (i / n + (k + 0.5) * width for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in points))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(size: int) -> float:
    """The highest percentile with at least TAIL_BEYOND of a pass's commands beyond
    it; for a pass of TAIL_BEYOND commands or fewer, that of its slowest one."""
    return (size - TAIL_BEYOND) / size if size > TAIL_BEYOND else size / (size + 1)


def measure(cli, ops, reference, strict, seconds: float, trace: bool) -> list[dict]:
    """Whole passes for about ``seconds``; with ``trace`` every second pass is traced."""
    passes = []
    target = None
    while target is None or len(passes) < target:
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            passes.append(run_pass(cli, ops, reference, strict, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if target is None:
            target = max(2 if trace else 1, round(seconds / passes[0]["wall"]))
    return passes


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = str(value) if isinstance(value, int) else f"{value:.6g}"
    return f"{name:<34} {shown:<14} {unit:<6} {note}".rstrip()


def _timing(passes: list[list[float]]) -> dict:
    samples = [t for times in passes for t in times]
    return {
        "ops_per_s": statistics.median(len(times) / sum(times) for times in passes),
        "op_p50_s": hd_quantile(samples, 0.5),
        "op_tail_s": statistics.median(hd_quantile(times, tail_percentile(len(times)))
                                       for times in passes),
    }


def end_to_end(passes: list[dict], setup_s: float, setup_raw_s: float) -> tuple[dict, list[str]]:
    """End-to-end metrics, times scaled to the reference speed (see speed.py)."""
    raw = [p["times"] for p in passes]
    scaled = [[t * p["factor"] for t in p["times"]] for p in passes]
    attempted = sum(map(len, raw))
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {"setup_s": setup_s, **_timing(scaled),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    unscaled = {"setup_s": setup_raw_s, **_timing(raw)}
    size = len(raw[0])
    notes = {
        "ops_per_s": f"median of {len(passes)} passes of {size} commands",
        "op_p50_s": f"Harrell-Davis median of {attempted} samples",
        "op_tail_s": f"Harrell-Davis p{100 * tail_percentile(size):.1f} of each pass's {size} "
                     f"commands, median of {len(passes)} passes",
    }
    lines = [_line(name, metrics[name], unit, " ".join(filter(None, [
        f"(raw {unscaled[name]:.6g})" if name in unscaled else "", notes.get(name, "")])))
        for name, unit in END_TO_END.items()]
    lines.append(_line("error_rate", failed / attempted, "ratio",
                       f"{failed} failed of {attempted} attempted"))
    lines.append("speed factors (reference-speed s per raw s): "
                 + " ".join(f"{p['factor']:.3f}" for p in passes))
    return metrics, lines


def per_layer(passes: list[dict]) -> tuple[dict, list[str], bool]:
    """Per-layer metrics: times are medians over traced passes (scaled to the
    reference speed), counts from the first traced pass."""
    traced = [p for p in passes if p["tracer"] is not None]
    per_pass = [p["tracer"].metrics() for p in traced]
    metrics, steady = {}, True
    for name, (unit, _) in tracing.METRICS.items():
        if name == "trace_overhead_frac":
            continue
        if unit == "s":
            metrics[name] = statistics.median(m[name] * p["factor"]
                                              for m, p in zip(per_pass, traced))
        else:
            metrics[name] = per_pass[0][name]
            steady &= all(m[name] == metrics[name] for m in per_pass)
    op_time = lambda traced: statistics.median(
        sum(p["times"]) * p["factor"] for p in passes if (p["tracer"] is not None) == traced)
    metrics["trace_overhead_frac"] = op_time(True) / op_time(False) - 1
    lines = [_line(name, metrics[name], unit) for name, (unit, _) in tracing.METRICS.items()]
    if not steady:
        lines.append("counts differ between traced passes of the same inputs")
    return metrics, lines, steady


def setup(cli, workload: str, seed: int, work: Path, short: bool):
    """Set up SETUP_REPS times in fresh directories and time importing ssdopt.

    Returns (ops, seconds, raw seconds): the median set-up plus the median
    import, scaled to the reference speed, and the same unscaled.
    """
    run_cli = lambda argv: run_op(cli, argv)[1:]
    pace = speed.Speed()
    seconds, ops = [], None
    for rep in range(SETUP_REPS):
        if ops is not None:
            shutil.rmtree(work / f"setup{rep - 1}")
        pace.sample()
        start = time.perf_counter()
        ops = workloads.setup(workload, seed, work / f"setup{rep}", run_cli, short)
        seconds.append(time.perf_counter() - start)
        pace.sample(seconds[-1])
    workloads.attach_expectations(ops)
    raw = statistics.median(seconds) + import_seconds()
    pace.sample()
    return ops, raw * pace.factor(), raw


def record(cli, workload: str, seed: int, ops) -> int:
    """Store the fingerprints of one checked pass as the references for ``seed``."""
    reference = load_reference(workload)
    for op in ops:
        _, code, stdout = run_op(cli, op.argv)
        problems = checks.check(op, code, stdout, None)
        if problems:
            print(f"not recording {op.key}: {problems}", file=sys.stderr)
            return 1
        reference["ops"][op.key] = checks.fingerprint(op, stdout)
    reference["seeds"] = sorted(set(reference["seeds"]) | {seed})
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{workload}.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(ops)} operations of {workload} for seed {seed}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="the cheap subset, for tests")
    parser.add_argument("--record", action="store_true", help="record references and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_program()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops, setup_s, setup_raw_s = setup(cli, args.workload, args.seed, work, args.short)
        if args.record:
            return record(cli, args.workload, args.seed, ops)
        reference = load_reference(args.workload)
        strict = args.seed in reference["seeds"]
        passes = measure(cli, ops, reference, strict, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} commands, {len(failures)} failed")
    for key, problems in failures[:20]:
        print(f"FAILED {key}: {'; '.join(problems[:3])}")
    steady = True
    if args.trace:
        metrics, lines, steady = per_layer(passes)
        SPANS.mkdir(exist_ok=True)
        spans = SPANS / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans.write_text("pass\tspan\tname\tstart_ns\tend_ns\tparent\top\n", encoding="utf-8")
        for number, p in enumerate(passes):
            if p["tracer"] is not None:
                p["tracer"].write_spans(spans, number)
        lines.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(passes, setup_s, setup_raw_s)
    units = {k: u for k, (u, _) in tracing.METRICS.items()} if args.trace else END_TO_END
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures and steady,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
