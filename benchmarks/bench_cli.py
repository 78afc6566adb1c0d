"""Per-command timings of the ssdopt command line, run in process.

Times ``ssdopt.cli.main(argv)`` with its stdout captured:

* ``generate`` of every family (``--delete c1*c2`` for minus-one,
  ``--parent 1`` for single-parent) at n = 12, 24, 32, 48, 64 (automatic
  construction) and at the n = 32 Sylvester start, writing the design CSV,
  its sidecar and the report into a temporary directory;
* ``evaluate`` on the n = 12 full design and on the n = 64 single-parent
  design (m = 125), both written by ``generate`` before the clock starts.
  The n = 64 full design (m = 2016) is left out: evaluate's GWP costs
  O(m^2 * distinct row distances) comb terms, minutes at m = 2016 with two
  distances;
* ``verify-lemmas`` and ``verify-theorems`` at the CLI defaults;
* building the argument parser alone, uncached (``_build_parser``);
* the Hadamard-construction layer alone: ``hadamard_design(n, construction)``
  at every start above, its sha256 taken over the entries and the labels.

Each command runs once untimed, so lazy set-up in the process is done, then
REPEATS timed runs with plain ``time.perf_counter``; the parser and Hadamard
entries are timed from their first call. Best and median are recorded.
Writes one JSON file with the machine, the times, every exit code and a
sha256 over each command's stdout (the temporary directory's path replaced
by ``<tmp>``) and the files it wrote, so two files compare outputs as well
as times.

    PYTHONPATH=src python benchmarks/bench_cli.py [--out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from _harness import machine, summary, timed
from ssdopt import cli, hadamard_design

STARTS = (
    (12, "auto"),
    (24, "auto"),
    (32, "auto"),
    (48, "auto"),
    (64, "auto"),
    (32, "sylvester"),
)
FAMILY_ARGS = {
    "full": [],
    "minus-one": ["--delete", "c1*c2"],
    "interactions-only": [],
    "single-parent": ["--parent", "1"],
}
EVALUATED = ((12, "full"), (64, "single-parent"))
VERIFY = (["verify-lemmas"], ["verify-theorems"])
REPEATS = 7
DEFAULT_OUT = Path(__file__).with_name("BENCH_cli.json")


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def _generate_argv(n: int, construction: str, family: str, out: Path) -> list[str]:
    return ["generate", "--n", str(n), "--construction", construction,
            "--family", family, *FAMILY_ARGS[family], "--out", str(out)]


def _entry(name: str, argv: list[str], work: Path) -> dict:
    """Best and median of REPEATS runs of ``argv`` after one untimed run."""
    _run(argv)
    times, (code, stdout) = timed(lambda: _run(argv), REPEATS)
    digest = hashlib.sha256(stdout.replace(str(work), "<tmp>").encode("utf-8"))
    for path in sorted(work.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        path.unlink()
    print(f"{name}: {min(times) * 1e3:.2f} ms", file=sys.stderr)
    return {"name": name, "exit": code} | summary(times) | {"sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    # The uncached build; a tree that builds the parser per call has no wrapper.
    build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)
    times, _ = timed(build, REPEATS)
    commands = [{"name": "_build_parser()", "exit": None} | summary(times)]
    for n, construction in STARTS:
        times, design = timed(lambda: hadamard_design(n, construction), REPEATS)
        digest = hashlib.sha256(design.entries.tobytes())
        digest.update(",".join(design.label_names).encode("utf-8"))
        commands.append({"name": f"hadamard_design({n}, {construction!r})", "exit": None}
                        | summary(times) | {"sha256": digest.hexdigest()})
    with tempfile.TemporaryDirectory() as scratch:
        inputs, work = Path(scratch) / "inputs", Path(scratch) / "work"
        inputs.mkdir()
        work.mkdir()
        for n, construction in STARTS:
            for family in FAMILY_ARGS:
                command = _generate_argv(n, construction, family, work / "d.csv")
                command += ["--report", str(work / "r.json")]
                commands.append(_entry(f"generate n={n} {construction} {family}",
                                       command, work))
        for n, family in EVALUATED:
            design = inputs / f"n{n}-{family}.csv"
            code, _ = _run(_generate_argv(n, "auto", family, design))
            if code != 0:
                raise RuntimeError(f"generating the n={n} {family} input exited {code}")
            command = ["evaluate", str(design), "--report", str(work / "e.json")]
            commands.append(_entry(f"evaluate n={n} {family}", command, work))
        for verify in VERIFY:
            commands.append(_entry(" ".join(verify), verify, work))
    result = {"machine": machine(), "commands": commands}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
