"""The benchmark's workloads: the argv of every operation and the inputs set-up writes.

The seed is a benchmark argument; ssdopt only sees the generated argv and
files. Every operation goes through ``ssdopt.cli.main(argv)``, the one
interface later changes keep, so the untraced run depends on nothing else.

* ``gen-grid``: ``generate`` for n in {12, 24, 32, 48, 64} (auto construction)
  plus n = 32 Sylvester, every family at --drop 0/1/2 (minus-one 0/1); the
  seed picks --delete and --parent. Loads builder, the verdict, the column
  Gram and aliasing, and the CSV/JSON writers; never the GWP or verify.
* ``eval-files``: ``evaluate`` over CSVs written at set-up: five structured
  designs made by ``generate`` and three seeded random balanced designs
  (no strength 2, no aliasing, many distinct row distances). Loads CSV
  parsing, the distance distribution/GWP, aliasing and the bound; never
  builder or J enumeration.
* ``verify-sweep``: ``verify-lemmas`` and ``verify-theorems`` at the CLI
  defaults, one operation per (command, n). Loads exhaustive J enumeration
  and about a thousand verdicts per n. Independent of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import identities, read_csv

WORKLOADS = ("gen-grid", "eval-files", "verify-sweep")

GEN_CELLS = ((12, "auto"), (24, "auto"), (32, "auto"), (48, "auto"), (64, "auto"),
             (32, "sylvester"))
GEN_FAMILIES = (("full", (0, 1, 2)), ("minus-one", (0, 1)),
                ("interactions-only", (0, 1, 2)), ("single-parent", (0, 1, 2)))

EVAL_STRUCTURED = (
    ("n12-full", ["--n", "12", "--family", "full"]),
    ("n16-full-sylvester", ["--n", "16", "--construction", "sylvester", "--family", "full"]),
    ("n20-full-drop2", ["--n", "20", "--drop", "2", "--family", "full"]),
    ("n48-single-parent", ["--n", "48", "--family", "single-parent", "--parent", "1"]),
    ("n64-single-parent", ["--n", "64", "--family", "single-parent", "--parent", "1"]),
)
EVAL_RANDOM = ((24, 120), (64, 125), (20, 150))

VERIFY_NS = (12, 16, 20, 24)

# The cheap subset the benchmark's own tests run (--short).
SHORT = {"gen-grid": {12}, "eval-files": {"n12-full", "rand-24x120"}, "verify-sweep": {12}}


@dataclass
class Op:
    key: str                                    # what the recorded references are keyed by
    kind: str                                   # generate, evaluate or verify
    argv: list[str]
    files: dict[str, Path] = field(default_factory=dict)
    expect: dict | None = None                  # identities of an evaluate input


def _gen_ops(seed: int, work: Path, short: bool) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, construction in GEN_CELLS:
        for family, drops in GEN_FAMILIES:
            for drop in drops:
                q = n - 1 - drop
                args = ["generate", "--n", str(n), "--construction", construction,
                        "--drop", str(drop), "--family", family]
                if family == "minus-one":
                    labels = [f"c{i}" for i in range(1, q + 1)]
                    labels += [f"c{i}*c{j}" for i in range(1, q + 1) for j in range(i + 1, q + 1)]
                    args += ["--delete", rng.choice(labels)]
                elif family == "single-parent":
                    args += ["--parent", str(rng.randint(1, q))]
                if short and n not in SHORT["gen-grid"]:
                    continue
                stem = work / f"n{n}-{construction}-{family}-drop{drop}"
                files = {"csv": stem.with_suffix(".csv"), "meta": stem.with_suffix(".meta.json"),
                         "report": stem.with_suffix(".report.json")}
                ops.append(Op(" ".join(args), "generate",
                              args + ["--out", str(files["csv"]), "--report", str(files["report"])],
                              files))
    return ops


def random_design(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """Balanced +-1 columns, no two equal up to sign, as a list of rows."""
    cols, seen = [], set()
    while len(cols) < m:
        plus = set(rng.sample(range(n), n // 2))
        col = tuple(1 if r in plus else -1 for r in range(n))
        canon = col if col[0] > 0 else tuple(-v for v in col)
        if canon not in seen:
            seen.add(canon)
            cols.append(col)
    return [list(row) for row in zip(*cols)]


def _eval_inputs(seed: int, work: Path, run_cli, short: bool) -> list[tuple[str, str, Path]]:
    """(name, reference key, path) of every evaluate input."""
    inputs = []
    for name, args in EVAL_STRUCTURED:
        if short and name not in SHORT["eval-files"]:
            continue
        path = work / f"{name}.csv"
        code, _ = run_cli(["generate", *args, "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"set-up: generating input {name} exited with {code!r}")
        inputs.append((name, f"evaluate {name}", path))
    rng = random.Random(seed)
    for n, m in EVAL_RANDOM:
        rows = random_design(rng, n, m)
        name = f"rand-{n}x{m}"
        if short and name not in SHORT["eval-files"]:
            continue
        path = work / f"{name}.csv"
        path.write_text("".join(",".join("+1" if v > 0 else "-1" for v in row) + "\n"
                                for row in rows), encoding="utf-8")
        inputs.append((name, f"evaluate {name} seed {seed}", path))
    return inputs


def setup(workload: str, seed: int, work: Path, run_cli, short: bool = False) -> list[Op]:
    """Write the workload's inputs under ``work``, warm up, and return its operations.

    ``run_cli(argv)`` runs one ssdopt command and returns (exit code, stdout).
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "gen-grid":
        ops = _gen_ops(seed, work, short)
        warm = ["generate", "--n", "12", "--out", str(work / "warm.csv")]
    elif workload == "eval-files":
        ops = []
        for name, key, path in _eval_inputs(seed, work, run_cli, short):
            report = work / f"{name}.eval.json"
            ops.append(Op(key, "evaluate",
                          ["evaluate", str(path), "--report", str(report)],
                          {"input": path, "report": report}))
        warm = ops[0].argv
    elif workload == "verify-sweep":
        ns = SHORT["verify-sweep"] if short else VERIFY_NS
        ops = [Op(f"{cmd} --n {n}", "verify", [cmd, "--n", str(n)])
               for cmd in ("verify-lemmas", "verify-theorems") for n in VERIFY_NS if n in ns]
        warm = ["verify-lemmas", "--n", "12", "--cap", "1"]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    code, _ = run_cli(warm)
    if code != 0:
        raise RuntimeError(f"set-up: warm-up {' '.join(warm)} exited with {code!r}")
    return ops


def attach_expectations(ops: list[Op]) -> None:
    """Compute each evaluate input's identities once, outside the timed region."""
    for op in ops:
        if op.kind == "evaluate":
            op.expect = identities(read_csv(op.files["input"])[1])
