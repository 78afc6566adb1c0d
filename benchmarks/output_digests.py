"""One sha256 per group of deterministic CLI outputs, to show that two commits
print the same bytes.

Runs every command in-process through ``ssdopt.cli.main`` and hashes, per
command, its argv, exit code, stdout, stderr and every file it writes. The
argv lists come from the benchmark's workload definitions
(``ssdbench/workloads.py``, imported, never modified). Groups:

* ``gen-grid``: every ``generate`` command of seeds 0, 3 and 7 (CSV, sidecar,
  report and stdout);
* ``eval-files``: ``evaluate`` of every seed-0 input (stdout, input and
  report files);
* ``verify-lemmas`` and ``verify-theorems`` at their defaults;
* ``verify-results``: every field of every ``CheckResult`` (contexts and
  expected values included, which the all-PASS stdout does not show) from
  ``verify_lemma1``, ``verify_lemma2`` and ``verify_theorems`` at n = 12
  (exhaustive), n = 20 (cap 50) and n = 24 (cap 500, the CLI default, where
  the lemma-1 deletion batches are largest).

Commands write under a temporary directory, whose path is replaced by a fixed
token before hashing. Uses the standard library only.

    python benchmarks/output_digests.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ssdbench")]

from ssdopt import cli, verify_lemma1, verify_lemma2, verify_theorems  # noqa: E402
import workloads  # noqa: E402

GEN_SEEDS = (0, 3, 7)
EVAL_SEED = 0
TOKEN = "<tmp>"
VERIFY_RUNS = ((12, 0), (20, 50), (24, 500))  # (n, cap)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest_ops(digest, ops, scratch: str) -> int:
    """Feed the outputs of ``ops``, run in order, to ``digest``; return their count."""
    for op in ops:
        code, out, err = run_cli(op.argv)
        parts = [" ".join(op.argv), str(code), out, err]
        parts += [path.read_text(encoding="utf-8") for _, path in sorted(op.files.items())]
        for part in parts:
            data = part.replace(scratch, TOKEN).encode("utf-8")
            digest.update(len(data).to_bytes(8, "little") + data)
    return len(ops)


def digest_checks(digest) -> int:
    """Feed every field of every verify ``CheckResult`` of ``VERIFY_RUNS``
    to ``digest``; return the number of (function, n) runs."""
    runs = 0
    for n, cap in VERIFY_RUNS:
        for fn in (verify_lemma1, verify_lemma2, verify_theorems):
            rows = [dataclasses.asdict(r) for r in fn(n, cap=cap)]
            data = repr((fn.__name__, n, cap, rows)).encode("utf-8")
            digest.update(len(data).to_bytes(8, "little") + data)
            runs += 1
    return runs


def main() -> int:
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        setup_cli = lambda argv: run_cli(argv)[:2]  # noqa: E731
        digest, count = hashlib.sha256(), 0
        for seed in GEN_SEEDS:
            ops = workloads.setup("gen-grid", seed, Path(scratch, f"gen-{seed}"), setup_cli)
            count += digest_ops(digest, ops, scratch)
        rows.append(("gen-grid seeds " + ",".join(map(str, GEN_SEEDS)), count, digest))
        digest = hashlib.sha256()
        ops = workloads.setup("eval-files", EVAL_SEED, Path(scratch, "eval"), setup_cli)
        rows.append((f"eval-files seed {EVAL_SEED}", digest_ops(digest, ops, scratch), digest))
        for command in ("verify-lemmas", "verify-theorems"):
            digest = hashlib.sha256()
            op = workloads.Op(command, "verify", [command])
            rows.append((command, digest_ops(digest, [op], scratch), digest))
    digest = hashlib.sha256()
    rows.append(("verify-results", digest_checks(digest), digest))
    for name, count, digest in rows:
        print(f"{name:<22} {count:>3} commands  {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
