"""Output checks for the ssdopt benchmark.

Every operation is checked twice over:

* against exact identities computed here from the design matrix with plain
  integer arithmetic, independent of ssdopt's own routes, for any seed:
  E(s^2) = (||X X^T||_F^2 - m n^2) / (m (m - 1)), A_1 from the column sums,
  A_2 from the row Gram, 1 + sum A_i = (identical ordered row pairs) 2^m / n^2,
  the fully aliased pairs from sign-canonical columns, exit code 0 and no
  FAIL line;
* against a fingerprint recorded from the seed commit (``reference/``),
  when one exists for the operation's key: design CSV bytes, the numeric
  fields of every JSON report, and the PASS/FAIL lines.

Fingerprints read only the keys named here, so report keys added later do
not count as failures; a key that disappears does.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def read_csv(path: Path) -> tuple[list[str] | None, np.ndarray]:
    """Parse a design CSV: optional label header, then rows of +1/-1."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    first = [t.strip() for t in lines[0].split(",")]
    header = first if any(t not in ("+1", "-1") for t in first) else None
    rows = lines[1:] if header else lines
    values = {"+1": 1, "-1": -1}
    x = np.array([[values[t.strip()] for t in ln.split(",")] for ln in rows], dtype=np.int64)
    return header, x


def identities(x: np.ndarray) -> dict:
    """Exact quantities of an n x m +-1 matrix from its row Gram and column sums."""
    n, m = x.shape
    rows = x @ x.T
    gram_sq = int((rows * rows).sum())
    colsums = x.sum(axis=0)
    canon = x * np.where(x[0] < 0, -1, 1)
    groups: dict[bytes, list[int]] = {}
    for c in range(m):
        groups.setdefault(canon[:, c].tobytes(), []).append(c)
    aliased = set()
    for cols in groups.values():
        for a, i in enumerate(cols):
            for j in cols[a + 1:]:
                aliased.add((i, j, n * int(x[0, i]) * int(x[0, j])))
    return {
        "n": n,
        "m": m,
        "es2": Fraction(gram_sq - m * n * n, m * (m - 1)) if m > 1 else None,
        "A1": Fraction(int((colsums * colsums).sum()), n * n),
        "A2": Fraction(gram_sq - m * n * n, 2 * n * n),
        "A_total": Fraction(int((rows == m).sum()) * 2**m, n * n),
        "balanced": bool((colsums == 0).all()),
        "aliased": aliased,
    }


def _frac(value: dict) -> Fraction:
    return Fraction(value["num"], value["den"])


def _aliased_set(pairs: list[dict]) -> set:
    return {(p["i"], p["j"], p["inner"]) for p in pairs}


def _aliased_digest(pairs: list[dict]) -> str:
    return sha256(";".join(f"{p['i']},{p['j']},{p['inner']}" for p in pairs))


def _core(report: dict) -> dict:
    """The numeric core shared by generate and evaluate reports."""
    return {
        **{k: report[k] for k in ("n", "m", "a", "r", "sign", "D", "optimal")},
        **{k: str(_frac(report[k])) for k in ("lb", "es2", "gap")},
        "aliased_count": len(report["aliased_pairs"]),
        "aliased": _aliased_digest(report["aliased_pairs"]),
    }


def _core_problems(report: dict, ident: dict, where: str) -> list[str]:
    out = []
    es2, lb, gap = _frac(report["es2"]), _frac(report["lb"]), _frac(report["gap"])
    if (report["n"], report["m"]) != (ident["n"], ident["m"]):
        out.append(f"{where}: n, m = {report['n']}, {report['m']} but the CSV is "
                   f"{ident['n']} x {ident['m']}")
    if es2 != ident["es2"]:
        out.append(f"{where}: es2 {es2} but the row-Gram identity gives {ident['es2']}")
    if gap != es2 - lb or gap < 0 or report["optimal"] != (gap == 0):
        out.append(f"{where}: es2 {es2}, lb {lb}, gap {gap}, optimal {report['optimal']} "
                   "are inconsistent")
    if _aliased_set(report["aliased_pairs"]) != ident["aliased"]:
        out.append(f"{where}: aliased pairs differ from the sign-canonical columns")
    return out


def fingerprint(op, stdout: str) -> dict:
    """The recorded-reference view of an operation's outputs."""
    if op.kind == "verify":
        return {"lines": stdout.splitlines()}
    report = json.loads(op.files["report"].read_text(encoding="utf-8"))
    if op.kind == "generate":
        meta = json.loads(op.files["meta"].read_text(encoding="utf-8"))
        return {
            "csv_sha256": sha256(op.files["csv"].read_bytes()),
            "report": _core(report),
            "sidecar": {
                "report": _core(meta["report"]),
                "d": meta["d"],
                "design": [meta["design"]["rows"], meta["design"]["cols"]],
            },
        }
    gwp = [_frac(v) for v in report["gwp"]]
    es2_report = report["es2_report"]
    return {
        "input_sha256": sha256(op.files["input"].read_bytes()),
        **{k: report[k] for k in ("rows", "cols", "balanced", "oa_strength_2")},
        "es2": str(_frac(report["es2"])),
        "gwp_len": len(gwp),
        "gwp": sha256(",".join(str(v) for v in gwp)),
        "aliased": _aliased_digest(report["aliased_pairs"]),
        "es2_report": None if es2_report is None else _core(es2_report),
    }


def identity_problems(op, stdout: str) -> list[str]:
    """Violations of the exact identities; empty when the outputs hold up."""
    if op.kind == "verify":
        lines = stdout.splitlines()
        if not lines:
            return ["no PASS/FAIL lines"]
        return [f"not a PASS line: {ln!r}" for ln in lines if not ln.startswith("PASS ")]
    report = json.loads(op.files["report"].read_text(encoding="utf-8"))
    if op.kind == "generate":
        header, x = read_csv(op.files["csv"])
        ident = identities(x)
        meta = json.loads(op.files["meta"].read_text(encoding="utf-8"))
        out = [] if header and len(header) == x.shape[1] else ["CSV header missing or short"]
        return (out + _core_problems(report, ident, "report")
                + _core_problems(meta["report"], ident, "sidecar"))
    ident = op.expect
    gwp = [_frac(v) for v in report["gwp"]]
    out = []
    if (report["rows"], report["cols"], len(gwp)) != (ident["n"], ident["m"], ident["m"]):
        out.append("dimensions or GWP length differ from the input")
    if report["balanced"] != ident["balanced"]:
        out.append("balanced flag differs from the column sums")
    if _frac(report["es2"]) != ident["es2"]:
        out.append(f"es2 {_frac(report['es2'])} but the row-Gram identity gives {ident['es2']}")
    if gwp[:2] != [ident["A1"], ident["A2"]][: len(gwp)]:
        out.append(f"A1, A2 = {gwp[:2]} but the identities give {ident['A1']}, {ident['A2']}")
    if 1 + sum(gwp) != ident["A_total"]:
        out.append(f"1 + sum A_i = {1 + sum(gwp)} but identical row pairs give {ident['A_total']}")
    if _aliased_set(report["aliased_pairs"]) != ident["aliased"]:
        out.append("aliased pairs differ from the sign-canonical columns")
    if report["es2_report"] is not None:
        out += _core_problems(report["es2_report"], ident, "es2_report")
    return out


def _diff(expected, actual, path: str) -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        return [p for k in expected for p in _diff(expected[k], actual.get(k), f"{path}.{k}")]
    return [] if expected == actual else [f"{path}: recorded {expected!r}, got {actual!r}"]


def check(op, code, stdout: str, reference: dict | None) -> list[str]:
    """All problems with one operation's outputs; empty means correct."""
    if code != 0:
        return [f"exit code {code!r}"]
    try:
        problems = identity_problems(op, stdout)
        if reference is not None:
            problems += _diff(reference, fingerprint(op, stdout), op.key)
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
