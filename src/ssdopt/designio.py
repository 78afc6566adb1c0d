"""Design CSV format and JSON report serialization.

The CSV format is bit-exact: one design row per line, entries "+1" or "-1"
comma-separated, with an optional first header line of column labels such as
"c3" or "c1*c2". Readers accept files with or without the header (the first
line is a header when none of its tokens is "+1" or "-1"); writers always
emit it. Tokens other than "+1"/"-1" in data rows are rejected with
the offending line and column.

Rationals render in JSON as {"num", "den", "decimal"} where "decimal" is a
12-significant-digit display string; equality semantics always use num/den.

JSON text is byte for byte what the stdlib's ``json.dumps`` gives with
``indent=2`` and ``sort_keys=True``, plus one trailing newline, with the
stdlib's string escaping (:func:`json_text`); :func:`dump_json` writes it a
piece at a time, which lowers a command's peak memory. Reports carry their
aliased pairs as the columnar :class:`AliasedPairs` itself, written as the
list of ``{i, inner, j, label_i, label_j}`` records. Each object's record
lines are gathered once from per-column tables of finished lines, indented
relative to the list, and cached; every report depth joins them with its
own newline, so a pair list written twice (generate's sidecar and report,
evaluate's top level and core) is encoded once. Labels come from the
design's string table, :attr:`SignMatrix.label_names`, as in the CSV header.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .builder import SsdBuild
from .core import (
    AliasedPairs,
    ColumnLabel,
    SignMatrix,
    aliasing_report,
    verify_oa_strength2,
)
from .es2 import Decomposition, OptimalityReport, bound_details, es2_direct
from .spectral import gwp_via_krawtchouk


class CsvFormatError(ValueError):
    """Malformed design CSV; carries the 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column})" if column else ")")
        super().__init__(message + location)
        self.line = line
        self.column = column


def design_csv_text(design: SignMatrix) -> str:
    """Serialize a design with at least one column to CSV text, header included."""
    header = ",".join(design.label_names)
    cells = np.empty((design.rows, design.cols, 3), dtype=np.uint8)
    cells[:, :, 0] = np.where(design.entries > 0, ord("+"), ord("-"))
    cells[:, :, 1] = ord("1")
    cells[:, :, 2] = ord(",")
    cells[:, -1, 2] = ord("\n")
    return header + "\n" + cells.tobytes().decode("ascii")


def _parse_labels(tokens: list[str]) -> tuple[ColumnLabel, ...]:
    columns: dict[ColumnLabel, int] = {}
    for col, token in enumerate(tokens, start=1):
        try:
            label = ColumnLabel.parse(token)
        except ValueError:
            raise CsvFormatError(f"bad column label {token!r}", line=1, column=col)
        if columns.setdefault(label, col) != col:
            message = f"column label {token!r} repeats column {columns[label]}"
            raise CsvFormatError(message, line=1, column=col)
    return tuple(columns)


def parse_design_csv(text: str) -> SignMatrix:
    """Parse design CSV text; header optional, tokens strictly "+1"/"-1"."""
    raw_lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not raw_lines:
        raise CsvFormatError("empty design file")
    first_tokens = [t.strip() for t in raw_lines[0].split(",")]
    # A line holding any "+1"/"-1" token is a data row, so a bad entry on
    # the first line is reported as an entry, not as a column label.
    has_header = not any(t in ("+1", "-1") for t in first_tokens)
    labels = _parse_labels(first_tokens) if has_header else None
    data_lines = raw_lines[1:] if has_header else raw_lines
    if not data_lines:
        raise CsvFormatError("no data rows", line=1)
    width = None
    rows = []
    for offset, line in enumerate(data_lines):
        line_no = offset + (2 if has_header else 1)
        tokens = [t.strip() for t in line.split(",")]
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise CsvFormatError(
                f"expected {width} entries, found {len(tokens)}", line=line_no
            )
        row = []
        for col, token in enumerate(tokens, start=1):
            if token == "+1":
                row.append(1)
            elif token == "-1":
                row.append(-1)
            else:
                raise CsvFormatError(
                    f"invalid entry {token!r}, expected \"+1\" or \"-1\"",
                    line=line_no,
                    column=col,
                )
        rows.append(row)
    entries = np.array(rows, dtype=np.int8)
    if labels is None:
        return SignMatrix.with_main_labels(entries)
    if len(labels) != entries.shape[1]:
        raise CsvFormatError(
            f"header has {len(labels)} labels but rows have {entries.shape[1]} entries",
            line=1,
        )
    return SignMatrix(entries, labels)


def write_design_csv(path: str | Path, design: SignMatrix) -> None:
    Path(path).write_text(design_csv_text(design), encoding="utf-8")


def read_design_csv(path: str | Path) -> SignMatrix:
    return parse_design_csv(Path(path).read_text(encoding="utf-8"))


def decimal_str(value: Fraction, digits: int = 12) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        quotient = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(quotient)


def fraction_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": decimal_str(value),
    }


def _core_json(
    n: int,
    m: int,
    chosen: Decomposition,
    lb: Fraction,
    es2: Fraction,
    gap: Fraction,
    optimal: bool,
    aliased: AliasedPairs,
) -> dict:
    """Numeric core shared by generate reports and evaluate reports.

    Shared structure guarantees the round-trip test can compare the two
    bit for bit.
    """
    return {
        "n": n,
        "m": m,
        "a": chosen.a,
        "r": chosen.r,
        "sign": chosen.sign,
        "D": chosen.D,
        "lb": fraction_json(lb),
        "es2": fraction_json(es2),
        "gap": fraction_json(gap),
        "optimal": optimal,
        "aliased_pairs": aliased,
    }


def _family_json(family) -> dict:
    return {
        "kind": family.kind,
        "deleted": str(family.deleted) if family.deleted is not None else None,
        "parent": family.parent,
    }


def report_json(report: OptimalityReport) -> dict:
    """Full verdict report, numeric core plus provenance.

    ``"aliased_pairs"`` holds the report's :class:`AliasedPairs` itself;
    :func:`json_text` writes it as the list of pair records.
    """
    out = _core_json(
        report.n,
        report.m,
        report.chosen,
        report.lower_bound,
        report.es2,
        report.gap,
        report.optimal,
        report.aliased,
    )
    out["family"] = _family_json(report.family)
    out["d"] = report.d
    out["notes"] = report.notes
    return out


def sidecar_json(build: SsdBuild, report: OptimalityReport) -> dict:
    """Build provenance written next to a generated design CSV."""
    return {
        "family": _family_json(build.family),
        "start": {
            "rows": build.start.rows,
            "cols": build.start.cols,
            "labels": list(build.start.label_names),
        },
        "design": {"rows": build.design.rows, "cols": build.design.cols},
        "d": build.d,
        "report": report_json(report),
    }


def evaluate_report(design: SignMatrix) -> dict:
    """Analysis report for an arbitrary design file.

    Always contains dimensions, balance and strength flags, the GWP vector,
    and the aliased pairs (an :class:`AliasedPairs`, which :func:`json_text`
    writes as the list of pair records, also inside the core). The
    E(s^2)-versus-bound core is present whenever
    the bound applies (balanced, n = 0 mod 4, at least two columns, and m
    admits a decomposition); otherwise it is null with a reason.

    With at least two columns, E(s^2) from the row Gram is checked against
    the GWP: the squared off-diagonal entries of X^T X total 2 n^2 A_2, so
    E(s^2) = 2 n^2 A_2 / (m (m - 1)); a disagreement raises ArithmeticError.
    """
    n, m = design.rows, design.cols
    balanced = bool(np.all(design.entries.sum(axis=0) == 0))
    gwp = gwp_via_krawtchouk(design)
    aliased = aliasing_report(design)
    out = {
        "rows": n,
        "cols": m,
        "balanced": balanced,
        "oa_strength_2": verify_oa_strength2(design),
        "gwp": [fraction_json(gwp[s]) for s in range(1, m + 1)],
        "aliased_pairs": aliased,
        "es2_report": None,
    }
    if m < 2:
        out["es2_report_skipped"] = "fewer than two columns"
        return out
    es2 = es2_direct(design)
    via_gwp = Fraction(2 * n * n, m * (m - 1)) * gwp[2]
    if es2 != via_gwp:
        raise ArithmeticError(
            f"E(s^2) = {es2} from the row Gram, but 2n^2 A_2 / (m(m-1)) = {via_gwp}"
        )
    out["es2"] = fraction_json(es2)
    if not balanced or n % 4 != 0:
        out["es2_report_skipped"] = "bound applies to balanced designs with n = 0 (mod 4)"
        return out
    try:
        _, chosen, lb = bound_details(n, m)
    except ValueError as exc:
        out["es2_report_skipped"] = str(exc)
        return out
    gap = es2 - lb
    out["es2_report"] = _core_json(n, m, chosen, lb, es2, gap, gap == 0, aliased)
    return out


def _aliased_lines(pairs: AliasedPairs) -> list[str]:
    """The record lines inside the brackets of the JSON list of nonempty
    ``pairs``, indented relative to them and cached on the object: one line
    per brace and per sorted key, each a shared string from a table of
    finished lines per column (or per distinct inner product)."""
    lines = pairs.__dict__.get("_json_lines")
    if lines is None:
        names = [encode_basestring_ascii(name) for name in pairs.names]
        values, which = np.unique(pairs.inner, return_inverse=True)
        keyed = (  # (line table, the rows that pick from it), in key order
            ([f'    "i": {c},' for c in range(len(names))], pairs.i),
            ([f'    "inner": {v},' for v in values.tolist()], which),
            ([f'    "j": {c},' for c in range(len(names))], pairs.j),
            ([f'    "label_i": {text},' for text in names], pairs.i),
            ([f'    "label_j": {text}' for text in names], pairs.j),
        )
        records = ["  {", "", "", "", "", "", "  },"] * len(pairs)
        for k, (table, rows) in enumerate(keyed, start=1):
            records[k::7] = np.array(table, dtype=object)[rows].tolist()
        records[-1] = "  }"  # the last record takes no comma
        lines = pairs.__dict__["_json_lines"] = records
    return lines


def _json_chunks(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value``, whose closing bracket follows ``newline``."""
    if isinstance(value, (dict, list, AliasedPairs)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            out.append(opener + encode_basestring_ascii(key) + ": ")
            _json_chunks(value[key], inner, out)
            opener = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        inner = newline + "  "
        out.append("[" + inner)
        for pos, item in enumerate(value):
            if pos:
                out.append("," + inner)
            _json_chunks(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, AliasedPairs):
        # No JSON string holds a raw newline (encode_basestring_ascii escapes
        # it), so the cached lines joined by this depth's newline are exact.
        # Pieces of 4,096 lines: dump_json never holds the list as one string.
        lines = _aliased_lines(value)
        out.append("[")
        for start in range(0, len(lines), 1 << 12):
            out += (newline, newline.join(lines[start : start + (1 << 12)]))
        out.append(newline + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def json_text(payload) -> str:
    """The stdlib's ``json.dumps`` of ``payload`` with ``indent=2`` and
    ``sort_keys=True``, plus a trailing newline, byte for byte.

    Accepts dict (str keys), list, str, int, bool, None and
    :class:`AliasedPairs`, written as the list of its pairs'
    ``{"i", "inner", "j", "label_i", "label_j"}`` records (``[]`` when
    there are none); any other type raises TypeError.
    """
    out: list[str] = []
    _json_chunks(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def dump_json(payload: dict, path: str | Path) -> None:
    """Deterministic JSON file: the bytes of :func:`json_text`, written a
    piece at a time, so the whole text is never held as one string."""
    out: list[str] = []
    _json_chunks(payload, "\n", out)
    with open(path, "w", encoding="utf-8") as file:
        file.writelines([*out, "\n"])
