"""Command-line surface: generate, evaluate, verify-lemmas, verify-theorems.

Exit codes: 0 success, 1 verification failure (under verify-theorems, a
build that disagrees with a claim of its cell), 2 usage or input error,
3 certification failure (the exact E(s^2) routes of a verdict disagree, the
value falls below the lower bound, under generate the build disagrees with a
claim of its cell, or under evaluate the design's E(s^2) disagrees with its
A_2).
All commands are deterministic; identical invocations produce identical bytes.
:func:`main` may be called any number of times in one process: the argument
parser is built on the first call and reused, since parsing leaves no state
in it, and each command looks up the functions it runs when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .builder import (
    FAMILIES,
    FULL,
    INTERACTIONS_ONLY,
    MINUS_ONE,
    SINGLE_PARENT,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
)
from .core import DEFAULT_MAX_ORDER, ColumnLabel, SignMatrix, drop_columns, hadamard_design
from .designio import (
    decimal_str,
    dump_json,
    evaluate_report,
    json_text,
    read_design_csv,
    sidecar_json,
    write_design_csv,
)
from .es2 import verdict
from .verify import (
    CheckResult,
    check_theorem_order,
    verify_lemma1,
    verify_lemma2,
    verify_theorems,
)

_CONSTRUCTIONS = ("auto", "sylvester", "paley")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be 0 (exhaustive) or positive, got {cap}")
    return cap


def _factor(flag: str, i: int, q: int) -> ColumnLabel:
    """The label ci of a 1-based factor index given to ``flag``, which must
    name one of the q columns of the saturated array."""
    if not 1 <= i <= q:
        raise ValueError(f"{flag} must be in 1..{q}, got {i}")
    return ColumnLabel.main(i)


def _kept(flag: str, label: ColumnLabel, removed: SignMatrix, dropper: str) -> ColumnLabel:
    """``label``, given as ``flag``, unless ``dropper`` removed a factor it names."""
    for k in (label.i, label.j):
        if k in removed.factors[:, 0].tolist():
            raise ValueError(f"{flag} names c{k}, which {dropper} removed")
    return label


def _summary_line(report) -> str:
    return (
        f"n={report.n} m={report.m} family={report.family.kind} "
        f"es2={report.es2} ({decimal_str(report.es2)}) "
        f"lb={report.lower_bound} gap={report.gap} "
        f"optimal={'yes' if report.optimal else 'no'} "
        f"aliased_pairs={len(report.aliased)}"
    )


def _cmd_generate(args) -> int:
    if args.delete is not None and args.family != MINUS_ONE:
        raise ValueError(f"--delete applies only to family {MINUS_ONE}")
    if args.parent is not None and args.family != SINGLE_PARENT:
        raise ValueError(f"--parent applies only to family {SINGLE_PARENT}")
    saturated = hadamard_design(args.n, args.construction, args.max_order)
    q = saturated.cols
    if args.drop_cols is not None:
        dropper = "--drop-cols " + ",".join(map(str, args.drop_cols))
        positions = [saturated.label_position(_factor("--drop-cols", i, q))
                     for i in args.drop_cols]
    elif not 0 <= args.drop < q:
        raise ValueError(f"--drop must be in 0..{q - 1}")
    else:
        dropper, positions = f"--drop {args.drop}", list(range(q - args.drop, q))
    start, removed = drop_columns(saturated, positions)

    if args.family == FULL:
        build = build_full(start)
    elif args.family == MINUS_ONE:
        if args.delete is None:
            raise ValueError("--delete LABEL is required for family minus-one")
        delete = _kept(f"--delete {args.delete}", ColumnLabel.parse(args.delete), removed, dropper)
        build = build_minus_one(start, delete, removed)
    elif args.family == INTERACTIONS_ONLY:
        build = build_interactions_only(start)
    else:
        if args.parent is None:
            raise ValueError("--parent I is required for family single-parent")
        parent = _factor("--parent", args.parent, q)
        parent = _kept(f"--parent {args.parent}", parent, removed, dropper)
        build = build_single_parent(start, start.label_position(parent), removed)

    report = verdict(build)
    for claim in report.claims:
        if not claim.ok:
            raise ArithmeticError(
                f"the cell states {claim.name} = {claim.stated}, "
                f"the build computes {claim.computed}"
            )
    out = Path(args.out if args.out else f"ssd_n{args.n}_{args.family}.csv")
    write_design_csv(out, build.design)
    sidecar = sidecar_json(build, report)
    dump_json(sidecar, out.with_suffix(".meta.json"))
    if args.report:
        dump_json(sidecar["report"], args.report)
    print(f"{_summary_line(report)} -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    design = read_design_csv(args.input)
    payload = evaluate_report(design)
    if args.report:
        dump_json(payload, args.report)
        core = payload.get("es2_report")
        if core is None:
            print(
                f"rows={payload['rows']} cols={payload['cols']} "
                f"balanced={payload['balanced']} "
                f"(bound skipped: {payload.get('es2_report_skipped')}) -> {args.report}"
            )
        else:
            print(
                f"n={core['n']} m={core['m']} es2={core['es2']['num']}/{core['es2']['den']} "
                f"lb={core['lb']['num']}/{core['lb']['den']} "
                f"gap={core['gap']['num']}/{core['gap']['den']} "
                f"optimal={'yes' if core['optimal'] else 'no'} -> {args.report}"
            )
    else:
        print(json_text(payload), end="")
    return 0


def _print_results(results: list[CheckResult]) -> list[CheckResult]:
    grouped: dict[tuple[int, str], list[CheckResult]] = {}
    for res in results:
        grouped.setdefault((res.n, res.name), []).append(res)
    failures = []
    for (n, name), checks in grouped.items():
        bad = [c for c in checks if not c.ok]
        failures.extend(bad)
        status = "FAIL" if bad else "PASS"
        print(f"{status} {name} n={n} checks={len(checks)} failures={len(bad)}")
    return failures


def _finish_verification(failures: list[CheckResult]) -> int:
    if failures:
        print(json.dumps([dataclasses.asdict(f) for f in failures], indent=2))
        return 1
    return 0


def _cmd_verify_lemmas(args) -> int:
    # Reject every unusable n before the first line is printed.
    for n in args.n:
        hadamard_design(n, args.construction)
    failures = []
    for n in args.n:
        results = verify_lemma1(n, args.construction, args.cap)
        results += verify_lemma2(n, args.construction, args.cap)
        failures += _print_results(results)
    return _finish_verification(failures)


def _cmd_verify_theorems(args) -> int:
    for n in args.n:
        check_theorem_order(n)
        hadamard_design(n, args.construction)
    failures = []
    for n in args.n:
        failures += _print_results(verify_theorems(n, args.construction, args.cap))
    return _finish_verification(failures)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdopt",
        description=(
            "Construct two-level supersaturated designs by augmenting orthogonal "
            "arrays with two-column interactions, and certify their E(s^2) "
            "optimality in exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a design and write CSV + reports")
    gen.add_argument("--n", type=int, required=True, help="run count, a multiple of 4")
    gen.add_argument("--construction", choices=_CONSTRUCTIONS, default="auto")
    dropgroup = gen.add_mutually_exclusive_group()
    dropgroup.add_argument(
        "--drop", type=int, default=0,
        help="drop the K highest-index columns of the saturated array",
    )
    dropgroup.add_argument(
        "--drop-cols", type=_int_list, default=None, metavar="I,J",
        help="drop the columns with these 1-based factor indices",
    )
    gen.add_argument("--family", choices=tuple(FAMILIES), default=FULL)
    gen.add_argument(
        "--delete", metavar="LABEL",
        help="column to remove for family minus-one, e.g. c3 or c2*c5",
    )
    gen.add_argument(
        "--parent", type=int, metavar="I",
        help="1-based parent factor for family single-parent",
    )
    gen.add_argument("--out", help="design CSV path (default ssd_n<N>_<family>.csv)")
    gen.add_argument("--report", help="also write the verdict report JSON here")
    gen.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    gen.set_defaults(func=_cmd_generate)

    ev = sub.add_parser("evaluate", help="analyze an arbitrary design CSV")
    ev.add_argument("input", help="design CSV path")
    ev.add_argument("--report", help="write the JSON report here instead of stdout")
    ev.set_defaults(func=_cmd_evaluate)

    for name, func, summary in (
        ("verify-lemmas", _cmd_verify_lemmas,
         "check all 18 closed-form J sums against brute-force enumeration"),
        ("verify-theorems", _cmd_verify_theorems,
         "check every covered construction cell against its claimed values"),
    ):
        ver = sub.add_parser(name, help=summary)
        ver.add_argument("--n", type=int, nargs="+", default=(12, 16, 20, 24))
        ver.add_argument(
            "--cap", type=_cap, default=500,
            help="max checks per item, lexicographic prefix; 0 means exhaustive",
        )
        ver.add_argument("--construction", choices=_CONSTRUCTIONS, default="auto")
        ver.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
