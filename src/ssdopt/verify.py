"""Brute-force verification of the closed-form J sums and theorem cells.

The exhaustive J enumeration is the oracle of record; every closed form is a
claim under test, never the oracle. Each check compares one enumeration
against one closed form (or one verdict against its claimed value) and
records the outcome. A theorem cell's claimed values are those of its
``builder.FAMILIES`` cell, whose order is the theorems' order.

Iteration over deletion sets and column choices is lexicographic; ``cap``
bounds the number of checks per item (0 or None means exhaustive), so a
capped run is a documented deterministic prefix of the exhaustive one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .builder import (
    FAMILIES,
    FULL,
    MINUS_ONE,
    SINGLE_PARENT,
    SsdBuild,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
)
from .core import SignMatrix, drop_columns, hadamard_design
from .es2 import verdict
from .spectral import anchored_j_squared_sums, d_parameter, sum_j_squared


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    context: str
    expected: str
    actual: str
    ok: bool


def _result(name: str, n: int, context: str, expected, actual) -> CheckResult:
    return CheckResult(name, n, context, str(expected), str(actual), expected == actual)


def _capped(iterable: Iterable, cap: int | None) -> Iterator:
    if not cap:
        return iter(iterable)
    if cap < 0:
        raise ValueError(f"cap must be 0 (exhaustive) or positive, got {cap}")
    return itertools.islice(iterable, cap)


def _children(
    saturated: SignMatrix, items: Iterable[tuple[tuple[int, ...], object]], cap
) -> Iterator[tuple[tuple[SignMatrix, SignMatrix], object]]:
    """Pair each capped (deletion set, choice) item with the (child, removed)
    of its deletion set, built once per run of equal deletion sets."""
    for deleted, group in itertools.groupby(_capped(items, cap), key=lambda t: t[0]):
        built = drop_columns(saturated, deleted)
        for _, choice in group:
            yield built, choice


def _u(n: int, d: int) -> int:
    return 16 * d * (n - 4 * d)


def _lemma1_expected(n: int, deficit: int, s: int, d: int | None = None) -> Fraction:
    if s == 3:
        if deficit == 1:
            return Fraction(n * n * (n - 1) * (n - 2), 6)
        if deficit == 2:
            return Fraction(n * n * (n - 2) * (n - 4), 6)
        if deficit == 3:
            return Fraction(n * n * (n - 4) * (n - 5), 6)
        if deficit == 4:
            return Fraction(n * n * (n - 4) * (n - 8), 6) + _u(n, d)
    if s == 4:
        if deficit == 1:
            return Fraction(n * n * (n - 1) * (n - 2) * (n - 4), 24)
        if deficit == 2:
            return Fraction(n * n * (n - 2) * (n - 4) * (n - 5), 24)
        if deficit == 3:
            return Fraction(n * n * (n - 4) * (n - 5) * (n - 6), 24)
        if deficit == 4:
            return Fraction(n * n * (n - 4) * (n * n - 15 * n + 62), 24) - _u(n, d)
    raise ValueError(f"no closed form for s={s}, deficit={deficit}")


def verify_lemma1(
    n: int, construction: str = "auto", cap: int | None = 500
) -> list[CheckResult]:
    """Items 1-8: exhaustive J sums of orders 3 and 4 against the closed forms,
    over deletion sets of size 0 to 3 (lexicographic, capped per size)."""
    saturated = hadamard_design(n, construction)
    results = [
        _result(
            "lemma1.item1", n, "no deletion",
            _lemma1_expected(n, 1, 3), sum_j_squared(saturated, 3),
        ),
        _result(
            "lemma1.item5", n, "no deletion",
            _lemma1_expected(n, 1, 4), sum_j_squared(saturated, 4),
        ),
    ]
    names = {1: ("lemma1.item2", "lemma1.item6"),
             2: ("lemma1.item3", "lemma1.item7"),
             3: ("lemma1.item4", "lemma1.item8")}
    for size, (name3, name4) in names.items():
        combos = itertools.combinations(range(saturated.cols), size)
        for combo in _capped(combos, cap):
            child, removed = drop_columns(saturated, combo)
            d = None
            if size == 3:
                d = d_parameter(
                    removed.column(0), removed.column(1), removed.column(2)
                )
            context = "deleted=" + ",".join(str(lb) for lb in removed.labels)
            if d is not None:
                context += f" d={d}"
            results.append(
                _result(name3, n, context,
                        _lemma1_expected(n, size + 1, 3, d), sum_j_squared(child, 3))
            )
            results.append(
                _result(name4, n, context,
                        _lemma1_expected(n, size + 1, 4, d), sum_j_squared(child, 4))
            )
    return results


def _anchored(design: SignMatrix, anchors: int, *cols: int) -> tuple[int, int]:
    """Filtered J^2 sums of orders 3 and 4 through ``cols``, read off the
    design's anchored tables (:func:`anchored_j_squared_sums`)."""
    return tuple(int(anchored_j_squared_sums(design, s, anchors)[cols]) for s in (3, 4))


def verify_lemma2(
    n: int, construction: str = "auto", cap: int | None = 500
) -> list[CheckResult]:
    """Items 1-10: filtered J sums against the closed forms, for every
    admissible (deletion set, specific column) combination up to the cap.

    Every filtered sum is read off the anchored tables of its design: one
    exhaustive enumeration per (design, order, anchor count), checked by the
    tables' sum identity. d follows the removed-columns-first convention: the
    defining triple is the removed columns extended by the specific columns
    until it has size 3.
    """
    saturated = hadamard_design(n, construction)
    q = saturated.cols
    results = []
    half_n4 = Fraction(n * n * (n - 4), 2)

    for i0 in _capped(range(q), cap):
        context = f"i0={saturated.labels[i0]}"
        f3, f4 = _anchored(saturated, 1, i0)
        results.append(
            _result("lemma2.item1", n, context,
                    Fraction(n * n * (n - 2), 2), f3)
        )
        results.append(
            _result("lemma2.item6", n, context,
                    Fraction(n * n * (n - 2) * (n - 4), 6), f4)
        )
    for i0, j0 in _capped(itertools.combinations(range(q), 2), cap):
        context = f"i0={saturated.labels[i0]} j0={saturated.labels[j0]}"
        f3, f4 = _anchored(saturated, 2, i0, j0)
        results.append(_result("lemma2.item4", n, context, n * n, f3))
        results.append(_result("lemma2.item9", n, context, half_n4, f4))

    singles = (((r1,), i0) for r1 in range(q) for i0 in range(q - 1))
    for (child, removed), i0 in _children(saturated, singles, cap):
        context = f"deleted={removed.labels[0]} i0={child.labels[i0]}"
        f3, f4 = _anchored(child, 1, i0)
        results.append(_result("lemma2.item2", n, context, half_n4, f3))
        results.append(
            _result("lemma2.item7", n, context,
                    Fraction(n * n * (n - 4) * (n - 5), 6), f4)
        )
    pairs = (
        ((r1,), chosen)
        for r1 in range(q)
        for chosen in itertools.combinations(range(q - 1), 2)
    )
    for (child, removed), (i0, j0) in _children(saturated, pairs, cap):
        d = d_parameter(removed.column(0), child.column(i0), child.column(j0))
        context = (
            f"deleted={removed.labels[0]} i0={child.labels[i0]} "
            f"j0={child.labels[j0]} d={d}"
        )
        f3, f4 = _anchored(child, 2, i0, j0)
        results.append(_result("lemma2.item5", n, context, _u(n, d), f3))
        results.append(
            _result("lemma2.item10", n, context, half_n4 - _u(n, d), f4)
        )

    doubles = (
        (pair, i0)
        for pair in itertools.combinations(range(q), 2)
        for i0 in range(q - 2)
    )
    for (child, removed), i0 in _children(saturated, doubles, cap):
        d = d_parameter(removed.column(0), removed.column(1), child.column(i0))
        context = (
            "deleted=" + ",".join(str(lb) for lb in removed.labels)
            + f" i0={child.labels[i0]} d={d}"
        )
        f3, f4 = _anchored(child, 1, i0)
        results.append(
            _result("lemma2.item3", n, context, half_n4 - _u(n, d), f3)
        )
        results.append(
            _result("lemma2.item8", n, context,
                    Fraction(n * n * (n - 4) * (n - 8), 6) + _u(n, d), f4)
        )
    return results


def _choices(
    kind: str, start: SignMatrix, removed: SignMatrix, cap: int | None
) -> Iterator[tuple[str, SsdBuild]]:
    """(context suffix, build) of each choice a family's theorem ranges over:
    none, each deleted column or each parent factor (the last two capped)."""
    if kind == MINUS_ONE:
        for delete in _capped(start.augmented.labels, cap):
            yield f" delete={delete}", build_minus_one(start, delete, removed)
    elif kind == SINGLE_PARENT:
        for p in _capped(range(start.cols), cap):
            yield f" parent={start.labels[p]}", build_single_parent(start, p, removed)
    else:
        yield "", (build_full if kind == FULL else build_interactions_only)(start)


_THEOREM_DEFICITS = (1, 2, 3)


def check_theorem_order(n: int) -> None:
    """Raise ValueError, naming n and q, when the full augmentation of some
    theorem start q = n - k has fewer than n columns: n > q + C(q, 2)."""
    short = [f"q={n - k}" for k in _THEOREM_DEFICITS if n > (n - k) * (n - k + 1) // 2]
    if short:
        raise ValueError(
            f"n={n} is too small: at {' and '.join(short)} the full augmentation "
            "has fewer than n columns (n > q + C(q, 2)), so it is not supersaturated"
        )


def verify_theorems(
    n: int, construction: str = "auto", cap: int | None = 500
) -> list[CheckResult]:
    """Every covered (family, q, choice) cell against the E(s^2), bound and
    gap its :data:`builder.FAMILIES` cell states; theorem i is the i-th family.

    Starting arrays are the saturated design with the highest-index columns
    dropped. Theorem choice iteration (deleted column, parent factor) is
    exhaustive up to the cap. An order too small for every cell to be
    supersaturated is rejected before any cell is built.
    """
    check_theorem_order(n)
    saturated = hadamard_design(n, construction)
    results: list[CheckResult] = []
    for deficit in _THEOREM_DEFICITS:
        start, removed = drop_columns(saturated, list(range(n - deficit, n - 1)))
        for number, (kind, cells) in enumerate(FAMILIES.items(), start=1):
            if deficit not in cells:
                continue
            cell, name = cells[deficit], f"theorem{number}"
            for suffix, build in _choices(kind, start, removed, cap):
                context = f"q=n-{deficit}{suffix}"
                report, gap = verdict(build), cell.gap(n, build.d)
                results += [
                    _result(f"{name}.es2", n, context, cell.es2(n, build.d), report.es2),
                    _result(f"{name}.lb", n, context, cell.bound(n), report.lower_bound),
                    _result(f"{name}.gap", n, context, gap, report.gap),
                    _result(f"{name}.optimal", n, context, gap == 0, report.optimal),
                ]
    return results
