"""Brute-force verification of the closed-form J sums and theorem cells.

The exhaustive J enumeration is the oracle of record; every closed form is a
claim under test, never the oracle. Each check compares one enumeration (or
one verdict) against one claimed value. A theorem cell's claims are those of
its ``builder.FAMILIES`` cell, whose order is the theorems' order; the
verdict evaluates them and each becomes one check. A lemma
block (r, a) states its items for s = 3 and 4 on the saturated design with r
columns deleted, summing over the subsets through a chosen specific columns
(all subsets when a = 0); d, of the removed then the specific columns, is
defined exactly when r + a = 3. Choices run lexicographically and ``cap``
bounds the checks per item (0 or None: exhaustive), so a capped run is a
deterministic prefix of the exhaustive one.

Neighbouring checks share their enumerations; every one stays exhaustive.
The lemma walk sends its choices, a slice at a time, through one batched
enumeration per order, each choice as an item with its deleted columns and
its specific columns (as positions of the saturated design); no child design
is built. The d of a slice's triples comes from one XOR and popcount of
their packed columns, and each item's closed form is evaluated once per d.
The theorem walk lists every choice of one start first and fills the start's
memo with the (s, F) keys of all of their J terms (:func:`builder.j_terms`)
in one :func:`spectral.filtered_sums` call; it then builds and judges one
choice at a time, and each verdict reads its terms from the memo. A
minus-one build is the start's full augmentation without one column, whose
squared Gram total its verdict reads as a downdate of the full one's
(:meth:`SignMatrix.without`), so no minus-one build forms a row Gram.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .builder import (
    FAMILIES,
    FULL,
    MINUS_ONE,
    SINGLE_PARENT,
    SsdBuild,
    SsdFamily,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
    j_terms,
)
from .core import ColumnLabel, SignMatrix, drop_columns, hadamard_design
from .es2 import verdict
from .spectral import _half_fraction_d, filtered_sums, sum_j_squared_batch

# Not called here: ssdbench/test_ssdbench.py counts this binding among the
# four it expects the tracer to wrap (spectral, es2, verify and the package).
from .spectral import sum_j_squared  # noqa: F401


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    context: str
    expected: str
    actual: str
    ok: bool


def _capped(iterable: Iterable, cap: int | None) -> Iterator:
    if not cap:
        return iter(iterable)
    if cap < 0:
        raise ValueError(f"cap must be 0 (exhaustive) or positive, got {cap}")
    return itertools.islice(iterable, cap)


def _u(n: int, d: int) -> int:
    return 16 * d * (n - 4 * d)


#: (r deleted, a specific) -> its items for s = 3 and s = 4, in item order, each
#: as (check name, closed form f(n, d)); d is None when r + a < 3.
_LEMMA1: dict[tuple[int, int], tuple] = {
    (0, 0): (
        ("lemma1.item1", lambda n, d: Fraction(n * n * (n - 1) * (n - 2), 6)),
        ("lemma1.item5", lambda n, d: Fraction(n * n * (n - 1) * (n - 2) * (n - 4), 24)),
    ),
    (1, 0): (
        ("lemma1.item2", lambda n, d: Fraction(n * n * (n - 2) * (n - 4), 6)),
        ("lemma1.item6", lambda n, d: Fraction(n * n * (n - 2) * (n - 4) * (n - 5), 24)),
    ),
    (2, 0): (
        ("lemma1.item3", lambda n, d: Fraction(n * n * (n - 4) * (n - 5), 6)),
        ("lemma1.item7", lambda n, d: Fraction(n * n * (n - 4) * (n - 5) * (n - 6), 24)),
    ),
    (3, 0): (
        ("lemma1.item4", lambda n, d: Fraction(n * n * (n - 4) * (n - 8), 6) + _u(n, d)),
        ("lemma1.item8", lambda n, d: (
            Fraction(n * n * (n - 4) * (n * n - 15 * n + 62), 24) - _u(n, d)
        )),
    ),
}
_LEMMA2: dict[tuple[int, int], tuple] = {
    (0, 1): (
        ("lemma2.item1", lambda n, d: Fraction(n * n * (n - 2), 2)),
        ("lemma2.item6", lambda n, d: Fraction(n * n * (n - 2) * (n - 4), 6)),
    ),
    (0, 2): (
        ("lemma2.item4", lambda n, d: n * n),
        ("lemma2.item9", lambda n, d: Fraction(n * n * (n - 4), 2)),
    ),
    (1, 1): (
        ("lemma2.item2", lambda n, d: Fraction(n * n * (n - 4), 2)),
        ("lemma2.item7", lambda n, d: Fraction(n * n * (n - 4) * (n - 5), 6)),
    ),
    (1, 2): (
        ("lemma2.item5", _u),
        ("lemma2.item10", lambda n, d: Fraction(n * n * (n - 4), 2) - _u(n, d)),
    ),
    (2, 1): (
        ("lemma2.item3", lambda n, d: Fraction(n * n * (n - 4), 2) - _u(n, d)),
        ("lemma2.item8", lambda n, d: Fraction(n * n * (n - 4) * (n - 8), 6) + _u(n, d)),
    ),
}


#: Choices per batched enumeration of the lemma walk, which bounds its memory.
_SLICE = 1 << 12


def _lemma_choices(q: int, r: int, a: int) -> Iterator:
    """Each (r deleted, a specific) choice of q columns, lexicographically."""
    for deleted in itertools.combinations(range(q), r):
        rest = [c for c in range(q) if c not in deleted]
        for chosen in itertools.combinations(rest, a):
            yield deleted, chosen


def _enumerated(saturated: SignMatrix, choices: Iterator, with_d: bool) -> Iterator:
    """(deleted, chosen, d, (order-3 sum, order-4 sum)) of each choice, taken
    _SLICE at a time through one batched enumeration per order; d, of the
    deleted then the chosen columns, is None unless ``with_d``."""
    n, words = saturated.rows, saturated.neg_words
    while batch := list(itertools.islice(choices, _SLICE)):
        deleted, chosen = zip(*batch)
        ds = [None] * len(batch)
        if with_d:
            triples = words[[gone + kept for gone, kept in batch]]
            flipped = np.bitwise_count(np.bitwise_xor.reduce(triples, axis=1))
            # Summed as int64: n - 2 * popcount would wrap in uint64.
            j3 = n - 2 * flipped.sum(axis=1, dtype=np.int64)
            ds = [_half_fraction_d(n, j) for j in j3.tolist()]
        sums = [sum_j_squared_batch(saturated, s, deleted, chosen) for s in (3, 4)]
        yield from zip(deleted, chosen, ds, zip(*(column.tolist() for column in sums)))


def _verify_items(
    saturated: SignMatrix, blocks: dict[tuple[int, int], tuple], cap
) -> list[CheckResult]:
    """Each block's items against the enumeration, for every (deletion set,
    specific columns) choice up to the cap; see the module docstring. Each
    closed form and its text are evaluated once per d."""
    n, q = saturated.rows, saturated.cols
    labels = saturated.label_names
    results = []
    for (r, a), items in blocks.items():
        stated: dict = {}
        walk = _enumerated(saturated, _capped(_lemma_choices(q, r, a), cap), r + a == 3)
        for deleted, chosen, d, actual in walk:
            context = [f"deleted={','.join(labels[i] for i in deleted)}"] if r else []
            context += [f"{k}0={labels[c]}" for k, c in zip("ij", chosen)]
            if d is not None:
                context.append(f"d={d}")
            text = " ".join(context) or "no deletion"
            if d not in stated:
                stated[d] = [(v, str(v)) for v in (form(n, d) for _, form in items)]
            for (name, _), (value, shown), count in zip(items, stated[d], actual):
                results.append(CheckResult(name, n, text, shown, str(count), value == count))
    return results


def verify_lemma1(
    n: int, construction: str = "auto", cap: int | None = 500
) -> list[CheckResult]:
    """Items 1-8: plain J sums of orders 3 and 4 (:data:`_LEMMA1`)."""
    return _verify_items(hadamard_design(n, construction), _LEMMA1, cap)


def verify_lemma2(
    n: int, construction: str = "auto", cap: int | None = 500
) -> list[CheckResult]:
    """Items 1-10: J sums filtered through specific columns (:data:`_LEMMA2`)."""
    return _verify_items(hadamard_design(n, construction), _LEMMA2, cap)


def _choices(
    kind: str, start: SignMatrix, removed: SignMatrix, cap: int | None
) -> Iterator[tuple[str, SsdFamily, Callable[[], SsdBuild]]]:
    """(context suffix, family, build maker) of each choice a family's
    theorem ranges over: none, each deleted column or each parent factor (the
    last two capped)."""
    if kind == MINUS_ONE:
        for i, j in _capped(start.augmented.factors.tolist(), cap):
            delete = ColumnLabel(i, j or None)
            yield (f" delete={delete}", SsdFamily.minus_one(delete),
                   functools.partial(build_minus_one, start, delete, removed))
    elif kind == SINGLE_PARENT:
        for p in _capped(range(start.cols), cap):
            yield (f" parent={start.label_names[p]}", SsdFamily.single_parent(p),
                   functools.partial(build_single_parent, start, p, removed))
    else:
        make = build_full if kind == FULL else build_interactions_only
        yield "", SsdFamily(kind), functools.partial(make, start)


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
    """Every covered (family, q, choice) cell against the E(s^2), bound, gap
    and optimal flag its :data:`builder.FAMILIES` cell states, as the verdict
    records them (``OptimalityReport.claims``); theorem i is the i-th family.

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
        choices = [
            (f"theorem{number}", choice)
            for number, (kind, cells) in enumerate(FAMILIES.items(), start=1)
            if deficit in cells
            for choice in _choices(kind, start, removed, cap)
        ]
        terms = (term for _, (_, family, _) in choices for term in j_terms(start, family))
        filtered_sums(start, dict.fromkeys((s, fixed) for _, s, fixed in terms))
        for name, (suffix, _, make) in choices:
            context = f"q=n-{deficit}{suffix}"
            results += [
                CheckResult(f"{name}.{claim.name}", n, context, str(claim.stated),
                            str(claim.computed), claim.ok)
                for claim in verdict(make()).claims
            ]
    return results
