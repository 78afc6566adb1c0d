"""Exact E(s^2) evaluation, the sharp lower bound, and optimality verdicts.

E(s^2) is the average of the squared off-diagonal entries of X^T X. It is
computed two ways that must agree exactly: directly from the inner products
(through the row Gram X X^T, whose squared entries total those of X^T X; a
minus-one build downdates its full augmentation's total by the deleted
column's inner products instead), and through the J-characteristics of the
starting array, summing the terms each build records for the columns it
chose (each nonzero J_3 and J_4 value appears six times in X^T X for a full
augmentation).

A build's cell in ``builder.FAMILIES`` states its E(s^2), bound and gap; the
verdict judges the build against them, recording each claim beside the
computed value rather than trusting or enforcing it.

The lower bound applies to balanced designs with n = 0 (mod 4) and m =
a(n-1) +/- r columns, a >= 1 and 0 <= r <= n/2:

    n^2 (m-n+1) / ((n-1)(m-1)) + n/(m(m-1)) * (D(n,r) - r^2/(n-1))

with D(n, r) piecewise in r mod 4. When two decompositions of m exist the
larger bound value is used; both are valid.

All values are exact rationals; "optimal" means the gap is exactly zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .builder import FAMILIES, SsdBuild, SsdFamily
from .core import AliasedPairs, SignMatrix, aliasing_report
from .spectral import filtered_sums
from .spectral import sum_j_squared  # noqa: F401  (a binding the tracer counts)


def es2_direct(design: SignMatrix) -> Fraction:
    """Average squared off-diagonal entry of X^T X, as an exact rational.

    Reads the design's squared Gram total (:attr:`SignMatrix.gram_square_sum`):
    from the n x n row Gram, as the squared entries of X^T X and of X X^T have
    the same total, or, for a design from :meth:`SignMatrix.without`, as the
    exact downdate of its parent's total. The m diagonal entries of X^T X are n.
    """
    n, m = design.rows, design.cols
    if m < 2:
        raise ValueError("E(s^2) needs at least two columns")
    return Fraction(design.gram_square_sum - m * n * n, m * (m - 1))


def es2_via_j(build: SsdBuild) -> Fraction:
    """E(s^2) recomputed from the starting array's J-characteristics.

    Sums the build's recorded ``j_terms``, read by their (s, F) keys in one
    :func:`spectral.filtered_sums` call, which enumerates the terms its memo
    lacks. Independent of :func:`es2_direct`; the two must agree exactly for
    every build, which the verdict enforces.
    """
    terms = build.j_terms
    sums = filtered_sums(build.start, [(s, fixed) for _, s, fixed in terms])
    numerator = sum(c * value for (c, _, _), value in zip(terms, sums))
    m = build.design.cols
    return Fraction(numerator, m * (m - 1))


def es2_closed_form(
    family: SsdFamily, n: int, q: int, d: int | None = None
) -> Fraction:
    """The exact E(s^2) of a covered (family, n, q) cell, the ``es2`` of its
    :data:`builder.FAMILIES` cell; the single-parent one at q = n-3 needs d."""
    forms = FAMILIES[family.kind]
    if n - q not in forms:
        raise ValueError(
            f"no closed form for family {family.kind!r} at q = n - {n - q}"
        )
    return forms[n - q].es2(n, d)


def D_of(n: int, r: int) -> int:
    """Piecewise constant of the lower bound, by the residue of r mod 4."""
    if not 0 <= r <= n // 2:
        raise ValueError(f"r must be in 0..{n // 2}, got {r}")
    residue = r % 4
    if residue == 0:
        return 4 * r
    if residue == 1:
        return n + 2 * r - 3
    if residue == 2:
        return 2 * n - 4
    return n + 2 * r + 1


@dataclass(frozen=True)
class Decomposition:
    """One way of writing m = a(n-1) + sign*r with a >= 1 and 0 <= r <= n/2."""

    a: int
    r: int
    sign: int
    D: int


def decompose_m(n: int, m: int) -> list[Decomposition]:
    """All decompositions m = a(n-1) +/- r, smaller r first.

    At most two exist; r = 0 is reported once with positive sign.
    """
    if n % 4 != 0 or n < 4:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    half = n // 2
    a_low = max(1, -((half - m) // (n - 1)))  # ceil((m - half) / (n - 1))
    a_high = (m + half) // (n - 1)
    found = []
    for a in range(a_low, a_high + 1):
        r = m - a * (n - 1)
        if r == 0:
            found.append(Decomposition(a, 0, 1, D_of(n, 0)))
        elif 0 < r <= half:
            found.append(Decomposition(a, r, 1, D_of(n, r)))
        elif 0 < -r <= half:
            found.append(Decomposition(a, -r, -1, D_of(n, -r)))
    found.sort(key=lambda dec: dec.r)
    return found


def _bound_value(n: int, m: int, dec: Decomposition) -> Fraction:
    lead = Fraction(n * n * (m - n + 1), (n - 1) * (m - 1))
    correction = Fraction(n, m * (m - 1)) * (dec.D - Fraction(dec.r * dec.r, n - 1))
    return lead + correction


@functools.lru_cache(maxsize=256)
def bound_details(
    n: int, m: int
) -> tuple[tuple[Decomposition, ...], Decomposition, Fraction]:
    """All decompositions of m, the one giving the tightest bound, and its value.

    The result is immutable and cached per (n, m): every minus-one build of
    one start, for instance, shares one m."""
    if m < 2:
        raise ValueError("the bound needs at least two columns")
    decs = decompose_m(n, m)
    if not decs:
        raise ValueError(
            f"no decomposition m = a(n-1) +/- r with a >= 1 exists for n={n}, m={m}"
        )
    best = max(decs, key=lambda dec: _bound_value(n, m, dec))
    return tuple(decs), best, _bound_value(n, m, best)


def lower_bound(n: int, m: int) -> Fraction:
    """Sharp lower bound on E(s^2) for balanced n x m designs, n = 0 (mod 4)."""
    return bound_details(n, m)[2]


class Claim(NamedTuple):
    """One claim of a build's cell: the value the cell states and the value
    the verdict computed for the build."""

    name: str
    stated: object
    computed: object

    @property
    def ok(self) -> bool:
        return self.stated == self.computed


@dataclass(frozen=True, eq=False)
class OptimalityReport:
    """Everything the verdict knows about one build.

    ``claims`` are the cell's E(s^2), bound, gap and optimal flag, in that
    order, or none when no cell covers the build or its cell needs a d the
    build lacks (``cell_note`` says which). ``aliased`` and ``notes`` are
    computed from ``design`` on first read.
    """

    n: int
    m: int
    family: SsdFamily
    decompositions: tuple[Decomposition, ...]
    chosen: Decomposition
    lower_bound: Fraction
    es2: Fraction
    gap: Fraction
    optimal: bool
    d: int | None
    claims: tuple[Claim, ...]
    cell_note: str | None
    design: SignMatrix = field(repr=False)

    @functools.cached_property
    def aliased(self) -> AliasedPairs:
        return aliasing_report(self.design)

    @functools.cached_property
    def notes(self) -> str:
        aliasing = (
            f"{len(self.aliased)} fully aliased column pair(s) present; "
            "the construction preconditions exclude these"
            if self.aliased else "all column pairs partially aliased"
        )
        return "; ".join(filter(None, (self.cell_note, aliasing)))


def verdict(build: SsdBuild) -> OptimalityReport:
    """Evaluate a build: exact E(s^2), bound, gap, optimal flag, and the
    claims of its cell against them.

    The program's own cross-checks are enforced, not assumed: the direct and
    J-route E(s^2) must agree, and the bound must not exceed the achieved
    value. A cell's claims are recorded, agreeing or not, for the caller.
    """
    design = build.design
    n, m = design.rows, design.cols
    es2 = es2_direct(design)
    via_j = es2_via_j(build)
    if es2 != via_j:
        raise ArithmeticError(
            f"inner-product and J-characteristic routes disagree: {es2} vs {via_j}"
        )
    decs, chosen, lb = bound_details(n, m)
    gap = es2 - lb
    if gap < 0:
        raise ArithmeticError(f"E(s^2) {es2} fell below the bound {lb}")
    claims, cell_note = (), None
    cell = FAMILIES[build.family.kind].get(n - build.start.cols)
    if cell is None:
        cell_note = "no closed form covers this cell"
    else:
        try:
            stated_gap = cell.gap(n, build.d)
            claims = (
                Claim("es2", cell.es2(n, build.d), es2),
                Claim("lb", cell.bound(n), lb),
                Claim("gap", stated_gap, gap),
                Claim("optimal", stated_gap == 0, gap == 0),
            )
        except ValueError:
            cell_note = "the closed form of this cell needs d, which was not recorded"
    return OptimalityReport(
        n=n,
        m=m,
        family=build.family,
        decompositions=decs,
        chosen=chosen,
        lower_bound=lb,
        es2=es2,
        gap=gap,
        optimal=gap == 0,
        d=build.d,
        claims=claims,
        cell_note=cell_note,
        design=design,
    )
