"""Assembly of supersaturated designs from a strength-2 starting array.

Four families are supported, each a different selection from the starting
array's main-effect columns and two-column interactions:

* ``full``: all q mains plus all C(q, 2) interactions, m = q(q+1)/2
* ``minus-one``: the full set with one named column removed, m = q(q+1)/2 - 1
* ``interactions-only``: the C(q, 2) interactions alone, m = q(q-1)/2
* ``single-parent``: all mains plus the q - 1 interactions of one parent
  factor, m = 2q - 1

Column order is always mains first, then interactions lexicographically by
column-position pair, so rebuilding with the same inputs is byte-identical.

:data:`FAMILIES` holds, in theorem order, one :class:`Cell` per family and
covered deficit k (q = n - k): the cell's exact E(s^2), the lower bound the
paper displays for it and the displayed gap between the two. A build accepts
exactly the covered deficits. :func:`j_terms` states, once for every family,
the J-characteristic terms of the columns a choice keeps; each build records
them (:attr:`SsdBuild.j_terms`), from which ``es2.es2_via_j`` recomputes
E(s^2) without knowing the family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import ColumnLabel, SignMatrix, verify_oa_strength2
from .spectral import d_from_words

FULL = "full"
MINUS_ONE = "minus-one"
INTERACTIONS_ONLY = "interactions-only"
SINGLE_PARENT = "single-parent"


#: A claimed value as a function of (n, d); d is None when a build has none.
_Value = Callable[[int, int | None], Fraction]


def _needs_d(form: Callable[[int, int], Fraction]) -> _Value:
    """``form`` as a value that rejects a build without d."""
    def value(n: int, d: int | None) -> Fraction:
        if d is None:
            raise ValueError("single-parent at q = n - 3 needs d")
        return form(n, d)
    return value


@dataclass(frozen=True)
class Cell:
    """The claims of one theorem cell (family, q = n - k): its exact E(s^2),
    the lower bound it displays and its displayed gap E(s^2) - bound, 0 for a
    cell that meets its bound. Only the single-parent cell at k = 3 uses d."""

    es2: _Value
    bound: Callable[[int], Fraction]
    gap: _Value = lambda n, d: Fraction(0)


def _optimal(value: Callable[[int], Fraction]) -> Cell:
    """A cell that meets its bound: one value is both its E(s^2) and its bound."""
    return Cell(lambda n, d: value(n), value)


#: kind -> {deficit k covered at q = n - k: that cell's claims}, in theorem
#: order: theorem i states the cells of the i-th kind.
FAMILIES: dict[str, dict[int, Cell]] = {
    FULL: {
        1: _optimal(lambda n: Fraction(n * n, n + 1)),
        2: _optimal(lambda n: Fraction(n * (n - 4), n - 3)),
        3: _optimal(lambda n: Fraction(n * n * (n - 5), (n - 3) * (n - 1))),
    },
    MINUS_ONE: {
        1: _optimal(lambda n: Fraction(n * n, n + 1)),
        2: _optimal(lambda n: Fraction(n * (n - 4), n - 3)),
    },
    INTERACTIONS_ONLY: {
        1: _optimal(lambda n: Fraction(n * (n - 4), n - 3)),
        2: _optimal(lambda n: Fraction(n * n * (n - 5), (n - 1) * (n - 3))),
        3: Cell(
            es2=lambda n, d: Fraction(n * n * (n - 6), (n - 2) * (n - 3)),
            bound=lambda n: Fraction(
                n * (n**3 - 13 * n**2 + 48 * n - 32), (n - 3) * (n - 4) * (n - 5)
            ),
            gap=lambda n, d: Fraction(
                8 * n * (n - 8), (n - 2) * (n - 3) * (n - 4) * (n - 5)
            ),
        ),
    },
    SINGLE_PARENT: {
        1: _optimal(lambda n: Fraction(n * n, 2 * n - 3)),
        2: Cell(
            es2=lambda n, d: Fraction(n * n * (n - 4), (2 * n - 5) * (n - 3)),
            bound=lambda n: Fraction(n * (n**2 - 5 * n + 8), (2 * n - 5) * (n - 3)),
            gap=lambda n, d: Fraction(n * n - 8 * n, (2 * n - 5) * (n - 3)),
        ),
        3: Cell(
            es2=_needs_d(lambda n, d: Fraction(
                n**3 - 4 * n**2 - 32 * n * d + 128 * d * d, (2 * n - 7) * (n - 4)
            )),
            bound=lambda n: Fraction(n * (n - 4), 2 * n - 7),
            gap=_needs_d(lambda n, d: Fraction(
                4 * n * n + 128 * d * d - 32 * n * d - 16 * n, (n - 4) * (2 * n - 7)
            )),
        ),
    },
}

#: (coefficient c, order s, fixed start positions F, increasing): c times the
#: sum of J_s^2 over the s-subsets of the start's columns that contain F (all
#: of them when F is empty).
JTerm = tuple[int, int, tuple[int, ...]]

# With all mains and interactions present, each nonzero J_3 meets X^T X in
# six off-diagonal cells (main x interaction) and each J_4 in six
# (interaction x interaction); main x main and overlapping pairs are 0.
_FULL_TERMS: tuple[JTerm, ...] = ((6, 3, ()), (6, 4, ()))


@dataclass(frozen=True)
class SsdFamily:
    """Which selection of mains and interactions a build used."""

    kind: str
    deleted: ColumnLabel | None = None
    parent: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if (self.kind == MINUS_ONE) != (self.deleted is not None):
            raise ValueError("'minus-one' requires a deleted label, others forbid it")
        if (self.kind == SINGLE_PARENT) != (self.parent is not None):
            raise ValueError("'single-parent' requires a parent index, others forbid it")

    @classmethod
    def full(cls) -> "SsdFamily":
        return cls(FULL)

    @classmethod
    def minus_one(cls, deleted: ColumnLabel) -> "SsdFamily":
        return cls(MINUS_ONE, deleted=deleted)

    @classmethod
    def interactions_only(cls) -> "SsdFamily":
        return cls(INTERACTIONS_ONLY)

    @classmethod
    def single_parent(cls, parent: int) -> "SsdFamily":
        return cls(SINGLE_PARENT, parent=parent)


@dataclass(frozen=True, eq=False)
class SsdBuild:
    """A constructed supersaturated design together with its provenance.

    ``d`` is the half-fraction multiplicity consumed by the evaluation
    formulas that depend on which columns were dropped from the saturated
    parent; it is resolved at build time when those columns are supplied.
    ``j_terms`` give the numerator of E(s^2) in J-characteristics of
    ``start``: the sum of the terms over m(m - 1).
    """

    design: SignMatrix
    start: SignMatrix
    family: SsdFamily
    j_terms: tuple[JTerm, ...]
    d: int | None = None


@functools.lru_cache(maxsize=64)
def _pairs(q: int) -> np.ndarray:
    """Factor positions (u, v) of each interaction of the full augmentation
    of q columns, one read-only row each in column order: interaction i is
    column q + i."""
    pairs = np.transpose(np.triu_indices(q, k=1))
    pairs.flags.writeable = False
    return pairs


def j_terms(start: SignMatrix, family: SsdFamily) -> tuple[JTerm, ...]:
    """The J terms of the numerator of E(s^2) of ``family`` built on
    ``start``, in J-characteristics of ``start``: E(s^2) is their sum over
    m(m - 1).

    A minus-one deletion takes its own cells out of the full augmentation's
    X^T X: a main column c its J_3 cells through c (-2 F_3(c)), an
    interaction a*b its J_3 and J_4 cells through a and b (-2 F_3(a, b) -
    2 F_4(a, b)). The interactions-only family keeps only the J_4 cells; the
    single-parent family keeps the interactions through the parent, so X^T X
    holds each J_3 through the parent in four cells (4 F_3(parent)).
    """
    if family.kind == FULL:
        return _FULL_TERMS
    if family.kind == INTERACTIONS_ONLY:
        return ((6, 4, ()),)
    if family.kind == SINGLE_PARENT:
        return ((4, 3, (family.parent,)),)
    q = start.cols
    pos = start.augmented.label_position(family.deleted)
    if pos < q:
        return _FULL_TERMS + ((-2, 3, (pos,)),)
    pair = tuple(_pairs(q)[pos - q].tolist())
    return _FULL_TERMS + ((-2, 3, pair), (-2, 4, pair))


def _require_start(start: SignMatrix, kind: str, what: str) -> None:
    n, q = start.rows, start.cols
    deficits = FAMILIES[kind]
    if n - q not in deficits:
        allowed = ", ".join(f"n-{k}" for k in deficits)
        raise ValueError(f"{what} needs q in {{{allowed}}}, got n={n}, q={q}")
    if not verify_oa_strength2(start):
        raise ValueError("starting array is not an orthogonal array of strength 2")


def build_full(start: SignMatrix) -> SsdBuild:
    """Augment the starting array with all of its two-column interactions."""
    _require_start(start, FULL, "full augmentation")
    q = start.cols
    if start.rows > q + math.comb(q, 2):
        raise ValueError("design would not be supersaturated: n > q + C(q, 2)")
    family = SsdFamily.full()
    return SsdBuild(start.augmented, start, family, j_terms(start, family))


def build_minus_one(
    start: SignMatrix, delete: ColumnLabel, removed: SignMatrix | None = None
) -> SsdBuild:
    """Full augmentation minus one named main or interaction column.

    The design comes from :meth:`SignMatrix.without`, so its squared Gram
    total is downdated from the full augmentation's, computed once per start.
    ``removed`` carries the columns dropped from the saturated parent on the
    way to ``start``; with a one-column ``removed`` and an interaction
    deletion at q = n - 2 it determines the d recorded on the build.
    """
    _require_start(start, MINUS_ONE, "minus-one augmentation")
    full, q = start.augmented, start.cols
    try:
        pos = full.label_position(delete)
    except ValueError:
        raise ValueError(f"{delete} is not a column of the full augmentation") from None
    design = full.without(pos)
    family = SsdFamily.minus_one(delete)
    d = None
    if pos >= q and start.rows - q == 2 and removed is not None and removed.cols == 1:
        pa, pb = _pairs(q)[pos - q]
        words = start.neg_words
        d = d_from_words(start.rows, removed.neg_words[0], words[pa], words[pb])
    return SsdBuild(design, start, family, j_terms(start, family), d)


def build_interactions_only(start: SignMatrix) -> SsdBuild:
    """Keep only the C(q, 2) two-column interactions of the starting array."""
    _require_start(start, INTERACTIONS_ONLY, "interactions-only construction")
    design = start.augmented.take(list(range(start.cols, start.augmented.cols)))
    family = SsdFamily.interactions_only()
    return SsdBuild(design, start, family, j_terms(start, family))


def build_single_parent(
    start: SignMatrix, parent: int, removed: SignMatrix | None = None
) -> SsdBuild:
    """All mains plus the q - 1 interactions involving one parent column.

    At q = n - 3 the evaluation formula depends on d; it is computed from the
    two ``removed`` columns and the parent column when provided.
    """
    _require_start(start, SINGLE_PARENT, "single-parent augmentation")
    if not 0 <= parent < start.cols:
        raise ValueError(f"parent index {parent} out of range")
    q = start.cols
    through = np.flatnonzero((_pairs(q) == parent).any(axis=1))
    design = start.augmented.take(list(range(q)) + (q + through).tolist())
    family = SsdFamily.single_parent(parent)
    d = None
    if start.rows - start.cols == 3 and removed is not None and removed.cols == 2:
        rows = removed.neg_words
        d = d_from_words(start.rows, rows[0], rows[1], start.neg_words[parent])
    return SsdBuild(design, start, family, j_terms(start, family), d)
