"""Sign matrices, Hadamard constructions, and orthogonal-array checks.

Every design is carried by a :class:`SignMatrix`: an immutable n x q +1/-1
array stored as its columns' packed -1 bits, from which the entries are
derived when read, and one distinct label per column, held as a pair of
factor indices (:attr:`SignMatrix.factors`); :class:`ColumnLabel` is the
parsed and user-facing form of one label. All arithmetic in this module is
exact integer arithmetic; there is no floating point anywhere.

A Hadamard matrix H is checked by H H^T = nI on the exact int64 row Gram,
each entry n - 2 * popcount(r_i ^ r_j) of two rows' packed -1 bits. A
construction validates its raw +-1 matrix and checks H H^T = nI once each;
the normalized and stripped matrices are derived without revalidation.
:func:`normalize` and :func:`to_hadamard_design` check their own argument.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

#: Largest Hadamard order the constructions will emit by default. Keeps the
#: exhaustive subset enumerations downstream (O(q^4) and worse) instant.
DEFAULT_MAX_ORDER = 64

_LABEL_RE = re.compile(r"^c([0-9]+)(?:\*c([0-9]+))?$")


@dataclass(frozen=True)
class ColumnLabel:
    """Name of a design column: a starting factor ``ci`` or a product ``ci*cj``."""

    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.i < 2**63:
            raise ValueError(f"column index must be in 1..2**63 - 1, got {self.i}")
        if self.j is not None and not self.i < self.j < 2**63:
            raise ValueError(
                f"interaction indices must satisfy i < j < 2**63, got ({self.i}, {self.j})"
            )

    @classmethod
    def main(cls, i: int) -> "ColumnLabel":
        return cls(i)

    @classmethod
    def interaction(cls, i: int, j: int) -> "ColumnLabel":
        if i == j:
            raise ValueError("an interaction needs two distinct factors")
        if i > j:
            i, j = j, i
        return cls(i, j)

    @classmethod
    def parse(cls, text: str) -> "ColumnLabel":
        """Parse the textual form used in CSV headers: ``c3`` or ``c1*c2``."""
        m = _LABEL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a column label: {text!r}")
        if m.group(2) is None:
            return cls.main(int(m.group(1)))
        return cls.interaction(int(m.group(1)), int(m.group(2)))

    @property
    def is_interaction(self) -> bool:
        return self.j is not None

    def __str__(self) -> str:
        return f"c{self.i}" if self.j is None else f"c{self.i}*c{self.j}"


#: uint64 words XOR-ed per block of :meth:`SignMatrix.row_gram`.
_GRAM_WORDS = 1 << 16


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """Each row of a 2-D bool array as uint64 words: bit t of the row's
    little-endian bit string is element t, zero-padded to whole words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], 8 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _row_gram(entries: np.ndarray) -> np.ndarray:
    """X X^T of a +-1 array X as exact int64.

    Entry (i, j) is m - 2 * popcount(r_i ^ r_j), where r_i holds row i's
    -1 bits packed into uint64 words; row blocks bound the temporaries.
    """
    n, m = entries.shape
    words = _packed_rows(entries < 0)
    gram = np.empty((n, n), dtype=np.int64)
    block = max(1, _GRAM_WORDS // (n * words.shape[1] or 1))
    for start in range(0, n, block):
        xor = words[start : start + block, None, :] ^ words[None, :, :]
        gram[start : start + block] = np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
    return m - 2 * gram


def _main_factors(q: int) -> np.ndarray:
    """The factor indices of the labels c1 ... cq."""
    return np.column_stack([np.arange(1, q + 1), np.zeros(q, dtype=np.int64)])


def _first_row_positive(words: np.ndarray, rows: int) -> np.ndarray:
    """Packed columns of ``rows`` runs, each negated (XOR-ed with the all-rows
    mask) where its row-0 bit is set, so that every column reads +1 in row 0."""
    mask = np.frombuffer(((1 << rows) - 1).to_bytes(8 * words.shape[1], "little"), np.uint64)
    return words ^ (words[:, :1] & 1) * mask


@dataclass(frozen=True, eq=False, init=False)
class SignMatrix:
    """Immutable two-level design matrix with labeled columns.

    Row c of ``neg_words``, a read-only (m, ceil(n/64)) uint64 array, holds
    column c's -1 bits (bit r for run r, zero-padded to whole words), so a
    product of columns is the XOR of their rows; ``entries`` is derived from
    it when read. Column c's label is row c of ``factors``, a read-only (m, 2)
    int64 array of factor indices: (i, 0) for ci, (i, j) with i < j for ci*cj.
    ``labels`` are :class:`ColumnLabel` objects or such an array of valid indices.
    """

    rows: int
    neg_words: np.ndarray
    factors: np.ndarray

    def __init__(self, entries, labels) -> None:
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("entries must be a 2-D array with at least one row")
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("entries must be exactly +1 or -1")
        if not isinstance(labels, np.ndarray):
            labels = [(label.i, label.j or 0) for label in labels]
        factors = np.array(labels, dtype=np.int64).reshape(-1, 2)
        if len(factors) != arr.shape[1]:
            raise ValueError(f"{arr.shape[1]} columns but {len(factors)} labels")
        if len(set(zip(*factors.T.tolist()))) != len(factors):
            raise ValueError("column labels must be pairwise distinct")
        words = _packed_rows(np.ascontiguousarray((arr < 0).T))
        words.flags.writeable = factors.flags.writeable = False
        vars(self).update(rows=arr.shape[0], neg_words=words, factors=factors)

    @classmethod
    def with_main_labels(cls, entries) -> "SignMatrix":
        """Wrap an array, labeling its columns c1, c2, ... in order."""
        arr = np.asarray(entries)
        return cls(arr, _main_factors(arr.shape[1] if arr.ndim == 2 else 0))

    @cached_property
    def entries(self) -> np.ndarray:
        """The n x m int8 +1/-1 array, read-only, unpacked from :attr:`neg_words`."""
        # Unpacked along axis 0 of the transposed bytes: C-ordered, so rows pack fast.
        packed = self.neg_words.view(np.uint8).T.copy()
        out = 1 - 2 * np.unpackbits(packed, 0, self.rows, "little").view(np.int8)
        out.flags.writeable = False
        return out

    @cached_property
    def labels(self) -> tuple[ColumnLabel, ...]:
        """The columns' labels as :class:`ColumnLabel` objects, formed when read."""
        return tuple(ColumnLabel(i, j or None) for i, j in self.factors.tolist())

    @cached_property
    def label_names(self) -> tuple[str, ...]:
        """Each column's label text, ``ci`` or ``ci*cj``: the one string table
        that CSV headers, aliased-pair records and reports read."""
        i, j = self.factors.T.tolist()
        text = {k: f"c{k}" for k in {*i, *j}}
        return tuple([text[a] + "*" + text[b] if b else text[a] for a, b in zip(i, j)])

    @property
    def cols(self) -> int:
        return len(self.factors)

    @property
    def is_balanced(self) -> bool:
        """Whether every column has as many -1 as +1 entries: 2 * popcount = n."""
        counts = np.bitwise_count(self.neg_words).sum(axis=1, dtype=np.int64)
        return bool(np.all(2 * counts == self.rows))

    def column(self, pos: int) -> np.ndarray:
        return self.entries[:, pos]

    @cached_property
    def _positions(self) -> dict[tuple[int, int], int]:
        return dict(zip(zip(*self.factors.T.tolist()), range(self.cols)))

    def label_position(self, label: ColumnLabel) -> int:
        """Position of the column carrying ``label``; ValueError if absent."""
        try:
            return self._positions[label.i, label.j or 0]
        except KeyError:
            raise ValueError(f"no column labeled {label}") from None

    def gram(self) -> np.ndarray:
        """X^T X in exact 64-bit integer arithmetic."""
        wide = self.entries.astype(np.int64)
        return wide.T @ wide

    @staticmethod
    def _selected(rows: int, words: np.ndarray, factors: np.ndarray) -> "SignMatrix":
        """Columns derived from a valid design, which need no revalidation:
        made read-only and wrapped as they are."""
        out = object.__new__(SignMatrix)
        words.flags.writeable = factors.flags.writeable = False
        vars(out).update(rows=rows, neg_words=words, factors=factors)
        return out

    def take(self, positions) -> "SignMatrix":
        """The columns at ``positions`` (distinct, in range), in that order,
        unvalidated (:meth:`_selected`), carrying the columns' labels."""
        return self._selected(self.rows, self.neg_words[positions], self.factors[positions])

    def without(self, pos: int) -> "SignMatrix":
        """This design without the column at ``pos``, unvalidated (:meth:`_selected`):
        one word row and one factor row deleted.

        Its squared Gram total is seeded with the exact downdate G - 2 |X^T x|^2
        + n^2 of column x, whose inner products X^T x take one popcount pass of
        x's word row against every column's, so no row Gram is recomputed.
        """
        if not 0 <= pos < self.cols:
            raise ValueError(f"column index {pos} out of range for {self.cols} columns")
        n, words = self.rows, self.neg_words
        inner = n - 2 * np.bitwise_count(words ^ words[pos]).sum(axis=1, dtype=np.int64)
        rest = [np.concatenate([a[:pos], a[pos + 1 :]]) for a in (words, self.factors)]
        out = self._selected(n, *rest)
        out.__dict__["gram_square_sum"] = (
            self.gram_square_sum - 2 * int(inner @ inner) + n * n
        )
        return out

    def row_gram(self) -> np.ndarray:
        """X X^T as exact int64: the n x n run inner products (:func:`_row_gram`)."""
        return _row_gram(self.entries)

    @cached_property
    def gram_square_sum(self) -> int:
        """Sum of the squared entries of X^T X, diagonal included.

        Read off the n x n row Gram, whose squared entries have the same total,
        so no m x m array is formed; :meth:`without` seeds it with a downdate.
        """
        g = self.row_gram()
        return int(np.sum(g * g))

    @cached_property
    def j_squared_sums(self) -> dict:
        """Memo of the squared-J sums of :func:`ssdopt.spectral.filtered_sums`,
        its only reader and writer; each is enumerated once per instance."""
        return {}

    @cached_property
    def is_oa_strength2(self) -> bool:
        """The strength-2 flag of :func:`verify_oa_strength2`, computed once."""
        n, q = self.rows, self.cols
        # Pair (i, j) has (n + a*s_i + b*s_j + a*b*g_ij) / 4 runs with signs
        # (a, b), from the column sums s and the Gram g; each is n / 4 iff
        # s_i = s_j = g_ij = 0. The squared Gram entries total q*n^2 on the
        # diagonal alone, so every g_ij vanishes iff that is the whole sum.
        if q < 2:
            return True
        return self.is_balanced and self.gram_square_sum == q * n * n

    @cached_property
    def augmented(self) -> "SignMatrix":
        """The columns followed by all C(q, 2) two-column interactions.

        Interactions are ordered lexicographically by column-position pair;
        the product of columns labeled ci and cj is labeled ci*cj. Built once
        per instance; every augmented family is a column selection from it.
        """
        if self.cols > 1 and self.factors[:, 1].any():
            raise ValueError("interactions of interaction columns are not supported")
        left, right = np.triu_indices(self.cols, k=1)
        words = np.vstack([self.neg_words, self.neg_words[left] ^ self.neg_words[right]])
        a, b = self.factors[left, 0], self.factors[right, 0]
        pairs = np.column_stack([np.minimum(a, b), np.maximum(a, b)])
        return self._selected(self.rows, words, np.vstack([self.factors, pairs]))


@dataclass(frozen=True, eq=False)
class AliasedPairs:
    """Column pairs equal up to sign, as parallel int arrays in (i, j) order.

    Pair k is columns ``i[k] < j[k]`` with inner product ``inner[k]`` = +/-n;
    ``names`` are the design's column label strings (its
    :attr:`SignMatrix.label_names`). ``len()`` counts the pairs.
    """

    i: np.ndarray
    j: np.ndarray
    inner: np.ndarray
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.i)


_NO_PAIRS = np.zeros(0, dtype=np.int64)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def _is_hadamard(entries: np.ndarray) -> bool:
    """Whether a +-1 array is square with H H^T = nI, read off the exact
    popcount row Gram (:func:`_row_gram`)."""
    n = entries.shape[0]
    if entries.shape != (n, n):
        return False
    return bool(np.array_equal(_row_gram(entries), n * np.eye(n, dtype=np.int64)))


def sylvester_hadamard(k: int, max_order: int = DEFAULT_MAX_ORDER) -> SignMatrix:
    """Normalized Hadamard matrix of order 2**k by repeated doubling."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = 2**k
    if n > max_order:
        raise ValueError(f"order {n} exceeds the configured maximum {max_order}")
    cell = np.array([[1, 1], [1, -1]], dtype=np.int8)
    return SignMatrix.with_main_labels(reduce(np.kron, [cell] * k))


def _quadratic_character(p: int) -> np.ndarray:
    residues = {(x * x) % p for x in range(1, p)}
    return np.array(
        [0] + [1 if a in residues else -1 for a in range(1, p)], dtype=np.int8
    )


def paley_hadamard(p: int, max_order: int = DEFAULT_MAX_ORDER) -> SignMatrix:
    """Normalized Hadamard matrix from the quadratic residues modulo a prime.

    For p = 3 (mod 4) the order is p + 1 (type I); for p = 1 (mod 4) it is
    2(p + 1) (type II). Composite p is rejected: prime-power fields are out
    of scope, and all desk sizes are reachable with primes.
    """
    if p < 3 or p % 2 == 0 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = p + 1 if p % 4 == 3 else 2 * (p + 1)
    if n > max_order:
        raise ValueError(f"order {n} exceeds the configured maximum {max_order}")
    chi = _quadratic_character(p)
    jacobsthal = chi[(np.arange(p)[:, None] - np.arange(p)[None, :]) % p]
    if p % 4 == 3:
        h = np.empty((n, n), dtype=np.int8)
        h[0, 0] = 1
        h[0, 1:] = 1
        h[1:, 0] = -1
        h[1:, 1:] = jacobsthal + np.eye(p, dtype=np.int8)
    else:
        s = np.zeros((p + 1, p + 1), dtype=np.int8)
        s[0, 1:] = 1
        s[1:, 0] = 1
        s[1:, 1:] = jacobsthal
        h = np.kron(s, np.array([[1, 1], [1, -1]], dtype=np.int8)) + np.kron(
            np.eye(p + 1, dtype=np.int8), np.array([[1, -1], [-1, -1]], dtype=np.int8)
        )
    return normalize(SignMatrix.with_main_labels(h))


def normalize(matrix: SignMatrix) -> SignMatrix:
    """Equivalent Hadamard matrix whose first row and column are all +1.

    Only negates rows and columns of a valid matrix, so the result needs no
    revalidation (:meth:`SignMatrix._selected`). Idempotent.
    """
    if not _is_hadamard(matrix.entries):
        raise ValueError("input is not a Hadamard matrix")
    # Negating the rows where column 0 reads -1 XORs every column with column 0.
    words = _first_row_positive(matrix.neg_words, matrix.rows)
    return SignMatrix._selected(matrix.rows, words ^ words[0], matrix.factors)


def _stripped(matrix: SignMatrix) -> SignMatrix:
    """A normalized Hadamard matrix without its all-ones column, relabeled c1 ... c(n-1)."""
    return SignMatrix._selected(matrix.rows, matrix.neg_words[1:], _main_factors(matrix.cols - 1))


def to_hadamard_design(matrix: SignMatrix) -> SignMatrix:
    """Drop the leading all-ones column of a normalized Hadamard matrix.

    The result is a saturated OA(n, n-1, 2, 2) with columns labeled
    c1 ... c(n-1).
    """
    if not _is_hadamard(matrix.entries):
        raise ValueError("input is not a Hadamard matrix")
    if matrix.neg_words[0].any():
        raise ValueError("first column is not all +1; normalize the matrix first")
    return _stripped(matrix)


def hadamard_matrix(
    n: int, construction: str = "auto", max_order: int = DEFAULT_MAX_ORDER
) -> SignMatrix:
    """Normalized Hadamard matrix of order n via Paley or Sylvester.

    ``auto`` prefers the quadratic-residue route and falls back to doubling
    when n is a power of two.
    """
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    if n > max_order:
        raise ValueError(f"order {n} exceeds the configured maximum {max_order}")
    # Type I: p = n - 1, which is 3 (mod 4) as 4 | n; type II: p = n/2 - 1 = 1 (mod 4).
    paley_p = n - 1 if _is_prime(n - 1) else None
    if paley_p is None and n % 8 == 4 and _is_prime(n // 2 - 1):
        paley_p = n // 2 - 1
    k = n.bit_length() - 1
    if construction == "paley":
        if paley_p is None:
            raise ValueError(f"no Paley construction reaches order {n}")
        return paley_hadamard(paley_p, max_order)
    if construction == "sylvester":
        if 2**k != n:
            raise ValueError(f"order {n} is not a power of two")
    elif construction != "auto":
        raise ValueError(f"unknown construction {construction!r}")
    elif paley_p is not None:
        return paley_hadamard(paley_p, max_order)
    elif 2**k != n:
        raise ValueError(f"no implemented construction reaches order {n}")
    return normalize(sylvester_hadamard(k, max_order))


def hadamard_design(
    n: int, construction: str = "auto", max_order: int = DEFAULT_MAX_ORDER
) -> SignMatrix:
    """Saturated OA(n, n-1, 2, 2): the normalized order-n Hadamard matrix,
    checked once by :func:`hadamard_matrix`, minus its all-ones column."""
    return _stripped(hadamard_matrix(n, construction, max_order))


def drop_columns(
    design: SignMatrix, indices: Iterable[int]
) -> tuple[SignMatrix, SignMatrix]:
    """Remove columns by position, returning (kept, removed).

    The removed columns keep their labels and original order; downstream
    d-parameter computations need them, so provenance must survive deletion.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("column indices must be distinct")
    for i in idx:
        if not 0 <= i < design.cols:
            raise ValueError(f"column index {i} out of range for {design.cols} columns")
    keep = sorted(set(range(design.cols)).difference(idx))
    return design.take(keep), design.take(sorted(idx))


def verify_oa_strength2(design: SignMatrix) -> bool:
    """True iff every column pair hits each sign combination n/4 times.

    This is the literal strength-2 condition. It holds exactly when every
    column is balanced and every pair of columns is orthogonal, which the
    flag reads off :attr:`SignMatrix.is_balanced` and the squared row Gram
    (no q x q Gram is formed); it implies n = 0 (mod 4). A design with fewer
    than two columns passes. The flag is computed once per design instance.
    """
    return design.is_oa_strength2


def aliasing_report(design: SignMatrix) -> AliasedPairs:
    """All unordered column pairs that are equal up to sign, in (i, j) order.

    Columns are made sign-canonical (row 0 set to +1) and grouped by content
    in O(nm); two columns alias exactly when their canonical forms coincide,
    and their inner product is then n times the product of their row-0 signs.
    An empty result certifies that every pair is only partially aliased.
    """
    # A column's key is its canonical form's word row.
    keys = _first_row_positive(design.neg_words, design.rows)
    # A stable sort lists each group of equal keys in increasing column order.
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    opens_group = np.ones(design.cols, dtype=bool)
    opens_group[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    starts = np.flatnonzero(opens_group)
    if len(starts) == design.cols:
        return AliasedPairs(_NO_PAIRS, _NO_PAIRS, _NO_PAIRS, design.label_names)
    # Sorted position p pairs with the later members of its group, p+1 .. end-1.
    ends = np.repeat(np.append(starts[1:], design.cols), np.diff(starts, append=design.cols))
    later = ends - np.arange(design.cols) - 1
    first = np.repeat(np.arange(design.cols), later)
    offsets = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    i, j = order[first], order[first + 1 + offsets]
    # Pairs sharing i are consecutive with j increasing, so sorting by i suffices.
    by_i = np.argsort(i, kind="stable")
    i, j = i[by_i], j[by_i]
    signs = 1 - 2 * (design.neg_words[:, 0] & 1).astype(np.int64)
    return AliasedPairs(i, j, design.rows * signs[i] * signs[j], design.label_names)
