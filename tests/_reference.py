"""Straightforward reference implementations the optimised routes are tested
against: column-Gram E(s^2), the |X^T X| = n aliasing scan, the per-pair
strength-2 count loop, the J-characteristic of one column subset, the
bit-by-bit negative masks, the full augmentation rebuilt one
``interaction_column`` at a time, the unrolled pure-Python loops over
integer bitmasks for the squared-J sums, the row-by-row design CSV writer,
the aliased pairs as the list of JSON records the stdlib's
``json.dumps`` encodes, the GWP as the Krawtchouk transform over every
distance 0..q with one rational product per term, and the int8 routes of
the augmentation (column products), one column's deletion (concatenation)
and Hadamard normalization (row and column negation)."""

import itertools
from fractions import Fraction

import numpy as np

from ssdopt import (
    AliasedPairs,
    ColumnLabel,
    GwpVector,
    SignMatrix,
    distance_distribution,
    krawtchouk,
)


def es2_column_gram(design: SignMatrix) -> Fraction:
    m = design.cols
    g = design.gram()
    off_diagonal_sq = int(np.sum(g * g)) - int(np.sum(np.diagonal(g) ** 2))
    return Fraction(off_diagonal_sq, m * (m - 1))


def aliasing_scan(design: SignMatrix) -> AliasedPairs:
    g = design.gram()
    i, j = np.nonzero(np.triu(np.abs(g) == design.rows, k=1))
    return AliasedPairs(i, j, g[i, j], tuple(str(label) for label in design.labels))


def pair_columns(pairs: AliasedPairs) -> tuple:
    """The pairs as plain lists, for equality checks."""
    return pairs.i.tolist(), pairs.j.tolist(), pairs.inner.tolist(), pairs.names


def aliased_records(pairs: AliasedPairs) -> list[dict]:
    """One dict per pair, as reports list them; pass as ``json.dumps``'s ``default``."""
    names = pairs.names
    return [
        {"i": i, "j": j, "label_i": names[i], "label_j": names[j], "inner": inner}
        for i, j, inner in zip(pairs.i.tolist(), pairs.j.tolist(), pairs.inner.tolist())
    ]


def j_characteristic(design: SignMatrix, cols) -> int:
    """J_s(S): sum over runs of the entrywise product of the columns in S,
    one XOR and popcount of their packed -1 bits (``SignMatrix.neg_words``)."""
    subset = list(cols)
    if not subset or len(set(subset)) != len(subset):
        raise ValueError("column subset must be non-empty and distinct")
    if not all(0 <= c < design.cols for c in subset):
        raise ValueError(f"column index out of range for {design.cols} columns")
    product = np.bitwise_xor.reduce(design.neg_words[subset], axis=0)
    return design.rows - 2 * int(np.bitwise_count(product).sum())


def oa_strength2_loop(design: SignMatrix) -> bool:
    n = design.rows
    if design.cols < 2:
        return True
    if n % 4 != 0:
        return False
    target = n // 4
    e = design.entries
    for i, j in itertools.combinations(range(design.cols), 2):
        plus_i, plus_j = e[:, i] == 1, e[:, j] == 1
        pp = int(np.count_nonzero(plus_i & plus_j))
        pm = int(np.count_nonzero(plus_i & ~plus_j))
        mp = int(np.count_nonzero(~plus_i & plus_j))
        mm = n - pp - pm - mp
        if pp != target or pm != target or mp != target or mm != target:
            return False
    return True


def neg_masks_loop(design: SignMatrix) -> tuple[int, ...]:
    out = []
    for c in range(design.cols):
        mask = 0
        for r in np.nonzero(design.entries[:, c] < 0)[0]:
            mask |= 1 << int(r)
        out.append(mask)
    return tuple(out)


def interaction_column(
    design: SignMatrix, i: int, j: int
) -> tuple[np.ndarray, ColumnLabel]:
    """Entrywise product of two distinct factor columns, with its label.

    Symmetric in (i, j). Both columns must carry main-effect labels; the
    product is labeled by the sorted pair of their factor indices.
    """
    if i == j:
        raise ValueError("an interaction needs two distinct columns")
    for pos in (i, j):
        if not 0 <= pos < design.cols:
            raise ValueError(f"column index {pos} out of range")
    li, lj = design.labels[i], design.labels[j]
    if li.is_interaction or lj.is_interaction:
        raise ValueError("interactions of interaction columns are not supported")
    product = design.entries[:, i] * design.entries[:, j]
    return product, ColumnLabel.interaction(li.i, lj.i)


def full_augmentation_rebuilt(start: SignMatrix) -> SignMatrix:
    columns, labels = [start.entries], list(start.labels)
    for u, v in itertools.combinations(range(start.cols), 2):
        vec, label = interaction_column(start, u, v)
        columns.append(vec[:, None])
        labels.append(label)
    return SignMatrix(np.hstack(columns), tuple(labels))


def sum3_loop(masks, n: int) -> int:
    total = 0
    q = len(masks)
    for a in range(q - 2):
        ma = masks[a]
        for b in range(a + 1, q - 1):
            mab = ma ^ masks[b]
            for c in range(b + 1, q):
                j = n - 2 * (mab ^ masks[c]).bit_count()
                total += j * j
    return total


def sum4_loop(masks, n: int) -> int:
    total = 0
    q = len(masks)
    for a in range(q - 3):
        ma = masks[a]
        for b in range(a + 1, q - 2):
            mab = ma ^ masks[b]
            for c in range(b + 1, q - 1):
                mabc = mab ^ masks[c]
                for d in range(c + 1, q):
                    j = n - 2 * (mabc ^ masks[d]).bit_count()
                    total += j * j
    return total


def sum_over_extensions_loop(masks, base: int, n: int, k: int) -> int:
    """Sum of squared J over all k-subsets of ``masks`` XOR-ed onto ``base``."""
    total = 0
    q = len(masks)
    if k == 0:
        j = n - 2 * base.bit_count()
        return j * j
    if k == 1:
        for m in masks:
            j = n - 2 * (base ^ m).bit_count()
            total += j * j
        return total
    if k == 2:
        for a in range(q - 1):
            mba = base ^ masks[a]
            for b in range(a + 1, q):
                j = n - 2 * (mba ^ masks[b]).bit_count()
                total += j * j
        return total
    if k == 3:
        for a in range(q - 2):
            mba = base ^ masks[a]
            for b in range(a + 1, q - 1):
                mbab = mba ^ masks[b]
                for c in range(b + 1, q):
                    j = n - 2 * (mbab ^ masks[c]).bit_count()
                    total += j * j
        return total
    for combo in itertools.combinations(masks, k):
        acc = base
        for m in combo:
            acc ^= m
        j = n - 2 * acc.bit_count()
        total += j * j
    return total


def sum_j_squared_loop(design: SignMatrix, s: int) -> int:
    if s > design.cols:
        return 0
    masks, n = neg_masks_loop(design), design.rows
    if s == 3:
        return sum3_loop(masks, n)
    if s == 4:
        return sum4_loop(masks, n)
    return sum_over_extensions_loop(masks, 0, n, s)


def design_csv_text_loop(design: SignMatrix) -> str:
    lines = [",".join(str(label) for label in design.labels)]
    for row in design.entries:
        lines.append(",".join("+1" if v > 0 else "-1" for v in row))
    return "\n".join(lines) + "\n"


def gwp_all_distances(design: SignMatrix) -> GwpVector:
    """A_i = (1/n) sum_j P_i(j;q) E_j summed over every distance j = 0..q,
    zero counts included, with one Fraction product per (i, j) term."""
    n, q = design.rows, design.cols
    dist = distance_distribution(design)
    values = []
    for i in range(1, q + 1):
        acc = sum(
            (Fraction(krawtchouk(i, j, q)) * dist.E[j] for j in range(q + 1)),
            start=Fraction(0),
        )
        values.append(acc / n)
    return GwpVector(tuple(values))


def augmented_by_products(entries: np.ndarray) -> np.ndarray:
    """The full augmentation's entries as int8 products: every column, then
    the product of each column pair in lexicographic position order."""
    left, right = np.triu_indices(entries.shape[1], k=1)
    return np.hstack([entries, entries[:, left] * entries[:, right]])


def without_by_concatenation(entries: np.ndarray, pos: int) -> np.ndarray:
    """The entries without column ``pos``, the columns either side concatenated."""
    return np.concatenate([entries[:, :pos], entries[:, pos + 1 :]], axis=1)


def normalize_int8(entries: np.ndarray) -> np.ndarray:
    """A Hadamard matrix's entries with the columns negated where row 0 is -1,
    then the rows negated where column 0 is -1."""
    e = entries.copy()
    e[:, e[0] < 0] *= -1
    e[e[:, 0] < 0, :] *= -1
    return e
