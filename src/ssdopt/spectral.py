"""J-characteristics, distance distributions, and the Krawtchouk transform.

Two independent routes to the same aliasing summary live here: exhaustive
enumeration of J values over column subsets (the oracle of record) and the
Krawtchouk transform of the distance distribution. Their agreement, order by
order, is the identity n^2 * A_s = sum of J_s^2 over all s-subsets.

Every squared-J sum, plain or filtered, runs through one kernel that visits
every subset once: it XORs the columns' -1 bits, packed in as many uint64
words as n needs, in fixed-size chunks, and popcounts the result. In tally
mode the same pass also adds each subset's popcount to the histogram of each
column (or column pair) it contains, so one enumeration of the s-subsets
gives every filtered sum with one or two fixed columns
(:func:`anchored_j_squared_sums`); the tables must sum to C(s, 1) or C(s, 2)
times the plain sum, and :func:`sum_j_squared_anchored` reads a filtered
sum from them once a design has them. The kernel also takes a leading batch axis of
equal-width designs, enumerated in one pass with each design's subsets
XORed and popcounted on their own: :func:`sum_j_squared_deleted` gives the
plain sum of a design with each of many column sets deleted, without
building those designs. The half-fraction d of a column triple comes from
J_3 on the same packed bits (:func:`d_from_words`).

J sums are exact integers; distributions and wordlength patterns are exact
rationals.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import SignMatrix


def krawtchouk(i: int, j: int, q: int) -> int:
    """Binary Krawtchouk polynomial P_i(j; q).

    P_i(j;q) = sum_k (-1)^k C(j,k) C(q-j, i-k) for k = 0..i.
    """
    if not 0 <= i <= q:
        raise ValueError(f"degree i must satisfy 0 <= i <= q, got i={i}, q={q}")
    if not 0 <= j <= q:
        raise ValueError(f"point j must satisfy 0 <= j <= q, got j={j}, q={q}")
    return sum(
        (-1) ** k * math.comb(j, k) * math.comb(q - j, i - k) for k in range(i + 1)
    )


@dataclass(frozen=True)
class DistanceDistribution:
    """Normalized counts E_0 ... E_q of ordered row pairs by Hamming distance."""

    n: int
    q: int
    E: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.E) != self.q + 1:
            raise ValueError(f"expected {self.q + 1} entries, got {len(self.E)}")
        if any(e < 0 for e in self.E):
            raise ValueError("distance counts cannot be negative")
        if self.E[0] < 1:
            raise ValueError("E_0 must be at least 1")
        if sum(self.E) != self.n:
            raise ValueError("distance distribution must sum to the run count")


def distance_distribution(design: SignMatrix) -> DistanceDistribution:
    """Exact distance distribution of a sign matrix.

    E_j = (# ordered row pairs at Hamming distance j) / n, each row paired
    with itself included at distance 0.
    """
    n, q = design.rows, design.cols
    hamming = (q - design.row_gram()) // 2
    counts = np.bincount(hamming.ravel(), minlength=q + 1)
    return DistanceDistribution(
        n, q, tuple(Fraction(int(c), n) for c in counts[: q + 1])
    )


@dataclass(frozen=True)
class GwpVector:
    """Generalized wordlength pattern A_1 ... A_q as exact rationals.

    Indexing is by order: ``gwp[3]`` is A_3.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("wordlength pattern entries cannot be negative")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, order: int) -> Fraction:
        if not 1 <= order <= len(self.values):
            raise IndexError(f"order must be in 1..{len(self.values)}, got {order}")
        return self.values[order - 1]


def gwp_via_krawtchouk(design: SignMatrix) -> GwpVector:
    """GWP from the distance distribution: A_i = (1/n) sum_j P_i(j;q) E_j."""
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


def _check_subset(design: SignMatrix, cols: Sequence[int]) -> tuple[int, ...]:
    subset = tuple(cols)
    if not subset:
        raise ValueError("column subset must be non-empty")
    if len(set(subset)) != len(subset):
        raise ValueError("column subset must have distinct entries")
    for c in subset:
        if not 0 <= c < design.cols:
            raise ValueError(f"column index {c} out of range for {design.cols} columns")
    return subset


def j_characteristic(design: SignMatrix, cols: Iterable[int]) -> int:
    """J_s(S): sum over runs of the entrywise product of the columns in S."""
    subset = _check_subset(design, tuple(cols))
    product = np.bitwise_xor.reduce(design.neg_words[list(subset)], axis=0)
    return design.rows - 2 * int(np.bitwise_count(product).sum())


#: Subsets per numpy pass; it bounds the size of the kernel's temporary arrays.
_CHUNK = 1 << 13


def _lex_subsets(r: int, b: int) -> np.ndarray:
    """All b-subsets of range(r), one per row, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(r), b))
    return np.fromiter(flat, dtype=np.intp).reshape(math.comb(r, b), b)


def _build_plan(r: int, k: int) -> tuple[np.ndarray, ...]:
    """(prefixes, suffixes, bounds, shift): every k-subset of range(r) as a
    prefix of k // 2 indices followed by a suffix of the rest.

    Prefixes are grouped by largest index and suffixes are lexicographic, so
    each prefix pairs with a tail of the suffix table. Prefix i owns subsets
    bounds[i] .. bounds[i+1]-1, and subset g pairs with suffix g + shift[i].
    """
    a, b = k // 2, k - k // 2
    # Lexicographic order on reversed indices groups prefixes by largest index.
    prefixes = r - 1 - _lex_subsets(r, a)
    suffixes = _lex_subsets(r, b)
    largest = prefixes[:, 0] if a else np.full(1, -1)
    smallest = suffixes[:, 0] if b else np.full(1, r)
    # at_least[t]: number of suffixes whose smallest index is t or more.
    at_least = np.bincount(smallest, minlength=r + 1)[::-1].cumsum()[::-1]
    bounds = np.concatenate([[0], at_least[largest + 1].cumsum()])
    return prefixes, suffixes, bounds, len(suffixes) - bounds[1:]


_small_plan = functools.lru_cache(maxsize=256)(_build_plan)


@functools.lru_cache(maxsize=256)
def _squares(n: int) -> np.ndarray:
    """(n - 2c)^2 for c = 0..n: J^2 of a subset whose XOR has c bits set."""
    return (n - 2 * np.arange(n + 1, dtype=np.int64)) ** 2


def _sum_squared_j(
    words: np.ndarray, base: np.ndarray | int, n: int, k: int, anchors: int = 0
):
    """Exhaustive sum of J^2 over every k-subset S of the rows of ``words``,
    where J = n - 2 * popcount(base ^ XOR of the rows in S); 0 if k > rows.

    ``words`` is one design's (r, W) array or a batch of B such arrays of
    equal r, shape (B, r, W), sharing ``base``; a batch returns an int64
    array of B sums. Each design's subsets are XORed and popcounted on their
    own. Each subset's XOR is one prefix row XOR one suffix row, formed
    _CHUNK subsets at a time (_CHUNK // B per design in a batch, so the
    temporaries do not grow with B). Plans of k <= 4 (halves of at most two
    indices) are cached; larger ones are rebuilt per call. Nothing here
    writes to a plan.

    Tally mode (``anchors`` = 1 or 2) returns (sum, table) instead: the same
    pass adds each subset's popcount to the histogram of every row (or row
    pair a < b) in it, and table[a] (or table[a, b]) is the sum of J^2 over
    the subsets that contain it; entries on and below the diagonal of the
    pair table are 0. A batch gives B tables along a leading axis.
    """
    single = words.ndim == 2
    stack = words[None] if single else words
    designs, r = stack.shape[:2]
    plan = _small_plan if k <= 4 else _build_plan
    prefixes, suffixes, bounds, shift = plan(r, k)
    prefix = np.bitwise_xor.reduce(stack.take(prefixes, axis=1), axis=2) ^ base
    suffix = np.bitwise_xor.reduce(stack.take(suffixes, axis=1), axis=2)
    subsets = int(bounds[-1])
    # Design b counts popcount c in histogram bin b * (n + 1) + c and, for
    # tally cell x, in cells bin (b * r**anchors + x) * (n + 1) + c.
    histogram = np.zeros(designs * (n + 1), dtype=np.int64)
    offsets = np.arange(designs)[:, None] * (n + 1)
    cells = np.zeros(designs * r**anchors * (n + 1) if anchors else 0, dtype=np.int64)
    # Bins wait until they outnumber the cells, so each bincount pays for
    # its zeroed output at most once over.
    pending: list[np.ndarray] = []
    waiting = 0
    step = max(1, _CHUNK // designs)
    for start in range(0, subsets, step):
        stop = min(start + step, subsets)
        # Prefixes first-1 .. last-1 own the chunk; trim the outer two runs.
        first, last = (bisect.bisect_right(bounds, g) for g in (start, stop - 1))
        runs = bounds[first : last + 1] - bounds[first - 1 : last]
        runs[0] -= start - bounds[first - 1]
        runs[-1] -= bounds[last] - stop
        owners = slice(first - 1, last)
        pairs = np.arange(start, stop) + shift[owners].repeat(runs)
        xor = prefix[:, owners].repeat(runs, axis=1) ^ suffix.take(pairs, axis=1)
        popcounts = np.bitwise_count(xor).sum(axis=2, dtype=np.intp)
        histogram += np.bincount((popcounts + offsets).ravel(), minlength=len(histogram))
        if anchors:
            # rows[t] holds each subset's t-th smallest row index: the
            # reversed prefix then the suffix is in increasing order, so
            # position pairs t < u give row pairs a < b.
            rows = [h.repeat(runs) for h in prefixes[owners].T[::-1]]
            rows += [suffixes[pairs, t] for t in range(suffixes.shape[1])]
            bins = popcounts + offsets * r**anchors
            for group in itertools.combinations(rows, anchors):
                cell = group[0] if anchors == 1 else group[0] * r + group[1]
                pending.append((cell * (n + 1) + bins).ravel())
                waiting += popcounts.size
                if waiting >= len(cells) or stop == subsets:
                    cells += np.bincount(np.concatenate(pending), minlength=len(cells))
                    pending, waiting = [], 0
    totals = histogram.reshape(designs, n + 1) @ _squares(n)
    if single:
        totals = int(totals[0])
    if not anchors:
        return totals
    tables = (cells.reshape(-1, n + 1) @ _squares(n)).reshape((designs,) + (r,) * anchors)
    return totals, tables[0] if single else tables


def sum_j_squared(design: SignMatrix, s: int) -> int:
    """Exhaustive sum of J_s(S)^2 over all C(q, s) column subsets.

    Returns 0 when s exceeds the column count (no subsets exist). Each design
    instance enumerates each order once; later calls reuse the sum.
    """
    if s < 1:
        raise ValueError(f"order s must be at least 1, got {s}")
    sums = design.j_squared_sums
    if s not in sums:
        sums[s] = _sum_squared_j(design.neg_words, 0, design.rows, s)
    return sums[s]


def sum_j_squared_deleted(
    design: SignMatrix, deletions: Sequence[Sequence[int]], s: int
) -> list[int]:
    """For each deletion set D (all of one size), the exhaustive sum of
    J_s(S)^2 over the s-subsets of the columns not in D: the
    :func:`sum_j_squared` of ``design`` with D deleted, without building it.

    The kept columns of the sets form one batch of equal-width designs for
    the kernel; slices of the batch keep its prefix and suffix tables within
    _CHUNK words, so memory does not grow with the number of sets.
    """
    if s < 1:
        raise ValueError(f"order s must be at least 1, got {s}")
    if not deletions:
        return []
    q = design.cols
    dropped = np.array(deletions, dtype=np.intp)
    if dropped.ndim != 2:
        raise ValueError("deletion sets must be sequences of column positions")
    if dropped.size and not 0 <= dropped.min() <= dropped.max() < q:
        raise ValueError(f"column index out of range for {q} columns")
    keep = np.ones((len(dropped), q), dtype=bool)
    keep[np.arange(len(dropped))[:, None], dropped] = False
    width = q - dropped.shape[1]
    if np.count_nonzero(keep) != len(dropped) * width:
        raise ValueError("each deletion set must have distinct entries")
    kept = np.nonzero(keep)[1].reshape(len(dropped), width)
    words = design.neg_words
    table_words = (math.comb(width, s // 2) + math.comb(width, s - s // 2)) * words.shape[1]
    step = max(1, _CHUNK // max(1, table_words))
    sums: list[int] = []
    for start in range(0, len(kept), step):
        batch = words.take(kept[start : start + step], axis=0)
        sums += _sum_squared_j(batch, 0, design.rows, s).tolist()
    return sums


def anchored_j_squared_sums(design: SignMatrix, s: int, anchors: int) -> np.ndarray:
    """Every filtered sum of order s with 1 or 2 fixed columns, from one
    exhaustive enumeration of the s-subsets.

    With ``anchors`` = 1, entry [c] is the sum of J_s(S)^2 over the s-subsets
    that contain column c; with ``anchors`` = 2, entry [a, b] for a < b is the
    sum over those that contain both (0 on and below the diagonal). Each
    subset adds to C(s, anchors) entries, so the table sums to C(s, anchors)
    times the plain sum of order s; a table that does not raises
    ArithmeticError. Each design instance enumerates each (s, anchors) once.
    """
    if anchors not in (1, 2):
        raise ValueError(f"anchors must be 1 or 2, got {anchors}")
    if s <= anchors:
        raise ValueError(f"order s must exceed the anchor count, got s={s}")
    sums = design.j_squared_sums
    key = (s, anchors)
    if key not in sums:
        total, table = _sum_squared_j(design.neg_words, 0, design.rows, s, anchors)
        plain = sums.setdefault(s, total)
        if int(table.sum()) != math.comb(s, anchors) * plain:
            raise ArithmeticError(
                f"anchored J^2 tally of order {s} sums to {int(table.sum())}, "
                f"not C({s}, {anchors}) * {plain}"
            )
        table.flags.writeable = False
        sums[key] = table
    return sums[key]


def sum_j_squared_filtered(
    design: SignMatrix, s: int, fixed: Iterable[int]
) -> int:
    """Sum of J_s(S)^2 over the s-subsets that contain all ``fixed`` columns."""
    anchor = _check_subset(design, tuple(fixed))
    if len(anchor) not in (1, 2):
        raise ValueError(f"fixed set must have 1 or 2 columns, got {len(anchor)}")
    if s <= len(anchor):
        raise ValueError(f"order s must exceed the fixed set size, got s={s}")
    words = design.neg_words
    base = functools.reduce(operator.xor, (words[c] for c in anchor))
    rest = np.delete(words, anchor, axis=0)
    return _sum_squared_j(rest, base, design.rows, s - len(anchor))


def sum_j_squared_anchored(design: SignMatrix, s: int, fixed: Sequence[int]) -> int:
    """:func:`sum_j_squared_filtered`, read from the design's anchored table
    of order s when :func:`anchored_j_squared_sums` has tabulated it (the
    fixed columns in any order); otherwise one enumeration. Callers that ask
    one design for many filtered sums tabulate it first.
    """
    table = design.j_squared_sums.get((s, len(fixed)))
    if table is None:
        return sum_j_squared_filtered(design, s, fixed)
    return int(table[tuple(sorted(_check_subset(design, fixed)))])


def _half_fraction_d(n: int, j3: int) -> int:
    """d = (n + J_3) / 8 of a triple in an n-run design; ValueError when the
    triple does not decompose into half-fraction replicates."""
    if (n + j3) % 8 != 0:
        raise ValueError(
            "triple does not decompose into half-fraction replicates "
            f"(J3 = {j3} with n = {n})"
        )
    d = (n + j3) // 8
    if not 0 <= d <= n // 4:
        raise ValueError(f"d = {d} outside 0..{n // 4}")
    return d


def d_from_words(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """:func:`d_parameter` of three columns of valid n-run designs, given as
    their rows of :attr:`SignMatrix.neg_words`: J_3 = n - 2 * popcount(a ^ b ^ c).

    The columns are not revalidated."""
    return _half_fraction_d(n, n - 2 * int(np.bitwise_count(a ^ b ^ c).sum()))


def d_parameter(t1, t2, t3) -> int:
    """Half-fraction multiplicity of a column triple.

    Three +-1 columns removed from a saturated strength-2 array always split
    their rows into d replicates of the half fraction with all-positive
    triple products and n/4 - d replicates of the opposite one, which gives
    d = (n + J_3) / 8. A non-integral value means the triple does not arise
    that way, and is reported as an error. The columns are validated here;
    :func:`d_from_words` takes columns of designs already validated.
    """
    cols = [np.ravel(t) for t in (t1, t2, t3)]
    n = len(cols[0])
    if len(cols[1]) != n or len(cols[2]) != n:
        raise ValueError("the three columns must have equal length")
    if n % 4 != 0:
        raise ValueError(f"column length must be a multiple of 4, got {n}")
    stack = np.stack(cols)
    if not np.all((stack == 1) | (stack == -1)):
        raise ValueError("columns must have entries +1 or -1")
    return _half_fraction_d(n, int(stack.prod(axis=0, dtype=np.int64).sum()))
