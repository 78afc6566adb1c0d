"""J-characteristics, distance distributions, and the Krawtchouk transform.

Two independent routes to the same aliasing summary live here: exhaustive
enumeration of J values over column subsets (the oracle of record) and the
Krawtchouk transform of the distance distribution. Their agreement, order by
order, is the identity n^2 * A_s = sum of J_s^2 over all s-subsets.

Every squared-J sum runs through one batched enumeration
(:func:`sum_j_squared_batch`): per item, the sum of J_s^2 over the s-subsets
that avoid a deleted column set D and contain a fixed set F. Each item's free
columns form one design of a batch of equal width, with its own base XOR(F),
and one kernel visits every subset of each once: it XORs the columns' -1
bits, packed in as many uint64 words as n needs, in fixed-size chunks, and
popcounts the result. Each design keeps one memo of its squared-J sums,
keyed by (s, F) with F the sorted fixed columns (F = () for the plain sum).
Every request for such sums is a list of (s, F) keys to :func:`filtered_sums`,
which enumerates the missing ones as one batch per order and fixed-set size;
the plain and filtered sums are one-key requests. The half-fraction d of a
column triple comes from J_3 on the same packed bits (:func:`d_from_words`).

The GWP sums the Krawtchouk transform in exact integers over the row
distances that occur (:func:`gwp_via_krawtchouk`): O(q^2) comb terms per
distinct distance, one rational per order. ``evaluate`` checks its A_2
against E(s^2) (:func:`designio.evaluate_report`).

J sums are exact integers; distributions and wordlength patterns are exact
rationals.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
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
    """GWP from the distance distribution: A_i = (1/n) sum_j P_i(j;q) E_j.

    With c_j = n E_j the integer count of ordered row pairs at distance j,
    A_i = (sum_j P_i(j;q) c_j) / n^2: an integer sum over the distances that
    occur (c_j != 0), and one rational per order.
    """
    n, q = design.rows, design.cols
    dist = distance_distribution(design)
    occurring = [(j, int(e * n)) for j, e in enumerate(dist.E) if e]
    return GwpVector(tuple(
        Fraction(sum(krawtchouk(i, j, q) * c for j, c in occurring), n * n)
        for i in range(1, q + 1)
    ))


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


def _sum_squared_j(words: np.ndarray, base, n: int, k: int) -> np.ndarray:
    """Exhaustive sums of J^2 over every k-subset S of the rows of each of B
    equal-width designs, ``words`` of shape (B, r, W): design b's sum has
    J = n - 2 * popcount(base ^ XOR of the rows in S), and is 0 if k > r.

    ``base`` is 0, one (W,) row for every design, or one (B, W) row per
    design; the result is an int64 array of B sums. Each design's subsets
    are XORed and popcounted on their own. Each subset's XOR is one prefix
    row XOR one suffix row, formed _CHUNK subsets at a time (_CHUNK // B per
    design, so the temporaries do not grow with B). A one-word row (n <= 64)
    is popcounted with no sum over words, and a lone design is binned with no
    per-design offset. Plans of k <= 4 (halves of at most two indices) are
    cached; larger ones are rebuilt per call. Nothing here writes to a plan.
    """
    designs, r = words.shape[:2]
    plan = _small_plan if k <= 4 else _build_plan
    prefixes, suffixes, bounds, shift = plan(r, k)
    if np.ndim(base) == 2:
        base = base[:, None]
    prefix = np.bitwise_xor.reduce(words.take(prefixes, axis=1), axis=2) ^ base
    suffix = np.bitwise_xor.reduce(words.take(suffixes, axis=1), axis=2)
    subsets = int(bounds[-1])
    # Design b counts popcount c in histogram bin b * (n + 1) + c.
    histogram = np.zeros(designs * (n + 1), dtype=np.int64)
    offsets = np.arange(designs)[:, None] * (n + 1)
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
        popcounts = np.bitwise_count(xor)
        if words.shape[2] == 1:
            popcounts = popcounts[..., 0]
        else:
            popcounts = popcounts.sum(axis=2, dtype=np.intp)
        if designs > 1:
            popcounts = popcounts + offsets
        histogram += np.bincount(popcounts.ravel(), minlength=len(histogram))
    return histogram.reshape(designs, n + 1) @ _squares(n)


def sum_j_squared_batch(
    design: SignMatrix,
    s: int,
    deleted: Sequence[Sequence[int]],
    fixed: Sequence[Sequence[int]],
) -> np.ndarray:
    """For each item b, the exhaustive sum of J_s(S)^2 over the s-subsets S
    of the columns not in deleted[b] that contain every column of fixed[b]:
    the filtered sum of ``design`` with deleted[b] deleted, without building
    that design. Returns an int64 array with one sum per item.

    Every deletion set has one size and every fixed set one size, either of
    them possibly 0. Each item's free columns (neither deleted nor fixed)
    are one design of a batch of equal width for the kernel, enumerated with
    its own base, the XOR of its fixed columns. Slices of the batch keep
    their prefix and suffix tables within _CHUNK words, so memory does not
    grow with the number of items. Every squared-J sum of this module runs
    here.
    """
    dropped = np.array(deleted, dtype=np.intp)
    anchor = np.array(fixed, dtype=np.intp)
    if dropped.ndim != 2 or anchor.ndim != 2 or len(dropped) != len(anchor):
        raise ValueError("each item needs one deletion set and one fixed set")
    if not 0 <= anchor.shape[1] <= s:
        raise ValueError(f"order s must be at least the fixed set size, got s={s}")
    q, items = design.cols, len(dropped)
    taken = np.concatenate([dropped, anchor], axis=1)
    if taken.size and not 0 <= taken.min() <= taken.max() < q:
        raise ValueError(f"column index out of range for {q} columns")
    free = np.ones((items, q), dtype=bool)
    free[np.arange(items)[:, None], taken] = False
    width = q - taken.shape[1]
    if np.count_nonzero(free) != items * width:
        raise ValueError("the columns of each item must be distinct")
    kept = np.nonzero(free)[1].reshape(items, width)
    words = design.neg_words
    base = np.bitwise_xor.reduce(words[anchor], axis=1)
    k = s - anchor.shape[1]
    table_words = (math.comb(width, k // 2) + math.comb(width, k - k // 2)) * words.shape[1]
    step = max(1, _CHUNK // max(1, table_words))
    sums = np.zeros(items, dtype=np.int64)
    for start in range(0, items, step):
        batch = slice(start, start + step)
        free_words = words.take(kept[batch], axis=0)
        sums[batch] = _sum_squared_j(free_words, base[batch], design.rows, k)
    return sums


def filtered_sums(
    design: SignMatrix, keys: Iterable[tuple[int, Sequence[int]]]
) -> list[int]:
    """For each key (s, F), of any order and fixed-set size, with F in any
    order, the sum of J_s(S)^2 over the s-subsets S that contain F (all of
    them when F is empty), read from ``design``'s memo under (s, sorted F).

    The missing keys of each (s, |F|) are enumerated together as one
    :func:`sum_j_squared_batch` call, so each design instance enumerates each
    key once; callers that need many keys pass them in one call.
    """
    memo = design.j_squared_sums
    keys = [(s, tuple(sorted(fixed))) for s, fixed in keys]
    missing: dict[tuple[int, int], dict] = {}
    for s, fixed in keys:
        if (s, fixed) not in memo:
            missing.setdefault((s, len(fixed)), {})[fixed] = None
    for (s, _), group in missing.items():
        sums = sum_j_squared_batch(design, s, [()] * len(group), list(group))
        memo.update(zip([(s, fixed) for fixed in group], sums.tolist()))
    return [memo[key] for key in keys]


def sum_j_squared(design: SignMatrix, s: int) -> int:
    """Exhaustive sum of J_s(S)^2 over all C(q, s) column subsets: the key
    (s, ()) of :func:`filtered_sums`, 0 when s exceeds the column count."""
    if s < 1:
        raise ValueError(f"order s must be at least 1, got {s}")
    return filtered_sums(design, [(s, ())])[0]


def sum_j_squared_filtered(
    design: SignMatrix, s: int, fixed: Iterable[int]
) -> int:
    """Sum of J_s(S)^2 over the s-subsets that contain all ``fixed`` columns:
    the key (s, fixed) of :func:`filtered_sums`, which rejects repeated or
    out-of-range columns."""
    anchor = tuple(fixed)
    if len(anchor) not in (1, 2):
        raise ValueError(f"fixed set must have 1 or 2 columns, got {len(anchor)}")
    if s <= len(anchor):
        raise ValueError(f"order s must exceed the fixed set size, got s={s}")
    return filtered_sums(design, [(s, anchor)])[0]


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
