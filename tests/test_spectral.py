import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ssdopt.spectral
from ssdopt import (
    SignMatrix,
    build_full,
    build_minus_one,
    d_parameter,
    distance_distribution,
    drop_columns,
    filtered_sums,
    gwp_via_krawtchouk,
    hadamard_design,
    krawtchouk,
    sum_j_squared,
    sum_j_squared_filtered,
    sylvester_hadamard,
    to_hadamard_design,
    verdict,
    verify_lemma2,
    verify_theorems,
)
from ssdopt.spectral import _half_fraction_d, d_from_words, sum_j_squared_batch

from _reference import j_characteristic


def krawtchouk_bruteforce(i, j, q):
    """Hamming-scheme oracle: sum of (-1)^|A & B| over all weight-i subsets A,
    with B a fixed weight-j subset of a q-set."""
    fixed = set(range(j))
    return sum(
        (-1) ** len(fixed & set(a)) for a in itertools.combinations(range(q), i)
    )


def j_bruteforce(design, cols):
    return int(np.sum(np.prod(design.entries[:, list(cols)], axis=1)))


def sum_sq_bruteforce(design, s):
    return sum(
        j_bruteforce(design, c) ** 2
        for c in itertools.combinations(range(design.cols), s)
    )


def filtered_bruteforce(design, s, fixed):
    rest = [c for c in range(design.cols) if c not in set(fixed)]
    return sum(
        j_bruteforce(design, tuple(fixed) + extra) ** 2
        for extra in itertools.combinations(rest, s - len(fixed))
    )


def random_sign_matrix(rng, n, q):
    return SignMatrix.with_main_labels(rng.choice([-1, 1], size=(n, q)))


class TestKrawtchouk:
    def test_degree_zero_is_one(self):
        for q in range(1, 12):
            for j in range(q + 1):
                assert krawtchouk(0, j, q) == 1

    def test_against_hamming_scheme_oracle(self):
        for q in range(1, 11):
            for i in range(q + 1):
                for j in range(q + 1):
                    assert krawtchouk(i, j, q) == krawtchouk_bruteforce(i, j, q)

    def test_named_values(self):
        assert krawtchouk(3, 0, 11) == 165
        assert krawtchouk(3, 6, 11) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            krawtchouk(5, 0, 4)
        with pytest.raises(ValueError):
            krawtchouk(1, 7, 4)


from _tables import PROOF_KRAWTCHOUK_FORMS


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_proof_krawtchouk_closed_forms(n):
    for degree, point, offset, value in PROOF_KRAWTCHOUK_FORMS:
        assert krawtchouk(degree, point(n), n - offset) == value(n)


class TestDistanceDistribution:
    def test_saturated_design(self):
        dist = distance_distribution(hadamard_design(12))
        expected = [0] * 12
        expected[0], expected[6] = 1, 11
        assert dist.E == tuple(Fraction(e) for e in expected)

    def test_one_column_dropped(self):
        design, _ = drop_columns(hadamard_design(12), [10])
        dist = distance_distribution(design)
        expected = [0] * 11
        expected[0], expected[5], expected[6] = 1, 6, 5
        assert dist.E == tuple(Fraction(e) for e in expected)

    def test_three_columns_dropped_matches_half_fraction_formulas(self):
        n = 12
        design = hadamard_design(n)
        for combo in itertools.combinations(range(11), 3):
            child, removed = drop_columns(design, combo)
            d = d_parameter(removed.column(0), removed.column(1), removed.column(2))
            dist = distance_distribution(child)
            expected = {
                0: Fraction(1),
                (n - 6) // 2: Fraction(2 * d * (n - 4 * d), n),
                (n - 4) // 2: Fraction(96 * d * d - 24 * d * n + 3 * n * n, 4 * n),
                (n - 2) // 2: Fraction(6 * d * (n - 4 * d), n),
                n // 2: Fraction(8 * d * (4 * d - n) + n * (n - 4), 4 * n),
            }
            for j in range(child.cols + 1):
                assert dist.E[j] == expected.get(j, Fraction(0)), (combo, d, j)

    def test_sums_to_run_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_sign_matrix(rng, 8, 5)
            dist = distance_distribution(m)
            assert sum(dist.E) == 8
            assert dist.E[0] >= 1


class TestJCharacteristic:
    def test_matches_row_product_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_sign_matrix(rng, 12, 6)
            for s in (1, 2, 3, 4):
                for combo in itertools.combinations(range(6), s):
                    assert j_characteristic(m, combo) == j_bruteforce(m, combo)

    def test_balanced_single_column_is_zero(self):
        design = hadamard_design(12)
        for c in range(design.cols):
            assert j_characteristic(design, [c]) == 0

    def test_h4_full_triple(self):
        design = to_hadamard_design(sylvester_hadamard(2))
        assert j_characteristic(design, (0, 1, 2)) == 4

    def test_strength2_pairs_vanish(self):
        design = hadamard_design(12)
        for pair in itertools.combinations(range(design.cols), 2):
            assert j_characteristic(design, pair) == 0

    def test_rejects_bad_subsets(self):
        design = hadamard_design(12)
        with pytest.raises(ValueError):
            j_characteristic(design, [])
        with pytest.raises(ValueError):
            j_characteristic(design, [1, 1])
        with pytest.raises(ValueError):
            j_characteristic(design, [11])

    def test_parity_and_range_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.choice([4, 8, 12]))
            m = random_sign_matrix(rng, n, 5)
            for s in (1, 2, 3, 4, 5):
                for combo in itertools.combinations(range(5), s):
                    value = j_characteristic(m, combo)
                    assert abs(value) <= n and (value - n) % 2 == 0

    def test_regular_design_concentrates_pairwise_triple_sum(self):
        # in a regular design one |J| = n term can carry a whole n^2 sum
        design = hadamard_design(16, "sylvester")
        values = [
            j_characteristic(design, (0, 1, c)) for c in range(2, design.cols)
        ]
        assert sum(v * v for v in values) == 256
        assert sum_j_squared_filtered(design, 3, [0, 1]) == 256
        assert sorted(abs(v) for v in values)[-1] == 16
        assert sum(1 for v in values if v != 0) == 1


class TestSumJSquared:
    def test_matches_bruteforce_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            m = random_sign_matrix(rng, 8, 7)
            for s in range(1, 8):
                assert sum_j_squared(m, s) == sum_sq_bruteforce(m, s)

    def test_saturated_order3(self):
        assert sum_j_squared(hadamard_design(12), 3) == 2640

    def test_one_dropped_order4(self):
        design, _ = drop_columns(hadamard_design(12), [0])
        assert sum_j_squared(design, 4) == 3360

    def test_three_dropped_order3_with_d(self):
        design = hadamard_design(12)
        child, removed = drop_columns(design, [2, 5, 9])
        d = d_parameter(removed.column(0), removed.column(1), removed.column(2))
        assert sum_j_squared(child, 3) == 768 + 16 * d * (12 - 4 * d)

    def test_each_instance_enumerates_an_order_once(self, monkeypatch):
        import ssdopt.spectral

        calls = []
        real_kernel = ssdopt.spectral._sum_squared_j

        def counting_kernel(words, base, n, k):
            calls.append(n)
            return real_kernel(words, base, n, k)

        monkeypatch.setattr(ssdopt.spectral, "_sum_squared_j", counting_kernel)
        design = hadamard_design(12)
        assert sum_j_squared(design, 3) == sum_j_squared(design, 3) == 2640
        assert sum_j_squared(hadamard_design(12), 3) == 2640
        assert calls == [12, 12]

    def test_order_above_columns_is_zero(self):
        design, _ = drop_columns(hadamard_design(12), [0])
        assert sum_j_squared(design, 11) == 0
        with pytest.raises(ValueError):
            sum_j_squared(design, 0)


def deleted_sums(design, deletions, s):
    """The batch's sum for each deletion set, with empty fixed sets."""
    return sum_j_squared_batch(design, s, deletions, [()] * len(deletions)).tolist()


class TestSumJSquaredDeleted:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_equals_the_sum_of_each_child(self, n):
        design = hadamard_design(n)
        for r in range(4):
            deletions = list(itertools.combinations(range(design.cols), r))
            for s in (1, 3, 4, 5):
                expected = [sum_j_squared(drop_columns(design, d)[0], s) for d in deletions]
                assert deleted_sums(design, deletions, s) == expected

    def test_slices_of_the_batch_change_nothing(self, monkeypatch):
        design = random_sign_matrix(np.random.default_rng(5), 10, 8)
        deletions = list(itertools.combinations(range(8), 2))
        expected = deleted_sums(design, deletions, 4)
        monkeypatch.setattr(ssdopt.spectral, "_CHUNK", 7)
        assert deleted_sums(design, deletions, 4) == expected
        assert expected == [
            sum_sq_bruteforce(drop_columns(design, d)[0], 4) for d in deletions
        ]

    def test_rejects_bad_deletion_sets(self):
        design = hadamard_design(8)
        for deletions in ([(0, 0)], [(0, 7)], [(-1,)], [(0,), (1, 2)], [0, 1]):
            with pytest.raises(ValueError):
                deleted_sums(design, deletions, 3)
        with pytest.raises(ValueError):
            sum_j_squared_batch(design, 3, [(0,)], [(0, 2)])
        with pytest.raises(ValueError):
            sum_j_squared_batch(design, 1, [()], [(1, 2)])


class TestSumJSquaredFiltered:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            m = random_sign_matrix(rng, 8, 6)
            for s in (2, 3, 4):
                for fixed in itertools.combinations(range(6), 1):
                    assert sum_j_squared_filtered(m, s, fixed) == filtered_bruteforce(m, s, fixed)
            for s in (3, 4, 5):
                for fixed in itertools.combinations(range(6), 2):
                    assert sum_j_squared_filtered(m, s, fixed) == filtered_bruteforce(m, s, fixed)

    def test_saturated_single_fixed(self):
        assert sum_j_squared_filtered(hadamard_design(12), 3, [0]) == 720

    def test_saturated_pair_fixed(self):
        assert sum_j_squared_filtered(hadamard_design(12), 3, [0, 4]) == 144

    def test_one_dropped_pair_fixed_order4(self):
        design, removed = drop_columns(hadamard_design(12), [10])
        d = d_parameter(removed.column(0), design.column(2), design.column(6))
        assert (
            sum_j_squared_filtered(design, 4, [2, 6])
            == 144 * 8 // 2 - 16 * d * (12 - 4 * d)
        )

    def test_rejects_bad_fixed_sets(self):
        design = hadamard_design(12)
        with pytest.raises(ValueError):
            sum_j_squared_filtered(design, 3, [])
        with pytest.raises(ValueError):
            sum_j_squared_filtered(design, 3, [0, 1, 2])
        with pytest.raises(ValueError):
            sum_j_squared_filtered(design, 2, [0, 1])


def counting_batches(monkeypatch):
    """Patch the batched J entry point to log (order s, fixed set size) per
    call."""
    calls = []
    real_batch = ssdopt.spectral.sum_j_squared_batch

    def batch(design, s, deleted, fixed):
        calls.append((s, np.shape(fixed)[1]))
        return real_batch(design, s, deleted, fixed)

    monkeypatch.setattr(ssdopt.spectral, "sum_j_squared_batch", batch)
    return calls


class TestAnchoredSums:
    """Filtered sums with fixed (anchored) columns, through the memo."""

    def test_saturated_closed_forms(self):
        design = hadamard_design(12)
        singles = [(c,) for c in range(11)]
        pairs = list(itertools.combinations(range(11), 2))
        assert filtered_sums(design, [(3, f) for f in singles]) == [720] * 11
        assert filtered_sums(design, [(4, f) for f in singles]) == [144 * 10 * 8 // 6] * 11
        assert filtered_sums(design, [(3, f) for f in pairs]) == [144] * 55

    def test_each_instance_enumerates_each_table_once(self, monkeypatch):
        calls = counting_batches(monkeypatch)
        design = hadamard_design(12)
        for _ in range(2):
            for s, anchors in itertools.product((3, 4), (1, 2)):
                sets = itertools.combinations(range(11), anchors)
                filtered_sums(design, [(s, f) for f in sets])
        assert sum_j_squared(design, 3) == 2640
        assert calls == [(3, 1), (3, 2), (4, 1), (4, 2), (3, 0)]
        filtered_sums(design, [(3, f) for f in [(4, 2), (0,), (0, 1, 2), (), (2, 4)]])
        assert calls[5:] == [(3, 3)]
        filtered_sums(hadamard_design(12), [(3, (1,))])
        assert calls[6:] == [(3, 1)]

    def test_tables_sum_to_binomial_times_plain_sum(self):
        design, _ = drop_columns(hadamard_design(16), [3])
        for s, anchors in itertools.product((3, 4, 5), (1, 2)):
            sets = itertools.combinations(range(design.cols), anchors)
            total = sum(filtered_sums(design, [(s, f) for f in sets]))
            assert total == math.comb(s, anchors) * sum_j_squared(design, s)

    @pytest.mark.parametrize("anchors", [1, 2])
    def test_corrupted_cell_fails_the_identity(self, monkeypatch, anchors):
        """A wrong sum in a batch of fixed sets fails the verdict's direct
        versus J check of the build that reads it."""
        start, _ = drop_columns(hadamard_design(12), [10])
        real_batch = ssdopt.spectral.sum_j_squared_batch

        def corrupt(design, s, deleted, fixed):
            sums = real_batch(design, s, deleted, fixed)
            if np.shape(fixed)[1] == anchors:
                sums[0] += 4
            return sums

        monkeypatch.setattr(ssdopt.spectral, "sum_j_squared_batch", corrupt)
        delete = start.augmented.labels[0 if anchors == 1 else start.cols]
        with pytest.raises(ArithmeticError, match="routes disagree"):
            verdict(build_minus_one(start, delete))

    def test_identity_uses_an_earlier_plain_sum(self):
        design = hadamard_design(12)
        design.j_squared_sums[3, ()] = 2640 + 1
        assert sum_j_squared(design, 3) == 2641
        with pytest.raises(ArithmeticError, match="routes disagree"):
            verdict(build_full(design))

    def test_tables_are_read_only(self):
        design = hadamard_design(12)
        values = filtered_sums(design, [(3, (0, 1))])
        values[0] = 0
        assert filtered_sums(design, [(3, (1, 0))]) == [144]
        assert all(type(v) is int for v in design.j_squared_sums.values())

    def test_order_above_columns_gives_zero_tables(self):
        design = SignMatrix.with_main_labels(np.ones((4, 3), dtype=np.int8))
        assert filtered_sums(design, [(4, (0,)), (4, (1,)), (4, (2,))]) == [0, 0, 0]
        pairs = itertools.combinations(range(3), 2)
        assert filtered_sums(design, [(5, f) for f in pairs]) == [0] * 3
        assert filtered_sums(design, [(4, ())]) == [0]

    def test_rejects_bad_arguments(self):
        design = hadamard_design(12)
        for s, fixed in ((3, (1, 1)), (3, (0, 11)), (3, (-1,)), (1, (0, 1))):
            with pytest.raises(ValueError):
                filtered_sums(design, [(s, fixed)])
        assert not design.j_squared_sums

    def test_lemma2_reads_no_filtered_sum(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("verify_lemma2 called sum_j_squared_filtered")

        monkeypatch.setattr(ssdopt.spectral, "sum_j_squared_filtered", forbidden)
        monkeypatch.setattr(
            ssdopt.verify, "sum_j_squared_filtered", forbidden, raising=False
        )
        results = verify_lemma2(12)
        assert len(results) == 2332 and all(r.ok for r in results)


class TestTabulatedTerms:
    """The memo answers every filtered term, however it is asked for."""

    def test_tables_answer_every_anchor_set_in_either_order(self, monkeypatch):
        design = random_sign_matrix(np.random.default_rng(11), 12, 7)
        expected = {
            (s, fixed): filtered_bruteforce(design, s, fixed)
            for s, anchors in ((3, 1), (3, 2), (4, 1), (4, 2))
            for fixed in itertools.permutations(range(7), anchors)
        }
        calls = counting_batches(monkeypatch)
        for (s, fixed), value in expected.items():
            assert filtered_sums(design, [(s, fixed), (s, fixed)]) == [value, value]
            if len(fixed) == 2:
                assert sum_j_squared_filtered(design, s, fixed[::-1]) == value
        assert len(calls) == 7 + 21 + 7 + 21
        assert len(design.j_squared_sums) == len(calls)

    def test_untabulated_terms_enumerate_without_tabulating(self):
        design = random_sign_matrix(np.random.default_rng(12), 12, 7)
        for s, fixed in ((4, (5, 2)), (3, (6,))):
            expected = filtered_bruteforce(design, s, sorted(fixed))
            assert sum_j_squared_filtered(design, s, fixed) == expected
        assert set(design.j_squared_sums) == {(4, (2, 5)), (3, (6,))}

    def test_one_call_takes_keys_of_every_order_and_size(self, monkeypatch):
        """Plain, one- and two-column keys of both orders, unsorted and
        repeated, in one call: one batch per distinct (s, |F|), and one memo
        entry per distinct sorted key."""
        design = random_sign_matrix(np.random.default_rng(13), 12, 7)
        keys = [(4, ()), (3, (5,)), (3, ()), (4, (6, 1)), (3, (2, 0)), (4, (1, 6)),
                (3, (5,)), (4, ()), (3, (0, 2)), (4, (3,)), (3, (4,)), (4, (5, 2))]
        calls = counting_batches(monkeypatch)
        values = filtered_sums(design, keys)
        assert values == [filtered_bruteforce(design, s, fixed) for s, fixed in keys]
        assert sorted(calls) == sorted({(s, len(fixed)) for s, fixed in keys})
        sorted_keys = {(s, tuple(sorted(fixed))) for s, fixed in keys}
        assert len(sorted_keys) == 8 and design.j_squared_sums.keys() == sorted_keys

    def test_theorem_verdicts_read_the_start_tables(self, monkeypatch):
        """One batch per (start, order, fixed-set size), all before the
        start's first verdict; no verdict enumerates anything."""
        calls = counting_batches(monkeypatch)
        real_verdict = ssdopt.verify.verdict
        batches_at_verdicts = []

        def watched(build):
            batches_at_verdicts.append(len(calls))
            return real_verdict(build)

        monkeypatch.setattr(ssdopt.verify, "verdict", watched)
        results = verify_theorems(12, cap=0)
        assert results and all(r.ok for r in results)
        fixed = [call for call in calls if call[1]]
        assert fixed == [(3, 1), (3, 2), (4, 2)] * 2 + [(3, 1)]
        assert len(calls) == 13
        # Between two starts' verdicts lie exactly the next start's fills.
        assert sorted(set(batches_at_verdicts)) == [5, 10, 13]


class TestDParameter:
    def test_pure_half_fractions(self):
        minus = np.array([1, 1, -1, -1] * 3)
        a = np.array([1, -1, 1, -1] * 3)
        b = np.array([1, -1, -1, 1] * 3)
        # products a*b*minus all -1
        assert d_parameter(a, b, -a * b) == 0
        assert d_parameter(a, b, a * b) == 3

    def test_exhaustive_removal_triples(self):
        n = 12
        design = hadamard_design(n)
        seen = set()
        for combo in itertools.combinations(range(11), 3):
            child, removed = drop_columns(design, combo)
            d = d_parameter(removed.column(0), removed.column(1), removed.column(2))
            seen.add(d)
            assert 0 <= d <= 3
            expected = 144 * 8 * 4 // 6 + 16 * d * (n - 4 * d)
            assert sum_j_squared(child, 3) == expected
        assert len(seen) > 1

    def test_rejects_non_integral(self):
        odd = np.array([1, 1, 1, -1])
        ones = np.ones(4, dtype=int)
        with pytest.raises(ValueError):
            d_parameter(odd, ones, ones)

    def test_packed_bits_raise_the_same_error(self):
        odd = np.array([1, 1, 1, -1])
        ones = np.ones(4, dtype=int)
        words = SignMatrix.with_main_labels(np.stack([odd, ones, ones], axis=1)).neg_words
        with pytest.raises(ValueError) as direct:
            d_parameter(odd, ones, ones)
        with pytest.raises(ValueError) as packed:
            d_from_words(4, *words)
        assert str(packed.value) == str(direct.value) == (
            "triple does not decompose into half-fraction replicates (J3 = 2 with n = 4)"
        )

    def test_out_of_range_d_is_rejected(self):
        # |J_3| <= n keeps the d of +-1 columns in 0..n/4, so only a J_3 that
        # no triple has reaches this check, which both routes share.
        for j3, d in ((16, 3), (-16, -1)):
            with pytest.raises(ValueError) as raised:
                _half_fraction_d(8, j3)
            assert str(raised.value) == f"d = {d} outside 0..2"

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            d_parameter(np.ones(4), np.ones(4), np.ones(8))
        with pytest.raises(ValueError):
            d_parameter(np.ones(6), np.ones(6), np.ones(6))


class TestGwp:
    def test_strength2_zeroes_first_two_orders(self):
        for n in (12, 16):
            gwp = gwp_via_krawtchouk(hadamard_design(n))
            assert gwp[1] == 0 and gwp[2] == 0

    def test_saturated_order3_and_4(self):
        design = hadamard_design(12)
        gwp = gwp_via_krawtchouk(design)
        assert gwp[3] == Fraction(55, 3)
        assert gwp[4] == Fraction(110, 3)
        # cross-check through the enumeration route
        assert gwp[3] == Fraction(sum_j_squared(design, 3), 144)
        assert gwp[4] == Fraction(sum_j_squared(design, 4), 144)

    def test_identity_enumeration_vs_transform(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            m = random_sign_matrix(rng, 8, 6)
            gwp = gwp_via_krawtchouk(m)
            for s in range(1, 7):
                assert 64 * gwp[s] == sum_j_squared(m, s)


def assert_partition_identities(parent, i0, j0):
    """The subset partitions behind the filtered sums, for s = 3 and 4:

        S_s(q) = S_s(q minus i0) + F_s(q; i0)
        S_s(q) = S_s(q minus i0) + F_s(q; i0, j0) + F_s(q minus j0; i0)
    """
    minus_i0, _ = drop_columns(parent, [i0])
    minus_j0, _ = drop_columns(parent, [j0])
    i0_in_minus_j0 = i0 - 1 if j0 < i0 else i0
    for s in (3, 4):
        total = sum_j_squared(parent, s)
        without = sum_j_squared(minus_i0, s)
        assert total == without + sum_j_squared_filtered(parent, s, [i0]), s
        both = sum_j_squared_filtered(parent, s, [i0, j0])
        shifted = sum_j_squared_filtered(minus_j0, s, [i0_in_minus_j0])
        assert total == without + both + shifted, s


class TestVerifyRecursions:
    def test_saturated_parent(self):
        assert_partition_identities(hadamard_design(12), 3, 0)

    def test_smaller_parent(self):
        parent, _ = drop_columns(hadamard_design(12), [10])
        assert_partition_identities(parent, 0, 1)

    def test_two_distinguished_columns(self):
        assert_partition_identities(hadamard_design(12), 2, 9)
        assert_partition_identities(hadamard_design(12), 9, 2)

    def test_all_column_choices_at_n12(self):
        parent = hadamard_design(12)
        for i0 in range(parent.cols):
            assert_partition_identities(parent, i0, 1 if i0 == 0 else 0)
