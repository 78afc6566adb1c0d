import itertools
import tracemalloc

import numpy as np
import pytest

import ssdopt.core
from ssdopt import (
    ColumnLabel,
    SignMatrix,
    aliasing_report,
    build_full,
    build_minus_one,
    drop_columns,
    hadamard_design,
    hadamard_matrix,
    normalize,
    paley_hadamard,
    sylvester_hadamard,
    to_hadamard_design,
    verdict,
    verify_oa_strength2,
)

from _reference import aliasing_scan, interaction_column, oa_strength2_loop, pair_columns


def assert_hadamard(matrix):
    n = matrix.rows
    wide = matrix.entries.astype(np.int64)
    assert np.array_equal(wide @ wide.T, n * np.eye(n, dtype=np.int64))


def oa_strength2_bruteforce(entries):
    """Independent checker: count all four sign pairs for every column pair."""
    n, q = entries.shape
    for i, j in itertools.combinations(range(q), 2):
        counts = {}
        for a, b in zip(entries[:, i], entries[:, j]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
        expected = {(s, t): n // 4 for s in (1, -1) for t in (1, -1)}
        if n % 4 != 0 or counts != expected:
            return False
    return True


class TestColumnLabel:
    def test_main_and_interaction_text(self):
        assert str(ColumnLabel.main(3)) == "c3"
        assert str(ColumnLabel.interaction(2, 5)) == "c2*c5"
        assert ColumnLabel.interaction(5, 2) == ColumnLabel.interaction(2, 5)

    def test_parse_roundtrip(self):
        for text in ("c1", "c12", "c3*c9"):
            assert str(ColumnLabel.parse(text)) == text

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            ColumnLabel.parse("x3")
        with pytest.raises(ValueError):
            ColumnLabel.interaction(4, 4)
        with pytest.raises(ValueError):
            ColumnLabel(3, 2)
        with pytest.raises(ValueError):
            ColumnLabel(0)
        with pytest.raises(ValueError):
            ColumnLabel(2**63)
        with pytest.raises(ValueError):
            ColumnLabel(1, 2**63)


class TestSignMatrix:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            SignMatrix.with_main_labels(np.array([[1, 0], [1, -1]]))
        with pytest.raises(ValueError):
            SignMatrix.with_main_labels(np.array([[1.5, 1.0], [1.0, -1.0]]))

    def test_rejects_duplicate_labels(self):
        entries = np.array([[1, -1], [-1, 1]])
        with pytest.raises(ValueError):
            SignMatrix(entries, (ColumnLabel.main(1), ColumnLabel.main(1)))

    def test_one_interaction_column_augments_to_itself(self):
        design = SignMatrix(np.ones((4, 1)), [ColumnLabel(1, 2)])
        full = design.augmented
        assert full.cols == 1 and full.label_position(ColumnLabel(1, 2)) == 0
        with pytest.raises(ValueError, match="no column labeled c1$"):
            full.label_position(ColumnLabel.main(1))

    def test_entries_are_immutable(self):
        m = sylvester_hadamard(2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = -1

    def test_neg_words_match_entries(self):
        m = hadamard_design(12)
        for c in range(m.cols):
            for r in range(m.rows):
                bit = (int(m.neg_words[c, r // 64]) >> (r % 64)) & 1
                assert bit == (1 if m.entries[r, c] == -1 else 0)


class TestRowGram:
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n", [1, 7, 64, 130])
    def test_packed_equals_int64_matmul(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        design = SignMatrix.with_main_labels(rng.choice([-1, 1], size=(n, m)))
        wide = design.entries.astype(np.int64)
        assert np.array_equal(design.row_gram(), wide @ wide.T)

    def test_row_blocks_cover_every_row(self, monkeypatch):
        import ssdopt.core

        design = SignMatrix.with_main_labels(
            np.random.default_rng(3).choice([-1, 1], size=(130, 130))
        )
        expected = design.row_gram()
        # Three words per row, so each block holds a single row.
        monkeypatch.setattr(ssdopt.core, "_GRAM_WORDS", 130 * 3)
        assert np.array_equal(design.row_gram(), expected)


class TestTake:
    def test_equals_a_validated_selection(self):
        design = build_full(hadamard_design(12)).design
        positions = [60, 0, 13, 65, 11]
        taken = design.take(positions)
        validated = SignMatrix(
            design.entries[:, positions], tuple(design.labels[p] for p in positions)
        )
        assert np.array_equal(taken.entries, validated.entries)
        assert taken.entries.dtype == validated.entries.dtype
        assert taken.labels == validated.labels
        assert taken.label_position(design.labels[13]) == 2

    def test_entries_are_read_only(self):
        taken = hadamard_design(12).take([1, 2])
        with pytest.raises(ValueError):
            taken.entries[0, 0] = -1

    def test_empty_selection(self):
        taken = hadamard_design(12).take([])
        assert taken.entries.shape == (12, 0) and taken.labels == ()


def _fresh(design, positions):
    """The columns at ``positions`` as a newly constructed, validated design."""
    return SignMatrix(design.entries[:, positions], tuple(design.labels[p] for p in positions))


class TestWithout:
    @pytest.mark.parametrize(
        "n, construction", [(12, "auto"), (16, "sylvester"), (20, "auto"), (24, "auto")]
    )
    @pytest.mark.parametrize("deficit", [1, 2])
    def test_every_deletion_equals_take_and_a_fresh_total(self, n, construction, deficit):
        saturated = hadamard_design(n, construction)
        full = build_full(drop_columns(saturated, range(n - deficit, n - 1))[0]).design
        for pos in range(full.cols):
            rest = [*range(pos), *range(pos + 1, full.cols)]
            downdated, taken = full.without(pos), full.take(rest)
            assert np.array_equal(downdated.entries, taken.entries)
            assert downdated.entries.dtype == taken.entries.dtype
            assert downdated.labels == taken.labels
            assert downdated.gram_square_sum == _fresh(full, rest).gram_square_sum

    def test_entries_are_read_only_and_the_parent_is_unchanged(self):
        full = build_full(hadamard_design(12)).design
        before = full.entries.copy()
        downdated = full.without(0)
        with pytest.raises(ValueError):
            downdated.entries[0, 0] = -1
        assert np.array_equal(full.entries, before) and full.cols == 66

    @pytest.mark.parametrize("pos", [-1, 11])
    def test_rejects_a_position_out_of_range(self, pos):
        with pytest.raises(ValueError, match="out of range for 11 columns"):
            hadamard_design(12).without(pos)

    def test_allocates_less_than_an_entry_array(self):
        """With the parent's squared Gram total warm, a deletion at n = 64 full
        (m = 2016) allocates less than one byte per entry: no n x m copy."""
        full = build_full(hadamard_design(64)).design
        full.gram_square_sum
        tracemalloc.start()
        try:
            full.without(100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full.rows * full.cols == 129_024

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("delete", [ColumnLabel.main(3), ColumnLabel.interaction(1, 2)])
    def test_a_minus_one_verdict_never_unpacks_its_design(self, n, delete):
        build = build_minus_one(hadamard_design(n), delete)
        verdict(build)
        assert "entries" not in build.design.__dict__


class TestSylvester:
    def test_base_case(self):
        m = sylvester_hadamard(1)
        assert np.array_equal(m.entries, np.array([[1, 1], [1, -1]]))

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_orthogonality_by_direct_multiplication(self, k):
        m = sylvester_hadamard(k)
        assert m.rows == m.cols == 2**k
        assert_hadamard(m)
        assert np.all(m.entries[0] == 1)
        assert np.all(m.entries[:, 0] == 1)

    def test_size_overflow(self):
        with pytest.raises(ValueError):
            sylvester_hadamard(7)
        with pytest.raises(ValueError):
            sylvester_hadamard(0)


class TestPaley:
    @pytest.mark.parametrize(
        "p,order", [(3, 4), (11, 12), (19, 20), (23, 24), (5, 12), (13, 28)]
    )
    def test_orders_and_orthogonality(self, p, order):
        m = paley_hadamard(p)
        assert m.rows == order
        assert_hadamard(m)
        assert np.all(m.entries[0] == 1)
        assert np.all(m.entries[:, 0] == 1)

    def test_rejects_composite_even_and_oversize(self):
        with pytest.raises(ValueError):
            paley_hadamard(9)
        with pytest.raises(ValueError):
            paley_hadamard(2)
        with pytest.raises(ValueError):
            paley_hadamard(67)


class TestNormalize:
    def test_idempotent(self):
        h4 = sylvester_hadamard(2)
        again = normalize(h4)
        assert np.array_equal(again.entries, h4.entries)

    def test_row_negation_is_involutive(self):
        h4 = sylvester_hadamard(2)
        flipped = h4.entries.copy()
        flipped[1, :] *= -1
        restored = normalize(SignMatrix(flipped, h4.labels))
        assert np.array_equal(restored.entries, h4.entries)

    def test_postcondition_on_paley(self):
        raw = paley_hadamard(11)
        m = normalize(raw)
        assert_hadamard(m)
        assert np.all(m.entries[0] == 1)
        assert np.all(m.entries[:, 0] == 1)

    def test_rejects_non_hadamard(self):
        bad = SignMatrix.with_main_labels(np.ones((4, 4), dtype=int))
        with pytest.raises(ValueError):
            normalize(bad)


def _constructions(names=("sylvester", "paley")):
    """Every (order, construction) of order at most 64 that a construction
    in ``names`` reaches."""
    for n, construction in itertools.product(range(4, 65, 4), names):
        try:
            hadamard_matrix(n, construction)
        except ValueError:
            continue
        yield n, construction


class TestHadamardCheck:
    @pytest.mark.parametrize(
        "matrix", [hadamard_matrix(n, c) for n, c in _constructions()],
        ids=lambda m: f"n{m.rows}",
    )
    def test_popcount_check_equals_int64_product(self, matrix):
        """_is_hadamard agrees with H H^T == nI in int64 on each constructed
        matrix and on it with any one entry flipped, which normalize and
        to_hadamard_design reject, as to_hadamard_design rejects the matrix
        with its first column negated."""
        n, entries = matrix.rows, matrix.entries

        def reference(entries):
            wide = entries.astype(np.int64)
            return bool(np.array_equal(wide @ wide.T, n * np.eye(n, dtype=np.int64)))

        assert ssdopt.core._is_hadamard(entries) is reference(entries) is True
        corners = [(0, 0), (n - 1, n - 1)]
        for r, c in [*corners, *np.random.default_rng(n).integers(n, size=(4, 2))]:
            flipped = entries.copy()
            flipped[r, c] *= -1
            assert ssdopt.core._is_hadamard(flipped) is reference(flipped) is False
            for convert in (normalize, to_hadamard_design):
                with pytest.raises(ValueError, match="not a Hadamard matrix"):
                    convert(SignMatrix(flipped, matrix.factors))
        unnormalized = entries.copy()
        unnormalized[:, 0] *= -1
        with pytest.raises(ValueError, match="normalize the matrix first"):
            to_hadamard_design(SignMatrix(unnormalized, matrix.factors))

    @pytest.mark.parametrize("n", [12, 16, 64])
    def test_hadamard_design_checks_once(self, n, monkeypatch):
        """One Hadamard check and one SignMatrix validation, of the raw
        construction, per hadamard_design call."""
        calls, real = [], ssdopt.core._is_hadamard
        monkeypatch.setattr(ssdopt.core, "_is_hadamard", lambda e: calls.append(e) or real(e))
        inits, init = [], SignMatrix.__init__
        monkeypatch.setattr(
            SignMatrix, "__init__", lambda self, *a: inits.append(a) or init(self, *a)
        )
        hadamard_design(n)
        assert len(calls) == len(inits) == 1

    @pytest.mark.parametrize("n, construction", _constructions(("auto", "sylvester", "paley")))
    def test_hadamard_design_is_the_stripped_matrix(self, n, construction):
        design = hadamard_design(n, construction)
        expected = to_hadamard_design(hadamard_matrix(n, construction))
        assert np.array_equal(design.entries, expected.entries)
        assert design.entries.dtype == expected.entries.dtype == np.int8
        assert design.label_names == expected.label_names
        assert design.label_names == tuple(f"c{i}" for i in range(1, n))

    def test_to_hadamard_design_rejects_non_hadamard(self):
        entries = sylvester_hadamard(3).entries.copy()
        entries[2, 5] *= -1
        with pytest.raises(ValueError, match="not a Hadamard matrix"):
            to_hadamard_design(SignMatrix.with_main_labels(entries))


class TestHadamardDesign:
    def test_h4_columns_balanced(self):
        design = to_hadamard_design(sylvester_hadamard(2))
        assert design.rows == 4 and design.cols == 3
        assert np.all(design.entries.sum(axis=0) == 0)
        assert design.labels == tuple(ColumnLabel.main(i) for i in (1, 2, 3))

    @pytest.mark.parametrize("n", [12, 24])
    def test_strength2_postcondition(self, n):
        design = hadamard_design(n)
        assert design.cols == n - 1
        assert verify_oa_strength2(design)
        assert oa_strength2_bruteforce(design.entries)

    def test_rejects_unnormalized(self):
        h = sylvester_hadamard(2)
        flipped = h.entries.copy()
        flipped[:, 0] *= -1
        with pytest.raises(ValueError):
            to_hadamard_design(SignMatrix(flipped, h.labels))

    def test_constructions_for_grid(self):
        for n, construction in ((12, "paley"), (16, "sylvester"), (20, "paley"), (24, "paley")):
            assert hadamard_design(n, construction).cols == n - 1
        with pytest.raises(ValueError):
            hadamard_matrix(6)
        with pytest.raises(ValueError):
            hadamard_matrix(16, "paley")
        with pytest.raises(ValueError):
            hadamard_matrix(12, "sylvester")


class TestDropColumns:
    def test_empty_drop_is_identity(self):
        design = hadamard_design(12)
        kept, removed = drop_columns(design, [])
        assert np.array_equal(kept.entries, design.entries)
        assert kept.labels == design.labels
        assert removed.cols == 0

    def test_drops_preserve_strength2(self):
        design = hadamard_design(12)
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(design.cols), size):
                kept, removed = drop_columns(design, combo)
                assert kept.cols == design.cols - size
                assert verify_oa_strength2(kept)
                assert removed.labels == tuple(design.labels[c] for c in combo)

    def test_label_provenance_survives(self):
        design = hadamard_design(12)
        kept, removed = drop_columns(design, [1, 5])
        assert removed.labels == (ColumnLabel.main(2), ColumnLabel.main(6))
        assert ColumnLabel.main(2) not in kept.labels

    def test_rejects_bad_indices(self):
        design = hadamard_design(12)
        for indices in ([11], [-1], [3, 3], [0, 11, 2], [2, 5, 2]):
            with pytest.raises(ValueError):
                drop_columns(design, indices)


class TestInteractionColumn:
    def test_rejects_same_column(self):
        design = hadamard_design(12)
        with pytest.raises(ValueError):
            interaction_column(design, 4, 4)

    def test_entrywise_product(self):
        entries = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        design = SignMatrix.with_main_labels(entries)
        vec, label = interaction_column(design, 0, 1)
        assert np.array_equal(vec, np.array([1, -1, -1, 1]))
        assert label == ColumnLabel.interaction(1, 2)

    def test_h4_design_third_column_is_product(self):
        design = to_hadamard_design(sylvester_hadamard(2))
        vec, _ = interaction_column(design, 0, 1)
        assert np.array_equal(vec, design.column(2))

    def test_commutative(self):
        design = hadamard_design(12)
        v1, l1 = interaction_column(design, 2, 7)
        v2, l2 = interaction_column(design, 7, 2)
        assert np.array_equal(v1, v2) and l1 == l2
        assert set(np.unique(v1)) <= {-1, 1}


class TestVerifyOaStrength2:
    def test_hadamard_design_true(self):
        assert verify_oa_strength2(to_hadamard_design(sylvester_hadamard(2)))

    def test_duplicated_column_false(self):
        design = hadamard_design(12)
        doubled = np.hstack([design.entries, design.entries[:, :1]])
        labels = design.labels + (ColumnLabel.main(99),)
        assert not verify_oa_strength2(SignMatrix(doubled, labels))

    def test_unbalanced_false(self):
        entries = np.array([[1, 1], [1, -1], [1, 1], [1, -1]])
        assert not verify_oa_strength2(SignMatrix.with_main_labels(entries))

    @pytest.mark.parametrize(
        "columns, expected",
        [
            # one unbalanced column: no pair to test
            ([[1, 1, 1, -1, 1]], True),
            # balanced but not orthogonal (inner product 4)
            ([[1, 1, -1, -1, 1, -1, 1, -1], [1, 1, -1, -1, -1, -1, 1, 1]], False),
            # balanced, n = 6 is not a multiple of 4, so never orthogonal
            ([[1, 1, 1, -1, -1, -1], [1, -1, 1, -1, 1, -1]], False),
            # balanced and orthogonal
            ([[1, 1, -1, -1], [1, -1, 1, -1]], True),
        ],
    )
    def test_examples_match_pair_count_loop(self, columns, expected):
        design = SignMatrix.with_main_labels(np.array(columns).T)
        assert verify_oa_strength2(design) == oa_strength2_loop(design) == expected

    def test_matches_bruteforce_on_random_matrices(self):
        rng = np.random.default_rng(20240811)
        for _ in range(25):
            entries = rng.choice([-1, 1], size=(8, 5))
            m = SignMatrix.with_main_labels(entries)
            assert verify_oa_strength2(m) == oa_strength2_bruteforce(entries)


class TestAliasingReport:
    def test_column_and_negation_detected(self):
        design = hadamard_design(12)
        doubled = np.hstack([design.entries, -design.entries[:, :1]])
        labels = design.labels + (ColumnLabel.main(99),)
        report = aliasing_report(SignMatrix(doubled, labels))
        assert len(report) == 1
        assert (report.i.tolist(), report.j.tolist()) == ([0], [11])
        assert report.inner.tolist() == [-12]
        assert report.names == tuple(str(label) for label in labels)

    def test_no_aliased_pairs(self):
        design = hadamard_design(12)
        report = aliasing_report(design)
        assert len(report) == 0 and not report
        assert pair_columns(report) == ([], [], [], tuple(f"c{c}" for c in range(1, 12)))

    def test_all_columns_equal_form_one_group(self):
        column = np.array([1, -1, -1, 1, -1, 1], dtype=np.int8)
        design = SignMatrix.with_main_labels(np.tile(column[:, None], (1, 5)))
        report = aliasing_report(design)
        pairs = list(itertools.combinations(range(5), 2))
        assert pair_columns(report) == (
            [i for i, _ in pairs], [j for _, j in pairs], [6] * 10, ("c1", "c2", "c3", "c4", "c5")
        )
        assert pair_columns(report) == pair_columns(aliasing_scan(design))

    def test_keys_spanning_several_bytes(self):
        # n = 130 packs each key into 17 bytes; the third column differs
        # from the first only in the last run, which lands in the last byte.
        rng = np.random.default_rng(130)
        first = rng.choice(np.array([-1, 1], dtype=np.int8), size=130)
        near = first.copy()
        near[-1] = -near[-1]
        design = SignMatrix.with_main_labels(np.stack([first, -first, near], axis=1))
        report = aliasing_report(design)
        assert pair_columns(report) == ([0], [1], [-130], ("c1", "c2", "c3"))
        assert pair_columns(report) == pair_columns(aliasing_scan(design))

    def test_sylvester_16_full_groups_of_eight(self):
        # Every interaction of a Sylvester design equals a main column up to
        # sign: 15 groups of 8 equal columns give 15 * C(8, 2) pairs.
        design = build_full(hadamard_design(16, "sylvester")).design
        report = aliasing_report(design)
        assert len(report) == 15 * 28
        assert pair_columns(report) == pair_columns(aliasing_scan(design))
        groups = {}
        for i, j in zip(report.i.tolist(), report.j.tolist()):
            groups.setdefault(i, set()).add(j)
        assert sorted(len(g) for i, g in groups.items() if i < 15) == [7] * 15

    def test_inner_product_parity_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.choice([6, 8, 12]))
            entries = rng.choice([-1, 1], size=(n, 4))
            g = SignMatrix.with_main_labels(entries).gram()
            for i, j in itertools.combinations(range(4), 2):
                assert (int(g[i, j]) - n) % 2 == 0
