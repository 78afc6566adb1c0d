import itertools
import math

import numpy as np
import pytest

from ssdopt import (
    FAMILIES,
    ColumnLabel,
    SignMatrix,
    SsdFamily,
    aliasing_report,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
    design_csv_text,
    drop_columns,
    hadamard_design,
)

BUILDERS = {
    "full": lambda start, removed: build_full(start),
    "minus-one": lambda start, removed: build_minus_one(
        start, ColumnLabel.main(1), removed
    ),
    "interactions-only": lambda start, removed: build_interactions_only(start),
    "single-parent": lambda start, removed: build_single_parent(start, 0, removed),
}


def start_with_removed(n, deficit, drop=None):
    saturated = hadamard_design(n)
    positions = drop if drop is not None else list(range(n - deficit, n - 1))
    return drop_columns(saturated, positions)


def assert_labels_consistent(build):
    """Every interaction column must equal the product of its labeled parents."""
    start = build.start
    by_label = {label: start.column(pos) for pos, label in enumerate(start.labels)}
    for pos, label in enumerate(build.design.labels):
        column = build.design.column(pos)
        if label.is_interaction:
            product = by_label[ColumnLabel.main(label.i)] * by_label[ColumnLabel.main(label.j)]
            assert np.array_equal(column, product), label
        else:
            assert np.array_equal(column, by_label[label]), label


class TestColumnCounts:
    @pytest.mark.parametrize("deficit,m", [(1, 66), (2, 55), (3, 45)])
    def test_full(self, deficit, m):
        start, _ = start_with_removed(12, deficit)
        build = build_full(start)
        q = start.cols
        assert build.design.cols == m == q * (q + 1) // 2
        assert_labels_consistent(build)

    @pytest.mark.parametrize("deficit,m", [(1, 65), (2, 54)])
    def test_minus_one(self, deficit, m):
        start, removed = start_with_removed(12, deficit)
        build = build_minus_one(start, ColumnLabel.main(3), removed)
        assert build.design.cols == m
        assert ColumnLabel.main(3) not in build.design.labels
        assert_labels_consistent(build)

    @pytest.mark.parametrize("deficit,m", [(1, 55), (2, 45), (3, 36)])
    def test_interactions_only(self, deficit, m):
        start, _ = start_with_removed(12, deficit)
        build = build_interactions_only(start)
        q = start.cols
        assert build.design.cols == m == q * (q - 1) // 2
        assert all(lb.is_interaction for lb in build.design.labels)
        assert_labels_consistent(build)

    @pytest.mark.parametrize("deficit,m", [(1, 21), (2, 19), (3, 17)])
    def test_single_parent(self, deficit, m):
        start, removed = start_with_removed(12, deficit)
        build = build_single_parent(start, 0, removed)
        q = start.cols
        assert build.design.cols == m == 2 * q - 1
        interactions = [lb for lb in build.design.labels if lb.is_interaction]
        assert len(interactions) == q - 1
        assert all(lb.i == 1 or lb.j == 1 for lb in interactions)
        assert_labels_consistent(build)


class TestOrderingAndDeterminism:
    def test_mains_then_lexicographic_interactions(self):
        start, _ = start_with_removed(12, 1)
        build = build_full(start)
        labels = build.design.labels
        assert labels[: start.cols] == start.labels
        tail = labels[start.cols :]
        pairs = [(lb.i, lb.j) for lb in tail]
        assert pairs == sorted(pairs)

    def test_full_augmentation_is_built_once_per_start(self):
        start, removed = start_with_removed(12, 1)
        full = build_full(start).design
        assert build_full(start).design is full
        minus = build_minus_one(start, ColumnLabel.interaction(2, 5), removed).design
        assert minus.cols == full.cols - 1

    def test_rebuild_is_byte_identical(self):
        first, removed1 = start_with_removed(12, 2)
        second, removed2 = start_with_removed(12, 2)
        text1 = design_csv_text(build_full(first).design)
        text2 = design_csv_text(build_full(second).design)
        assert text1 == text2
        b1 = build_single_parent(first, 4, removed1)
        b2 = build_single_parent(second, 4, removed2)
        assert design_csv_text(b1.design) == design_csv_text(b2.design)
        assert b1.d == b2.d


class TestPreconditions:
    def test_full_rejects_small_q(self):
        start, _ = start_with_removed(12, 3)
        smaller, _ = drop_columns(start, [0])
        with pytest.raises(ValueError):
            build_full(smaller)

    def test_minus_one_rejects_deficit3(self):
        start, _ = start_with_removed(12, 3)
        with pytest.raises(ValueError):
            build_minus_one(start, ColumnLabel.main(1))

    def test_rejects_non_orthogonal_start(self):
        rng = np.random.default_rng(1)
        junk = SignMatrix.with_main_labels(rng.choice([-1, 1], size=(12, 11)))
        with pytest.raises(ValueError):
            build_full(junk)

    def test_minus_one_rejects_unknown_label(self):
        start, _ = start_with_removed(12, 1)
        with pytest.raises(ValueError):
            build_minus_one(start, ColumnLabel.main(42))

    def test_rejects_interaction_labeled_start(self):
        start, _ = start_with_removed(12, 1)
        labels = start.labels[:-1] + (ColumnLabel.interaction(1, 2),)
        with pytest.raises(ValueError, match="interactions of interaction columns"):
            build_full(SignMatrix(start.entries, labels))

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    @pytest.mark.parametrize("deficit", [1, 2, 3, 4])
    def test_builds_exactly_the_covered_deficits(self, kind, deficit):
        start, removed = start_with_removed(12, deficit)
        if deficit in FAMILIES[kind]:
            assert BUILDERS[kind](start, removed).family.kind == kind
        else:
            with pytest.raises(ValueError, match=f"got n=12, q={12 - deficit}"):
                BUILDERS[kind](start, removed)

    def test_single_parent_rejects_bad_index(self):
        start, _ = start_with_removed(12, 1)
        with pytest.raises(ValueError):
            build_single_parent(start, 11)


class TestDResolution:
    def test_minus_one_interaction_records_d(self):
        start, removed = start_with_removed(12, 2)
        seen = set()
        for i, j in itertools.combinations(range(1, 11), 2):
            build = build_minus_one(start, ColumnLabel.interaction(i, j), removed)
            assert build.d is not None and 0 <= build.d <= 3
            seen.add(build.d)
        assert len(seen) > 1

    def test_minus_one_main_leaves_d_unset(self):
        start, removed = start_with_removed(12, 2)
        build = build_minus_one(start, ColumnLabel.main(2), removed)
        assert build.d is None

    def test_single_parent_records_d_only_at_deficit3(self):
        start3, removed3 = start_with_removed(12, 3)
        assert build_single_parent(start3, 2, removed3).d is not None
        start1, removed1 = start_with_removed(12, 1)
        assert build_single_parent(start1, 2, removed1).d is None

    def test_without_provenance_d_is_none(self):
        start, _ = start_with_removed(12, 3)
        assert build_single_parent(start, 0).d is None


class TestAliasingOfBuilds:
    @pytest.mark.parametrize("n", [12, 20, 24])
    def test_full_augmentation_partially_aliased(self, n):
        for deficit in (1, 2, 3):
            start, _ = start_with_removed(n, deficit)
            assert len(aliasing_report(build_full(start).design)) == 0

    def test_sylvester_16_fully_aliased(self):
        start = hadamard_design(16, "sylvester")
        report = aliasing_report(build_full(start).design)
        assert len(report) > 0


class TestFamilyValidation:
    def test_kind_payload_pairing(self):
        with pytest.raises(ValueError):
            SsdFamily("full", deleted=ColumnLabel.main(1))
        with pytest.raises(ValueError):
            SsdFamily("minus-one")
        with pytest.raises(ValueError):
            SsdFamily("single-parent")
        with pytest.raises(ValueError):
            SsdFamily("bogus")

    def test_supersaturation_guard(self):
        # 4 runs on a 2-column start gives only 3 columns: not supersaturated
        start, _ = drop_columns(hadamard_design(4), [2])
        assert start.rows > start.cols + math.comb(start.cols, 2)
        with pytest.raises(ValueError, match="supersaturated"):
            build_full(start)
