import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from ssdopt import (
    FAMILIES,
    ColumnLabel,
    D_of,
    SignMatrix,
    SsdBuild,
    SsdFamily,
    bound_details,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
    decompose_m,
    drop_columns,
    es2_closed_form,
    es2_direct,
    es2_via_j,
    hadamard_design,
    lower_bound,
    verdict,
)


def start_with_removed(n, deficit):
    saturated = hadamard_design(n)
    return drop_columns(saturated, list(range(n - deficit, n - 1)))


def decompose_bruteforce(n, m):
    found = set()
    for a in range(1, m + n):
        for r in range(n // 2 + 1):
            if a * (n - 1) + r == m:
                found.add((a, r, 1))
            if r > 0 and a * (n - 1) - r == m:
                found.add((a, r, -1))
    # r = 0 is canonical with positive sign
    return found


class TestEs2Direct:
    def test_orthogonal_columns_give_zero(self):
        design, _ = drop_columns(hadamard_design(12), [10])
        assert es2_direct(design) == 0

    def test_full_augmentation_value(self):
        start, _ = start_with_removed(12, 1)
        assert es2_direct(build_full(start).design) == Fraction(144, 13)

    def test_interactions_only_value(self):
        start, _ = start_with_removed(12, 3)
        assert es2_direct(build_interactions_only(start).design) == Fraction(48, 5)

    def test_needs_two_columns(self):
        one = SignMatrix.with_main_labels(np.ones((4, 1), dtype=int))
        with pytest.raises(ValueError):
            es2_direct(one)

    def test_matches_pair_sum_definition(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            entries = rng.choice([-1, 1], size=(8, 6))
            design = SignMatrix.with_main_labels(entries)
            total = 0
            for i, j in itertools.combinations(range(6), 2):
                total += int(np.dot(entries[:, i], entries[:, j])) ** 2
            assert es2_direct(design) == Fraction(2 * total, 6 * 5)


class TestEs2ViaJ:
    def test_agrees_with_direct_for_every_family(self):
        for deficit in (1, 2, 3):
            start, removed = start_with_removed(12, deficit)
            builds = [build_full(start), build_interactions_only(start)]
            builds += [build_single_parent(start, p, removed) for p in (0, start.cols - 1)]
            if deficit <= 2:
                builds.append(build_minus_one(start, ColumnLabel.main(1), removed))
                builds.append(
                    build_minus_one(start, ColumnLabel.interaction(1, 2), removed)
                )
            for build in builds:
                assert es2_via_j(build) == es2_direct(build.design), build.family

    @pytest.mark.parametrize("deficit", [1, 2])
    def test_every_minus_one_label_matches_closed_form(self, deficit):
        start, removed = start_with_removed(12, deficit)
        labels = build_full(start).design.labels
        assert len(labels) == {1: 66, 2: 55}[deficit]
        for label in labels:
            build = build_minus_one(start, label, removed)
            closed = es2_closed_form(build.family, 12, start.cols, build.d)
            assert es2_via_j(build) == es2_direct(build.design) == closed, label


class TestClosedForms:
    def test_full_cells(self):
        assert es2_closed_form(SsdFamily.full(), 12, 11) == Fraction(144, 13)
        assert es2_closed_form(SsdFamily.full(), 12, 10) == Fraction(32, 3)
        assert es2_closed_form(SsdFamily.full(), 12, 9) == Fraction(112, 11)

    def test_single_parent_cells(self):
        assert es2_closed_form(SsdFamily.single_parent(0), 12, 11) == Fraction(48, 7)
        with pytest.raises(ValueError):
            es2_closed_form(SsdFamily.single_parent(0), 12, 9)  # d missing
        value = es2_closed_form(SsdFamily.single_parent(0), 12, 9, d=1)
        assert value == Fraction(1728 - 576 - 384 + 128, 17 * 8)

    def test_uncovered_cells_rejected(self):
        with pytest.raises(ValueError):
            es2_closed_form(SsdFamily.minus_one(ColumnLabel.main(1)), 12, 9)
        with pytest.raises(ValueError):
            es2_closed_form(SsdFamily.full(), 12, 8)


class TestDecomposeM:
    def test_named_cases(self):
        assert [(d.a, d.r, d.sign) for d in decompose_m(12, 66)] == [(6, 0, 1)]
        assert [(d.a, d.r, d.sign) for d in decompose_m(12, 45)] == [(4, 1, 1)]
        assert [(d.a, d.r, d.sign) for d in decompose_m(12, 36)] == [(3, 3, 1)]

    def test_matches_bruteforce_and_reconstructs(self):
        for n in (12, 16):
            for m in range(1, 90):
                found = decompose_m(n, m)
                assert {(d.a, d.r, d.sign) for d in found} == decompose_bruteforce(n, m)
                assert len(found) <= 2
                for dec in found:
                    assert dec.a * (n - 1) + dec.sign * dec.r == m
                if len(found) == 2:
                    assert found[0].r < found[1].r

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decompose_m(10, 20)
        with pytest.raises(ValueError):
            decompose_m(12, 0)


class TestDOf:
    @pytest.mark.parametrize("r,value", [(0, 0), (1, 11), (2, 20), (3, 19), (4, 16), (5, 19), (6, 20)])
    def test_piecewise_table(self, r, value):
        assert D_of(12, r) == value

    def test_range_check(self):
        with pytest.raises(ValueError):
            D_of(12, 7)


class TestLowerBound:
    def test_named_values(self):
        assert lower_bound(12, 66) == Fraction(144, 13)
        assert lower_bound(12, 21) == Fraction(48, 7)
        assert lower_bound(12, 17) == Fraction(96, 17)

    def test_rejects_when_no_decomposition(self):
        with pytest.raises(ValueError):
            lower_bound(12, 4)

    def test_equals_formula_for_every_decomposition(self):
        # independent restatement of the bound formula; also shows the two
        # boundary decompositions always give the same value
        def formula(n, m, dec):
            return Fraction(n * n * (m - n + 1), (n - 1) * (m - 1)) + Fraction(
                n, m * (m - 1)
            ) * (dec.D - Fraction(dec.r * dec.r, n - 1))

        for n in (12, 16, 20, 24):
            for m in range(5, 3 * n):
                decs = decompose_m(n, m)
                if not decs:
                    continue
                values = {formula(n, m, dec) for dec in decs}
                assert lower_bound(n, m) == max(values)
                if len(decs) == 2:
                    assert len(values) == 1

    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_paper_displayed_forms(self, n):
        cases = [
            (n * (n - 1) // 2, Fraction(n * n, n + 1)),
            ((n - 2) * (n - 1) // 2, Fraction(n * (n - 4), n - 3)),
            ((n - 3) * (n - 2) // 2, Fraction(n * n * (n - 5), (n - 3) * (n - 1))),
            (n * (n - 1) // 2 - 1, Fraction(n * n, n + 1)),
            ((n - 2) * (n - 1) // 2 - 1, Fraction(n * (n - 4), n - 3)),
            ((n - 2) * (n - 3) // 2, Fraction(n * n * (n - 5), (n - 1) * (n - 3))),
            ((n - 3) * (n - 4) // 2,
             Fraction(n * (n**3 - 13 * n**2 + 48 * n - 32), (n - 3) * (n - 4) * (n - 5))),
            (2 * (n - 1) - 1, Fraction(n * n, 2 * n - 3)),
            (2 * (n - 2) - 1, Fraction(n * (n**2 - 5 * n + 8), (2 * n - 5) * (n - 3))),
            (2 * (n - 3) - 1, Fraction(n * (n - 4), 2 * n - 7)),
        ]
        for m, expected in cases:
            assert lower_bound(n, m) == expected, m


class TestVerdict:
    def test_full_on_deficit3_is_optimal(self):
        start, _ = start_with_removed(12, 3)
        report = verdict(build_full(start))
        assert report.optimal and report.gap == 0
        assert report.es2 == Fraction(112, 11)

    def test_single_parent_deficit2_gap(self):
        start, removed = start_with_removed(12, 2)
        report = verdict(build_single_parent(start, 0, removed))
        assert report.gap == Fraction(16, 57)
        assert not report.optimal

    def test_interactions_only_deficit3_gap(self):
        start, _ = start_with_removed(12, 3)
        report = verdict(build_interactions_only(start))
        assert report.gap == Fraction(8, 105)
        assert not report.optimal

    def test_claims_are_recorded_in_order(self):
        start, removed = start_with_removed(12, 2)
        report = verdict(build_single_parent(start, 0, removed))
        assert [claim.name for claim in report.claims] == ["es2", "lb", "gap", "optimal"]
        assert all(claim.ok for claim in report.claims)
        assert report.claims[2] == ("gap", Fraction(16, 57), report.gap)
        assert report.claims[3] == ("optimal", False, False)

    def test_a_wrong_cell_claim_is_recorded_not_raised(self, monkeypatch):
        cell = FAMILIES["full"][1]
        monkeypatch.setitem(
            FAMILIES["full"], 1, dataclasses.replace(cell, bound=lambda n: cell.bound(n) + 1)
        )
        report = verdict(build_full(hadamard_design(12)))
        assert [claim.name for claim in report.claims if not claim.ok] == ["lb"]
        assert report.claims[1] == ("lb", Fraction(144, 13) + 1, Fraction(144, 13))

    def test_aliasing_surfaces_in_notes(self):
        start = hadamard_design(16, "sylvester")
        report = verdict(build_full(start))
        assert report.aliased
        assert "fully aliased" in report.notes
        clean = verdict(build_full(hadamard_design(12)))
        assert not clean.aliased
        assert "partially aliased" in clean.notes

    def test_single_parent_value_varies_with_d(self):
        # at n = 16 the removed-triple d takes values with different
        # 16d(n-4d), so the q = n-3 single-parent value must move with it
        n = 16
        saturated = hadamard_design(n, "sylvester")
        seen = {}
        for pair in itertools.combinations(range(n - 1), 2):
            start, removed = drop_columns(saturated, pair)
            build = build_single_parent(start, 0, removed)
            report = verdict(build)
            expected = Fraction(
                n**3 - 4 * n**2 - 32 * n * build.d + 128 * build.d**2,
                (2 * n - 7) * (n - 4),
            )
            assert report.es2 == expected
            seen[build.d] = report.es2
        assert len(set(seen.values())) >= 2

    def test_smallest_supersaturated_case(self):
        # q = 3 start: no order-4 subsets exist, the J route must still agree
        report = verdict(build_full(hadamard_design(4)))
        assert report.es2 == Fraction(16, 5)
        assert report.optimal

    def test_single_parent_without_d_notes_the_missing_d(self):
        # q = n - 3 is covered, but without ``removed`` the build has no d
        start, _ = drop_columns(hadamard_design(12), [9, 10])
        report = verdict(build_single_parent(start, 0))
        assert report.d is None
        assert report.notes.startswith(
            "the closed form of this cell needs d, which was not recorded;"
        )
        assert "no closed form covers" not in report.notes
        assert report.claims == ()

    def test_uncovered_deficit_keeps_its_note(self):
        # no theorem covers the full augmentation at q = n - 4, so only a
        # hand-made build reaches the verdict there
        start, _ = start_with_removed(12, 4)
        terms = ((6, 3, ()), (6, 4, ()))
        build = SsdBuild(start.augmented, start, SsdFamily.full(), terms)
        report = verdict(build)
        assert report.notes.startswith("no closed form covers this cell;")
        assert report.claims == ()
        assert report.es2 == es2_direct(start.augmented)

    def test_gap_never_negative_across_families(self):
        for n in (12, 16):
            for deficit in (1, 2, 3):
                saturated = hadamard_design(n)
                start, removed = drop_columns(
                    saturated, list(range(n - deficit, n - 1))
                )
                for build in (
                    build_full(start),
                    build_interactions_only(start),
                    build_single_parent(start, 0, removed),
                ):
                    report = verdict(build)
                    assert report.gap >= 0
                    assert report.es2 >= report.lower_bound


def _columns(kind, q):
    """Column count of a family's design on a q-column start."""
    return {
        "full": q * (q + 1) // 2,
        "minus-one": q * (q + 1) // 2 - 1,
        "interactions-only": q * (q - 1) // 2,
        "single-parent": 2 * q - 1,
    }[kind]


def test_every_cell_meets_its_displayed_bound_and_gap_up_to_n_2000():
    # The finite part of the theorem algebra: for every cell and every
    # n = 8, 12, ..., 2000 (and every d = 0..n/4 where the cell uses d), the
    # bound the cell displays is the sharp bound at its column count, and
    # E(s^2) - bound is the gap it displays.
    evaluations = 0
    for kind, cells in FAMILIES.items():
        for deficit, cell in cells.items():
            uses_d = (kind, deficit) == ("single-parent", 3)
            for n in range(8, 2001, 4):
                bound = cell.bound(n)
                m = _columns(kind, n - deficit)
                assert bound_details(n, m)[2] == bound, (kind, deficit, n)
                for d in range(n // 4 + 1) if uses_d else (None,):
                    assert cell.es2(n, d) - bound == cell.gap(n, d), (kind, deficit, n, d)
                    evaluations += 1
    assert evaluations == 130_738
