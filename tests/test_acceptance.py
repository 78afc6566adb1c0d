"""Acceptance suite.

Each test covers one acceptance criterion, runs it at its stated tolerance
(exact rational equality unless the criterion says otherwise), and prints one
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from _tables import PROOF_KRAWTCHOUK_FORMS
from ssdopt import (
    ColumnLabel,
    SignMatrix,
    aliasing_report,
    build_full,
    build_interactions_only,
    build_minus_one,
    build_single_parent,
    design_csv_text,
    drop_columns,
    es2_direct,
    gwp_via_krawtchouk,
    hadamard_design,
    json_text,
    krawtchouk,
    lower_bound,
    parse_design_csv,
    report_json,
    sum_j_squared,
    verdict,
    verify_lemma1,
    verify_lemma2,
)


def _report(number, title, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number:02d} [{title}]: {status}")
    assert not failures, f"{title}: {len(failures)} failure(s), first: {failures[0]}"


def start_with_removed(n, deficit, construction="auto", drop=None):
    saturated = hadamard_design(n, construction)
    positions = drop if drop is not None else list(range(n - deficit, n - 1))
    return drop_columns(saturated, positions)


def test_criterion_01_theorem1_reproduction():
    failures = []
    expected = {
        1: lambda n: Fraction(n * n, n + 1),
        2: lambda n: Fraction(n * (n - 4), n - 3),
        3: lambda n: Fraction(n * n * (n - 5), (n - 3) * (n - 1)),
    }
    for n in (12, 20, 24):
        for deficit in (1, 2, 3):
            start, _ = start_with_removed(n, deficit)
            rep = verdict(build_full(start))
            want = expected[deficit](n)
            if not (rep.es2 == want == rep.lower_bound and rep.gap == 0 and rep.optimal):
                failures.append(f"n={n} q=n-{deficit}: es2={rep.es2}, lb={rep.lower_bound}")
    if expected[1](12) != Fraction(144, 13) or expected[2](12) != Fraction(32, 3) \
            or expected[3](12) != Fraction(112, 11):
        failures.append("n=12 reference values drifted")
    _report(1, "Full augmentation meets the bound at q = n-1, n-2, n-3", failures)


def test_criterion_02_theorem2_reproduction():
    failures = []
    n = 12
    for deficit in (1, 2):
        start, removed = start_with_removed(n, deficit)
        target = verdict(build_full(start)).es2
        labels = build_full(start).design.labels
        assert len(labels) == start.cols * (start.cols + 1) // 2
        d_values = set()
        for delete in labels:
            rep = verdict(build_minus_one(start, delete, removed))
            if rep.es2 != target or rep.gap != 0 or not rep.optimal:
                failures.append(f"q=n-{deficit} delete={delete}: es2={rep.es2}")
            if deficit == 2 and delete.is_interaction:
                d_values.add(rep.d)
        if deficit == 2 and len(d_values) < 2:
            failures.append(f"expected d to vary over interaction deletions, saw {d_values}")
    _report(2, "One-column deletions keep the bound, any column", failures)


def test_criterion_03_theorem3_reproduction():
    failures = []
    for n in (12, 20, 24):
        for deficit in (1, 2, 3):
            start, _ = start_with_removed(n, deficit)
            rep = verdict(build_interactions_only(start))
            if deficit <= 2:
                if rep.gap != 0 or not rep.optimal:
                    failures.append(f"n={n} q=n-{deficit}: gap={rep.gap}")
            else:
                want = Fraction(8 * n * (n - 8), (n - 2) * (n - 3) * (n - 4) * (n - 5))
                if rep.gap != want or rep.optimal:
                    failures.append(f"n={n} q=n-3: gap={rep.gap}, want {want}")
    if Fraction(8 * 12 * 4, 10 * 9 * 8 * 7) != Fraction(8, 105):
        failures.append("n=12 reference gap drifted")
    _report(3, "Interactions-only: bound met twice, exact gap at q = n-3", failures)


def test_criterion_04_theorem4_reproduction():
    failures = []
    n = 12
    saturated = hadamard_design(n)

    start, removed = drop_columns(saturated, [])
    for parent in range(start.cols):
        rep = verdict(build_single_parent(start, parent, removed))
        if rep.es2 != Fraction(n * n, 2 * n - 3) or rep.es2 != rep.lower_bound:
            failures.append(f"q=n-1 parent={parent}: es2={rep.es2}")

    start, removed = start_with_removed(n, 2)
    want_gap = Fraction(n * n - 8 * n, (2 * n - 5) * (n - 3))
    for parent in range(start.cols):
        rep = verdict(build_single_parent(start, parent, removed))
        if rep.gap != want_gap or rep.optimal:
            failures.append(f"q=n-2 parent={parent}: gap={rep.gap}")

    lb_want = Fraction(n * (n - 4), 2 * n - 7)
    for pair in itertools.combinations(range(n - 1), 2):
        start, removed = drop_columns(saturated, pair)
        for parent in range(start.cols):
            build = build_single_parent(start, parent, removed)
            rep = verdict(build)
            d = build.d
            want = Fraction(
                n**3 - 4 * n**2 - 32 * n * d + 128 * d * d,
                (2 * n - 7) * (n - 4),
            )
            if rep.es2 != want or rep.lower_bound != lb_want or rep.optimal:
                failures.append(f"q=n-3 removed={pair} parent={parent}: es2={rep.es2}")

    rep20 = verdict(build_single_parent(hadamard_design(20), 0))
    if rep20.es2 != Fraction(400, 37) or not rep20.optimal:
        failures.append(f"n=20 q=n-1: es2={rep20.es2}")
    _report(4, "Single-parent: bound at q = n-1, exact gaps below", failures)


def test_criterion_05_lemma1_oracle_equivalence():
    failures = []
    for n, cap in ((12, None), (16, None), (20, 500)):
        results = verify_lemma1(n, cap=cap)
        failures += [f"{r.name} n={n} {r.context}" for r in results if not r.ok]
        counted = {}
        for r in results:
            counted[r.name] = counted.get(r.name, 0) + 1
        expected_sets = {
            "lemma1.item4": min(cap, (n - 1) * (n - 2) * (n - 3) // 6)
            if cap
            else (n - 1) * (n - 2) * (n - 3) // 6
        }
        for name, want in expected_sets.items():
            if counted.get(name) != want:
                failures.append(f"{name} n={n}: ran {counted.get(name)} != {want}")
        if cap and counted["lemma1.item4"] < 500:
            failures.append(f"n={n}: sample below the documented 500")
    _report(5, "Order-3/4 sum closed forms vs enumeration", failures)


def test_criterion_06_lemma2_oracle_equivalence():
    failures = []
    for n in (12, 16):
        results = verify_lemma2(n, cap=None)
        failures += [f"{r.name} n={n} {r.context}" for r in results if not r.ok]
        counted = {}
        for r in results:
            counted[r.name] = counted.get(r.name, 0) + 1
        q = n - 1
        expected = {
            "lemma2.item1": q,
            "lemma2.item4": q * (q - 1) // 2,
            "lemma2.item2": q * (q - 1),
            "lemma2.item5": q * (q - 1) * (q - 2) // 2,
            "lemma2.item3": (q * (q - 1) // 2) * (q - 2),
        }
        for name, want in expected.items():
            if counted.get(name) != want:
                failures.append(f"{name} n={n}: ran {counted.get(name)} != {want} (not exhaustive)")
    _report(6, "Filtered-sum closed forms vs enumeration", failures)


def test_criterion_07_gwp_identity():
    failures = []
    for n in (12, 16, 20, 24):
        deficits = (1, 2, 3, 4) if n in (12, 16) else (1, 2, 3)
        for deficit in deficits:
            design, _ = start_with_removed(n, deficit)
            gwp = gwp_via_krawtchouk(design)
            for s in range(1, min(design.cols, 6) + 1):
                transform = n * n * gwp[s]
                enumeration = sum_j_squared(design, s)
                if transform != enumeration:
                    failures.append(
                        f"n={n} q=n-{deficit} s={s}: {transform} != {enumeration}"
                    )
    _report(7, "Wordlength identity, transform vs enumeration", failures)


def test_criterion_08_krawtchouk_closed_forms():
    failures = []
    for n in (12, 16, 20, 24):
        for degree, point, offset, value in PROOF_KRAWTCHOUK_FORMS:
            got = krawtchouk(degree, point(n), n - offset)
            want = value(n)
            if got != want:
                failures.append(
                    f"P{degree}({point(n)};{n - offset}) = {got}, closed form {want}"
                )
    _report(8, "Krawtchouk closed forms", failures)


def test_criterion_09_aliasing_preconditions():
    failures = []
    build12 = build_full(hadamard_design(12))
    rep12 = verdict(build12)
    if rep12.aliased or aliasing_report(build12.design):
        failures.append(f"n=12: expected empty aliasing, got {len(rep12.aliased)}")
    rep24 = verdict(build_full(hadamard_design(24, "paley")))
    if rep24.aliased:
        failures.append(f"n=24: expected empty aliasing, got {len(rep24.aliased)}")
    rep16 = verdict(build_full(hadamard_design(16, "sylvester")))
    if not rep16.aliased:
        failures.append("n=16 regular design: expected aliased pairs")
    if "fully aliased" not in rep16.notes:
        failures.append(f"n=16: aliasing not surfaced in notes: {rep16.notes!r}")
    _report(9, "Aliasing preconditions", failures)


def test_criterion_10_property_suite():
    failures = []
    n = 12
    rng = random.Random(128176)

    pool_build = build_full(hadamard_design(n))
    pool = pool_build.design
    for trial in range(1000):
        m = rng.randint(12, 66)
        chosen = rng.sample(range(pool.cols), m)
        design = SignMatrix(
            pool.entries[:, chosen], tuple(pool.labels[c] for c in chosen)
        )
        if not np.all(design.entries.sum(axis=0) == 0):
            failures.append(f"trial {trial}: sampled design not balanced")
            break
        if es2_direct(design) < lower_bound(n, m):
            failures.append(f"trial {trial}: bound exceeded at m={m}")

    start3, removed3 = start_with_removed(n, 3)
    for build in (pool_build, build_single_parent(start3, 0, removed3)):
        text = design_csv_text(build.design)
        if design_csv_text(parse_design_csv(text)) != text:
            failures.append(f"CSV round-trip not bit-exact for {build.family.kind}")

    rebuilt = build_full(hadamard_design(n))
    if design_csv_text(rebuilt.design) != design_csv_text(pool_build.design):
        failures.append("rebuild not byte-identical")
    # Report bytes, since the reports hold their aliased pairs as objects.
    rebuilt_text, pool_text = (
        json_text(report_json(verdict(build))) for build in (rebuilt, pool_build)
    )
    if rebuilt_text != pool_text:
        failures.append("rebuilt report not identical")
    _report(10, "Property suite", failures)
