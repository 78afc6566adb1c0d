"""The lemma walk's exhaustive n = 12 output, item by item: how many checks
each of the 18 items runs, and the context and expected value of its first
and last check; how often the walk evaluates a closed form; and the
symmetry of every claim in d; the batched d of the walk against d per
choice."""

import re

import pytest

from ssdopt import FAMILIES, SignMatrix, hadamard_design, verify_lemma1, verify_lemma2
from ssdopt.spectral import d_from_words
from ssdopt.verify import _LEMMA1, _LEMMA2, _enumerated, _lemma_choices, _verify_items

# name: (checks, (first context, first expected), (last context, last expected))
LEMMA_ITEMS_12 = {
    "lemma1.item1": (1, ("no deletion", "2640"), ("no deletion", "2640")),
    "lemma1.item5": (1, ("no deletion", "5280"), ("no deletion", "5280")),
    "lemma1.item2": (11, ("deleted=c1", "1920"), ("deleted=c11", "1920")),
    "lemma1.item6": (11, ("deleted=c1", "3360"), ("deleted=c11", "3360")),
    "lemma1.item3": (55, ("deleted=c1,c2", "1344"), ("deleted=c10,c11", "1344")),
    "lemma1.item7": (55, ("deleted=c1,c2", "2016"), ("deleted=c10,c11", "2016")),
    "lemma1.item4": (
        165, ("deleted=c1,c2,c3 d=2", "896"), ("deleted=c9,c10,c11 d=2", "896")
    ),
    "lemma1.item8": (
        165, ("deleted=c1,c2,c3 d=2", "1120"), ("deleted=c9,c10,c11 d=2", "1120")
    ),
    "lemma2.item1": (11, ("i0=c1", "720"), ("i0=c11", "720")),
    "lemma2.item6": (11, ("i0=c1", "1920"), ("i0=c11", "1920")),
    "lemma2.item4": (55, ("i0=c1 j0=c2", "144"), ("i0=c10 j0=c11", "144")),
    "lemma2.item9": (55, ("i0=c1 j0=c2", "576"), ("i0=c10 j0=c11", "576")),
    "lemma2.item2": (110, ("deleted=c1 i0=c2", "576"), ("deleted=c11 i0=c10", "576")),
    "lemma2.item7": (110, ("deleted=c1 i0=c2", "1344"), ("deleted=c11 i0=c10", "1344")),
    "lemma2.item5": (
        495,
        ("deleted=c1 i0=c2 j0=c3 d=2", "128"),
        ("deleted=c11 i0=c9 j0=c10 d=2", "128"),
    ),
    "lemma2.item10": (
        495,
        ("deleted=c1 i0=c2 j0=c3 d=2", "448"),
        ("deleted=c11 i0=c9 j0=c10 d=2", "448"),
    ),
    "lemma2.item3": (
        495, ("deleted=c1,c2 i0=c3 d=2", "448"), ("deleted=c10,c11 i0=c9 d=2", "448")
    ),
    "lemma2.item8": (
        495, ("deleted=c1,c2 i0=c3 d=2", "896"), ("deleted=c10,c11 i0=c9 d=2", "896")
    ),
}


def test_exhaustive_lemma_items_at_n_12_are_pinned():
    results = verify_lemma1(12, cap=0) + verify_lemma2(12, cap=0)
    assert all(r.ok for r in results)
    items = {}
    for r in results:
        items.setdefault(r.name, []).append(r)
    assert list(items) == list(LEMMA_ITEMS_12)
    for name, checks in items.items():
        first, last = checks[0], checks[-1]
        got = (len(checks), (first.context, first.expected), (last.context, last.expected))
        assert got == LEMMA_ITEMS_12[name], name


def test_each_closed_form_runs_once_per_d():
    """The walk evaluates a lemma item's closed form once per distinct d,
    however many checks share that d."""
    (name, form), other = _LEMMA2[(1, 2)]
    calls = []

    def counted(n, d):
        calls.append(d)
        return form(n, d)

    results = _verify_items(hadamard_design(16), {(1, 2): ((name, counted), other)}, cap=0)
    assert len(results) == 2 * 15 * 91 and all(r.ok for r in results)
    seen = {r.context.rsplit("d=", 1)[1] for r in results}
    assert len(seen) > 1
    assert sorted(map(str, calls)) == sorted(seen)


def _uses_d(form) -> bool:
    try:
        form(8, None)
    except (TypeError, ValueError):
        return True
    return False


def test_every_d_claim_is_symmetric_under_d_to_n_over_4_minus_d():
    """Every claim that uses d depends on it only through u = 16d(n - 4d),
    so it takes the same value at d and n/4 - d, for n = 8, 12, ..., 2000."""
    forms = [
        (f"{kind} k={k} {field}", getattr(cell, field))
        for kind, cells in FAMILIES.items()
        for k, cell in cells.items()
        for field in ("es2", "gap")
    ] + [(name, form) for blocks in (_LEMMA1, _LEMMA2)
         for items in blocks.values() for name, form in items]
    forms = [(name, form) for name, form in forms if _uses_d(form)]
    assert len(forms) == 2 + 6
    for name, form in forms:
        for n in range(8, 2001, 4):
            for d in range(n // 8 + 1):
                assert form(n, d) == form(n, n // 4 - d), (name, n, d)


@pytest.mark.parametrize("n", [12, 20])
def test_batched_d_equals_d_from_words_for_every_choice(n):
    """Every choice with r + a = 3, exhaustively: the d of the walk's one
    XOR and popcount per slice equals ``d_from_words`` of that choice."""
    saturated = hadamard_design(n)
    q, words = saturated.cols, saturated.neg_words
    blocks = [block for block in (*_LEMMA1, *_LEMMA2) if sum(block) == 3]
    assert blocks == [(3, 0), (1, 2), (2, 1)]
    for r, a in blocks:
        walked = list(_enumerated(saturated, _lemma_choices(q, r, a), True))
        assert len(walked) == len(list(_lemma_choices(q, r, a)))
        for deleted, chosen, d, _ in walked:
            assert d == d_from_words(n, *words[list(deleted + chosen)]), (deleted, chosen)


def test_a_planted_triple_that_does_not_decompose_raises_as_before():
    """One flipped entry of c6 moves J_3 of every triple through it by 2, so
    none of them decomposes; the walk raises the ValueError that
    ``d_from_words`` gives for the first of them."""
    entries = hadamard_design(12).entries.copy()
    entries[0, 5] *= -1
    planted = SignMatrix.with_main_labels(entries)
    with pytest.raises(ValueError) as first:
        d_from_words(12, *planted.neg_words[[0, 1, 5]])
    message = str(first.value)
    assert message.startswith("triple does not decompose into half-fraction replicates")
    for block in ((3, 0), (1, 2), (2, 1)):
        items = {**_LEMMA1, **_LEMMA2}[block]
        with pytest.raises(ValueError, match=re.escape(message)):
            _verify_items(planted, {block: items}, cap=0)
