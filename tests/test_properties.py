"""Property tests: the fast routes against the reference implementations in
``_reference.py``, on random +-1 designs and on perturbed Hadamard designs,
the JSON writer against the stdlib's ``json.dumps`` on random payloads,
every family's verdict on equivalent Hadamard starts against its theorem cell,
and both lemmas' items (and their d) on equivalent saturated designs.

Run counts include ones that are not a multiple of 8 and ones above 64, and
the designs carry planted duplicate and negated columns or repeated rows."""

import functools
import itertools
import json
import operator
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssdopt.spectral
from ssdopt import (
    FAMILIES,
    MINUS_ONE,
    SINGLE_PARENT,
    AliasedPairs,
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
    filtered_sums,
    gwp_via_krawtchouk,
    hadamard_design,
    json_text,
    parse_design_csv,
    sum_j_squared,
    sum_j_squared_filtered,
    verdict,
    verify_oa_strength2,
)
from ssdopt.spectral import d_from_words, d_parameter
from ssdopt.verify import _LEMMA1, _LEMMA2, _verify_items

from _reference import (
    aliased_records,
    aliasing_scan,
    design_csv_text_loop,
    es2_column_gram,
    full_augmentation_rebuilt,
    gwp_all_distances,
    j_characteristic,
    neg_masks_loop,
    oa_strength2_loop,
    pair_columns,
    sum_j_squared_loop,
    sum_over_extensions_loop,
)
from _texts import assert_same_text

HADAMARD_ORDERS = [4, 8, 12, 16, 20, 24, 32, 64]


def _plant(draw, entries: np.ndarray) -> np.ndarray:
    """Overwrite some columns with copies or negated copies of others."""
    m = entries.shape[1]
    plants = draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.booleans()),
            max_size=4,
        )
    )
    for src, dst, negate in plants:
        entries[:, dst] = -entries[:, src] if negate else entries[:, src]
    return entries


@st.composite
def random_designs(draw, min_cols=1, max_cols=40):
    n = draw(st.one_of(st.integers(1, 64), st.integers(65, 140)))
    m = draw(st.integers(min_cols, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, m))
    return SignMatrix.with_main_labels(_plant(draw, entries))


@st.composite
def repeated_row_designs(draw):
    """Random +-1 designs of at most 12 columns and any run count, with
    unbalanced columns and rows drawn from a pool that may repeat them."""
    n, m = draw(st.integers(1, 140)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(draw(st.integers(1, n)), m))
    return SignMatrix.with_main_labels(pool[rng.integers(0, len(pool), size=n)])


@st.composite
def hadamard_variants(draw):
    """A Hadamard design with rows permuted, columns negated and a column
    subset kept: still strength 2 unless the draw plants or flips entries."""
    design = hadamard_design(draw(st.sampled_from(HADAMARD_ORDERS)))
    n, q = design.rows, design.cols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.sort(rng.choice(q, size=draw(st.integers(1, q)), replace=False))
    entries = design.entries[rng.permutation(n)][:, keep] * rng.choice(
        np.array([-1, 1], dtype=np.int8), size=len(keep)
    )
    entries = _plant(draw, entries)
    if draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, len(keep) - 1))
        entries[r, c] = -entries[r, c]
    return SignMatrix.with_main_labels(entries)


designs = st.one_of(random_designs(), hadamard_variants())


@given(random_designs(min_cols=2) | hadamard_variants().filter(lambda d: d.cols >= 2))
def test_row_gram_es2_equals_column_gram(design):
    assert es2_direct(design) == es2_column_gram(design)


@given(designs)
def test_hashed_aliasing_equals_gram_scan(design):
    assert pair_columns(aliasing_report(design)) == pair_columns(aliasing_scan(design))


@given(designs)
def test_vectorised_strength2_equals_pair_counts(design):
    assert verify_oa_strength2(design) == oa_strength2_loop(design)


@given(designs)
@example(SignMatrix.with_main_labels(-np.ones((130, 3), dtype=np.int8)))
def test_packed_neg_masks_equal_bit_loop(design):
    masks = tuple(int.from_bytes(row.tobytes(), "little") for row in design.neg_words)
    assert masks == neg_masks_loop(design)


@st.composite
def minus_one_cases(draw):
    n = draw(st.sampled_from([8, 12, 16, 20, 24]))
    saturated = hadamard_design(n)
    deficit = draw(st.integers(1, 2))
    dropped = draw(
        st.lists(
            st.integers(0, n - 2),
            min_size=deficit - 1,
            max_size=deficit - 1,
            unique=True,
        )
    )
    start, removed = drop_columns(saturated, dropped)
    full = full_augmentation_rebuilt(start)
    delete = draw(st.sampled_from(full.labels))
    return start, removed, full, delete


@given(minus_one_cases())
def test_minus_one_from_cached_block_equals_rebuild(case):
    start, removed, full, delete = case
    cached = build_full(start).design
    assert np.array_equal(cached.entries, full.entries)
    assert cached.labels == full.labels
    build = build_minus_one(start, delete, removed)
    pos = full.labels.index(delete)
    assert np.array_equal(build.design.entries, np.delete(full.entries, pos, axis=1))
    assert build.design.labels == full.labels[:pos] + full.labels[pos + 1 :]



@given(random_designs(), st.integers(0, 2**16))
@example(
    # c2 = -c1 and c4 = c1: columns equal up to sign.
    SignMatrix.with_main_labels(
        np.array([[1, -1, 1, 1], [1, -1, -1, 1], [-1, 1, 1, -1], [1, -1, 1, 1]])
    ),
    1,
)
def test_downdated_square_sum_equals_a_fresh_design(design, seed):
    """Deleting any column, the seeded squared Gram total equals that of the
    remaining columns built afresh; planted columns are equal up to sign."""
    pos = seed % design.cols
    rest = [*range(pos), *range(pos + 1, design.cols)]
    downdated = design.without(pos)
    fresh = SignMatrix(design.entries[:, rest], tuple(design.labels[p] for p in rest))
    assert np.array_equal(downdated.entries, fresh.entries)
    assert downdated.labels == fresh.labels
    assert downdated.gram_square_sum == fresh.gram_square_sum


#: Every order with an automatic construction up to 64, so q <= 63.
ORDERS = (4, 8, 12, 16, 20, 24, 28, 32, 36, 44, 48, 60, 64)


@st.composite
def label_cases(draw):
    """The full augmentation of a start like ``generate --drop-cols`` makes
    (random factors dropped, then the mains permuted) with the ColumnLabel
    objects the augmentation used to build, a random take or without
    selection of it with its labels, and labels absent from the augmentation."""
    saturated = hadamard_design(draw(st.sampled_from(ORDERS)))
    drop = draw(st.lists(st.integers(0, saturated.cols - 1), max_size=2, unique=True))
    kept = [c for c in range(saturated.cols) if c not in drop]
    order = draw(st.permutations(range(len(kept))))
    full = drop_columns(saturated, drop)[0].take(order).augmented
    mains = [ColumnLabel.main(kept[k] + 1) for k in order]
    old = mains + [ColumnLabel.interaction(mains[u].i, mains[v].i)
                   for u, v in itertools.combinations(range(len(mains)), 2)]
    absent = [ColumnLabel.main(99), ColumnLabel.interaction(1, 99)]
    absent += [ColumnLabel.main(d + 1) for d in drop]
    absent += [ColumnLabel.interaction(d + 1, mains[0].i) for d in drop]
    if draw(st.booleans()):
        pos = draw(st.integers(0, full.cols - 1))
        return full, old, full.without(pos), old[:pos] + old[pos + 1 :], absent
    chosen = draw(st.lists(st.integers(0, full.cols - 1), min_size=1, max_size=40, unique=True))
    return full, old, full.take(chosen), [old[p] for p in chosen], absent


@given(label_cases(), st.data())
def test_columnar_labels_equal_the_old_label_objects(case, data):
    """Label strings, ColumnLabels, positions (with the error for an absent
    label) and the CSV header of an augmentation and of a selection from it
    equal those of the ColumnLabel objects the augmentation used to carry."""
    full, old, selected, kept, absent = case
    dropped = [label for label in data.draw(st.lists(st.sampled_from(old), max_size=8))
               if label not in kept]
    for design, labels, missing in ((full, old, absent), (selected, kept, absent + dropped)):
        assert design.label_names == tuple(str(label) for label in labels)
        assert design.labels == tuple(labels)
        positions = {label: pos for pos, label in enumerate(labels)}
        for label in data.draw(st.lists(st.sampled_from(labels), max_size=20)):
            assert design.label_position(label) == positions[label]
        for label in missing:
            with pytest.raises(ValueError, match=rf"^no column labeled {re.escape(str(label))}$"):
                design.label_position(label)
        header = design_csv_text(design).encode().split(b"\n", 1)[0]
        assert header == ",".join(str(label) for label in labels).encode()


@st.composite
def equivalent_saturated(draw, orders=(8, 12, 16, 20, 24)):
    """A Hadamard design of an order in ``orders`` with rows and columns
    permuted and some columns negated, relabeled c1, c2, ..."""
    n = draw(st.sampled_from(orders))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = hadamard_design(n).entries[rng.permutation(n)][:, rng.permutation(n - 1)]
    entries = entries * rng.choice(np.array([-1, 1], dtype=np.int8), size=n - 1)
    return SignMatrix.with_main_labels(entries)


@st.composite
def equivalent_starts(draw):
    """A start q = n - k, k in 1..3, from an equivalent Hadamard design with
    k - 1 columns dropped at random."""
    saturated = draw(equivalent_saturated())
    n = saturated.rows
    deficit = draw(st.integers(1, 3))
    dropped = draw(
        st.lists(st.integers(0, n - 2), min_size=deficit - 1, max_size=deficit - 1,
                 unique=True)
    )
    start, removed = drop_columns(saturated, dropped)
    return n, deficit, start, removed


@given(equivalent_starts(), st.data())
def test_verdicts_on_equivalent_starts_match_their_cells(case, data):
    n, deficit, start, removed = case
    for kind, cells in FAMILIES.items():
        if deficit not in cells:
            continue
        if kind == MINUS_ONE:
            delete = data.draw(st.sampled_from(start.augmented.labels))
            build = build_minus_one(start, delete, removed)
        elif kind == SINGLE_PARENT:
            parent = data.draw(st.integers(0, start.cols - 1))
            build = build_single_parent(start, parent, removed)
        else:
            build = (build_full if kind == "full" else build_interactions_only)(start)
        report, cell = verdict(build), cells[deficit]
        assert report.es2 == cell.es2(n, build.d), kind
        assert report.lower_bound == cell.bound(n), kind
        assert report.gap == cell.gap(n, build.d), kind
        assert build.d is None or 0 <= build.d <= n // 4, kind


@settings(max_examples=20)
@given(equivalent_saturated(orders=(8, 12, 16, 20)))
def test_lemma_items_and_d_on_equivalent_saturated_designs(saturated):
    """Both lemmas' closed forms hold on an equivalent saturated design, and
    d is reported, within 0..n/4, exactly on the items of a column triple."""
    n = saturated.rows
    results = _verify_items(saturated, {**_LEMMA1, **_LEMMA2}, cap=40)
    assert [r for r in results if not r.ok] == []
    with_d = {"lemma1.item4", "lemma1.item8", "lemma2.item3", "lemma2.item5",
              "lemma2.item8", "lemma2.item10"}
    for r in results:
        d = [int(t[2:]) for t in r.context.split() if t.startswith("d=")]
        assert len(d) == (r.name in with_d), r
        assert all(0 <= v <= n // 4 for v in d), r


@settings(max_examples=20)
@given(equivalent_saturated(orders=(8, 12, 16, 20)))
def test_lemma2_items_equal_filtered_sums_of_each_child(saturated):
    """Each lemma-2 item's value is the filtered sum of the child design with
    its deleted columns dropped, through its specific columns' positions in
    that child: the batched walk against one built child per check."""
    order = {name: s for items in _LEMMA2.values() for (name, _), s in zip(items, (3, 4))}
    position = {str(label): c for c, label in enumerate(saturated.labels)}
    for r in _verify_items(saturated, _LEMMA2, cap=25):
        fields = dict(token.split("=") for token in r.context.split())
        deleted = [position[x] for x in fields.get("deleted", "").split(",") if x]
        child = drop_columns(saturated, deleted)[0]
        names = [str(label) for label in child.labels]
        fixed = [names.index(fields[k]) for k in ("i0", "j0") if k in fields]
        assert int(r.actual) == sum_j_squared_filtered(child, order[r.name], fixed), r


# A chunk of 5 subsets puts chunk boundaries inside every prefix's run of
# suffixes; the default chunk holds every enumeration these designs need.
CHUNKS = (ssdopt.spectral._CHUNK, 5)


@given(random_designs(max_cols=12))
@example(SignMatrix.with_main_labels(-np.ones((130, 7), dtype=np.int8)))
def test_kernel_sums_equal_unrolled_loops(design):
    for chunk in CHUNKS:
        with mock.patch.object(ssdopt.spectral, "_CHUNK", chunk):
            for s in range(1, 7):
                fresh = SignMatrix(design.entries, design.labels)
                assert sum_j_squared(fresh, s) == sum_j_squared_loop(design, s)


def _random_signs(seed: int, n: int, width: int) -> SignMatrix:
    rng = np.random.default_rng(seed)
    entries = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, width))
    return SignMatrix.with_main_labels(entries)


@st.composite
def sign_stacks(draw):
    """1 to 5 random n x (w + 1) sign matrices of one width, n <= 16 and
    w <= 6: w columns and a last one whose -1 bits are the design's base."""
    n, width = draw(st.integers(1, 16)), draw(st.integers(0, 6))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    return [_random_signs(seed, n, width + 1) for seed in seeds]


@given(sign_stacks(), st.integers(1, 4))
@example([_random_signs(7, 12, 6)], 3)
@example([_random_signs(seed, 16, 3) for seed in range(5)], 4)
@example([_random_signs(seed, 4, 1) for seed in range(3)], 3)
def test_batched_kernel_equals_each_design_alone(stack, k):
    """Each design's sum in a batch equals its own plain sum and the brute
    force over J, and with its own base row, the brute force over its
    k-subsets joined with the base column; k above the width gives 0."""
    width = stack[0].cols - 1
    words = np.stack([design.neg_words[:width] for design in stack])
    bases = np.stack([design.neg_words[width] for design in stack])
    for chunk in CHUNKS:
        with mock.patch.object(ssdopt.spectral, "_CHUNK", chunk):
            sums = ssdopt.spectral._sum_squared_j(words, 0, stack[0].rows, k)
            based = ssdopt.spectral._sum_squared_j(words, bases, stack[0].rows, k)
        assert sums.shape == based.shape == (len(stack),)
        for design, total, with_base in zip(stack, sums.tolist(), based.tolist()):
            subsets = list(itertools.combinations(range(width), k))
            alone = SignMatrix(design.entries[:, :width], design.labels[:width])
            brute = sum(j_characteristic(design, subset) ** 2 for subset in subsets)
            assert total == sum_j_squared(alone, k) == brute
            assert with_base == sum(
                j_characteristic(design, subset + (width,)) ** 2 for subset in subsets
            )
            if k > width:
                assert total == with_base == 0


@st.composite
def word_batches(draw):
    """1 or 3 random n x (r + 1) sign matrices of one shape, r <= 7, with
    n <= 64 (one word per row) or 68 <= n <= 128 (two words): r columns and
    a last one whose -1 bits are the design's base."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(68, 128)))
    width, designs = draw(st.integers(0, 7)), draw(st.sampled_from((1, 3)))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=designs, max_size=designs))
    return [_random_signs(seed, n, width + 1) for seed in seeds]


@given(word_batches(), st.integers(0, 5))
@example([_random_signs(seed, 64, 8) for seed in range(3)], 4)
@example([_random_signs(1, 128, 8)], 4)
def test_one_and_two_word_kernel_equals_extension_loop(stack, k):
    """Each design's sum over its k-subsets joined with its own base equals
    the pure-Python loop over integer masks, in one- and two-word rows, for
    a lone design and a batch of three."""
    n, width = stack[0].rows, stack[0].cols - 1
    words = np.stack([design.neg_words[:width] for design in stack])
    bases = np.stack([design.neg_words[width] for design in stack])
    assert words.shape[2] == (1 if n <= 64 else 2)
    expected = []
    for design in stack:
        masks = neg_masks_loop(design)
        expected.append(sum_over_extensions_loop(masks[:width], masks[width], n, k))
    for chunk in CHUNKS:
        with mock.patch.object(ssdopt.spectral, "_CHUNK", chunk):
            assert ssdopt.spectral._sum_squared_j(words, bases, n, k).tolist() == expected


@given(equivalent_saturated(), st.data())
def test_packed_d_equals_d_parameter(saturated, data):
    triple = data.draw(st.lists(
        st.integers(0, saturated.cols - 1), min_size=3, max_size=3, unique=True
    ))
    rows = [saturated.neg_words[c] for c in triple]
    columns = [saturated.column(c) for c in triple]
    assert d_from_words(saturated.rows, *rows) == d_parameter(*columns)


@given(random_designs(min_cols=2, max_cols=12), st.data())
def test_filtered_kernel_equals_extension_loop(design, data):
    q, masks, words = design.cols, neg_masks_loop(design), design.neg_words
    for f in (1, 2):
        fixed = data.draw(
            st.lists(st.integers(0, q - 1), min_size=f, max_size=f, unique=True)
        )
        rest = [m for c, m in enumerate(masks) if c not in fixed]
        base = functools.reduce(operator.xor, (masks[c] for c in fixed))
        rest_words = np.delete(words, fixed, axis=0)
        base_words = functools.reduce(operator.xor, (words[c] for c in fixed))
        for chunk, k in itertools.product(CHUNKS, range(q - f + 1)):
            expected = sum_over_extensions_loop(rest, base, design.rows, k)
            with mock.patch.object(ssdopt.spectral, "_CHUNK", chunk):
                kernel = ssdopt.spectral._sum_squared_j(
                    rest_words[None], base_words, design.rows, k
                )
                assert kernel.tolist() == [expected]
                if k:
                    assert sum_j_squared_filtered(design, f + k, fixed) == expected


@given(random_designs(min_cols=3, max_cols=8))
@example(
    SignMatrix.with_main_labels(
        np.random.default_rng(130).choice(np.array([-1, 1], dtype=np.int8), (130, 7))
    )
)
def test_anchored_tables_equal_filtered_sums_and_extension_loop(design):
    # One fill of every 1- and 2-column fixed set per order, on a fresh
    # instance per chunk size; s = 5 runs the plan that is rebuilt per call
    # (k > 4).
    q, n, masks = design.cols, design.rows, neg_masks_loop(design)
    for chunk in CHUNKS:
        with mock.patch.object(ssdopt.spectral, "_CHUNK", chunk):
            fresh = SignMatrix(design.entries, design.labels)
            for anchors, s in itertools.product((1, 2), (3, 4, 5)):
                sets = list(itertools.combinations(range(q), anchors))
                values = filtered_sums(fresh, [(s, fixed) for fixed in sets])
                for fixed, value in zip(sets, values):
                    rest = [m for c, m in enumerate(masks) if c not in fixed]
                    base = functools.reduce(operator.xor, (masks[c] for c in fixed))
                    expected = sum_over_extensions_loop(rest, base, n, s - anchors)
                    assert value == expected
                    if chunk == ssdopt.spectral._CHUNK:
                        assert sum_j_squared_filtered(design, s, fixed) == expected


@given(designs)
@example(SignMatrix.with_main_labels(-np.ones((130, 65), dtype=np.int8)))
def test_packed_row_gram_equals_int64_matmul(design):
    wide = design.entries.astype(np.int64)
    assert np.array_equal(design.row_gram(), wide @ wide.T)


@given(st.one_of(random_designs(max_cols=12), repeated_row_designs()))
@example(SignMatrix.with_main_labels(np.ones((6, 12), dtype=np.int8)))
@example(hadamard_design(12))
@example(SignMatrix.with_main_labels(hadamard_design(12).entries[:, :10]))
def test_every_order_matches_krawtchouk_route(design):
    # The GWP over the occurring distances equals the sum over all of them,
    # n^2 A_s is the exhaustive J sum of every order, and A_2 gives E(s^2).
    n, m, gwp = design.rows, design.cols, gwp_via_krawtchouk(design)
    assert gwp.values == gwp_all_distances(design).values
    if m >= 2:
        assert es2_direct(design) == 2 * n * n * gwp[2] / (m * (m - 1))
    if m <= 10:
        for s in range(1, m + 1):
            assert n * n * gwp[s] == sum_j_squared(design, s)


@given(designs)
@example(SignMatrix.with_main_labels(np.ones((1, 1), dtype=np.int8)))
@example(SignMatrix.with_main_labels(-np.ones((130, 1), dtype=np.int8)))
@example(build_full(hadamard_design(12)).design)
def test_csv_text_equals_row_loop_and_round_trips(design):
    text = design_csv_text(design)
    assert text == design_csv_text_loop(design)
    parsed = parse_design_csv(text)
    assert np.array_equal(parsed.entries, design.entries)
    assert parsed.labels == design.labels
    assert design_csv_text(parsed) == text


def stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


TEXTS = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f %:{}[],é€\u2028\U0001d11e')
    | st.characters(),
    max_size=6,
)
INTS = (
    st.integers()
    | st.integers(2**64 - 2, 2**80)
    | st.integers(-(2**80), -(2**64) + 2)
)
SCALARS = st.none() | st.booleans() | INTS | TEXTS


@st.composite
def record_lists(draw, children=SCALARS, clean=False):
    """Lists of dicts sharing one key set, optionally with one record given a
    missing, extra or renamed key, and values of one type or mixed per key."""
    keys = draw(st.lists(TEXTS, min_size=1, max_size=4, unique=True))
    kinds = (INTS, TEXTS) if clean else (INTS, TEXTS, SCALARS, children)
    values = {key: draw(st.sampled_from(kinds)) for key in keys}
    records = [
        {key: draw(values[key]) for key in keys}
        for _ in range(draw(st.integers(1, 5)))
    ]
    if not clean:
        victim = draw(st.sampled_from(records))
        edit = draw(st.sampled_from(["none", "drop", "add", "rename"]))
        if edit in ("drop", "rename"):
            del victim[draw(st.sampled_from(keys))]
        if edit in ("add", "rename"):
            victim[draw(TEXTS)] = draw(SCALARS)
    return records


json_payloads = st.recursive(
    SCALARS | record_lists(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(TEXTS, children, max_size=4)
        | record_lists(children)
    ),
    max_leaves=24,
)


@given(json_payloads)
@example([])
@example({})
@example([{}, {}])
@example([{"a": 1}, {"a": True}])
@example([{"a": 2**70}, {"a": -(2**70)}])
@example({"%s": [{"%d": "%", "b": 1}]})
def test_json_text_equals_stdlib(payload):
    assert_same_text(json_text(payload), stdlib_json(payload))


@given(record_lists(clean=True))
def test_uniform_record_lists_take_the_bulk_path(records):
    assert_same_text(json_text(records), stdlib_json(records))


LABELS = st.builds(ColumnLabel.main, st.integers(1, 99)) | st.lists(
    st.integers(1, 99), min_size=2, max_size=2, unique=True
).map(lambda ij: ColumnLabel.interaction(*ij))
INNER = st.sampled_from([0, 1, -1, 16, -16]) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def aliased_pairs(draw, max_cols=40):
    """Columnar pairs over main and interaction label names, or any text
    (raw newlines included): sorted i < j pairs, possibly none, with any
    int64 inner products."""
    labels = tuple(draw(st.lists(LABELS.map(str) | TEXTS, min_size=1, max_size=max_cols)))
    combos = list(itertools.combinations(range(len(labels)), 2))
    chosen = []
    if combos:
        chosen = sorted(draw(st.lists(st.sampled_from(combos), unique=True, max_size=60)))
    inner = draw(st.lists(INNER, min_size=len(chosen), max_size=len(chosen)))
    i, j = (np.array([p[k] for p in chosen], dtype=np.int64) for k in (0, 1))
    return AliasedPairs(i, j, np.array(inner, dtype=np.int64), labels)


def _nest(value, as_dict: bool):
    return {"aliased_pairs": value, "n": 1} if as_dict else [value, "x"]


@given(aliased_pairs(), st.booleans(), st.booleans())
@example(AliasedPairs(*[np.zeros(0, dtype=np.int64)] * 3, ("c1",)), True, False)
def test_aliased_pairs_encode_as_the_stdlib_record_list(pairs, outer_dict, inner_dict):
    for payload in (pairs, _nest(pairs, inner_dict),
                    _nest(_nest(pairs, inner_dict), outer_dict)):
        expected = json.dumps(payload, indent=2, sort_keys=True, default=aliased_records)
        assert_same_text(json_text(payload), expected + "\n")


@pytest.mark.parametrize(
    "payload",
    [
        1.5,
        [1, 2.5],
        {"a": {"b": 0.0}},
        [{"a": 1.0}, {"a": 2.0}],
        {1: "x"},
        {"a": 1, None: 2},
        [{"a": 1, 2: 3}, {"a": 1, 2: 3}],
        (1, 2),
    ],
)
def test_json_text_rejects_floats_and_non_str_keys(payload):
    with pytest.raises(TypeError):
        json_text(payload)
