"""Exact comparison of large texts that reports a mismatch at once.

pytest's assertion rewriting diffs two unequal strings in full, which takes
minutes for texts of a few hundred kilobytes; this helper is not rewritten
and names only the lengths and the first differing offset."""


def assert_same_text(actual, expected, window: int = 40) -> None:
    """Assert that two str or bytes values are equal; on a mismatch, report
    both lengths, the first differing offset and ``window`` items on each side
    of it."""
    if actual == expected:
        return
    at = next(
        (k for k, (a, b) in enumerate(zip(actual, expected)) if a != b),
        min(len(actual), len(expected)),
    )
    around = slice(max(0, at - window), at + window)
    raise AssertionError(
        f"texts differ at offset {at} (lengths {len(actual)} and {len(expected)}): "
        f"{actual[around]!r} != {expected[around]!r}"
    )
