"""The array formatter gives Python's own ``'%.17g'`` text, byte for byte."""

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussmin.numtext import _BREAK_EVEN, g17_rows
from gaussmin.rng import substream
from oracles import g17_text


def assert_pythons_text(a):
    """g17_rows(a) is g17_text(a); a failure names the first row that
    differs instead of diffing the whole text.  An array below the break-even
    is also tiled past it, so that its values take the array path too."""
    a = np.asarray(a, dtype=np.float64)
    got, want = g17_rows(a), g17_text(a)
    if a.size < _BREAK_EVEN:
        reps = _BREAK_EVEN // a.size + 1
        got, want = got + g17_rows(np.tile(a, (reps, 1))), want * (reps + 1)
    same = got == want
    rows = zip(got.splitlines(), want.splitlines())
    assert same, next((f"row {i}: {g!r} != {w!r}" for i, (g, w) in enumerate(rows) if g != w),
                      f"{len(got)} != {len(want)} characters")


@settings(derandomize=True, max_examples=100)
@given(st.binary(min_size=8, max_size=8 * 24), st.integers(1, 4))
def test_arbitrary_bit_patterns(raw, cols):
    a = np.frombuffer(raw[: len(raw) // 8 * 8], dtype=np.float64)
    a = a.reshape(-1, cols if a.size % cols == 0 else 1)
    assert_pythons_text(a)


def test_seeded_bulk_values():
    rng = substream(26, 0)
    normals = rng.standard_normal((50_000, 4))
    spread = rng.choice([-1.0, 1.0], (40_000, 5)) * 10.0 ** rng.uniform(-30.0, 30.0, (40_000, 5))
    raw = rng.integers(0, 2 ** 64, (100_000, 4), dtype=np.uint64, endpoint=False).view(np.float64)
    for a in (normals, spread, raw):
        assert_pythons_text(a)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([10.0 ** k for k in range(-300, 301)])
    a = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    a = np.concatenate([a, -a]).reshape(-1, 6)
    assert_pythons_text(a)


def test_integers_near_1e16_and_1e17():
    ints = np.concatenate([np.arange(10 ** 16 - 3000, 10 ** 16 + 3000, 1),
                           np.arange(10 ** 17 - 24000, 10 ** 17 + 24000, 8)])
    a = ints.astype(np.float64).reshape(-1, 3)
    assert_pythons_text(a)


def test_exact_and_near_ties_round_half_even():
    # k + 1/4 and k + 3/4 below 2^50 are doubles with 18 significant digits,
    # the last a 5: their 17-digit text rounds a tie to even
    k = substream(26, 1).integers(10 ** 15, 2 ** 50 - 1, 3000).astype(np.float64)
    ties = np.concatenate([k + 0.25, k + 0.75])
    a = np.concatenate([ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert_pythons_text(a.reshape(-1, 4))
    a = np.array([[1000000000000000.25, 1000000000000000.75]])
    assert g17_rows(a) == "1000000000000000.2,1000000000000000.8\n"
    assert_pythons_text(a)


def test_zeros_subnormals_and_non_finite_values():
    tiny = np.finfo(np.float64).smallest_subnormal
    a = np.array([[0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(np.float64).smallest_normal,
                   2.5e-310, np.inf, -np.inf, np.nan, np.finfo(np.float64).max, 1e-300]])
    assert g17_rows(a) == g17_text(a) == (
        "0,-0,4.9406564584124654e-324,-4.9406564584124654e-324,1.4821969375237396e-323,"
        "2.2250738585072014e-308,2.5000000000000171e-310,inf,-inf,nan,"
        "1.7976931348623157e+308,1e-300\n")
    assert_pythons_text(a)


def test_fixed_and_scientific_edges():
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    a = np.stack([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), -edges])
    assert_pythons_text(a)
    a = np.array([[1e-5, 1e-4, 1e16, 1e17, 123456789.0]])
    assert g17_rows(a) == "1.0000000000000001e-05,0.0001,10000000000000000,1e+17,123456789\n"
    assert_pythons_text(a)


def test_the_break_even_splits_the_two_paths_without_a_seam():
    # just below, at and above the break-even, in one row and in rows of 4
    for size in (_BREAK_EVEN - 1, _BREAK_EVEN, _BREAK_EVEN + 1):
        a = substream(26, 2).standard_normal(size) * 10.0 ** (np.arange(size) % 37 - 18)
        assert_pythons_text(a.reshape(1, -1))
        assert_pythons_text(a[: size // 4 * 4].reshape(-1, 4))
