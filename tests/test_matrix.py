"""Exact matrix arithmetic: fixed cases first, then randomized properties."""

import math
import random
import time
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freicheck import (
    DimensionMismatch,
    IndexOutOfRange,
    IntegerOverflow,
    InvalidEntry,
    InvalidRing,
    Matrix,
    RingMismatch,
    RingSpec,
    Vector,
    column,
    fingerprint_block,
    identity,
    mat_add,
    mat_sub,
    mat_vec,
    matmul,
    mats_equal,
    outer,
    parse_matrix,
    parse_ring,
    reset_scalar_multiplies,
    scalar_multiplies,
    sample_vector,
    substream,
    uniform_support,
    verify,
    VerifyConfig,
)
import freicheck.matrix as matrix_mod
from util import brute_matmul, brute_mat_vec, random_matrix

INT64 = RingSpec.int64()
ZP5 = RingSpec.prime_field(5)
INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


# ---------------------------------------------------------------- rings


def test_ring_construction_and_parsing():
    assert str(INT64) == "int64"
    assert str(ZP5) == "zp 5"
    assert parse_ring("int64") == INT64
    assert parse_ring("zp 5") == ZP5
    assert parse_ring("zp 2") == RingSpec.prime_field(2)
    # int() refuses more than 4,300 digits; leading zeros are dropped first.
    assert parse_ring("zp " + "0" * 5000 + "5") == parse_ring("zp +0005") == ZP5


@pytest.mark.parametrize("bad", ["zp 6", "zp 1", "zp 0", "zp -7", "zp", "gf 5", "", "zp x"])
def test_bad_ring_strings(bad):
    with pytest.raises(InvalidRing):
        parse_ring(bad)


def test_composite_modulus_rejected():
    with pytest.raises(InvalidRing):
        RingSpec.prime_field(91)  # 7 * 13
    RingSpec.prime_field(97)  # fine


def test_primality_matches_trial_division():
    from freicheck.matrix import _is_prime

    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert [p for p in range(5000) if _is_prime(p)] == [p for p in range(5000) if trial(p)]


def test_large_prime_header_is_accepted_quickly():
    # 2^61 - 1 is prime; trial division would take minutes on it.
    t0 = time.perf_counter()
    m = parse_matrix("freimat 1\n1 2 zp 2305843009213693951\n0 2305843009213693950\n")
    assert time.perf_counter() - t0 < 1.0
    assert m.ring == RingSpec.prime_field(2**61 - 1)


@pytest.mark.parametrize(
    "composite",
    [
        561,  # Carmichael number
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        2147483647 * 2147483629,  # two 31-bit primes, just under 2^62
        2147483647 * 2147483659,  # two 31-bit primes, just over 2^62
    ],
)
def test_pseudoprimes_and_large_composites_are_refused(composite):
    with pytest.raises(InvalidRing):
        RingSpec.prime_field(composite)


# ---------------------------------------------------------------- construction


def test_matrix_construction_and_access():
    m = Matrix(2, 3, INT64, [[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[1, 2] == 6
    flat = Matrix(2, 3, INT64, [1, 2, 3, 4, 5, 6])
    assert mats_equal(m, flat)


def test_matrix_data_is_read_only():
    m = Matrix(2, 2, INT64, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 9


def test_entry_validation():
    with pytest.raises(InvalidEntry):
        Matrix(1, 2, INT64, [[1 << 63, 0]])
    with pytest.raises(InvalidEntry):
        Matrix(1, 2, INT64, [[1.5, 0]])
    with pytest.raises(InvalidEntry):
        Matrix(1, 2, ZP5, [[5, 0]])
    with pytest.raises(InvalidEntry):
        Matrix(1, 2, ZP5, [[-1, 0]])
    # str() refuses integers of more than 4,300 digits; the message names
    # them all the same.
    with pytest.raises(InvalidEntry, match="^entry 10{5000} outside the signed 64-bit range$"):
        Matrix(1, 1, INT64, [[10**5000]])
    with pytest.raises(InvalidEntry, match="^entry -10{5000} outside the signed 64-bit range$"):
        Vector(INT64, [-(10**5000)])
    Matrix(1, 2, INT64, [[-(1 << 63), (1 << 63) - 1]])  # extremes are valid
    Matrix(1, 2, ZP5, [[0, 4]])


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, INT64, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix(0, 2, INT64, [])
    with pytest.raises(DimensionMismatch):
        Vector(INT64, [])
    with pytest.raises(DimensionMismatch):
        Vector(INT64, [[1, 2]])


# ---------------------------------------------------------------- fixed products


def test_matmul_known_case():
    a = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    b = Matrix.from_rows([[5, 6], [7, 8]], INT64)
    assert matmul(a, b).data.tolist() == [[19, 22], [43, 50]]


def test_matmul_zp_reduces():
    a = Matrix.from_rows([[4, 3], [2, 1]], ZP5)
    b = Matrix.from_rows([[4, 4], [4, 4]], ZP5)
    # entry (0,0): 4*4 + 3*4 = 28 = 3 mod 5
    expected = brute_matmul([[4, 3], [2, 1]], [[4, 4], [4, 4]], 5)
    got = matmul(a, b)
    assert got.data.tolist() == expected
    assert got.ring == ZP5


def test_matmul_nonconformable():
    a = Matrix.from_rows([[1, 2, 3]], INT64)
    with pytest.raises(DimensionMismatch):
        matmul(a, a)


def test_identity_is_neutral():
    rng = random.Random(7)
    m = random_matrix(rng, 4, INT64)
    assert mats_equal(matmul(identity(4, INT64), m), m)
    assert mats_equal(matmul(m, identity(4, INT64)), m)


def test_mat_vec_zero_vector():
    x = Matrix.from_rows([[3, -1], [2, 8]], INT64)
    z = Vector(INT64, [0, 0])
    assert mat_vec(x, z).data.tolist() == [0, 0]


def test_mat_vec_known_case():
    x = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    r = Vector(INT64, [5, -1])
    assert mat_vec(x, r).data.tolist() == [3, 11]


def test_column_extraction_and_bounds():
    x = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    assert column(x, 1).data.tolist() == [2, 4]
    with pytest.raises(IndexOutOfRange):
        column(x, 2)
    with pytest.raises(IndexOutOfRange):
        column(x, -1)


def test_mats_equal_shape_mismatch():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], INT64)
    b = Matrix.from_rows([[1, 2], [3, 4], [5, 6]], INT64)
    with pytest.raises(DimensionMismatch):
        mats_equal(a, b)


def test_ring_mismatch_everywhere():
    a = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    b = Matrix.from_rows([[1, 2], [3, 4]], ZP5)
    for op in (matmul, mats_equal, mat_add, mat_sub):
        with pytest.raises(RingMismatch):
            op(a, b)
    with pytest.raises(RingMismatch):
        mat_vec(a, Vector(ZP5, [1, 0]))


# ---------------------------------------------------------------- overflow discipline


def test_matmul_overflow_reports_instead_of_wrapping():
    big = 1 << 62
    a = Matrix.from_rows([[big, big], [1, 0]], INT64)
    b = Matrix.from_rows([[2, 0], [2, 0]], INT64)
    with pytest.raises(IntegerOverflow):
        matmul(a, b)


def test_matmul_checked_path_matches_exact_arithmetic():
    # Every true result fits, but the magnitude guard cannot prove it, so
    # the limb tier runs, and its term-by-term check for the entries over
    # their certificate; it must match plain Python integer arithmetic.
    big = 1 << 31
    a_rows = [[big, -big], [big, big - 1]]
    b_rows = [[big, 1], [big, 1]]
    a = Matrix.from_rows(a_rows, INT64)
    b = Matrix.from_rows(b_rows, INT64)
    got = matmul(a, b)
    assert got.data.tolist() == brute_matmul(a_rows, b_rows)


def test_mat_vec_overflow():
    big = (1 << 63) - 1
    x = Matrix.from_rows([[big, big]], INT64)
    r = Vector(INT64, [1, 1])
    with pytest.raises(IntegerOverflow):
        mat_vec(x, r)


def test_mat_add_sub_overflow_and_exact_results():
    top = (1 << 63) - 1
    a = Matrix.from_rows([[top]], INT64)
    one = Matrix.from_rows([[1]], INT64)
    with pytest.raises(IntegerOverflow):
        mat_add(a, one)
    assert mat_sub(a, one).data.tolist() == [[top - 1]]
    bottom = Matrix.from_rows([[-(1 << 63)]], INT64)
    with pytest.raises(IntegerOverflow):
        mat_sub(bottom, one)


def test_outer_overflow():
    big = 1 << 40
    u = Vector(INT64, [big])
    with pytest.raises(IntegerOverflow):
        outer(u, u)


def test_zp_add_sub_reduce():
    a = Matrix.from_rows([[4]], ZP5)
    b = Matrix.from_rows([[4]], ZP5)
    assert mat_add(a, b).data.tolist() == [[3]]
    assert mat_sub(Matrix.from_rows([[0]], ZP5), b).data.tolist() == [[1]]


# ---------------------------------------------------------------- operation counter


def test_scalar_multiply_counts_are_exact():
    rng = random.Random(3)
    a = random_matrix(rng, 6, INT64)
    b = random_matrix(rng, 6, INT64)
    r = Vector(INT64, [rng.randint(-5, 5) for _ in range(6)])
    reset_scalar_multiplies()
    matmul(a, b)
    assert scalar_multiplies() == 6 ** 3
    reset_scalar_multiplies()
    mat_vec(a, r)
    assert scalar_multiplies() == 6 ** 2
    reset_scalar_multiplies()
    mats_equal(a, b)
    assert scalar_multiplies() == 0  # comparisons are free of multiplies


# ---------------------------------------------------------------- randomized properties

_ring_st = st.sampled_from([INT64, ZP5, RingSpec.prime_field(7)])


def _entries(ring, n, m):
    if ring.modulus:
        elem = st.integers(min_value=0, max_value=ring.modulus - 1)
    else:
        elem = st.integers(min_value=-50, max_value=50)
    return st.lists(st.lists(elem, min_size=m, max_size=m), min_size=n, max_size=n)


@st.composite
def _square_pair(draw):
    ring = draw(_ring_st)
    n = draw(st.integers(min_value=1, max_value=5))
    a = Matrix(n, n, ring, draw(_entries(ring, n, n)))
    b = Matrix(n, n, ring, draw(_entries(ring, n, n)))
    return a, b


@settings(max_examples=60, deadline=None)
@given(_square_pair())
def test_matmul_matches_brute_force(pair):
    a, b = pair
    expected = brute_matmul(
        a.data.tolist(), b.data.tolist(), a.ring.modulus
    )
    assert matmul(a, b).data.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(_square_pair())
def test_mat_vec_equals_column_combination(pair):
    # X r must equal sum_j r_j * column_j(X) in the ring.
    x, other = pair
    rng = random.Random(x.rows * 31 + int(x.data.sum()))
    n = x.rows
    modulus = x.ring.modulus
    if modulus:
        r = [rng.randrange(modulus) for _ in range(n)]
    else:
        r = [rng.randint(-9, 9) for _ in range(n)]
    got = mat_vec(x, Vector(x.ring, r)).data.tolist()
    acc = [0] * n
    for j in range(n):
        col = column(x, j).data.tolist()
        for i in range(n):
            acc[i] += r[j] * col[i]
    if modulus:
        acc = [v % modulus for v in acc]
    assert got == acc


@settings(max_examples=40, deadline=None)
@given(_square_pair(), st.integers(min_value=0, max_value=2 ** 32))
def test_matmul_associativity(pair, seed):
    a, b = pair
    c = random_matrix(random.Random(seed), a.rows, a.ring, bound=20)
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    assert mats_equal(left, right)


@settings(max_examples=40, deadline=None)
@given(_square_pair())
def test_mat_vec_is_linear(pair):
    x, y = pair
    n = x.rows
    modulus = x.ring.modulus
    rng = random.Random(n * 1009 + int(y.data.sum()))
    if modulus:
        r = [rng.randrange(modulus) for _ in range(n)]
        s = [rng.randrange(modulus) for _ in range(n)]
        rs = [(u + v) % modulus for u, v in zip(r, s)]
    else:
        r = [rng.randint(-9, 9) for _ in range(n)]
        s = [rng.randint(-9, 9) for _ in range(n)]
        rs = [u + v for u, v in zip(r, s)]
    lhs = mat_vec(x, Vector(x.ring, rs)).data.tolist()
    xr = mat_vec(x, Vector(x.ring, r)).data.tolist()
    xs = mat_vec(x, Vector(x.ring, s)).data.tolist()
    rhs = [u + v for u, v in zip(xr, xs)]
    if modulus:
        rhs = [v % modulus for v in rhs]
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(_square_pair())
def test_outer_matches_brute_force(pair):
    a, _ = pair
    n = a.rows
    u = column(a, 0)
    v = column(a, n - 1)
    got = outer(u, v).data.tolist()
    expected = brute_matmul(
        [[int(x)] for x in u.data], [[int(y) for y in v.data]], a.ring.modulus
    )
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(_square_pair())
def test_mat_vec_matches_brute_force(pair):
    x, y = pair
    r = [int(v) for v in column(y, 0).data]
    got = mat_vec(x, Vector(x.ring, r)).data.tolist()
    assert got == brute_mat_vec(x.data.tolist(), r, x.ring.modulus)


def test_numpy_and_checked_paths_agree():
    # Same inputs through the chooser's int64 tier and the limb tier must
    # match exact arithmetic.  Bounds far past the entries force the limb
    # tier to split both operands.
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        a_rows = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
        b_rows = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
        fast = matmul(Matrix(n, n, INT64, a_rows), Matrix(n, n, INT64, b_rows))
        x = np.array(a_rows, dtype=np.int64)
        limbs = matrix_mod._limb_product(x, np.array(b_rows, dtype=np.int64), 2**40, 2**40, None)(x)
        assert fast.data.tolist() == limbs.tolist() == brute_matmul(a_rows, b_rows)


# ---------------------------------------------------------------- product tiers

# (inner, max|x|, max|y|) with inner * max|x| * max|y| landing on each tier
# boundary of the product chooser: the float32 limit 2^24, the float64
# limit 2^53 and the int64 limit.
_TIER_CASES = [
    (5, 819, 4097),  # 2^24 - 1 = 5 * (3^2 * 7 * 13) * (17 * 241)
    (4, 2**11, 2**11),  # 2^24: still float32
    (97, 257, 673),  # 2^24 + 1 = 97 * 257 * 673: float64
    (1, 441650591, 20394401),  # 2^53 - 1 = 6361 * 69431 * 20394401
    (2, 2**26, 2**26),  # 2^53: still float64
    (3, 107, 28059810762433),  # 2^53 + 1: int64
    (7, 64897, 20303320287433),  # 2^63 - 1: int64, the last exact bound
    (2, 2**31, 2**31),  # 2^63: int64 checked, limbs over Z_p
    (1, 153092023, 60247241209),  # 2^63 - 1 = (7^2 * 73 * 127 * 337) * (92737 * 649657)
    (1, 2**31, 2**32),  # 2^63 with an inner dimension of 1
]
_BIG_PRIME = RingSpec.prime_field(2**61 - 1)


def _checked_ref(x_rows, y_rows, modulus):
    """Python-int product; for int64, None when an elementary product or a
    partial sum in ascending inner index leaves the 64-bit range."""
    out = []
    for row in x_rows:
        out_row = []
        for j in range(len(y_rows[0])):
            acc = 0
            for t, v in enumerate(row):
                term = v * y_rows[t][j]
                acc += term
                if modulus is None and not (
                    INT64_MIN <= term <= INT64_MAX and INT64_MIN <= acc <= INT64_MAX
                ):
                    return None
            out_row.append(acc % modulus if modulus else acc)
        out.append(out_row)
    return out


def _entries_at(rng, rows, cols, mag, ring, mode):
    """Entries of magnitude at most ``mag`` with one entry exactly ``mag``:
    all ``mag`` when saturated, else uniform (and signed for int64)."""
    if mode == "saturated":
        return [[mag] * cols for _ in range(rows)]
    lo = 0 if ring.modulus else -mag
    vals = [[rng.randint(lo, mag) for _ in range(cols)] for _ in range(rows)]
    vals[rng.randrange(rows)][rng.randrange(cols)] = rng.choice([mag, -mag]) if lo else mag
    return vals


@contextmanager
def _tier_spy():
    """Names of the tiers as the chooser calls them: "float32" or "float64"
    for each product on float BLAS, the element type its rows of x are
    converted to, "limbs" for the limb tier and "check" for each int64
    overflow check; the limb tier and the check run their products through
    the float tier."""
    used = []
    real = matrix_mod._scratch, matrix_mod._limb_product, matrix_mod._check_int64

    def scratch(pool, name, shape, dtype):
        # Every float product converts its rows of x into the buffer "x".
        if name == "x":
            used.append(np.dtype(dtype).name)
        return real[0](pool, name, shape, dtype)

    def spy(name, fn):
        def call(*args, **kwargs):
            used.append(name)
            return fn(*args, **kwargs)

        return call

    matrix_mod._scratch = scratch
    matrix_mod._limb_product, matrix_mod._check_int64 = spy("limbs", real[1]), spy("check", real[2])
    try:
        yield used
    finally:
        matrix_mod._scratch, matrix_mod._limb_product, matrix_mod._check_int64 = real


def _tier(used):
    for tier in ("limbs", "float64", "float32"):
        if tier in used:
            return tier
    return "einsum"


@settings(max_examples=120, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_TIER_CASES) - 1),
    ring=st.sampled_from([INT64, _BIG_PRIME]),
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=3),
    mode=st.sampled_from(["saturated", "random"]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_products_match_python_ints_at_tier_boundaries(case, ring, rows, cols, mode, seed):
    inner, mx, my = _TIER_CASES[case]
    bound = inner * mx * my
    rng = random.Random(seed)
    x_rows = _entries_at(rng, rows, inner, mx, ring, mode)
    y_rows = _entries_at(rng, inner, cols, my, ring, mode)
    x = Matrix(rows, inner, ring, x_rows)
    y = Matrix(inner, cols, ring, y_rows)

    expected = _checked_ref(x_rows, y_rows, ring.modulus)
    with _tier_spy() as used:
        if expected is None:
            with pytest.raises(IntegerOverflow):
                matmul(x, y)
        else:
            assert matmul(x, y).data.tolist() == expected
    # Past 2^63 - 1 an int64 product is checked first, then takes the tier
    # its size picks; past 2^53, einsum keeps a product only while it has
    # at most two columns, an inner dimension of 1 or is small, and Z_p past
    # 2^63 - 1 always takes limbs.  Float BLAS needs more than one column
    # and an inner dimension past 1: with one, numpy leaves BLAS for a slow
    # loop.  It runs on float32 exactly where the bound is at most 2^24, and
    # the limb tier and the check run on float64.
    small = cols <= 2 or inner == 1 or rows * inner * cols <= matrix_mod._EINSUM_MACS
    check = ring == INT64 and bound > INT64_MAX
    limbs = (bound > 2**53 and not small) or (ring != INT64 and bound > INT64_MAX)
    plain = bound <= 2**53 and cols > 1 and inner > 1
    assert ("check" in used) == check
    assert ("limbs" in used) == limbs
    assert ("float32" in used) == (plain and bound <= 2**24)
    assert ("float64" in used) == (plain and bound > 2**24 or limbs or check)

    expected = _checked_ref(x_rows, [row[:1] for row in y_rows], ring.modulus)
    r = Vector(ring, [row[0] for row in y_rows])
    with _tier_spy() as used:
        if expected is None:
            with pytest.raises(IntegerOverflow):
                mat_vec(x, r)
        else:
            assert mat_vec(x, r).data.tolist() == [row[0] for row in expected]
    # A single column pays for conversion only past 2^63 - 1: for the
    # check over int64, for limbs over Z_p.
    vbound = inner * mx * max(abs(row[0]) for row in y_rows)
    assert ("float64" in used) == (vbound > INT64_MAX)
    assert "float32" not in used
    assert ("check" in used) == (ring == INT64 and vbound > INT64_MAX)
    assert ("limbs" in used) == (ring != INT64 and vbound > INT64_MAX)


@settings(max_examples=80, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_TIER_CASES) - 1),
    ring=st.sampled_from([INT64, _BIG_PRIME]),
    cols=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(["saturated", "random"]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_fingerprint_block_matches_python_ints_at_tier_boundaries(case, ring, cols, mode, seed):
    # B R and C R land on the case's bound; A has unit entries, so A (B R)
    # carries B R's magnitude into a second product.
    n, mb, mr = _TIER_CASES[case]
    rng = random.Random(seed)
    unit = [0, 1] if ring.modulus else [-1, 0, 1]
    a_rows = [[rng.choice(unit) for _ in range(n)] for _ in range(n)]
    b_rows = _entries_at(rng, n, n, mb, ring, mode)
    c_rows = _entries_at(rng, n, n, mb, ring, "random")
    r_rows = _entries_at(rng, n, cols, mr, ring, mode)
    a, b, c = (Matrix(n, n, ring, m) for m in (a_rows, b_rows, c_rows))
    r = Matrix(n, cols, ring, r_rows)
    br = _checked_ref(b_rows, r_rows, ring.modulus)
    abr = None if br is None else _checked_ref(a_rows, br, ring.modulus)
    cr = _checked_ref(c_rows, r_rows, ring.modulus)
    if abr is None or cr is None:
        with pytest.raises(IntegerOverflow):
            fingerprint_block(a, b, c, r)
    else:
        expected = [[abr[i][t] != cr[i][t] for t in range(cols)] for i in range(n)]
        assert fingerprint_block(a, b, c, r).tolist() == expected


# (n, max|B|, rho) with n max|B| rho, the bound on B R, on 2^24 - 1, 2^24
# and 2^24 + 1; every factor is below the prime 32749.
_SINGLE_CASES = [(5, 4097, 819), (8, 2**11, 2**10), (97, 257, 673)]


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_SINGLE_CASES) - 1),
    ring=st.sampled_from([INT64, RingSpec.prime_field(32749)]),
    k=st.integers(min_value=2, max_value=12),
    wrong=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_products_and_verdicts_match_python_ints_at_the_float32_limit(case, ring, k, wrong, seed):
    # B R on float32 up to 2^24 and on float64 past it, as matmul forms it,
    # inside fingerprint_block and inside verify, whose law has rho as its
    # largest |support value|: each against Python integers.
    n, mb, rho = _SINGLE_CASES[case]
    p = ring.modulus
    rng = random.Random(seed)
    mode = rng.choice(["saturated", "random"])
    a_rows = _entries_at(rng, n, n, 1, ring, "random")
    b_rows = _entries_at(rng, n, n, mb, ring, mode)
    r_rows = _entries_at(rng, n, k, rho, ring, mode)
    c_rows = _checked_ref(a_rows, b_rows, p)
    if wrong:
        i, j = rng.randrange(n), rng.randrange(n)
        c_rows[i][j] = (c_rows[i][j] + 1) % p if p else c_rows[i][j] + 1
    a, b, c = (Matrix(n, n, ring, m) for m in (a_rows, b_rows, c_rows))
    r = Matrix(n, k, ring, r_rows)

    br = _checked_ref(b_rows, r_rows, p)
    with _tier_spy() as used:
        assert matmul(b, r).data.tolist() == br
    assert used == ["float32" if n * mb * rho <= 2**24 else "float64"]
    abr, cr = _checked_ref(a_rows, br, p), _checked_ref(c_rows, r_rows, p)
    assert fingerprint_block(a, b, c, r).tolist() == [[abr[i][t] != cr[i][t] for t in range(k)] for i in range(n)]

    # verify's trial block B R' has the bound n max|B| rho too.
    support = (-rho, 0, 1, rho) if p is None else (0, 1, rho)
    dist = uniform_support(support)
    expected = None
    for t in range(k):
        col = [[v] for v in sample_vector(dist, n, substream(seed, t), ring).data.tolist()]
        bv = _checked_ref(b_rows, col, p)
        diff = [i for i, (u, v) in enumerate(zip(_checked_ref(a_rows, bv, p), _checked_ref(c_rows, col, p))) if u != v]
        if diff:
            expected = (t, [v[0] for v in col], diff[0])
            break
    got = verify(a, b, c, VerifyConfig(k, seed, dist))
    if expected is None:
        assert got.accepted
    else:
        assert (got.witness_iteration, got.witness.data.tolist(), got.mismatch_row) == expected


def test_a_zero_right_operand_runs_on_float32_whatever_the_left_holds():
    # max|y| = 0 makes the bound 0 however large x is: INT64_MIN and
    # INT64_MAX convert to float32 as -2^63 and 2^63, and every product
    # term is still an exact zero.
    x = Matrix.from_rows([[INT64_MIN, INT64_MAX, 1], [INT64_MAX, INT64_MIN, -1]], INT64)
    y = Matrix(3, 4, INT64, [[0] * 4] * 3)
    with _tier_spy() as used:
        got = matmul(x, y)
    assert used == ["float32"]
    assert got.data.tolist() == [[0] * 4] * 2 and got._a.dtype == np.int16


# ---------------------------------------------------------------- limb tier

_P31, _P61, _P63 = 2**31 - 1, 2**61 - 1, 2**63 - 25
# (inner, max|x|, max|y|, limb width b, landing): inner * max|x| * (2^b - 1)
# lands on 2^53 - 1 and on 2^53, and in the last case b + 1 would land on
# 2^53 + 1 = 3 * 3002399751580331, a product float64 rounds.
_LIMB_CASES = [
    (1, 1, 2**63 - 1, 53, 2**53 - 1),
    (2, 2**52, 1, 1, 2**53),
    (1, 3002399751580331, 3, 1, 2**53 + 1),
]


@settings(max_examples=80, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_LIMB_CASES) - 1),
    ring=st.sampled_from([INT64, RingSpec.prime_field(_P61), RingSpec.prime_field(_P63)]),
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_limb_products_at_the_float64_limit(case, ring, rows, cols, seed):
    inner, mx, my, width, landing = _LIMB_CASES[case]
    # The largest 2^e - 1 the ring holds: all its full b-bit limbs are 2^b - 1.
    my = min(my, (1 << ((ring.modulus or 2**63).bit_length() - 1)) - 1)
    # x has at least as many entries as y, so a tie between plans leaves x whole.
    rows = max(rows, cols)
    nx, _, _, b = matrix_mod._limb_plan(rows, inner, cols, mx, my)
    assert (nx, b) == (1, width)
    assert landing in (inner * mx * ((1 << b) - 1), inner * mx * ((1 << (b + 1)) - 1))
    rng = random.Random(seed)
    sign = (lambda: rng.choice([-1, 1])) if ring == INT64 else (lambda: 1)
    x_rows = [[sign() * mx for _ in range(inner)] for _ in range(rows)]
    y_rows = [[sign() * my for _ in range(cols)] for _ in range(inner)]
    x = np.array(x_rows, dtype=np.int64)
    got = matrix_mod._limb_product(x, np.array(y_rows, dtype=np.int64), mx, my, ring.modulus)(x)
    assert got.tolist() == _checked_ref(x_rows, y_rows, ring.modulus)


_shapes = st.integers(min_value=1, max_value=2**20)


@settings(max_examples=200, deadline=None)
@given(
    rows=_shapes,
    inner=_shapes,
    cols=_shapes,
    mx=st.integers(min_value=1, max_value=2**63),
    my=st.integers(min_value=1, max_value=2**63),
)
def test_limb_plan_keeps_every_limb_product_exact(rows, inner, cols, mx, my):
    # The widest y limbs x's limbs allow, and enough limbs to cover both.
    nx, a, ny, b = matrix_mod._limb_plan(rows, inner, cols, mx, my)
    top = mx if nx == 1 else (1 << a) - 1
    assert nx * a >= mx.bit_length() and ny * b >= my.bit_length()
    assert inner * top * ((1 << b) - 1) <= 2**53 < inner * top * ((1 << (b + 1)) - 1)


@settings(max_examples=200, deadline=None)
@given(
    rows=_shapes,
    inner=_shapes,
    cols=_shapes,
    mx=st.integers(min_value=1, max_value=2**63),
    my=st.integers(min_value=1, max_value=2**63),
)
def test_limb_plan_ties_split_the_operand_with_fewer_entries(rows, inner, cols, mx, my):
    # The shape never costs a limb product; among the cheapest plans, the
    # operand with fewer entries is split at least as far as when it has more.
    nx, _, ny, _ = matrix_mod._limb_plan(rows, inner, cols, mx, my)
    nx_t, _, ny_t, _ = matrix_mod._limb_plan(cols, inner, rows, mx, my)
    assert nx * ny == nx_t * ny_t
    if rows < cols:
        assert nx >= nx_t and ny <= ny_t


def test_limb_plan_splits_a_small_x_against_a_wide_block():
    # A (BR) in the empirical rate at n = 64, entries up to 2^24: two 13-bit
    # limbs of the 64 x 64 A against BR whole, not BR in two 23-bit limbs.
    assert matrix_mod._limb_plan(64, 64, 3999, 2**24, 2**30) == (2, 13, 1, 34)
    assert matrix_mod._limb_plan(3999, 64, 64, 2**24, 2**30) == (1, 25, 2, 23)
    assert matrix_mod._limb_plan(64, 64, 64, 2**24, 2**30) == (1, 25, 2, 23)


_P26 = 67108859  # the largest prime below 2^26: 64 p^2 lies in (2^53, 2^63)


@pytest.mark.parametrize("ring", [INT64, RingSpec.prime_field(_P26)])
def test_wide_products_past_2_53_take_limbs_without_the_overflow_check(ring):
    # Bounds in (2^53, 2^63 - 1] at n = 64: one-column and 19-column products
    # stay on einsum, a 3999-column block takes limbs, and no int64 product
    # below 2^63 pays for the overflow check.
    n, p = 64, ring.modulus
    rng = np.random.default_rng(8)
    lo, mx, my = (0, p - 1, p - 1) if p else (-(2**24), 2**24, 2**30)
    xa = rng.integers(lo, mx, size=(n, n), endpoint=True)
    xa[0, 0] = mx
    x = Matrix(n, n, ring, xa)
    for w, tier in ((1, "einsum"), (19, "einsum"), (3999, "limbs")):
        ya = rng.integers(-my if not p else 0, my, size=(n, w), endpoint=True)
        ya[0, 0] = my
        assert 2**53 < n * mx * my <= INT64_MAX
        expected = np.einsum("ik,kj->ij", xa, ya)
        expected = expected % p if p else expected
        with _tier_spy() as used:
            got = matmul(x, Matrix(n, w, ring, ya))
        assert _tier(used) == tier and "check" not in used
        assert np.array_equal(got.data, expected)
        if w == 1:
            with _tier_spy() as used:
                got = mat_vec(x, Vector(ring, ya[:, 0]))
            assert _tier(used) == "einsum"
            assert np.array_equal(got.data, expected[:, 0])


@pytest.mark.parametrize("cols", [1, 8])
def test_small_int64_products_past_2_63_are_checked_then_run_on_einsum(cols):
    # An 8 x 8 by 8 x cols product whose bound passes 2^63 - 1 while every
    # true entry fits: the check's certificate is the only float64 product,
    # so the product itself runs on einsum, with the exact entries.
    n = 8
    rng = np.random.default_rng(10)
    xa = rng.integers(-(2**20), 2**20, size=(n, n), endpoint=True)
    ya = rng.integers(-(2**20), 2**20, size=(n, cols), endpoint=True)
    xa[5, 7], ya[3, 0] = 2**50, -(2**20)
    ya[7] = rng.integers(-4, 4, size=cols, endpoint=True)
    assert n * 2**50 * 2**20 > INT64_MAX
    x = Matrix(n, n, INT64, xa)
    products = [lambda: matmul(x, Matrix(n, cols, INT64, ya))]
    if cols == 1:
        products.append(lambda: mat_vec(x, Vector(INT64, ya[:, 0])))
    for product in products:
        with _tier_spy() as used:
            got = product()
        assert used == ["check", "float64"]
        assert np.array_equal(got.data.reshape(n, cols), np.einsum("ik,kj->ij", xa, ya))
    # Entry (5, 0) now has the term 2^50 * 2^14 = 2^64: the same message the
    # check has always raised, and no tier runs.
    ya[7, 0] = 2**14
    for product in products:
        with _tier_spy() as used:
            with pytest.raises(IntegerOverflow, match=r"^product term at entry \(5, 0\) leaves the 64-bit range$"):
                product()
        assert used == ["check", "float64"]


def test_int64_products_past_2_63_still_run_the_overflow_check():
    # One large entry on each side lifts the bound past 2^63 while every
    # true entry fits: the check runs, finds nothing, and the limbs agree.
    n, w = 64, 3999
    rng = np.random.default_rng(9)
    xa = rng.integers(-(2**20), 2**20, size=(n, n), endpoint=True)
    ya = rng.integers(-(2**20), 2**20, size=(n, w), endpoint=True)
    xa[5, 7], ya[3, 11] = 2**40, -(2**30)
    with _tier_spy() as used:
        got = matmul(Matrix(n, n, INT64, xa), Matrix(n, w, INT64, ya))
    assert _tier(used) == "limbs" and "check" in used
    assert np.array_equal(got.data, np.einsum("ik,kj->ij", xa, ya))
    ya[7, 0] = 2**30
    with pytest.raises(IntegerOverflow, match=r"^product term at entry \(5, 0\) "):
        matmul(Matrix(n, n, INT64, xa), Matrix(n, w, INT64, ya))


# ---------------------------------------------------------------- lean limb tier
#
# The limb tier splits x as it converts it, stacks its limbs as the rows of
# one BLAS call and recombines by in-place shift-adds.  Each product is
# checked against Python integers through the limb tier itself and through
# matmul, whichever tier the chooser then picks.


def _bounded(rng, rows, cols, mag, ring):
    """Entries within ``mag`` (nonnegative over Z_p), one of them at the
    edge: -mag over int64, so INT64_MIN appears when mag is 2**63."""
    lo = 0 if ring.modulus else -mag
    hi = mag if ring.modulus or mag < 2**63 else mag - 1
    vals = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    vals[rng.randrange(rows)][rng.randrange(cols)] = mag if ring.modulus else -mag
    return vals


@pytest.mark.parametrize("n, w", [(8, 4), (64, 19)])
@pytest.mark.parametrize("ring", [INT64, _BIG_PRIME], ids=str)
@pytest.mark.parametrize("bits", [54, 58, 63])
def test_limb_products_match_python_ints_between_2_53_and_2_63(n, w, ring, bits):
    # n max|x| max|y| in (2^53, 2^63 - 1], within 2^34 of 2^63 in the
    # largest case: no int64 product may run the overflow check.
    rng = random.Random(n * 1000 + bits)
    mx = 1 << ((bits - n.bit_length()) // 2)
    my = ((1 << bits) - 1) // (n * mx) if bits == 63 else 1 << (bits - n.bit_length() - mx.bit_length() + 2)
    assert 2**53 < n * mx * my <= INT64_MAX
    p = ring.modulus
    for _ in range(3):
        x_rows, y_rows = _bounded(rng, n, n, mx, ring), _bounded(rng, n, w, my, ring)
        x, y = np.array(x_rows, dtype=np.int64), np.array(y_rows, dtype=np.int64)
        expected = brute_matmul(x_rows, y_rows, p)
        assert matrix_mod._limb_product(x, y, mx, my, p)(x).tolist() == expected
        with _tier_spy() as used:
            assert matmul(Matrix(n, n, ring, x_rows), Matrix(n, w, ring, y_rows)).data.tolist() == expected
        assert "check" not in used


@pytest.mark.parametrize("w", [1, 4, 19])
def test_limb_products_of_int64_min_entries(w):
    # Two's complement limbs of INT64_MIN: every low limb is 0 and the top
    # limb carries the sign.  Products whose entries fit take limbs exactly,
    # and those that do not raise the int64 overflow check's error.
    rng = random.Random(w)
    n = 8
    for trial in range(20):
        x_rows = [[rng.choice([INT64_MIN, INT64_MAX, -1, 0, 1, rng.randint(-(2**40), 2**40)]) for _ in range(n)] for _ in range(n)]
        y_rows = [[rng.choice([0, 0, 0, 1, -1]) for _ in range(w)] for _ in range(n)]
        x, y = np.array(x_rows, dtype=np.int64), np.array(y_rows, dtype=np.int64)
        expected = _checked_ref(x_rows, y_rows, None)
        if expected is None:
            with pytest.raises(IntegerOverflow):
                matmul(Matrix(n, n, INT64, x_rows), Matrix(n, w, INT64, y_rows))
            continue
        assert matrix_mod._limb_product(x, y, 2**63, 1, None)(x).tolist() == expected
        assert matmul(Matrix(n, n, INT64, x_rows), Matrix(n, w, INT64, y_rows)).data.tolist() == expected


@pytest.mark.parametrize("n, w", [(8, 4), (64, 19)])
def test_int64_products_past_2_63_are_checked_then_exact_on_limbs(n, w):
    # One large entry on each side lifts the bound past 2^63 - 1 while every
    # true entry fits: the check passes and the limb tier agrees with Python
    # integers; one more large entry makes a term of 2^64, which the check
    # reports before any row exists.
    rng = random.Random(n + w)
    x_rows = [[rng.randint(-(2**20), 2**20) for _ in range(n)] for _ in range(n)]
    y_rows = [[rng.randint(-(2**20), 2**20) for _ in range(w)] for _ in range(n)]
    x_rows[5][7], y_rows[3][w - 1] = 2**40, -(2**30)
    assert n * 2**40 * 2**30 > INT64_MAX
    x, y = np.array(x_rows, dtype=np.int64), np.array(y_rows, dtype=np.int64)
    expected = brute_matmul(x_rows, y_rows)
    assert matrix_mod._limb_product(x, y, 2**40, 2**30, None)(x).tolist() == expected
    with _tier_spy() as used:
        assert matmul(Matrix(n, n, INT64, x_rows), Matrix(n, w, INT64, y_rows)).data.tolist() == expected
    assert "check" in used
    y_rows[7][0] = 2**24
    with pytest.raises(IntegerOverflow, match=r"^product term at entry \(5, 0\) leaves the 64-bit range$"):
        matmul(Matrix(n, n, INT64, x_rows), Matrix(n, w, INT64, y_rows))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=9),
    inner=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=9),
    block=st.integers(min_value=1, max_value=12),
    ring=st.sampled_from([INT64, RingSpec.prime_field(_P26), RingSpec.prime_field(_P61)]),
    mag=st.sampled_from([2**20, 2**40, 2**62]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_streamed_products_match_python_ints(rows, inner, cols, block, ring, mag, seed):
    # A tiny _FLOAT_BLOCK makes the row blocks of x end on partial pieces,
    # for plain float64 products and for limb products, with y narrower
    # than x is tall and wider.
    rng = random.Random(seed)
    p = ring.modulus
    fmag = math.isqrt(2**53 // inner)
    fx = [[rng.randint(-fmag, fmag) for _ in range(inner)] for _ in range(rows)]
    fy = [[rng.randint(-fmag, fmag) for _ in range(cols)] for _ in range(inner)]
    top = min(mag, p - 1) if p else mag
    lo = 0 if p else -top
    x_rows = [[rng.randint(lo, top) for _ in range(inner)] for _ in range(rows)]
    y_rows = [[rng.randint(lo, top) for _ in range(cols)] for _ in range(inner)]
    x, y = np.array(x_rows, dtype=np.int64), np.array(y_rows, dtype=np.int64)
    mx, my = int(np.abs(x).max()) or 1, int(np.abs(y).max()) or 1
    expected = _checked_ref(x_rows, y_rows, p)
    with patch.object(matrix_mod, "_FLOAT_BLOCK", block):
        got = matrix_mod._float_product(np.array(fy, dtype=np.int64), rows)(np.array(fx, dtype=np.int64))
        assert got.tolist() == brute_matmul(fx, fy)
        if expected is None:
            # The chooser applies the int64 overflow rule, before any row.
            with pytest.raises(IntegerOverflow):
                matrix_mod._exact_product(x, y, p, mx, my)
        else:
            assert matrix_mod._limb_product(x, y, mx, my, p)(x).tolist() == expected


def _near(p):
    return st.one_of(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=p - 4, max_value=p - 1),
        st.integers(min_value=0, max_value=p - 1),
    )


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([_P31, _P61, _P63]), st.data())
def test_products_match_python_ints_near_large_moduli(p, data):
    ring = RingSpec.prime_field(p)
    n = data.draw(st.integers(min_value=1, max_value=6))
    cols = data.draw(st.integers(min_value=1, max_value=4))

    def draw(rows, width):
        row = st.lists(_near(p), min_size=width, max_size=width)
        return data.draw(st.lists(row, min_size=rows, max_size=rows))

    a_rows, b_rows, c_rows, r_rows = draw(n, n), draw(n, n), draw(n, n), draw(n, cols)
    a, b, c = (Matrix(n, n, ring, m) for m in (a_rows, b_rows, c_rows))
    assert matmul(a, b).data.tolist() == brute_matmul(a_rows, b_rows, p)
    r = [row[0] for row in r_rows]
    assert mat_vec(a, Vector(ring, r)).data.tolist() == brute_mat_vec(a_rows, r, p)
    abr = brute_matmul(a_rows, brute_matmul(b_rows, r_rows, p), p)
    cr = brute_matmul(c_rows, r_rows, p)
    expected = [[abr[i][t] != cr[i][t] for t in range(cols)] for i in range(n)]
    assert fingerprint_block(a, b, c, Matrix(n, cols, ring, r_rows)).tolist() == expected


@settings(max_examples=150, deadline=None)
@given(
    target=st.sampled_from([2**63 - 1, 2**63]),
    inner=st.integers(min_value=2, max_value=5),
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_int64_certificates_at_the_int64_limit(target, inner, rows, cols, seed):
    # Every entry's sum of |x_ik| |y_kj| is exactly ``target``: y is +-1 and
    # each row of x splits ``target`` into random magnitudes with random signs.
    rng = random.Random(seed)
    y_rows = [[rng.choice([-1, 1]) for _ in range(cols)] for _ in range(inner)]
    x_rows = []
    for _ in range(rows):
        parts = [target // inner] * inner
        parts[0] += target - sum(parts)
        for _ in range(inner):
            u, v = rng.randrange(inner), rng.randrange(inner)
            d = rng.randint(0, min(parts[u], INT64_MAX - parts[v]))
            parts[u] -= d
            parts[v] += d
        x_rows.append([rng.choice([-1, 1]) * v for v in parts])
    expected = _checked_ref(x_rows, y_rows, None)
    x, y = Matrix(rows, inner, INT64, x_rows), Matrix(inner, cols, INT64, y_rows)
    if expected is None:
        with pytest.raises(IntegerOverflow):
            matmul(x, y)
    else:
        assert matmul(x, y).data.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_partial_sum_overflow_raises_even_when_the_entry_fits(rows, cols, data):
    # Row i's entries climb past 2^63 - 1 and come back to 2^62, which fits;
    # the ascending partial-sum rule still refuses them, and names the first
    # in row-major order even when a later row fails too.
    big = 1 << 62
    bad = data.draw(st.sets(st.integers(min_value=0, max_value=rows - 1), min_size=1))
    x_rows = [[big, big, -big] if i in bad else [1, 2, 3] for i in range(rows)]
    y_rows = [[1] * cols for _ in range(3)]
    x, y = Matrix(rows, 3, INT64, x_rows), Matrix(3, cols, INT64, y_rows)
    with pytest.raises(IntegerOverflow, match=rf"^partial sum at entry \({min(bad)}, 0\) "):
        matmul(x, y)
    with pytest.raises(IntegerOverflow, match=rf"^partial sum at entry \({min(bad)}, 0\) "):
        mat_vec(x, Vector(INT64, [1, 1, 1]))


_edge_int64 = st.one_of(
    st.integers(min_value=INT64_MIN, max_value=INT64_MIN + 3),
    st.integers(min_value=INT64_MAX - 3, max_value=INT64_MAX),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_edge_int64, _edge_int64), min_size=1, max_size=6))
def test_add_sub_overflow_matches_python_ints(pairs):
    a = Matrix(1, len(pairs), INT64, [[x for x, _ in pairs]])
    b = Matrix(1, len(pairs), INT64, [[y for _, y in pairs]])
    for op, f in ((mat_add, lambda x, y: x + y), (mat_sub, lambda x, y: x - y)):
        exact = [f(x, y) for x, y in pairs]
        if all(INT64_MIN <= v <= INT64_MAX for v in exact):
            assert op(a, b).data.tolist() == [exact]
        else:
            with pytest.raises(IntegerOverflow):
                op(a, b)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2**61 - 1, 2**63 - 25]),  # 2^63 - 25: the largest prime below 2^63
    st.integers(min_value=0, max_value=2**63),
    st.integers(min_value=0, max_value=2**63),
)
def test_zp_add_sub_with_moduli_near_the_int64_limit(p, x, y):
    x, y = x % p, y % p
    ring = RingSpec.prime_field(p)
    a, b = Matrix(1, 1, ring, [[x]]), Matrix(1, 1, ring, [[y]])
    assert mat_add(a, b)[0, 0] == (x + y) % p
    assert mat_sub(a, b)[0, 0] == (x - y) % p


# ---------------------------------------------------------------- two-part comparison


def _part_width_reference(inner, mx, my, mu, mv):
    """The largest s in 0..62 meeting both of ``_part_width``'s
    inequalities, by Python integers, or None."""
    ok = [
        s
        for s in range(63)
        if inner * (2**s - 1) * (my + mv) <= 2**53
        and inner * (-(-mx // 2**s) * my + -(-mu // 2**s) * mv) <= 2**53
    ]
    return max(ok) if ok else None


def _limbs(m, s):
    """The low digits and the high limb of ``m`` at 2^s, as ``_split``
    forms them, in Python integers."""
    rows = m.tolist()
    return [[v % 2**s for v in row] for row in rows], [[v >> s for v in row] for row in rows]


def _two_parts(x, u, y, v, s):
    """``_parts_differ``'s mask of [x | u] [y; v] at 2^s, with H and L,
    its high and low limb products, as Python integers."""
    mask = matrix_mod._parts_differ(x, u, np.concatenate((y, v)).astype(np.float64), s)
    (x0, x1), (u0, u1) = _limbs(x, s), _limbs(u, s)
    yl, vl = y.tolist(), v.tolist()

    def side(xa, ua):
        return [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(brute_matmul(xa, yl), brute_matmul(ua, vl))]

    return mask, side(x1, u1), side(x0, u0)


@pytest.mark.parametrize("n, w", [(2, 2), (8, 4), (64, 19)])
def test_two_part_mask_matches_python_ints(n, w):
    # x = A, y = BR, v = -R with R the first w unit columns, so [x | u] [y;
    # v] = x y - u[:, :w]; u's first w columns are x y minus delta, which is
    # 0, +-1, +-2^s or +-(2^s - 1) at random entries.  Row 0 of x is a unit
    # row and row 0 of y is below 2^(s - 1), so in row 0 H cancels alone
    # where delta is +-1 and L where it is +-2^s.  2^s H + L must be the
    # Python difference.
    rng = np.random.default_rng(10 * n + w)
    mx, my = 1 << 20, 1 << 30
    s = matrix_mod._part_width(n, mx, my, n * mx * my + 2**20, 1)
    assert s == _part_width_reference(n, mx, my, n * mx * my + 2**20, 1) and s > 2
    deltas = [0, 1, -1, 2**s, -(2**s), 2**s - 1, 1 - 2**s]
    seen = set()
    for _ in range(12):
        x = rng.integers(-mx, mx, (n, n), endpoint=True)
        x[0], x[0, 0] = 0, 1
        y = rng.integers(-my, my, (n, w), endpoint=True)
        y[0] = rng.integers(1, 2 ** (s - 1), w)
        right = brute_matmul(x.tolist(), y.tolist())
        delta = [[deltas[k] for k in row] for row in rng.integers(len(deltas), size=(n, w)).tolist()]
        u = rng.integers(-my, my, (n, n), endpoint=True)
        u[:, :w] = [[right[i][t] - delta[i][t] for t in range(w)] for i in range(n)]
        v = -np.eye(n, w, dtype=np.int64)
        mask, high, low = _two_parts(x, u, y, v, s)
        for i in range(n):
            for t in range(w):
                assert 2**s * high[i][t] + low[i][t] == delta[i][t]
                assert mask[i, t] == (delta[i][t] != 0)
                seen.add((delta[i][t], high[i][t] == 0, low[i][t] == 0))
    assert {d for d, _, _ in seen} == set(deltas)
    # Cancelling in H but not in L, in L but not in H, in both, and in
    # neither while the sides agree.
    assert {(h, lo) for d, h, lo in seen if d} >= {(True, False), (False, True)}
    assert {(h, lo) for d, h, lo in seen if not d} >= {(True, True), (False, False)}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    w=st.integers(min_value=1, max_value=5),
    s=st.integers(min_value=1, max_value=40),
    vbits=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_two_part_mask_at_its_bounds_over_random_signs(n, w, s, vbits, seed):
    # Every entry at its bound with a random sign: y and v at the largest
    # bounds the low inequality allows at s, and x and u at the largest the
    # high one then allows (within int64), so partial sums reach the
    # limits; row 0 of x and column 0 of y have one sign throughout.
    rng = np.random.default_rng(seed)
    mv = 1 << vbits
    my = 2**53 // (n * (2**s - 1)) - mv
    if my < 1:
        return
    room = 2**53 // n
    mx = min(2**s * (room // (2 * my)), 2**62)
    mu = min(2**s * ((room - -(-mx // 2**s) * my) // mv), 2**62)
    assert matrix_mod._part_width(n, mx, my, mu, mv) == _part_width_reference(n, mx, my, mu, mv) == s

    def signs(shape):
        return rng.choice(np.array([-1, 1], dtype=np.int64), size=shape)

    x, y, u, v = mx * signs((n, n)), my * signs((n, w)), mu * signs((n, n)), mv * signs((n, w))
    x[0], y[:, 0] = mx, my
    mask, high, low = _two_parts(x, u, y, v, s)
    left, right = brute_matmul(x.tolist(), y.tolist()), brute_matmul(u.tolist(), v.tolist())
    for i in range(n):
        for t in range(w):
            assert 2**s * high[i][t] + low[i][t] == left[i][t] + right[i][t]
            assert mask[i, t] == (left[i][t] + right[i][t] != 0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    bits=st.tuples(*(st.integers(min_value=0, max_value=62) for _ in range(4))),
)
def test_part_width_is_the_largest_exact_s(n, bits):
    mx, my, mu, mv = (1 << b for b in bits)
    s = matrix_mod._part_width(n, mx, my, mu, mv)
    assert s == _part_width_reference(n, mx, my, mu, mv)
    # verify's plan forms y = BR on float64 BLAS on the strength of this:
    # with either product past 2^53, an s bounds n max|y| by 2^53.
    if s is not None and n * max(mx * my, mu * mv) > 2**53:
        assert n * my <= 2**53


def test_part_width_at_its_inequalities():
    # n = 8, s = 10: my at the low inequality's bound, then one past it (s
    # drops to 9); mx at the high one's bound at s = 10, then 2^10 past it
    # (no s).  At s = 9 the high inequality fails for these mx.
    n, mv, s = 8, 1, 10
    my = 2**53 // (n * (2**s - 1)) - mv
    mx = 2**s * ((2**53 // n - 1) // my)
    assert matrix_mod._part_width(n, mx, my, 1, mv) == s
    assert matrix_mod._part_width(n, mx, my + 1, 1, mv) is None
    assert matrix_mod._part_width(n, mx // 2, my + 1, 1, mv) == s - 1
    assert matrix_mod._part_width(n, mx + 2**s, my, 1, mv) is None
    mu = 2**s * (2**53 // n - -(-mx // 2**s) * my)
    assert matrix_mod._part_width(n, mx, my, mu, mv) == s
    assert matrix_mod._part_width(n, mx, my, mu + 1, mv) is None
