"""Entries are stored in int16 when every magnitude is at most 2^15 - 1, and
in int64 otherwise.  Every operation must still agree with Python integers, bit for bit,
with entries at the edges of each width: results, ``IntegerOverflow``
messages, verdicts, reports and file text."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freicheck import (
    IntegerOverflow,
    Matrix,
    RingSpec,
    Vector,
    analyze_instance,
    format_matrix,
    mat_add,
    mat_sub,
    mat_vec,
    matmul,
    outer,
    parse_matrix,
    sample_vector,
    substream,
    uniform_binary,
    uniform_support,
)
from freicheck import matrix as matrix_mod
from freicheck.verify import VerifyConfig, verify

from util import fraction_rank, reference_format

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
INT64 = RingSpec.int64()
# Both sides of each width's edge: 2^15 - 1 is the largest magnitude int16
# stores, so 2^15 takes int64; the int32 and int64 edges catch any wrap in
# a widened or recombined result.
EDGES = (0, 1, -1, 2**15 - 1, -(2**15 - 1), 2**15, -(2**15), 2**31 - 1, -(2**31 - 1), 2**31, -(2**31), INT64_MAX, INT64_MIN)
# A prime below 2^15 (its entries are int16), one below 2^31 and one past it.
RINGS = (INT64, RingSpec.prime_field(32749), RingSpec.prime_field(2**31 - 1), RingSpec.prime_field(2**61 - 1))


def _narrowest(values) -> np.dtype:
    top = max((abs(v) for v in values), default=0)
    return np.dtype(np.int16 if top < 2**15 else np.int64)


def _entries(ring, rows, cols):
    """Rows of edge entries, reduced into [0, p) over Z_p."""
    entry = st.sampled_from(EDGES).map(lambda v: v % ring.modulus if ring.modulus else v)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _pair(draw, same_shape=False):
    """(ring, x rows, y rows) for x of r x m and y of m x c, or of r x m."""
    ring = draw(st.sampled_from(RINGS))
    r, m, c = (draw(st.integers(1, 3)) for _ in range(3))
    return ring, draw(_entries(ring, r, m)), draw(_entries(ring, r if same_shape else m, m if same_shape else c))


def _ref_product(x_rows, y_rows, p):
    """x y in Python integers, or over int64 the ``IntegerOverflow`` message
    of its first product term or ascending partial sum outside int64, in
    row-major order of the entries."""
    out = []
    for i, row in enumerate(x_rows):
        out.append([])
        for j in range(len(y_rows[0])):
            acc = 0
            for t, v in enumerate(row):
                term = v * y_rows[t][j]
                if p is None and not INT64_MIN <= term <= INT64_MAX:
                    return f"product term at entry ({i}, {j}) leaves the 64-bit range"
                acc += term
                if p is None and not INT64_MIN <= acc <= INT64_MAX:
                    return f"partial sum at entry ({i}, {j}) leaves the 64-bit range"
            out[-1].append(acc % p if p else acc)
    return out


def _ref_combine(x_rows, y_rows, sign, p):
    out = []
    for i, (xr, yr) in enumerate(zip(x_rows, y_rows)):
        out.append([])
        for j, (u, v) in enumerate(zip(xr, yr)):
            w = u + sign * v
            if p is None and not INT64_MIN <= w <= INT64_MAX:
                return f"entry {(i, j)} leaves the 64-bit range"
            out[-1].append(w % p if p else w)
    return out


def _agrees(call, expected):
    """``call()``'s entries as lists, or its ``IntegerOverflow`` message,
    against ``expected``; results are stored at a width that holds them and
    read back as read-only int64."""
    if isinstance(expected, str):
        with pytest.raises(IntegerOverflow) as err:
            call()
        assert str(err.value) == expected
        return
    got = call()
    data = got.data
    assert data.dtype == np.int64 and not data.flags.writeable
    assert data.tolist() == expected
    values = list(itertools.chain.from_iterable(expected)) if isinstance(expected[0], list) else expected
    assert got._a.dtype == np.int64 or np.iinfo(got._a.dtype).max >= max(abs(v) for v in values)


@settings(max_examples=300, deadline=None)
@given(_pair())
@example((INT64, [[2**15 - 1]], [[2**15 - 1]]))
@example((INT64, [[INT64_MAX, 1]], [[1], [1]]))
@example((INT64, [[INT64_MIN]], [[-1]]))
def test_products_match_python_ints_at_every_width_edge(case):
    ring, x_rows, y_rows = case
    p = ring.modulus
    x = Matrix.from_rows(x_rows, ring)
    y = Matrix.from_rows(y_rows, ring)
    assert x._a.dtype == _narrowest(itertools.chain.from_iterable(x_rows))
    assert x._bound == max(abs(v) for row in x_rows for v in row)
    _agrees(lambda: matmul(x, y), _ref_product(x_rows, y_rows, p))
    col = [row[0] for row in y_rows]
    expected = _ref_product(x_rows, [[v] for v in col], p)
    _agrees(lambda: mat_vec(x, Vector(ring, col)), expected if isinstance(expected, str) else [row[0] for row in expected])
    u, v = [row[0] for row in x_rows], y_rows[0]
    _agrees(lambda: outer(Vector(ring, u), Vector(ring, v)), _ref_product([[w] for w in u], [v], p))


@settings(max_examples=300, deadline=None)
@given(_pair(same_shape=True))
# Two int16 matrices whose sum and difference pass 2^15 must not wrap.
@example((INT64, [[2**15 - 1, -(2**15 - 1)]], [[2**15 - 1, 2**15 - 1]]))
@example((INT64, [[INT64_MAX, 0], [0, INT64_MIN]], [[1, 0], [0, 1]]))
@example((INT64, [[0, INT64_MIN]], [[0, -1]]))
def test_sums_match_python_ints_at_every_width_edge(case):
    ring, x_rows, y_rows = case
    x, y = Matrix.from_rows(x_rows, ring), Matrix.from_rows(y_rows, ring)
    _agrees(lambda: mat_add(x, y), _ref_combine(x_rows, y_rows, 1, ring.modulus))
    _agrees(lambda: mat_sub(x, y), _ref_combine(x_rows, y_rows, -1, ring.modulus))


def test_int16_operands_give_an_int64_sum():
    x = Matrix.from_rows([[2**15 - 1, -(2**15 - 1)]], INT64)
    y = Matrix.from_rows([[2**15 - 1, 2**15 - 1]], INT64)
    assert x._a.dtype == y._a.dtype == np.int16
    total, diff = mat_add(x, y), mat_sub(x, y)
    assert total._a.dtype == diff._a.dtype == np.int64
    assert total.data.tolist() == [[2**16 - 2, 0]] and diff.data.tolist() == [[0, -(2**16 - 2)]]


@settings(max_examples=150, deadline=None)
@given(
    ring=st.sampled_from(RINGS),
    n=st.integers(1, 3),
    data=st.data(),
    law=st.sampled_from(["u01", "usup"]),
    k=st.integers(1, 4),
    seed=st.integers(0, 1 << 20),
)
def test_verify_matches_python_ints_at_every_width_edge(ring, n, data, law, k, seed):
    # The one-at-a-time loop in Python integers: per trial B r, A(B r) and
    # C r, each checked over int64 as ``matmul`` checks it, then the
    # smallest differing row.
    p = ring.modulus
    a_rows, b_rows = data.draw(_entries(ring, n, n)), data.draw(_entries(ring, n, n))
    d = _ref_product(a_rows, b_rows, p)
    c_rows = d if not isinstance(d, str) and data.draw(st.booleans()) else data.draw(_entries(ring, n, n))
    a, b, c = (Matrix.from_rows(m, ring) for m in (a_rows, b_rows, c_rows))
    dist = uniform_binary() if law == "u01" else uniform_support((0, 1, 2))
    cfg = VerifyConfig(k, seed, dist)
    expected = None
    for t in range(k):
        r = sample_vector(dist, n, substream(seed, t), ring).data.tolist()
        col = [[v] for v in r]
        br = _ref_product(b_rows, col, p)
        abr = br if isinstance(br, str) else _ref_product(a_rows, br, p)
        cr = abr if isinstance(abr, str) else _ref_product(c_rows, col, p)
        if isinstance(cr, str):
            expected = cr
            break
        rows = [i for i in range(n) if abr[i] != cr[i]]
        if rows:
            expected = (t, r, rows[0])
            break
    if isinstance(expected, str):
        with pytest.raises(IntegerOverflow) as err:
            verify(a, b, c, cfg)
        assert str(err.value) == expected
        return
    got = verify(a, b, c, cfg)
    if expected is None:
        assert got.accepted and got.error_bound == Fraction(max(dist.weights), dist.total) ** k
    else:
        assert (got.witness_iteration, got.witness.data.tolist(), got.mismatch_row) == expected


@settings(max_examples=60, deadline=None)
@given(ring=st.sampled_from(RINGS), n=st.integers(1, 3), data=st.data())
def test_analysis_matches_python_ints_at_every_width_edge(ring, n, data):
    # AB and E = AB - C in Python integers; the profile, the rank and the
    # exact probability under u01 by enumerating every 0/1 vector.
    p = ring.modulus
    a_rows, b_rows, c_rows = (data.draw(_entries(ring, n, n)) for _ in range(3))
    a, b, c = (Matrix.from_rows(m, ring) for m in (a_rows, b_rows, c_rows))
    d = _ref_product(a_rows, b_rows, p)
    e = d if isinstance(d, str) else _ref_combine(d, c_rows, -1, p)
    cols = [] if isinstance(e, str) else [j for j in range(n) if any(row[j] for row in e)]
    if isinstance(e, str) or not cols:
        with pytest.raises(Exception) as err:
            analyze_instance(a, b, c, uniform_binary(), exact=True)
        if isinstance(d, str):
            assert str(err.value) == d
        elif isinstance(e, str):
            # The error names its entry by C's own column.
            assert isinstance(err.value, IntegerOverflow) and str(err.value) == e
        return
    report = analyze_instance(a, b, c, uniform_binary(), exact=True)
    profile = report.instance_profile
    assert list(profile.differing_columns) == cols
    assert profile.differing_entries == sum(1 for row in e for v in row if v)
    assert profile.difference_rank == fraction_rank(e, p)
    zero = 0
    for bits in itertools.product((0, 1), repeat=n):
        er = [sum(v * s for v, s in zip(row, bits)) for row in e]
        zero += all((v % p if p else v) == 0 for v in er)
    assert report.exact_fap == Fraction(zero, 2**n)


@settings(max_examples=200, deadline=None)
@given(ring=st.sampled_from(RINGS), rows=st.integers(1, 3), cols=st.integers(1, 4), data=st.data())
def test_files_round_trip_at_every_width_edge(ring, rows, cols, data):
    values = data.draw(_entries(ring, rows, cols))
    m = Matrix.from_rows(values, ring)
    text = format_matrix(m)
    assert text == reference_format(m)
    back = parse_matrix(text)
    assert back == m and back.data.tolist() == values
    assert back._a.dtype == _narrowest(itertools.chain.from_iterable(values))
    assert back._bound == max(abs(v) for row in values for v in row)


@pytest.mark.parametrize("width, count", [(16, 2), (20, 2), (32, 2), (33, 3), (40, 2)])
def test_split_widens_narrow_entries(width, count):
    # The limbs of an int16 array at shifts of 16 bits and more, past its
    # own width, are those of the same entries in int64.
    top = 2**15 - 1
    v = np.array([[0, 1, -1, top, -top, 12345, -21845]], dtype=np.int16)
    got, want = (np.empty((count, *v.shape)) for _ in range(2))
    matrix_mod._split(v, width, count, got, np.empty(v.shape, np.int64))
    wide = v.astype(np.int64)
    matrix_mod._split(wide, width, count, want, np.empty(v.shape, np.int64))
    assert np.array_equal(got, want)
    limbs = [[(int(x) >> (width * l)) & ((1 << width) - 1) if l < count - 1 else int(x) >> (width * l) for x in v[0]] for l in range(count)]
    assert got[:, 0].tolist() == limbs


def test_data_is_a_read_only_int64_copy_of_narrow_storage():
    m = Matrix.from_rows([[1, -2], [3, 2**15 - 1]], INT64)
    assert m._a.dtype == np.int16
    first, second = m.data, m.data
    assert first.dtype == np.int64 and not first.flags.writeable
    assert first is not second and not np.shares_memory(first, m._a)
    assert first.tolist() == [[1, -2], [3, 2**15 - 1]]
    wide = Matrix.from_rows([[INT64_MIN]], INT64)
    assert wide.data is wide._a and not wide.data.flags.writeable
