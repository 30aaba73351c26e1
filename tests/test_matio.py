"""Matrix file format: golden files, round-trips and strict parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freicheck import (
    FormatError,
    Matrix,
    RingSpec,
    format_matrix,
    mats_equal,
    parse_matrix,
    read_matrix,
    write_matrix,
)

INT64 = RingSpec.int64()
ZP5 = RingSpec.prime_field(5)

GOLDEN_INT64 = "freimat 1\n2 2 int64\n1 2\n3 4\n"
GOLDEN_ZP5 = "freimat 1\n2 3 zp 5\n0 4 1\n2 2 3\n"


def test_golden_output():
    m = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    assert format_matrix(m) == GOLDEN_INT64
    z = Matrix.from_rows([[0, 4, 1], [2, 2, 3]], ZP5)
    assert format_matrix(z) == GOLDEN_ZP5


def test_golden_parse():
    m = parse_matrix(GOLDEN_INT64)
    assert (m.rows, m.cols, m.ring) == (2, 2, INT64)
    assert m.data.tolist() == [[1, 2], [3, 4]]
    z = parse_matrix(GOLDEN_ZP5)
    assert z.ring == ZP5
    assert z.data.tolist() == [[0, 4, 1], [2, 2, 3]]


def test_file_round_trip(tmp_path):
    path = tmp_path / "m.freimat"
    m = Matrix.from_rows([[-(1 << 63), (1 << 63) - 1], [0, -7]], INT64)
    write_matrix(m, path)
    assert mats_equal(read_matrix(path), m)


def test_trailing_newlines_are_tolerated():
    assert mats_equal(parse_matrix(GOLDEN_INT64 + "\n\n"), parse_matrix(GOLDEN_INT64))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "freimat 2\n1 1 int64\n1\n",
        "matrix 1\n1 1 int64\n1\n",
        "freimat 1\n",
        "freimat 1\n1 1\n1\n",
        "freimat 1\n1 1 gf 5\n1\n",
        "freimat 1\n1 1 zp 6\n1\n",  # composite modulus
        "freimat 1\n0 2 int64\n",
        "freimat 1\nx 1 int64\n1\n",
        "freimat 1\n2 1 int64\n1\n",  # missing row
        "freimat 1\n1 1 int64\n1\n2\n",  # extra row
        "freimat 1\n1 2 int64\n1\n",  # short row
        "freimat 1\n1 1 int64\n1 2\n",  # long row
        "freimat 1\n1 1 int64\nabc\n",
        "freimat 1\n1 1 int64\n1.5\n",
        "freimat 1\n1 1 zp 5\n5\n",  # unreduced field entry
        "freimat 1\n1 1 zp 5\n-1\n",
        "freimat 1\n1 1 int64\n9223372036854775808\n",  # int64 max + 1
        "freimat 1\n2 2 int64\n1 2\n\n3 4\n",  # interior blank line
    ],
)
def test_malformed_inputs_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_matrix(text)


@pytest.mark.parametrize(
    "token",
    ["1_000", "-1_0", "\u0663", "\uff11", "1\u00a0"],
    ids=["underscore", "negative-underscore", "arabic-indic", "fullwidth", "nbsp"],
)
def test_tokens_int_takes_but_the_format_refuses(token):
    int(token)  # Python's int() parses every one of these
    for text in (
        f"freimat 1\n1 1 int64\n{token}\n",
        f"freimat 1\n1 2 int64\n5 {token}\n",
        f"freimat 1\n{token} 1 int64\n1\n",
    ):
        with pytest.raises(FormatError, match="unexpected character"):
            parse_matrix(text)


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "m.freimat"
    path.write_bytes(b"freimat 1\n1 2 int64\n1 \xff\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        read_matrix(path)


@st.composite
def _matrix(draw):
    ring = draw(st.sampled_from([INT64, ZP5, RingSpec.prime_field(101)]))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    if ring.modulus:
        elem = st.integers(min_value=0, max_value=ring.modulus - 1)
    else:
        elem = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
    data = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(rows, cols, ring, data)


@settings(max_examples=60, deadline=None)
@given(_matrix())
def test_text_round_trip_is_exact(m):
    again = parse_matrix(format_matrix(m))
    assert mats_equal(again, m)
    assert again.ring == m.ring
    # and the serialized form is stable
    assert format_matrix(again) == format_matrix(m)
