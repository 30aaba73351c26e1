"""Matrix file format: golden files, round-trips and strict parsing.

The numpy parser and writer are checked against ``reference_parse`` and
``reference_format`` in ``tests/util.py``: the per-token ``str`` versions
that define the grammar, the messages and the canonical output.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import reference_format, reference_parse

import freicheck.matio as matio
from freicheck import (
    FormatError,
    InstanceSpec,
    InvalidEntry,
    Matrix,
    RingSpec,
    format_matrix,
    generate_instance,
    mats_equal,
    parse_matrix,
    read_matrix,
    write_matrix,
)

INT64 = RingSpec.int64()
ZP5 = RingSpec.prime_field(5)
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

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
    assert mats_equal(parse_matrix(GOLDEN_INT64 + " \t\n\x1f\r\n  "), parse_matrix(GOLDEN_INT64))


@pytest.mark.parametrize(
    "text, rows",
    [
        ("freimat 1\n1 3 int64\n+5 -0 007\n", [[5, 0, 7]]),
        ("freimat 1\r\n2 2 int64\r\n1 2\r\n3 4\r\n", [[1, 2], [3, 4]]),
        ("freimat 1\r2 2 int64\r1 2\r3 4\r", [[1, 2], [3, 4]]),
        ("freimat 1\x0b2 2 int64\x0c1\t2\x1c3\x1f4\x1e", [[1, 2], [3, 4]]),
        ("freimat 1\n1 1 int64\n00000000000000000001\n", [[1]]),
        ("freimat 1\n1 1 int64\n-0009223372036854775808\n", [[INT64_MIN]]),
        ("freimat 1\n1 1 int64\n+09223372036854775807\n", [[INT64_MAX]]),
        ("freimat 1\n1 1 zp 5\n+0004\n", [[4]]),
    ],
    ids=["sign-and-leading-zeros", "crlf", "cr-only", "other-breaks", "20-digit-one",
         "22-digit-int64-min", "21-digit-int64-max", "zp-leading-zeros"],
)
def test_golden_parse_of_accepted_forms(text, rows):
    assert parse_matrix(text).data.tolist() == rows
    assert parse_matrix(text.encode("ascii")).data.tolist() == rows


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
        "freimat 1\n1 1 int64\n-\n",  # lone sign
        "freimat 1\n1 1 int64\n+\n",
        "freimat 1\n1 1 int64\n+-1\n",
        "freimat 1\n1 1 int64\n--1\n",
        "freimat 1\n1 1 int64\n1-2\n",
        "freimat 1\n1 1 int64\n+9223372036854775808\n",  # 2**63, 19 to 22 digits
        "freimat 1\n1 1 int64\n0009223372036854775808\n",
        "freimat 1\n1 1 int64\n-9223372036854775809\n",  # -2**63 - 1
        "freimat 1\n1 1 int64\n-009223372036854775809\n",
        "freimat 1\n1 2 int64\n-1 9223372036854775808\n",
        "freimat 1\n1 1 zp 5\n9223372036854775807\n",  # in int64, unreduced
        "freimat 1\r\n1 1 zp 5\r\n7\r\n",
    ],
)
def test_malformed_inputs_raise_format_error(text):
    with pytest.raises(FormatError):
        parse_matrix(text)
    with pytest.raises(FormatError):
        parse_matrix(text.encode("ascii"))


@pytest.mark.parametrize(
    "row, value",
    [
        ("1 9223372036854775808", "9223372036854775808"),
        ("-1 9223372036854775808", "9223372036854775808"),
        ("7 -9223372036854775809", "-9223372036854775809"),
        ("9223372036854775808", "9223372036854775808"),
        ("9223372036854775808\n18446744073709551615", "9223372036854775808"),  # one column
    ],
)
def test_out_of_range_entry_is_named(row, value):
    # Beside a small entry, a value past int64 must be the one named, not
    # the small entry as numpy's float64 guess for the row would print it.
    # When every value is past int64 and below 2**64, numpy holds them in
    # uint64; the first in row-major order is named all the same.
    message = f"entry {value} outside the signed 64-bit range"
    data = [[int(v) for v in line.split()] for line in row.split("\n")]
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_matrix(f"freimat 1\n{len(data)} {len(data[0])} int64\n{row}\n")
    with pytest.raises(InvalidEntry, match=f"^{message}$"):
        Matrix(len(data), len(data[0]), INT64, data)


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


# ------------------------------------------------ differential: parser


def _outcome(parse, text):
    try:
        m = parse(text)
    except FormatError as err:
        return str(err)
    return (m.ring, m.data.tolist())


def _agree(text, block=None):
    """The parser gives the reference's matrix or the reference's message,
    on str and on bytes, with the body walked in blocks of ``block`` bytes."""
    expected = _outcome(reference_parse, text)
    saved = matio._BLOCK
    matio._BLOCK = block or saved
    try:
        assert _outcome(parse_matrix, text) == expected
        assert _outcome(parse_matrix, text.encode("ascii")) == expected
    finally:
        matio._BLOCK = saved


@pytest.mark.parametrize(
    "template",
    [
        "{c}freimat 1\n1 1 int64\n1\n",
        "freimat{c}1\n1 1 int64\n1\n",
        "freimat 1{c}1 1 int64\n1\n",
        "freimat 1\n1 1{c}int64\n1\n",
        "freimat 1\n1 2 int64\n1{c}2\n",
        "freimat 1\n1 1 int64\n{c}1\n",
        "freimat 1\n1 1 int64\n1{c}",
        "freimat 1\n2 1 int64\n1\n{c}2\n",
    ],
)
def test_every_ascii_byte_is_classed_as_the_reference_does(template):
    for code in range(128):
        if chr(code) != "_":
            _agree(template.format(c=chr(code)))


_SEPS = [" ", "\t", "\x1f", "  ", " \t\x1f"]
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_PIECES = list("0123456789+-ab.") + _SEPS + _BREAKS
_ODD_TOKENS = [
    "x", "1.5", "-", "+", "+-1", "--1", "1-2", "007", "-0", "+5", "1a", "",
    "99999999999999999999", "9223372036854775808", "-9223372036854775809",
    "00000000000000000001", "18446744073709551616", "-1", "5", "101",
    "+0000000000000000000000007", "-00000009223372036854775808", "000000018446744073709551615",
]
_RINGS = [INT64, ZP5, RingSpec.prime_field(101), RingSpec.prime_field((1 << 61) - 1)]


@st.composite
def _entry_token(draw, ring):
    if ring.modulus:
        value = draw(st.integers(0, ring.modulus - 1) | st.sampled_from([0, ring.modulus - 1]))
    else:
        value = draw(
            st.integers(-999, 999)
            | st.integers(INT64_MIN, INT64_MAX)
            | st.sampled_from([INT64_MIN, INT64_MAX, 10**18, -(10**18) + 1])
        )
    token = str(value)
    if draw(st.booleans()):
        sign = "-" if token.startswith("-") else draw(st.sampled_from(["", "+"]))
        token = sign + "0" * draw(st.integers(0, 3)) + token.lstrip("-")
    return token


@st.composite
def _mutated_files(draw):
    """A valid file's lines of tokens, then up to three edits: a dropped,
    repeated, blank, split or joined line, or a dropped, extra or odd token."""
    ring = draw(st.sampled_from(_RINGS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = [["freimat", "1"], [str(rows), str(cols), *str(ring).split()]]
    lines += [[draw(_entry_token(ring)) for _ in range(cols)] for _ in range(rows)]
    odd = st.sampled_from(_ODD_TOKENS) | _entry_token(ring)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1) | st.integers(min(2, len(lines) - 1), len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["drop", "repeat", "blank", "split", "join", "untoken", "token"])
                    | st.just("replace"))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, list(line))
        elif edit == "blank":
            lines.insert(i, [])
        elif edit == "split":
            lines[i : i + 1] = [line[:j], line[j:]]
        elif edit == "join" and i + 1 < len(lines):
            lines[i : i + 2] = [line + lines[i + 1]]
        elif edit == "untoken" and line:
            del line[min(j, len(line) - 1)]
        elif edit == "token":
            line.insert(j, draw(odd))
        elif edit == "replace" and line:
            line[min(j, len(line) - 1)] = draw(odd)
        if not lines:
            lines = [[]]
    text = ""
    for line in lines:
        pad = st.sampled_from([""] + _SEPS)
        sep = draw(st.sampled_from(_SEPS)) if line[:1] != ["freimat"] and draw(st.booleans()) else " "
        text += draw(pad) + sep.join(line) + draw(pad) + draw(st.sampled_from(_BREAKS))
    if draw(st.booleans()):
        text = text[:-1]  # no final break (or half a CRLF)
    tail = st.lists(st.sampled_from(_SEPS + _BREAKS), max_size=4)
    return text + "".join(draw(tail))


@st.composite
def _noise_texts(draw):
    """ASCII noise from digits, signs, letters, '.', separators and breaks,
    after a valid header or none."""
    head = draw(st.sampled_from(["", "freimat 1\n", "freimat 1\n1 1 int64\n", "freimat 1\r\n2 2 zp 5\r\n"]))
    return head + "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=40)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_mutated_files(), _noise_texts()), st.sampled_from([None, 1, 5, 16]))
def test_parser_agrees_with_reference(text, block):
    _agree(text, block)


_BOUNDARY_TOKENS = [
    "1000000000000000000", "-1000000000000000000", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "9999999999999999999", "10000000000000000000",
    "+9223372036854775807", "+00009223372036854775807", "-0009223372036854775808",
    "-0009223372036854775809", "+0009223372036854775808", "0009999999999999999999",
    "+00010000000000000000000", "-00000000000000000000000", "+0999999999999999999",
]


@pytest.mark.parametrize("block", [None, 1, 5, 16])
def test_entries_at_the_int64_boundaries_agree_with_the_reference(block):
    # Each token alone, beside short entries in its row, in a column under
    # short rows, and over zp 2^61 - 1, where the reduction check follows.
    for token in _BOUNDARY_TOKENS:
        _agree(f"freimat 1\n1 1 int64\n{token}\n", block)
        _agree(f"freimat 1\n2 2 int64\n7 {token}\n-5 +0\n", block)
        _agree(f"freimat 1\n3 1 int64\n1\n-12345678901234567\n{token}\n", block)
        _agree(f"freimat 1\n1 2 zp 2305843009213693951\n{token} 1\n", block)


@pytest.mark.parametrize("block", [None, 1, 5, 16])
def test_entries_past_the_int_to_str_digit_limit(block):
    # int() and str() refuse more than 4,300 digits; the parser reads leading
    # zeros of any length and names an out-of-range entry at any length.
    for token, value in (("0" * 5000 + "7", 7), ("-" + "0" * 5000 + "9223372036854775808", INT64_MIN)):
        text = f"freimat 1\n2 1 int64\n{token}\n1\n"
        assert parse_matrix(text).data.tolist() == [[value], [1]]
        _agree(text, block)
    for token, named in (("9" * 5000, "9" * 5000), ("-" + "1" * 4400, "-" + "1" * 4400),
                         ("+" + "0" * 5000 + "1" * 20, "1" * 20)):
        text = f"freimat 1\n2 1 int64\n1\n{token}\n"
        with pytest.raises(FormatError) as err:
            parse_matrix(text)
        assert str(err.value) == f"entry {named} outside the signed 64-bit range"
        _agree(text, block)


@pytest.mark.parametrize("field", ["row count", "column count", "modulus"])
def test_header_numbers_past_the_int_to_str_digit_limit(field):
    # int() refuses more than 4,300 digits, leading zeros too: the counts and
    # the modulus take 5,000 of them, as they take `0005`, and a token past
    # the limit that is not all leading zeros keeps its message.
    def text(prefix):
        token = prefix + {"row count": "2", "column count": "1", "modulus": "5"}[field]
        dims = {"row count": f"{token} 1 zp 5", "column count": f"2 {token} zp 5",
                "modulus": f"2 1 zp {token}"}[field]
        return f"freimat 1\n{dims}\n3\n4\n", token

    good, _ = text("0" * 5000)
    m = parse_matrix(good)
    assert (m.rows, m.cols, m.ring, m.data.tolist()) == (2, 1, RingSpec.prime_field(5), [[3], [4]])
    _agree(good)
    for prefix in ("9" * 5000, "0" * 5000 + "x", "-" + "0" * 5000):
        bad, token = text(prefix)
        with pytest.raises(FormatError) as err:
            parse_matrix(bad)
        if prefix[0] != "-":
            assert str(err.value) == f"bad {field} {token!r}"
        _agree(bad)


def test_entries_are_read_without_int(monkeypatch):
    # A body of 19-digit entries, with and without signs and leading zeros:
    # int() reads the header's two counts and no entry.
    seen = []

    def spy(x, *args):
        if isinstance(x, (str, bytes)):
            seen.append(x)
        return int(x, *args)

    monkeypatch.setattr(matio, "int", spy, raising=False)
    rows = [
        ["9223372036854775807", "-9223372036854775808", "1000000000000000000", "+1234567890123456789"],
        ["-0009223372036854775807", "0000000000000000000", "8999999999999999999", "-1"],
        ["4611686018427387904", "+0004611686018427387903", "-1000000000000000000", "1000000000000000001"],
    ]
    text = "freimat 1\n3 4 int64\n" + "\n".join(" ".join(row) for row in rows) + "\n"
    m = parse_matrix(text)
    assert seen == ["3", "4"]
    assert m.data.tolist() == reference_parse(text).data.tolist()


def test_blocks_of_whole_lines_keep_row_numbers():
    # The body spans many blocks; faults in a late block report their row.
    rows = [[str(i * 7 + j - 20) for j in range(5)] for i in range(40)]
    good = "freimat 1\n40 5 int64\n" + "\n".join(" ".join(r) for r in rows) + "\n"
    assert " 17 " in good and " 192 " in good
    for block in (1, 30, 200, 1 << 18):
        _agree(good, block)
        for fault in ("x", "99999999999999999999", "-", "9223372036854775808", ""):
            _agree(good.replace(" 192 ", f" {fault} "), block)  # row 30
        # Two values past int64, in rows 5 and 30: the one reported is the
        # first in row order.
        wide = good.replace(" 17 ", " 9223372036854775809 ").replace(" 192 ", " -9223372036854775810 ")
        _agree(wide, block)


# ------------------------------------------------ differential: writer

_EDGES = sorted(
    {INT64_MIN, INT64_MIN + 1, INT64_MAX, 0}
    | {s * 10**k for k in range(19) for s in (1, -1)}
    | {s * (10**k - 1) for k in range(1, 19) for s in (1, -1)}
)


def _ring_edges(ring):
    if ring.modulus:
        return [v for v in _EDGES if 0 <= v < ring.modulus] + [ring.modulus - 1]
    return list(_EDGES)


@st.composite
def _edge_matrix(draw):
    ring = draw(st.sampled_from(_RINGS + [RingSpec.prime_field(9223372036854775783)]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if ring.modulus:
        elem = st.sampled_from(_ring_edges(ring)) | st.integers(0, ring.modulus - 1)
    else:
        elem = st.sampled_from(_EDGES) | st.integers(INT64_MIN, INT64_MAX)
    data = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Matrix(rows, cols, ring, data)


@settings(max_examples=200, deadline=None)
@given(_edge_matrix())
def test_writer_matches_reference(m):
    assert format_matrix(m) == reference_format(m)


def test_writer_edge_values_in_one_row():
    m = Matrix(1, len(_EDGES), INT64, _EDGES)
    assert format_matrix(m) == reference_format(m)
    assert mats_equal(parse_matrix(format_matrix(m)), m)


def _writes_canonically(m):
    text = format_matrix(m)
    assert text == reference_format(m)
    assert mats_equal(parse_matrix(text), m)


_WRITER_RINGS = pytest.mark.parametrize(
    "ring", [INT64, RingSpec.prime_field((1 << 61) - 1)], ids=["int64", "zp-2^61-1"]
)


@_WRITER_RINGS
@pytest.mark.parametrize("block", [8, 16, 40, 64])
def test_writer_blocks_end_anywhere(monkeypatch, ring, block):
    # The writer takes _BLOCK // 8 entries at a time: here 1, 2, 5 or 8.
    # Every block starts and ends on an edge value; one column puts a line
    # break after every entry, and 3, 7 or 37 columns make rows that end
    # inside blocks or span many of them.
    monkeypatch.setattr(matio, "_BLOCK", block)
    step = block // 8
    flat = []
    for v in _ring_edges(ring):
        flat += [v] + [7] * (step - 2) + [v] if step > 1 else [v]
    for cols in (1, 3, 7, 37):
        padded = flat + [0] * (-len(flat) % cols)
        _writes_canonically(Matrix(len(padded) // cols, cols, ring, padded))


@_WRITER_RINGS
def test_writer_row_wider_than_a_block(ring):
    edges = _ring_edges(ring)
    assert 20000 > matio._BLOCK // 8
    _writes_canonically(Matrix(1, 20000, ring, [edges[i % len(edges)] for i in range(20000)]))


# ------------------------------------------------ memory


def test_parse_and_format_peaks_stay_within_blocks_of_their_results():
    # n = 512: 1.9 MB of text, past the blocks.  The parser holds its int64
    # result and block temporaries; the writer its str and the pieces joined
    # into it.
    c = generate_instance(InstanceSpec(512, INT64, "equal", 7))[2]
    raw = format_matrix(c).encode("ascii")
    tracemalloc.start()
    try:
        m = parse_matrix(raw)
        parse_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = format_matrix(m)
        format_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert mats_equal(m, c)
    assert parse_peak <= m.data.nbytes + (2 << 20)
    assert format_peak <= 2 * len(text) + (2 << 20)


@pytest.mark.parametrize(
    "head, body, message",
    [
        ("1 1000000000000 int64", "1 2 3\n", "row 0 has 3 entries, expected 1000000000000"),
        ("3000000 3000000 int64", "1 2 3\n", "expected 3000000 rows of entries, found 1"),
        # Forty whole rows fill several blocks before a short one.
        ("1000 2000 int64", (" ".join(["1234567"] * 2000) + "\n") * 40 + "1\n" * 960,
         "row 40 has 1 entries, expected 2000"),
    ],
    ids=["wide", "tall", "short-after-whole-blocks"],
)
def test_header_alone_never_sizes_the_result(head, body, message):
    raw = f"freimat 1\n{head}\n{body}".encode("ascii")
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_matrix(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
