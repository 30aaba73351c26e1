"""Plain-text matrix files.

Layout, one matrix per file:

    freimat 1
    <rows> <cols> <ring>
    <row 0 entries, space separated>
    ...

where ``<ring>`` is ``int64`` or ``zp <p>``.  Writing then reading a matrix
reproduces it exactly.  The parser accepts exactly this grammar and raises
``FormatError`` on anything else:

* The text is ASCII and holds no ``_``.
* Lines end at ``\\n``, ``\\r``, ``\\r\\n`` (one break), ``\\x0b``, ``\\x0c``,
  ``\\x1c``, ``\\x1d`` or ``\\x1e``: the ASCII breaks of ``str.splitlines``.
  Within a line, runs of space, ``\\t`` or ``\\x1f`` separate tokens, the
  rest of ASCII whitespace for ``str.split``.
* Trailing lines that hold only separators are ignored.  A blank line
  anywhere else counts as a line.
* The first line is ``freimat 1``, and the second ``<rows> <cols> <ring>``,
  either with surrounding separators.  Then come exactly ``rows`` lines of
  exactly ``cols`` entries.  ``int()`` reads the two counts and ``p`` once
  their leading zeros are dropped, as it refuses more than 4,300 digits.
* An entry is ``[+-]?[0-9]+``: an optional sign, then decimal digits, with
  leading zeros allowed (``+5``, ``-0`` and ``007`` are 5, 0 and 7).  Its
  value must lie in [-2**63, 2**63 - 1], checked exactly however many digits
  it has; a ``zp <p>`` entry must lie in [0, p), and an unreduced one is an
  error, not a silent fix-up.

A malformed body is reported at its first faulty row; in that row a wrong
entry count comes before a bad entry, and bad entries anywhere come before
out-of-range values.  The body is converted with numpy over the raw bytes,
in blocks of whole lines of about 64 KiB (a longer line is a block of its
own): per-byte arrays are at most uint16, and each token's digits are
summed in uint64 straight into the one int64 result's own buffer, exact up
to 19 significant digits (10**19 < 2**64).  Leading zeros add nothing,
however many there are.  A token is out of range when it has more
significant digits than that or a magnitude past 2**63 - 1 (2**63 after a
``-``); the first such entry in row-major order is named from its own text,
as ``str(int(token))`` would print it, at any length, and no entry goes
through ``int()``.  The result is allocated only once the body has room for
``rows * cols`` entries, so a header alone never sizes an allocation.

The writer emits the canonical form: entries in plain decimal, one space
between them, and ``\\n`` after every line.  It formats the entries in
row-major runs of ``_BLOCK // 8``, wherever rows begin and end, so no
per-entry array is larger than ``_BLOCK`` bytes, and joins the runs' text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidEntry, InvalidRing
from .matrix import INT64_MAX, Matrix, _without_leading_zeros, parse_ring

MAGIC = "freimat 1"

# Byte tests on uint8 arrays, where subtraction wraps around.  ASCII
# whitespace, which str.split() separates on, is 9-13 and 28-32; the line
# breaks of str.splitlines() among it are 10-13 and 28-30.
def _space(c: np.ndarray) -> np.ndarray:
    return ((c - 9) < 5) | ((c - 28) < 5)


def _line_break(c: np.ndarray) -> np.ndarray:
    return ((c - 10) < 4) | ((c - 28) < 3)


def _digit(c: np.ndarray) -> np.ndarray:
    return (c - 48) < 10


_BLOCK = 1 << 16
# An entry |v| has one digit more than the powers 10, 100, ... at most |v|.
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)


def format_matrix(m: Matrix) -> str:
    pieces = [f"{MAGIC}\n{m.rows} {m.cols} {m.ring}\n"]
    flat, cols = m.data.ravel(), m.cols
    step = max(1, _BLOCK // 8)
    for lo in range(0, flat.size, step):
        v = flat[lo : lo + step]
        neg = v < 0
        mag = np.abs(v).view(np.uint64)  # abs wraps INT64_MIN onto itself: 2**63
        width = neg + 2  # sign, first digit, then a space or a newline
        for power in _POW10[_POW10 <= mag.max()]:
            width += mag >= power
        ends = np.cumsum(width)  # one past each entry's space or newline
        out = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        out[ends[(cols - 1 - lo) % cols :: cols] - 1] = ord("\n")
        out[(ends - width)[neg]] = ord("-")
        pos = ends - 2  # each entry's last digit
        while pos.size:
            rest = mag // 10
            out[pos] = mag - rest * 10 + ord("0")
            more = rest != 0
            mag, pos = rest[more], pos[more] - 1
        pieces.append(str(out, "ascii"))
    return "".join(pieces)


def write_matrix(m: Matrix, path) -> None:
    Path(path).write_text(format_matrix(m), encoding="utf-8")


def _int_token(token: str, what: str) -> int:
    try:
        return int(_without_leading_zeros(token))
    except ValueError:
        raise FormatError(f"bad {what} {token!r}") from None


def _ascii(text: str | bytes) -> bytes:
    """``text`` as ASCII bytes, refusing non-UTF-8 bytes, non-ASCII text and
    ``_``: int() takes ``1_000`` and non-ASCII digits, the format does not."""
    binary = isinstance(text, bytes)
    if text.isascii() and (b"_" if binary else "_") not in text:
        return text if binary else text.encode("ascii")
    if binary:
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"not UTF-8 text: {err.reason} at byte {err.start}") from None
    bad = next(ch for ch in text if ch == "_" or not ch.isascii())
    raise FormatError(f"unexpected character {bad!r}; entries are ASCII decimal integers")


def _line_ends(buf: np.ndarray) -> np.ndarray:
    """Where the lines of ``buf`` end: every line-break byte but the LF of a
    CRLF, which then leads the next line as whitespace."""
    ends = [np.empty(0, dtype=np.int64)]
    for lo in range(0, buf.size, _BLOCK):
        ends.append(np.flatnonzero(_line_break(buf[lo : lo + _BLOCK])) + lo)
    ends = np.concatenate(ends)
    crlf = (buf[ends] == ord("\n")) & (buf[ends - 1] == ord("\r")) & (ends > 0)
    return ends[~crlf]


def _last_ink(buf: np.ndarray) -> int:
    """Index of the last byte of ``buf`` that is not whitespace, or -1."""
    hi = buf.size
    while hi > 0:
        lo = max(0, hi - _BLOCK)
        ink = np.flatnonzero(~_space(buf[lo:hi]))
        if ink.size:
            return lo + int(ink[-1])
        hi = lo
    return -1


def _parse_block(raw: bytes, lo: int, hi: int, starts: np.ndarray, row0: int, cols: int, out):
    """Check the whole lines in ``raw[lo:hi]``, which begin at ``starts`` and
    are body rows ``row0``, ``row0 + 1``, ..., and write their entries in row
    order into the int64 array ``out`` unless it is None.  Returns the first
    entry outside int64, as ``str(int(token))`` would print it, or None;
    with ``out`` None it only checks the lines and returns None."""
    seg = np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo)
    ink = ~_space(seg)
    edges = np.flatnonzero(np.diff(ink, prepend=False, append=False))
    tok_lo, tok_hi = edges[0::2].copy(), edges[1::2].copy()
    starts = starts - lo
    counts = np.diff(np.searchsorted(tok_lo, starts), append=tok_lo.size)
    first = seg[tok_lo]
    signed = (first == ord("+")) | (first == ord("-"))
    led = ~_digit(first)  # tokens led by a sign or another byte
    bad = (led & ~signed) | (signed & (tok_hi - tok_lo == 1))
    # Past its first byte a token holds only digits.
    digit = _digit(seg)
    if np.count_nonzero(ink) - np.count_nonzero(digit) != np.count_nonzero(led):
        inner = ink & ~digit
        inner[tok_lo] = False
        bad[np.searchsorted(tok_lo, np.flatnonzero(inner), side="right") - 1] = True
    wrong_count = np.flatnonzero(counts != cols)
    bad_tok = np.flatnonzero(bad)
    if wrong_count.size or bad_tok.size:
        tok_row = np.searchsorted(starts, tok_lo[bad_tok[:1]], side="right") - 1
        if wrong_count.size and (not bad_tok.size or wrong_count[0] <= tok_row[0]):
            i = int(wrong_count[0])
            raise FormatError(f"row {row0 + i} has {counts[i]} entries, expected {cols}")
        t = int(bad_tok[0])
        token = raw[lo + tok_lo[t] : lo + tok_hi[t]].decode("ascii")
        raise FormatError(f"bad entry at row {row0 + int(tok_row[0])} {token!r}")
    if out is None:
        return None

    digits = tok_hi - tok_lo - signed
    # quad[i]: the value of the up to four digits that end at byte i, within
    # its run of digits; 0 at any other byte and at the one appended past the
    # block.  The block begins a line, so no run enters it from the left.
    quad = np.zeros(seg.size + 1, dtype=np.uint16)
    np.subtract(seg, ord("0"), out=quad[:-1], dtype=np.uint16)
    quad[:-1] *= digit
    quad[1:-1] += 10 * quad[:-2] * digit[1:]
    quad[2:-1] += 100 * quad[:-3] * (digit[2:] & digit[1:-1])
    # Sum the digits four places at a time, right to left, up to the 20th,
    # in uint64 in the result's own buffer: a value of at most 19
    # significant digits is below 10**19 < 2**64, so its sum is exact.  Left
    # of a token's first digit, clamp to the byte before the token: a
    # separator or the appended byte, worth 0.
    last, floor = tok_hi - 1, tok_lo - 1
    mag = out.view(np.uint64)
    mag[:] = quad[last]
    widest = int(digits.max())
    for k in range(4, min(widest, 19), 4):
        mag += np.multiply(quad[np.maximum(last - k, floor)], 10**k, dtype=np.uint64)
    if widest >= 19:
        # Past int64: a magnitude past 2**63 - 1 (2**63 after a '-'), or more
        # than 19 significant digits, whatever the leading zeros.
        over = mag > np.uint64(INT64_MAX) + (first == ord("-"))
        if widest > 19:
            lead = np.append(np.flatnonzero(digit & (seg != ord("0"))), seg.size)
            over |= tok_hi - lead[np.searchsorted(lead, tok_lo)] > 19
        if over.any():
            t = int(np.argmax(over))
            token = raw[lo + tok_lo[t] : lo + tok_hi[t]].decode("ascii")
            return ("-" if token[0] == "-" else "") + token.lstrip("+-").lstrip("0")
    out *= 1 - 2 * (first == ord("-")).view(np.int8)  # -1 where a '-' leads
    return None


def parse_matrix(text: str | bytes) -> Matrix:
    """Parse ``freimat`` text, given as a string or as the file's bytes."""
    raw = _ascii(text)
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = _line_ends(buf)
    starts = np.concatenate(([0], ends + 1))
    stops = np.append(ends, buf.size)
    # Lines up to the one holding the last byte that is not whitespace.
    last = _last_ink(buf)
    nlines = int(np.searchsorted(ends, last)) + 1 if last >= 0 else 0

    def line(i: int) -> str:
        return raw[starts[i] : stops[i]].decode("ascii")

    if nlines == 0 or line(0).strip() != MAGIC:
        raise FormatError(f"missing {MAGIC!r} header line")
    if nlines < 2:
        raise FormatError("missing dimension line")
    tokens = line(1).split()
    if len(tokens) < 3:
        raise FormatError("dimension line must read '<rows> <cols> <ring>'")
    rows = _int_token(tokens[0], "row count")
    cols = _int_token(tokens[1], "column count")
    if rows < 1 or cols < 1:
        raise FormatError("matrix needs at least one row and one column")
    try:
        ring = parse_ring(" ".join(tokens[2:]))
    except InvalidRing as err:
        raise FormatError(str(err)) from err
    if nlines - 2 != rows:
        raise FormatError(f"expected {rows} rows of entries, found {nlines - 2}")

    # Entries are separated, so a body of L bytes holds at most (L + 1) // 2
    # of them.  A header asking for more has a row of the wrong length, which
    # the blocks below raise at, so the result is allocated only when the
    # body has room for it: never from the header alone.
    room = rows * cols <= (int(stops[nlines - 1]) - int(starts[2]) + 1) // 2
    data = np.empty(rows * cols if room else 0, dtype=np.int64)
    wide = None
    i = 2
    while i < nlines:
        j = max(i + 1, min(nlines, int(np.searchsorted(starts, starts[i] + _BLOCK))))
        # Past the first entry out of range, blocks are only checked.
        out = data[(i - 2) * cols : (j - 2) * cols] if room and not wide else None
        wide = _parse_block(raw, int(starts[i]), int(stops[j - 1]), starts[i:j], i - 2, cols, out) or wide
        i = j
    if wide:
        raise FormatError(f"entry {wide} outside the signed 64-bit range")
    data = data.reshape(rows, cols)
    p = ring.modulus
    if p and (data.min() < 0 or data.max() >= p):
        # Matrix refuses the unreduced entry and words the message.
        try:
            Matrix(rows, cols, ring, data)
        except InvalidEntry as err:
            raise FormatError(str(err)) from err
    return Matrix._wrap(data, ring)


def read_matrix(path) -> Matrix:
    return parse_matrix(Path(path).read_bytes())
