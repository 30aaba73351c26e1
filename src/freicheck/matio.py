"""Plain-text matrix files.

Layout, one matrix per file:

    freimat 1
    <rows> <cols> <ring>
    <row 0 entries, space separated>
    ...

where ``<ring>`` is ``int64`` or ``zp <p>``.  The text is ASCII and entries
are plain decimal integers (no ``_`` separators); field entries must already
be reduced to [0, p), and anything else is a parse error rather than a
silent fix-up.  Writing then reading a matrix reproduces it exactly.
"""

from __future__ import annotations

from pathlib import Path

from .errors import FormatError, InvalidEntry, InvalidRing
from .matrix import Matrix, parse_ring

MAGIC = "freimat 1"


def format_matrix(m: Matrix) -> str:
    head = f"{MAGIC}\n{m.rows} {m.cols} {m.ring}\n"
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in m.data)
    return head + body + "\n"


def write_matrix(m: Matrix, path) -> None:
    Path(path).write_text(format_matrix(m), encoding="utf-8")


def _int_token(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad {what} {token!r}") from None


def parse_matrix(text: str) -> Matrix:
    # int() also takes "1_000" and non-ASCII digits; one scan of the whole
    # text refuses both, so no token pays for it.
    if not text.isascii() or "_" in text:
        bad = next(ch for ch in text if ch == "_" or not ch.isascii())
        raise FormatError(f"unexpected character {bad!r}; entries are ASCII decimal integers")
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0].strip() != MAGIC:
        raise FormatError(f"missing {MAGIC!r} header line")
    if len(lines) < 2:
        raise FormatError("missing dimension line")
    tokens = lines[1].split()
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
    body = lines[2:]
    if len(body) != rows:
        raise FormatError(f"expected {rows} rows of entries, found {len(body)}")
    data = []
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"row {i} has {len(tokens)} entries, expected {cols}")
        data.append([_int_token(t, f"entry at row {i}") for t in tokens])
    try:
        return Matrix(rows, cols, ring, data)
    except InvalidEntry as err:
        raise FormatError(str(err)) from err


def read_matrix(path) -> Matrix:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"not UTF-8 text: {err.reason} at byte {err.start}") from None
    return parse_matrix(text)
