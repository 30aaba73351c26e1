"""Shared test helpers, kept deliberately independent of the library.

The oracles here recompute everything from first principles with plain Python
integers, ``fractions.Fraction`` and ``itertools``: no numpy, no library
arithmetic, no shared fast paths.  When a test compares library output
against these, agreement means two genuinely different routes reached the
same answer.
"""

from __future__ import annotations

import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

from freicheck import FormatError, InvalidEntry, InvalidRing, Matrix, RingSpec, Vector, parse_ring

MASK64 = (1 << 64) - 1


def brute_matmul(a_rows, b_rows, modulus=None):
    """Schoolbook product on nested lists of Python ints."""
    n, k, m = len(a_rows), len(b_rows), len(b_rows[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc += a_rows[i][t] * b_rows[t][j]
            out[i][j] = acc % modulus if modulus else acc
    return out


def brute_mat_vec(x_rows, r, modulus=None):
    out = []
    for row in x_rows:
        acc = sum(a * b for a, b in zip(row, r))
        out.append(acc % modulus if modulus else acc)
    return out


def brute_fap(a: Matrix, b: Matrix, c: Matrix, support, probs) -> Fraction:
    """Exact single-iteration accept probability by full-space enumeration.

    Sums the product of component masses over every r in support^n whose
    residual (AB - C) r is zero, without any column reduction.
    """
    modulus = a.ring.modulus
    a_rows = [[int(v) for v in row] for row in a.data]
    b_rows = [[int(v) for v in row] for row in b.data]
    c_rows = [[int(v) for v in row] for row in c.data]
    d_rows = brute_matmul(a_rows, b_rows, modulus)
    n = len(a_rows)
    e_rows = [
        [
            (d_rows[i][j] - c_rows[i][j]) % modulus
            if modulus
            else d_rows[i][j] - c_rows[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    probs = [Fraction(q) for q in probs]
    mass_of = dict(zip(support, probs))
    total = Fraction(0)
    for r in product(support, repeat=n):
        residual = brute_mat_vec(e_rows, list(r), modulus)
        if all(v == 0 for v in residual):
            mass = Fraction(1)
            for v in r:
                mass *= mass_of[v]
            total += mass
    return total


def fraction_rank(rows, modulus=None) -> int:
    """Rank by textbook Gaussian elimination: over Z fraction-free, so each
    entry below the pivots stays an integer minor of the input and each
    division by the previous pivot is exact (Bareiss), or mod ``modulus``
    with inverses from Fermat's little theorem."""
    p = modulus
    rows = [[int(v) % p if p else int(v) for v in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # Every row from ``rank`` on is zero left of ``col``.
        top = rows[rank][col:]
        inv = pow(top[0], p - 2, p) if p else None
        for row in rows[rank + 1 :]:
            if p:
                factor = row[col] * inv
                row[col:] = [(x - factor * y) % p for x, y in zip(row[col:], top)]
            else:
                f = row[col]
                row[col:] = [(top[0] * x - f * y) // prev for x, y in zip(row[col:], top)]
        prev = top[0]
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_format(m: Matrix) -> str:
    """``freimat`` text written one ``str(int(v))`` at a time."""
    head = f"freimat 1\n{m.rows} {m.cols} {m.ring}\n"
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in m.data)
    return head + body + "\n"


def _reference_int(token: str, what: str) -> int:
    try:
        # int() refuses more than 4,300 digits, leading zeros too.
        return int(re.sub(r"^([+-]?)0+(?=[0-9])", r"\1", token))
    except ValueError:
        raise FormatError(f"bad {what} {token!r}") from None


def _reference_entry(token: str, row: int) -> int:
    try:
        return _reference_int(token, f"entry at row {row}")
    except FormatError:
        # int() refuses more than 4,300 digits (sys.get_int_max_str_digits());
        # an entry of any length is read exactly, through Decimal.
        if re.fullmatch(r"[+-]?[0-9]+", token):
            return int(Decimal(token))
        raise


def reference_parse(text: str) -> Matrix:
    """``freimat`` parser on ``str.splitlines``, ``str.split`` and one
    ``int()`` per token (``Decimal`` past its digit limit): the grammar and
    messages the library must match.
    Entry range and reduction checks are ``Matrix``'s, shared by both."""
    if not text.isascii() or "_" in text:
        bad = next(ch for ch in text if ch == "_" or not ch.isascii())
        raise FormatError(f"unexpected character {bad!r}; entries are ASCII decimal integers")
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or lines[0].strip() != "freimat 1":
        raise FormatError("missing 'freimat 1' header line")
    if len(lines) < 2:
        raise FormatError("missing dimension line")
    tokens = lines[1].split()
    if len(tokens) < 3:
        raise FormatError("dimension line must read '<rows> <cols> <ring>'")
    rows = _reference_int(tokens[0], "row count")
    cols = _reference_int(tokens[1], "column count")
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
        data.append([_reference_entry(t, i) for t in tokens])
    try:
        return Matrix(rows, cols, ring, data)
    except InvalidEntry as err:
        raise FormatError(str(err)) from err


def random_matrix(rng: random.Random, n: int, ring: RingSpec, bound: int = 9) -> Matrix:
    """Small random matrix drawn with the stdlib generator, not the library's."""
    if ring.modulus:
        data = [[rng.randrange(ring.modulus) for _ in range(n)] for _ in range(n)]
    else:
        data = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    return Matrix(n, n, ring, data)


def random_unequal_triple(rng: random.Random, n: int, ring: RingSpec, bound: int = 9):
    """(A, B, C) with C != AB, corrupted entrywise with stdlib randomness."""
    a = random_matrix(rng, n, ring, bound)
    b = random_matrix(rng, n, ring, bound)
    d_rows = brute_matmul(
        [[int(v) for v in row] for row in a.data],
        [[int(v) for v in row] for row in b.data],
        ring.modulus,
    )
    c_rows = [row[:] for row in d_rows]
    changed = 0
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                if ring.modulus:
                    delta = rng.randrange(1, ring.modulus)
                    c_rows[i][j] = (c_rows[i][j] + delta) % ring.modulus
                else:
                    c_rows[i][j] += rng.choice([-3, -2, -1, 1, 2, 3])
                changed += 1
    if changed == 0:
        i, j = rng.randrange(n), rng.randrange(n)
        if ring.modulus:
            c_rows[i][j] = (c_rows[i][j] + 1) % ring.modulus
        else:
            c_rows[i][j] += 1
    c = Matrix(n, n, ring, c_rows)
    return a, b, c


def splitmix_reference(seed: int, count: int) -> list[int]:
    """Plainly written reference stream for the pinned generator."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def sample_reference(support, probs, n: int, seed: int) -> list[int]:
    """Scalar inverse-CDF sampler: value i is picked when the raw word falls
    in [floor(F(i-1) * 2**64), floor(F(i) * 2**64))."""
    cuts = []
    acc = Fraction(0)
    for q in probs:
        acc += Fraction(q)
        cuts.append((acc.numerator << 64) // acc.denominator)
    words = splitmix_reference(seed, n)
    out = []
    for w in words:
        idx = 0
        while w >= cuts[idx]:
            idx += 1
        out.append(support[idx])
    return out


def as_vector(values, ring: RingSpec) -> Vector:
    return Vector(ring, list(values))
