"""Shared test helpers, kept deliberately independent of the library.

The oracles here recompute everything from first principles with plain Python
integers, ``fractions.Fraction`` and ``itertools``: no numpy, no library
arithmetic, no shared fast paths.  When a test compares library output
against these, agreement means two genuinely different routes reached the
same answer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from freicheck import Matrix, RingSpec, Vector

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
    """Rank by textbook Gaussian elimination: over Q with ``Fraction`` rows,
    or mod ``modulus`` with inverses from Fermat's little theorem."""
    p = modulus
    if p is None:
        rows = [[Fraction(int(v)) for v in row] for row in rows]
    else:
        rows = [[int(v) % p for v in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p else 1 / rows[rank][col]
        for i in range(rank + 1, nrows):
            if rows[i][col] == 0:
                continue
            factor = rows[i][col] * inv
            if p:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
            else:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


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
