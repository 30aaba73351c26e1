"""The benchmark's own inputs: a seeded generator, a freimat writer and reader.

Nothing in this module calls freicheck, so no change to the program can alter
what a workload feeds it.  Every family of instances is derived from
``(seed, name)`` through numpy's PCG64, so the same seed always yields the same
bytes; ``Instance.digest`` lets two commits show that they ran identical
inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import oracle

INT64_MAX = (1 << 63) - 1
F64_EXACT = 1 << 53


def rng_for(seed: int, name: str) -> np.random.Generator:
    """Independent PCG64 stream for one named family under one seed."""
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def _max_abs(arr: np.ndarray) -> int:
    return max(abs(int(arr.min())), abs(int(arr.max())))


def exact_product(a: np.ndarray, b: np.ndarray, p: int | None) -> np.ndarray:
    """AB exactly (reduced mod p for a field), as int64.

    float64 BLAS is used only when every partial sum is provably below 2**53,
    where it is exact; otherwise the product is taken in Python integers.
    """
    n = a.shape[1]
    bound = n * _max_abs(a) * _max_abs(b)
    if bound < F64_EXACT:
        d = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        return d % p if p else d
    d = a.astype(object) @ b.astype(object)
    if p:
        d = d % p
    if max(abs(int(v)) for v in d.ravel()) > INT64_MAX:
        raise ValueError("exact product leaves the signed 64-bit range")
    return d.astype(np.int64)


@dataclass(frozen=True)
class Instance:
    """A, B and a claimed product C; ``column`` names the corrupted column of
    a single-column instance."""

    name: str
    mode: str
    p: int | None
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    column: int | None = None

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def ring(self) -> str:
        return "int64" if self.p is None else f"zp {self.p}"

    def difference(self) -> np.ndarray:
        """E = AB - C as exact Python integers (object array)."""
        return _difference(exact_product(self.a, self.b, self.p), self.c, self.p)

    def digest(self) -> str:
        """sha256 over ring, shape and the little-endian int64 bytes of A, B, C."""
        h = hashlib.sha256(f"{self.ring} {self.n}\n".encode())
        for m in (self.a, self.b, self.c):
            h.update(np.ascontiguousarray(m, dtype="<i8").tobytes())
        return h.hexdigest()


def make_family(
    seed: int,
    name: str,
    n: int,
    modes,
    bound: int | None = None,
    p: int | None = None,
    full_rank: bool = False,
) -> dict[str, Instance]:
    """Instances sharing one A and B, one per corruption mode.

    int64 entries are uniform in [-bound, bound]; field entries uniform in
    [0, p).  ``full_rank`` redraws a dense-random C until E = AB - C has full
    rank, which gives the exact false-accept probability a closed form.
    """
    rng = rng_for(seed, name)
    lo, hi = (-bound, bound) if p is None else (0, p - 1)

    def draw(shape):
        return rng.integers(lo, hi, size=shape, endpoint=True, dtype=np.int64)

    a = draw((n, n))
    b = draw((n, n))
    d = exact_product(a, b, p)
    out = {}
    for mode in modes:
        column = None
        if mode == "equal":
            c = d
        elif mode == "single-column":
            column = int(rng.integers(n))
            col = draw(n)
            while not (col != d[:, column]).any():
                col = draw(n)
            c = d.copy()
            c[:, column] = col
        elif mode == "dense-random":
            c = draw((n, n))
            while np.array_equal(c, d) or (
                full_rank and oracle.rank(_difference(d, c, p).tolist(), p) < n
            ):
                c = draw((n, n))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        for m in (a, b, c):
            m.flags.writeable = False
        out[mode] = Instance(f"{name}/{mode}", mode, p, a, b, c, column)
    return out


def _difference(d: np.ndarray, c: np.ndarray, p: int | None) -> np.ndarray:
    e = d.astype(object) - c.astype(object)
    return e % p if p else e


def write_freimat(m: np.ndarray, ring: str, path) -> None:
    """The ``freimat 1`` text layout: header, dimension line, one row per line."""
    body = "\n".join(" ".join(map(str, row)) for row in m.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"freimat 1\n{m.shape[0]} {m.shape[1]} {ring}\n{body}\n")


def read_freimat(path) -> tuple[str, np.ndarray]:
    """Strict reader for files the program writes: returns (ring, entries)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    if lines[0] != "freimat 1":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    rows, cols, ring = lines[1].split(" ", 2)
    body = [[int(tok) for tok in line.split()] for line in lines[2:]]
    arr = np.array(body, dtype=np.int64)
    if arr.shape != (int(rows), int(cols)):
        raise ValueError(f"{path}: body shape {arr.shape} vs header {rows}x{cols}")
    return ring, arr
