"""Independent checks of the program's answers, in exact Python integers.

None of this calls freicheck: a verdict, witness or probability is judged
against arithmetic done here, so a broken kernel cannot vouch for itself.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from statistics import NormalDist

Z99 = NormalDist().inv_cdf(0.995)

# SplitMix64 constants of the program's documented seeding scheme: substream
# t of a seed starts at output t+1 of the parent stream, and component j of a
# vector is output j+1 of its substream.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def u01_component(seed: int, t: int, j: int) -> int:
    """Component j of the fair-coin vector drawn in round t of ``seed``."""
    state = _mix64((seed + (t + 1) * _GOLDEN) & _MASK)
    return 0 if _mix64((state + (j + 1) * _GOLDEN) & _MASK) < 1 << 63 else 1


def _dot_rows(m, r, p):
    for row in m:
        v = sum(map(operator.mul, row.tolist(), r))
        yield v % p if p else v


def first_mismatch_row(inst, r: list[int]) -> int | None:
    """Smallest row where A(Br) and Cr differ, computed in exact integers."""
    br = list(_dot_rows(inst.b, r, inst.p))
    for i, (x, y) in enumerate(zip(_dot_rows(inst.a, br, inst.p), _dot_rows(inst.c, r, inst.p))):
        if x != y:
            return i
    return None


def rank(rows: list[list[int]], p: int | None = None) -> int:
    """Exact rank: fraction-free Bareiss elimination over Q, or Gauss mod p."""
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        pv = top[col]
        if p:
            inv = pow(pv, p - 2, p)
            for i in range(r + 1, nrows):
                f = m[i][col] * inv % p
                if f:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        else:
            for i in range(r + 1, nrows):
                f = m[i][col]
                m[i] = [(pv * x - f * y) // prev for x, y in zip(m[i], top)]
            prev = pv
        r += 1
        if r == nrows:
            break
    return r


def profile(inst) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """(differing columns, differing entry count, E rows) of E = AB - C."""
    e = inst.difference()
    nz = e != 0
    cols = tuple(int(j) for j in range(e.shape[1]) if nz[:, j].any())
    return cols, int(nz.sum()), e.tolist()


def wilson(hits: int, trials: int, z: float = Z99) -> tuple[float, float]:
    phat = hits / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def check_empirical(rate: float, trials: int, ci99, truth: Fraction):
    """Judge an empirical accept rate against the known truth.

    Returns ``(error, ci_miss)``.  The rate must be a whole number of hits,
    the interval must be the Wilson 99% interval of those hits, and the hit
    count must lie within six standard deviations of the truth.  A 99%
    interval misses the truth on about one correct run in a hundred, so a
    miss is reported separately and is not an error.
    """
    hits = round(rate * trials)
    if abs(hits - rate * trials) > 1e-6:
        return f"rate {rate} is not a whole number of hits out of {trials}", False
    lo, hi = wilson(hits, trials)
    if abs(lo - ci99[0]) > 1e-9 or abs(hi - ci99[1]) > 1e-9:
        return f"ci99 {tuple(ci99)} is not the Wilson interval {(lo, hi)}", False
    q = float(truth)
    if abs(hits - trials * q) > 6 * math.sqrt(trials * q * (1 - q)) + 1:
        return f"{hits}/{trials} hits is more than 6 sigma from {truth}", False
    return None, not lo <= q <= hi
