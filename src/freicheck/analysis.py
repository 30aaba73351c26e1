"""Ground-truth analysis of unequal instances and seeded instance generation.

Given A, B and a wrong C, the quantity of interest is the exact probability
that one fingerprint iteration accepts anyway.  Acceptance depends on r only
through E r where E = AB - C, and components of r multiplying all-zero
columns of E cannot change E r, so enumeration runs over assignments to the
components hitting nonzero columns and marginalizes the rest.  That reduction
returns exactly the same probability as enumerating the full space, at a
fraction of the cost.  The m remaining columns split in two, E r = E_L r_L +
E_H r_H, and the accepting mass is a join of two tables of partial residuals
keyed on the residual (meet in the middle), so no stored table holds more
than s ** (m // 2) entries for support size s.  Residuals are tuples of Python
integers (reduced mod p in Z_p), so none can overflow and nothing counts as a
scalar multiply.  Masses are the law's integer weights, so an assignment's
mass is a product of weights over ``total ** m``; no floating point enters the
exact path.

Empirical rates are the verifier's own experiment repeated: trial t is
iteration t of ``verify`` with the same seed, run by the same trial engine
in the same blocks, and the rate comes with a Wilson 99% confidence interval.

``analyze_instance`` is the one analysis path, and the exact and empirical
functions return parts of its report.  It checks every argument before any
product (see its docstring for the order), forms AB once and E = AB - C at
most once, and counts n**3 + 3 n**2 t scalar multiplies for t trials, with or
without the exact probability.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    GenerationFailed,
    InstanceActuallyEqual,
)
from .matrix import (
    INT64_MAX,
    PRIME_FIELD,
    Matrix,
    RingSpec,
    Vector,
    mat_add,
    mat_sub,
    matmul,
    mats_equal,
    outer,
)
from .sampling import (
    DiscreteDistribution,
    SeededRng,
    draw_words,
    p_max,
    substream,
)
from .verify import _check_inputs, _trials

DEFAULT_BUDGET = 1 << 24
RANK_LIMIT = 64

# z for a two-sided 99% normal interval, i.e. the 0.995 quantile.
Z99 = 2.5758293035489004


def wilson_interval(hits: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clipped to [0, 1]."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError("hits must lie in [0, trials]")
    phat = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # At the extremes the score equation has an exact root at 0 or 1; snap
    # there rather than letting float rounding leave the estimate outside.
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class DifferenceProfile:
    """Shape of the error E = AB - C: which columns differ, how many entries
    differ, and (for small n) the exact rank of E."""

    differing_columns: tuple[int, ...]
    differing_entries: int
    difference_rank: int | None

    @property
    def y_size(self) -> int:
        return len(self.differing_columns)


@dataclass(frozen=True)
class EmpiricalRate:
    """Observed single-iteration accept rate with its Wilson 99% interval."""

    rate: float
    trials: int
    ci99: tuple[float, float]


@dataclass(frozen=True)
class ErrorReport:
    """Everything known about one instance's false-accept behaviour."""

    per_iteration_bound: Fraction
    instance_profile: DifferenceProfile
    exact_fap: Fraction | None = None
    empirical: EmpiricalRate | None = None


def _exact_rank(e: Matrix) -> int:
    """Rank of E by fraction-free elimination over its nonzero rows and columns.

    Over Z this is Bareiss elimination: with pivot ``piv`` and previous pivot
    ``prev``, each lower row becomes ``(piv * row - f * top) // prev``.  By
    Sylvester's identity every entry is then a minor of E, so the division is
    exact and no fraction appears.  Mod p the same cross-multiplication is
    reduced mod p and needs no division.
    """
    p = e.ring.modulus
    nonzero = e.data != 0
    rows = e.data[np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))].tolist()
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        piv = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if p is None:
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], top)]
            elif f:
                rows[i] = [(piv * x - f * y) % p for x, y in zip(rows[i], top)]
        prev = piv
        rank += 1
        if rank == len(rows):
            break
    return rank


def _profile(
    d: Matrix, c: Matrix, need_e: bool, ranked: bool = True
) -> tuple[DifferenceProfile, Matrix | None]:
    """Profile of E = D - C, with the rank when ``ranked`` and n <= RANK_LIMIT,
    and E itself when D != C and either the rank or ``need_e`` asks for it."""
    diff = d.data != c.data
    cols = tuple(int(j) for j in np.flatnonzero(diff.any(axis=0)))
    entries = int(diff.sum())
    if entries == 0:
        return DifferenceProfile(cols, 0, 0), None
    ranked = ranked and d.rows <= RANK_LIMIT
    e = mat_sub(d, c) if ranked or need_e else None
    return DifferenceProfile(cols, entries, _exact_rank(e) if ranked else None), e


def difference_profile(a: Matrix, b: Matrix, c: Matrix) -> DifferenceProfile:
    """Profile of E = AB - C; computes the product once, deterministically."""
    _check_inputs(a, b, c)
    return _profile(matmul(a, b), c, False)[0]


def _check_budget(n: int, s: int, budget: int) -> None:
    if s ** n > budget:
        most = 0
        while s ** (most + 1) <= budget:
            most += 1
        raise BudgetExceeded(
            f"enumerating {s}^{n} vectors exceeds the budget of {budget}; "
            f"with support size {s} the largest enumerable n is {most}"
        )


def _shifted(
    table: dict[tuple[int, ...], int], col: tuple[int, ...], dist: DiscreteDistribution, p: int | None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(res + v * col, w * weight of v)`` for every residual ``res`` of
    weight ``w`` in ``table`` and every support value v, mod p in Z_p."""
    for res, w in table.items():
        for v, wt in zip(dist.support, dist.weights):
            key = tuple(x + v * y for x, y in zip(res, col))
            yield (key if p is None else tuple(x % p for x in key)), w * wt


def _residual_table(
    cols: list[tuple[int, ...]], dist: DiscreteDistribution, p: int | None, rows: int
) -> dict[tuple[int, ...], int]:
    """``{E_S r_S: summed weight}`` over every assignment r_S of the support
    to the columns ``cols`` of E, built one column at a time so that equal
    partial residuals merge."""
    table = {(0,) * rows: 1}
    for col in cols:
        grown: dict[tuple[int, ...], int] = {}
        for key, w in _shifted(table, col, dist, p):
            grown[key] = grown.get(key, 0) + w
        table = grown
    return table


def _exact_fap(e: Matrix, cols: tuple[int, ...], dist: DiscreteDistribution) -> Fraction:
    """P[E r = 0] by enumerating the components of r that ``cols``, the
    nonzero columns of E, multiply; the other components marginalize out.

    With the columns split as E r = E_L r_L + E_H r_H + e r_last, r accepts
    when E_H r_H + e r_last = -E_L r_L.  So the accepting mass joins a table
    of -E_L r_L over the first half of the columns with the residuals of the
    rest, streamed one support value of the last column at a time.
    """
    p = e.ring.modulus
    ered = e.data[:, list(cols)]
    ered = ered[(ered != 0).any(axis=1), :]  # all-zero rows constrain nothing
    columns = [tuple(col) for col in ered.T.tolist()]
    m, rows, half = len(columns), len(ered), len(columns) // 2
    low = _residual_table([tuple(-y for y in col) for col in columns[:half]], dist, p, rows)
    high = _residual_table(columns[half:-1], dist, p, rows)
    numerator = sum(w * low.get(key, 0) for key, w in _shifted(high, columns[-1], dist, p))
    return Fraction(numerator, dist.total ** m)


def _empirical_rate(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, trials: int, seed: int
) -> EmpiricalRate:
    blocks = _trials(a, b, c, dist, seed, trials)
    hits = sum(int(np.count_nonzero(~mask.any(axis=0))) for _, _, mask in blocks)
    return EmpiricalRate(hits / trials, trials, wilson_interval(hits, trials))


def analyze_instance(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, exact: bool = False,
    trials: int | None = None, seed: int = 0, budget: int = DEFAULT_BUDGET,
) -> ErrorReport:
    """Bundle profile, optional exact probability and optional measured rate.

    Every argument is checked before any product, in this order: shapes and
    rings, ``dist`` against the ring, ``trials`` (when given), then the
    enumeration budget (when ``exact``).  AB is formed once and E = AB - C at
    most once; an instance with AB = C is refused once its profile is known,
    if an exact probability or a rate was asked for.
    """
    _check_inputs(a, b, c)
    dist.validate_for_ring(a.ring)
    if trials is not None and trials < 1:
        raise ConfigInvalid(f"need at least one trial, got {trials}")
    if exact:
        _check_budget(a.rows, len(dist), budget)
    profile, e = _profile(matmul(a, b), c, exact)
    if (exact or trials is not None) and profile.differing_entries == 0:
        raise InstanceActuallyEqual(
            "product equals the claimed result; no false accept to measure"
        )
    return ErrorReport(
        p_max(dist),
        profile,
        _exact_fap(e, profile.differing_columns, dist) if exact else None,
        _empirical_rate(a, b, c, dist, trials, seed) if trials is not None else None,
    )


def exact_false_accept_probability(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact P[one iteration accepts] for an instance with AB != C: the
    ``exact_fap`` of ``analyze_instance``."""
    return analyze_instance(a, b, c, dist, exact=True, budget=budget).exact_fap


def empirical_false_accept_rate(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, trials: int, seed: int = 0
) -> ErrorReport:
    """Measured single-iteration accept rate over seeded independent trials:
    ``analyze_instance`` with ``trials`` and no exact probability."""
    return analyze_instance(a, b, c, dist, trials=trials, seed=seed)


MODES = ("equal", "single-entry", "single-column", "rank-one", "dense-random")


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one seeded test instance.

    ``entry_bound`` only applies to int64 rings, whose entries are drawn
    uniformly from [-entry_bound, entry_bound]; field entries are uniform over
    [0, p).
    """

    n: int
    ring: RingSpec
    mode: str
    seed: int
    entry_bound: int = 256

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigInvalid(f"need n >= 1, got {self.n}")
        if self.mode not in MODES:
            raise ConfigInvalid(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.entry_bound < 1:
            raise ConfigInvalid(f"entry bound must be positive, got {self.entry_bound}")
        if 2 * self.entry_bound + 1 > INT64_MAX:
            raise ConfigInvalid("entry bound too large for 64-bit entries")


def _draw_entries(ring: RingSpec, count: int, rng: SeededRng, bound: int) -> np.ndarray:
    words = draw_words(rng, count)
    if ring.kind == PRIME_FIELD:
        return (words % np.uint64(ring.modulus)).astype(np.int64)
    span = 2 * bound + 1
    return (words % np.uint64(span)).astype(np.int64) - bound


def _draw_matrix(ring: RingSpec, n: int, rng: SeededRng, bound: int) -> Matrix:
    return Matrix._wrap(_draw_entries(ring, n * n, rng, bound).reshape(n, n), ring)


def _retry(draw, accept, what: str):
    """The first of up to 100 draws that ``accept`` takes."""
    for _ in range(100):
        x = draw()
        if accept(x):
            return x
    raise GenerationFailed(f"could not draw {what} in 100 tries")


def generate_instance(spec: InstanceSpec) -> tuple[Matrix, Matrix, Matrix]:
    """Derive (A, B, C) from the spec, deterministically in the seed.

    A and B come from substreams 0 and 1; the corruption applied to the true
    product comes from substream 2.  Before returning, the achieved error
    shape is checked against the requested mode using the directly computed
    product as the oracle.
    """
    return _generate(spec, False)[:3]


def _generate(spec: InstanceSpec, ranked: bool) -> tuple[Matrix, Matrix, Matrix, DifferenceProfile]:
    """``generate_instance`` plus the profile of AB - C that its mode check
    reads, with the rank when ``ranked``; AB is formed once."""
    n, ring, bound = spec.n, spec.ring, spec.entry_bound
    a = _draw_matrix(ring, n, substream(spec.seed, 0), bound)
    b = _draw_matrix(ring, n, substream(spec.seed, 1), bound)
    d = matmul(a, b)
    rng = substream(spec.seed, 2)

    def entries(count=n):
        return lambda: _draw_entries(ring, count, rng, bound)

    v_support: tuple[int, ...] | None = None
    arr = d.data.copy()
    if spec.mode == "equal":
        c = d
    elif spec.mode == "single-entry":
        i = int(draw_words(rng, 1)[0] % np.uint64(n))
        j = int(draw_words(rng, 1)[0] % np.uint64(n))
        arr[i, j] = _retry(entries(1), lambda x: x[0] != d[i, j], "a differing entry")[0]
        c = Matrix._wrap(arr, ring)
    elif spec.mode == "single-column":
        j = int(draw_words(rng, 1)[0] % np.uint64(n))
        arr[:, j] = _retry(entries(), lambda x: (x != d.data[:, j]).any(), "a differing column")
        c = Matrix._wrap(arr, ring)
    elif spec.mode == "rank-one":
        u = _retry(entries(), np.any, "a nonzero u")
        v = _retry(entries(), np.any, "a nonzero v")
        c = mat_add(d, outer(Vector._wrap(u, ring), Vector._wrap(v, ring)))
        v_support = tuple(int(j) for j in np.flatnonzero(v != 0))
    elif spec.mode == "dense-random":
        c = _retry(
            lambda: _draw_matrix(ring, n, rng, bound),
            lambda m: not mats_equal(m, d),
            "a matrix differing from AB",
        )
    else:  # pragma: no cover - InstanceSpec already rejects unknown modes
        raise GenerationFailed(f"unhandled mode {spec.mode!r}")

    profile = _profile(d, c, False, ranked)[0]
    cols, count = profile.differing_columns, profile.differing_entries
    ok = {
        "equal": count == 0,
        "single-entry": count == 1,
        "single-column": len(cols) == 1,
        # u has no zero cancellations to worry about: column j of u v^T is
        # v_j u, nonzero exactly when v_j is.
        "rank-one": cols == v_support,
        "dense-random": len(cols) >= 1,
    }[spec.mode]
    if not ok:
        raise GenerationFailed(f"generated instance does not match mode {spec.mode!r}")
    return a, b, c, profile
