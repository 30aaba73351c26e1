"""Ground-truth analysis of unequal instances and seeded instance generation.

Given A, B and a wrong C, the quantity of interest is the exact probability
that one fingerprint iteration accepts anyway.  Acceptance depends on r only
through E r where E = AB - C, and components of r multiplying all-zero
columns of E cannot change E r, so only the m components hitting nonzero
columns count and the rest marginalize out.  When those m columns are
independent (rank(E) = m, or m = 1), E r = 0 forces all m components to 0,
so the probability is (weight of 0 / total) ** m: the argument the paper
makes for one column, applied to all of them.  Otherwise enumeration runs
over assignments to the m components, which returns exactly the same
probability as enumerating the full space, at a fraction of the cost.  The m
columns split in two, E r = E_L r_L + E_H r_H, and the accepting mass is a
join of two tables of partial residuals keyed on the residual (meet in the
middle), so no stored table holds more than s ** (m // 2) entries for
support size s.  Residuals are tuples of Python integers (reduced mod p in
Z_p), so none can overflow and nothing counts as a scalar multiply.  Masses
are the law's integer weights, so an assignment's mass is a product of
weights over ``total ** m``; no floating point enters the exact path.

Empirical rates count the trials that accept, with a Wilson 99% confidence
interval.  Trial t draws the vector of iteration t of ``verify`` with the
same seed, and accepts exactly when E r = 0, since A(Br) - Cr = E r in exact
arithmetic.  Whether E r = 0 depends only on E's row space, so a block of
trials is one product E_S R_S: E_S is E's m nonzero columns by a set of rows
that spans that space, and R_S holds only the m components of each vector
that those columns multiply, drawn as the same bits the verifier draws.  A
trial accepts when its column of the product is zero.  Where a rank is
computed (n <= RANK_LIMIT) the rows are the rank(E) pivot rows of its
elimination, otherwise every nonzero row; the exact probability reads the
same E_S.  Over Z this holds only while no round of the verifier can
overflow.  So the verifier's own rounds, A(BR) against CR through its trial
engine, run instead when a bound on B r, A(Br), C r or E r passes
2**63 - 1; only they raise the verifier's ``IntegerOverflow`` for the first
trial that overflows.

``analyze_instance`` is the one analysis path, and the exact and empirical
functions return parts of its report.  It checks every argument before any
product (see its docstring for the order), forms AB once and E = AB - C at
most once, on E's m differing columns alone: every quantity above reads
only those columns, and a nonzero E with one row or one column has rank 1
without an elimination.  For t trials it counts n**3 + r m t scalar
multiplies, for E_S of r rows and m columns (r = rank(E) where a rank is
computed), or n**3 + 3 n**2 t when the verifier's rounds run.  The exact
probability adds none.
"""

from __future__ import annotations

import functools
import itertools
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
    _add_sub,
    _block,
    _exact_product,
    _fill,
    _is_prime,
    mat_add,
    matmul,
    mats_equal,
    outer,
)
from .sampling import (
    DiscreteDistribution,
    SeededRng,
    _sample_trial_block,
    draw_words,
    p_max,
    substream,
)
from .verify import _check_inputs, _trials

DEFAULT_BUDGET = 1 << 24
RANK_LIMIT = 64

# Entries of R_S and of E_S R_S per block of empirical trials (256 KiB as
# int64).  Larger blocks are fresh pages on every call: with E_S 64 x 1 and
# 4,000 trials, blocks of 2**17 entries faulted 724 pages a call and took
# 2.3-3.1 ms, blocks of 2**15 160 pages and 1.5-1.7 ms; 10**6 trials at
# E_S 256 x 1 took 1.77 s against 0.93 s (fresh processes, 2-vCPU Xeon VM).
_TRIAL_BLOCK = 1 << 15

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


@functools.cache
def _word_prime(i: int) -> int:
    """The (i + 1)-th largest prime q with q * q <= 2^63 - 1: 3,037,000,493
    for i = 0.  Cached, as each costs tens of microseconds to find."""
    q = (math.isqrt(INT64_MAX) + 1 if i == 0 else _word_prime(i - 1)) - 1
    while not _is_prime(q):
        q -= 1
    return q


def _exact_rank(e: Matrix) -> np.ndarray:
    """The indices, in E's row order, of rank(E) rows of E that span its row
    space.  ``e`` holds E's nonzero columns (``_profile``'s n x m block;
    zero columns are allowed and only cost time).  A nonzero E with one
    nonzero row or one column has rank 1, and its first nonzero row spans
    it.  Otherwise the rows are the pivot rows of an elimination mod a
    prime (``_rank_mod``) of E's nonzero rows.

    Over Z_p the prime is p: in int64 when p * p <= 2^63 - 1
    (p <= 3,037,000,499), on an object array of Python integers past it.
    Over Z a minor that is nonzero mod a prime is nonzero, so the rank mod
    any prime is at most the rank.  Elimination runs mod the word primes,
    largest first, and r is the largest rank seen mod any of them.  r is the
    rank once it equals the number of nonzero rows or of columns, whichever
    is smaller, or once the product of the primes tried exceeds a Hadamard
    bound on every (r + 1)-minor: the smaller of the products of the r + 1
    largest column norms and of the r + 1 largest row norms, each norm
    rounded up.  Such a minor is 0 mod every prime tried, so it is a
    multiple of their product smaller than it in size: it is 0.  The rows
    kept are the pivot rows of a prime that reached r: they are independent
    mod that prime, so over Q, and r of them span E's row space.
    """
    rows = np.flatnonzero(e._a.any(axis=1))
    if len(rows) < 2 or e.cols == 1:
        return rows[:1]
    # Widened: the elimination's products need int64, or Python integers.
    sub, p = e._a[rows].astype(np.int64, copy=False), e.ring.modulus
    if p is not None:
        return np.sort(rows[_rank_mod(sub if p * p <= INT64_MAX else sub.astype(object), p)])
    basis, product, norms = [], 1, None
    for q in map(_word_prime, itertools.count()):
        pivots = _rank_mod(sub % q, q)
        if len(pivots) > len(basis):
            basis = pivots
        product *= q
        if len(basis) == min(sub.shape):
            break
        if norms is None:
            squares = sub.astype(object) ** 2
            norms = [sorted((math.isqrt(s) + 1 for s in squares.sum(axis=axis)), reverse=True) for axis in (0, 1)]
        if product > min(math.prod(side[:len(basis) + 1]) for side in norms):
            break
    return np.sort(rows[basis])


def _rank_mod(a: np.ndarray, q: int) -> list[int]:
    """The indices into ``a`` of its pivot rows mod the prime q, as many as
    its rank mod q, by elimination in place; ``a``'s entries lie in [0, q).
    A row permutation follows the swaps, so each pivot row is named by its
    index before elimination.  Entries stay in [0, q) after every step, so
    one reduction per step suffices: in int64, where q * q <= 2^63 - 1 keeps
    ``x - f * y`` from overflowing, and in an object array of Python
    integers, for any q."""
    rank, order = 0, list(range(a.shape[0]))
    for col in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        below = np.flatnonzero(a[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
            order[rank], order[pivot] = order[pivot], order[rank]
        top = a[rank, col:] * pow(int(a[rank, col]), -1, q) % q
        rest = a[rank + 1:, col:]
        rest -= np.multiply.outer(rest[:, 0], top)
        rest %= q
        rank += 1
    return order[:rank]


def _profile(
    d: Matrix, c: Matrix, need_e: bool, ranked: bool = True
) -> tuple[DifferenceProfile, Matrix | None, Matrix | None]:
    """Profile of E = D - C, with the rank when ``ranked`` and n <= RANK_LIMIT.
    When D != C and either the rank or ``need_e`` asks for it, also E on
    its m differing columns, an n x m block formed from D's and C's columns
    alone, and E_S: that block's rows spanning E's row space, the rank's
    basis rows (``_exact_rank``) or, with no rank, every nonzero row."""
    diff = d._a != c._a
    cols = np.flatnonzero(diff.any(axis=0))
    entries = int(np.count_nonzero(diff))
    profile_cols = tuple(cols.tolist())
    if entries == 0:
        return DifferenceProfile(profile_cols, 0, 0), None, None
    ranked = ranked and d.rows <= RANK_LIMIT
    if not (ranked or need_e):
        return DifferenceProfile(profile_cols, entries, None), None, None
    d_cols, c_cols = (Matrix._wrap(np.take(x._a, cols, axis=1), x.ring) for x in (d, c))
    e = _add_sub(d_cols, c_cols, -1, cols)
    rows = _exact_rank(e) if ranked else np.flatnonzero(e._a.any(axis=1))
    e_s = Matrix._wrap(e._a[rows], e.ring)
    return DifferenceProfile(profile_cols, entries, len(rows) if ranked else None), e, e_s


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


def _exact_fap(e_s: Matrix, rank: int | None, dist: DiscreteDistribution) -> Fraction:
    """P[E r = 0] over the m components of r that E_S's columns, the nonzero
    columns of E, multiply; the other components marginalize out.  E_S r_S
    = 0 exactly when E r = 0, as its rows span E's row space.

    When E_S has full column rank (``rank`` = m, or m = 1 with or without a
    computed rank), E_S r_S = 0 only for r_S = 0, so the probability is
    (weight of 0 / total) ** m and no table is built.  Otherwise, with the
    columns split as E_S r_S = E_L r_L + E_H r_H + e r_last, r accepts when
    E_H r_H + e r_last = -E_L r_L.  So the accepting mass joins a table of
    -E_L r_L over the first half of the columns with the residuals of the
    rest, streamed one support value of the last column at a time.
    """
    m = e_s.cols
    if rank == m or m == 1:
        return Fraction(dist._weight_of_zero() ** m, dist.total ** m)
    p = e_s.ring.modulus
    columns = [tuple(col) for col in e_s._a.T.tolist()]
    low = _residual_table([tuple(-y for y in col) for col in columns[:m // 2]], dist, p, e_s.rows)
    high = _residual_table(columns[m // 2:-1], dist, p, e_s.rows)
    numerator = sum(w * low.get(key, 0) for key, w in _shifted(high, columns[-1], dist, p))
    return Fraction(numerator, dist.total ** m)


def _rounds_fit(a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution) -> bool:
    """Whether no round of ``verify`` on these operands can leave int64:
    over Z_p always; over Z when n max|B| rho, n max|A| (n max|B| rho) and
    n max|C| rho, for rho the largest |support value|, are all at most
    2**63 - 1.  They bound every term and partial sum of B r, A(Br) and C r.
    For n >= 2 they also give |AB| + |C| <= 2 (2**63 - 1) / n, so E = AB - C
    fits as well (n = 1 forms E for its rank in any case)."""
    if a.ring.modulus:
        return True
    n, rho = a.rows, dist._magnitude()
    br = n * b._magnitude() * rho
    return max(br, n * a._magnitude() * br, n * c._magnitude() * rho) <= INT64_MAX


def _error_trials(
    e_s: Matrix, cols: tuple[int, ...], dist: DiscreteDistribution, seed: int, stop: int
) -> Iterator[np.ndarray]:
    """E_S R_S for consecutive blocks of trials 0..stop-1, where column t
    of R_S holds components ``cols`` of trial t's vector and E_S is E's
    nonzero columns ``cols`` by rows spanning its row space (``_profile``):
    E r_t = 0 exactly when column t is zero.

    A block has ``_TRIAL_BLOCK // k`` columns, at least one, for
    k = max(rows, m), and is drawn only when reached: so neither R_S nor its
    product passes ``_TRIAL_BLOCK`` entries."""
    e, p, components = e_s._a, e_s.ring.modulus, np.array(cols, dtype=np.uint64)
    me, rho, scratch = e_s._magnitude(), dist._magnitude(), {}
    width = max(1, _TRIAL_BLOCK // max(e_s.rows, e_s.cols))
    for start in range(0, stop, width):
        r = _sample_trial_block(dist, components, seed, start, min(stop, start + width))
        yield _block(e, _exact_product(e, r, p, me, rho, scratch))


def _empirical_rate(
    a: Matrix, b: Matrix, c: Matrix, e_s: Matrix | None, cols: tuple[int, ...],
    dist: DiscreteDistribution, trials: int, seed: int,
) -> EmpiricalRate:
    """The rate of trials 0..trials-1 with E r = 0: counted from E_S R_S
    (``_error_trials``) when given E_S, and otherwise from the verifier's
    own rounds, A(BR) against CR through ``_trials``, which raises the
    ``IntegerOverflow`` of the first trial that overflows."""
    if e_s is not None:
        hits = sum(int(np.count_nonzero(~block.any(axis=0))) for block in _error_trials(e_s, cols, dist, seed, trials))
    else:
        blocks = _trials(a, b, c, dist, seed, trials)
        hits = sum(int(np.count_nonzero(~_fill(rows, a.rows).any(axis=0))) for _, _, rows in blocks)
    return EmpiricalRate(hits / trials, trials, wilson_interval(hits, trials))


def analyze_instance(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, exact: bool = False,
    trials: int | None = None, seed: int = 0, budget: int = DEFAULT_BUDGET,
) -> ErrorReport:
    """Bundle profile, optional exact probability and optional measured rate.

    Every argument is checked before any product, in this order: shapes and
    rings, ``dist`` against the ring, ``trials`` (when given), then the
    enumeration budget (when ``exact``).  AB is formed once, and E = AB - C
    at most once and only on its m differing columns, an n x m block: for
    the rank (n <= RANK_LIMIT), the exact probability, and a rate whose
    rounds cannot overflow (``_rounds_fit``) and, over Z, whose E_S R_S
    cannot either: m max|E| rho <= 2**63 - 1.  max|E| is read from the
    whole block, not only from the rows of E_S, so the same path runs with
    a rank or without.
    An instance with AB = C is refused once its profile is known, if an
    exact probability or a rate was asked for.
    """
    _check_inputs(a, b, c)
    dist.validate_for_ring(a.ring)
    if trials is not None and trials < 1:
        raise ConfigInvalid(f"need at least one trial, got {trials}")
    if exact:
        _check_budget(a.rows, len(dist), budget)
    on_e = trials is not None and _rounds_fit(a, b, c, dist)
    profile, e, e_s = _profile(matmul(a, b), c, exact or on_e)
    if (exact or trials is not None) and profile.differing_entries == 0:
        raise InstanceActuallyEqual(
            "product equals the claimed result; no false accept to measure"
        )
    cols = profile.differing_columns
    on_e = on_e and (a.ring.modulus or len(cols) * e._magnitude() * dist._magnitude() <= INT64_MAX)
    return ErrorReport(
        p_max(dist),
        profile,
        _exact_fap(e_s, profile.difference_rank, dist) if exact else None,
        _empirical_rate(a, b, c, e_s if on_e else None, cols, dist, trials, seed) if trials is not None else None,
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
# The largest n of an instance, refused before anything is allocated.
_MAX_N = 8192


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
        if self.n > _MAX_N:
            raise ConfigInvalid(f"n = {self.n} is past the limit of {_MAX_N}")
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
    top = bound if ring.kind != PRIME_FIELD else ring.modulus - 1
    return Matrix._wrap(_draw_entries(ring, n * n, rng, bound).reshape(n, n), ring, top)


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
    arr = d._a.astype(np.int64)
    if spec.mode == "equal":
        c = d
    elif spec.mode == "single-entry":
        i = int(draw_words(rng, 1)[0] % np.uint64(n))
        j = int(draw_words(rng, 1)[0] % np.uint64(n))
        arr[i, j] = _retry(entries(1), lambda x: x[0] != d[i, j], "a differing entry")[0]
        c = Matrix._wrap(arr, ring)
    elif spec.mode == "single-column":
        j = int(draw_words(rng, 1)[0] % np.uint64(n))
        arr[:, j] = _retry(entries(), lambda x: (x != d._a[:, j]).any(), "a differing column")
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
