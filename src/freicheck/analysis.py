"""Ground-truth analysis of unequal instances and seeded instance generation.

Given A, B and a wrong C, the quantity of interest is the exact probability
that one fingerprint iteration accepts anyway.  Acceptance depends on r only
through E r where E = AB - C, and components of r multiplying all-zero
columns of E cannot change E r, so enumeration runs over assignments to the
components hitting nonzero columns and marginalizes the rest.  That reduction
returns exactly the same probability as enumerating the full space, at a
fraction of the cost.  Probabilities are accumulated as exact rationals; no
floating point enters the exact path.

Empirical rates re-run the verifier's own per-iteration experiment many times
through the verifier's ``fingerprint_block``, one trial per column of a block,
and report a Wilson 99% confidence interval around the observed rate.
"""

from __future__ import annotations

import math
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
    _sample_trial_block,
    draw_words,
    p_max,
    substream,
)
from .verify import _check_inputs, fingerprint_block

DEFAULT_BUDGET = 1 << 24
RANK_LIMIT = 64

_ENUM_CHUNK = 1 << 18
_TRIAL_CHUNK = 1 << 14

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
    """Rank by Gaussian elimination: over Q for int64, mod p for the field."""
    p = e.ring.modulus if e.ring.kind == PRIME_FIELD else None
    if p is None:
        rows = [[Fraction(int(v)) for v in row] for row in e.data]
    else:
        rows = [[int(v) % p for v in row] for row in e.data]
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


def difference_profile(a: Matrix, b: Matrix, c: Matrix) -> DifferenceProfile:
    """Profile of E = AB - C; computes the product once, deterministically."""
    _check_inputs(a, b, c)
    d = matmul(a, b)
    diff = d.data != c.data
    cols = tuple(int(j) for j in np.flatnonzero(diff.any(axis=0)))
    entries = int(diff.sum())
    if entries == 0:
        rank = 0
    elif d.rows <= RANK_LIMIT:
        rank = _exact_rank(mat_sub(d, c))
    else:
        rank = None
    return DifferenceProfile(cols, entries, rank)


def _max_enumerable_n(s: int, budget: int) -> int:
    n = 0
    space = 1
    while space * s <= budget:
        space *= s
        n += 1
    return n


def _digit_matrix(start: int, stop: int, m: int, s: int) -> np.ndarray:
    """Mixed-radix digits of start..stop-1, least significant digit first,
    as an (m, stop-start) index array."""
    g = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((m, stop - start), dtype=np.int64)
    for t in range(m):
        digits[t] = g % s
        g = g // s
    return digits


def exact_false_accept_probability(
    a: Matrix,
    b: Matrix,
    c: Matrix,
    dist: DiscreteDistribution,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Exact P[one iteration accepts] for an instance with AB != C.

    Enumerates every assignment of components that multiply nonzero columns
    of E = AB - C (the rest marginalize out) and adds the mass of each
    accepting assignment as an exact rational.
    """
    _check_inputs(a, b, c)
    dist.validate_for_ring(a.ring)
    n = a.rows
    s = len(dist.support)
    if s ** n > budget:
        raise BudgetExceeded(
            f"enumerating {s}^{n} vectors exceeds the budget of {budget}; "
            f"with support size {s} the largest enumerable n is "
            f"{_max_enumerable_n(s, budget)}"
        )
    d = matmul(a, b)
    _refuse_equal(mats_equal(d, c))
    e = mat_sub(d, c)
    p = a.ring.modulus if a.ring.kind == PRIME_FIELD else None

    relevant = np.flatnonzero((e.data != 0).any(axis=0))
    ered = e.data[:, relevant]
    ered = ered[(ered != 0).any(axis=1), :]  # all-zero rows constrain nothing
    m = int(relevant.size)

    support = dist._support_arr
    # One accumulation bound covers every chunk; fall back to exact object
    # arithmetic if int64 cannot hold the dot products.
    mag = max(abs(int(ered.min())), abs(int(ered.max())))
    smag = max(abs(int(support.min())), abs(int(support.max())))
    if m * mag * smag > INT64_MAX:
        ered = ered.astype(object)
        support = support.astype(object)

    uniform = len(set(dist.probs)) == 1
    accept_count = 0
    hist: dict[tuple[int, ...], int] = {}
    space = s ** m
    for start in range(0, space, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, space)
        idx = _digit_matrix(start, stop, m, s)
        residual = ered @ support[idx]
        if p is not None:
            residual = residual % p
        accepting = ~(residual != 0).any(axis=0)
        if uniform:
            accept_count += int(np.count_nonzero(accepting))
            continue
        acc_idx = idx[:, accepting]
        if acc_idx.shape[1] == 0:
            continue
        # Mass of an assignment depends only on how often each support value
        # occurs, so group accepting assignments by that count signature.
        counts = np.stack([(acc_idx == i).sum(axis=0) for i in range(s)], axis=1)
        signatures, reps = np.unique(counts, axis=0, return_counts=True)
        for sig, rep in zip(signatures, reps):
            key = tuple(int(x) for x in sig)
            hist[key] = hist.get(key, 0) + int(rep)

    if uniform:
        return Fraction(accept_count, space)
    common = math.lcm(*(q.denominator for q in dist.probs))
    weights = [q.numerator * (common // q.denominator) for q in dist.probs]
    numerator = 0
    for sig, rep in hist.items():
        mass = 1
        for w, h in zip(weights, sig):
            mass *= w ** h
        numerator += rep * mass
    return Fraction(numerator, common ** m)


def _refuse_equal(equal: bool) -> None:
    if equal:
        raise InstanceActuallyEqual(
            "product equals the claimed result; no false accept to measure"
        )


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigInvalid(f"need at least one trial, got {trials}")


def _empirical_rate(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, trials: int, seed: int
) -> EmpiricalRate:
    # Trial t is the verifier's iteration with the vector of substream
    # (seed, t), run _TRIAL_CHUNK at a time through the verifier's own block.
    hits = 0
    for start in range(0, trials, _TRIAL_CHUNK):
        stop = min(start + _TRIAL_CHUNK, trials)
        r = Matrix._wrap(_sample_trial_block(dist, a.rows, seed, start, stop), a.ring)
        hits += int(np.count_nonzero(~fingerprint_block(a, b, c, r).any(axis=0)))
    return EmpiricalRate(hits / trials, trials, wilson_interval(hits, trials))


def empirical_false_accept_rate(
    a: Matrix,
    b: Matrix,
    c: Matrix,
    dist: DiscreteDistribution,
    trials: int,
    seed: int = 0,
) -> ErrorReport:
    """Measured single-iteration accept rate over seeded independent trials."""
    _check_inputs(a, b, c)
    dist.validate_for_ring(a.ring)
    _check_trials(trials)
    profile = difference_profile(a, b, c)
    _refuse_equal(profile.differing_entries == 0)
    return ErrorReport(
        per_iteration_bound=p_max(dist),
        instance_profile=profile,
        empirical=_empirical_rate(a, b, c, dist, trials, seed),
    )


def analyze_instance(
    a: Matrix,
    b: Matrix,
    c: Matrix,
    dist: DiscreteDistribution,
    exact: bool = False,
    trials: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ErrorReport:
    """Bundle profile, optional exact probability and optional measured rate."""
    _check_inputs(a, b, c)
    dist.validate_for_ring(a.ring)
    profile = difference_profile(a, b, c)
    exact_fap = None
    empirical = None
    if exact:
        exact_fap = exact_false_accept_probability(a, b, c, dist, budget)
    if trials is not None:
        _check_trials(trials)
        _refuse_equal(profile.differing_entries == 0)
        empirical = _empirical_rate(a, b, c, dist, trials, seed)
    return ErrorReport(p_max(dist), profile, exact_fap, empirical)


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


def generate_instance(spec: InstanceSpec) -> tuple[Matrix, Matrix, Matrix]:
    """Derive (A, B, C) from the spec, deterministically in the seed.

    A and B come from substreams 0 and 1; the corruption applied to the true
    product comes from substream 2.  Before returning, the achieved error
    shape is checked against the requested mode using the directly computed
    product as the oracle.
    """
    n, ring, bound = spec.n, spec.ring, spec.entry_bound
    a = _draw_matrix(ring, n, substream(spec.seed, 0), bound)
    b = _draw_matrix(ring, n, substream(spec.seed, 1), bound)
    d = matmul(a, b)
    rng = substream(spec.seed, 2)

    v_support: np.ndarray | None = None
    if spec.mode == "equal":
        c = d
    elif spec.mode == "single-entry":
        i = int(draw_words(rng, 1)[0] % np.uint64(n))
        j = int(draw_words(rng, 1)[0] % np.uint64(n))
        for _ in range(100):
            value = int(_draw_entries(ring, 1, rng, bound)[0])
            if value != d[i, j]:
                arr = d.data.copy()
                arr[i, j] = value
                c = Matrix._wrap(arr, ring)
                break
        else:
            raise GenerationFailed("could not draw a differing entry in 100 tries")
    elif spec.mode == "single-column":
        j = int(draw_words(rng, 1)[0] % np.uint64(n))
        for _ in range(100):
            col = _draw_entries(ring, n, rng, bound)
            if (col != d.data[:, j]).any():
                arr = d.data.copy()
                arr[:, j] = col
                c = Matrix._wrap(arr, ring)
                break
        else:
            raise GenerationFailed("could not draw a differing column in 100 tries")
    elif spec.mode == "rank-one":
        for _ in range(100):
            u = _draw_entries(ring, n, rng, bound)
            if (u != 0).any():
                break
        else:
            raise GenerationFailed("could not draw a nonzero u in 100 tries")
        for _ in range(100):
            v = _draw_entries(ring, n, rng, bound)
            if (v != 0).any():
                break
        else:
            raise GenerationFailed("could not draw a nonzero v in 100 tries")
        c = mat_add(d, outer(Vector._wrap(u, ring), Vector._wrap(v, ring)))
        v_support = np.flatnonzero(v != 0)
    elif spec.mode == "dense-random":
        for _ in range(100):
            c = _draw_matrix(ring, n, rng, bound)
            if not mats_equal(c, d):
                break
        else:
            raise GenerationFailed("could not draw a matrix differing from AB in 100 tries")
    else:  # pragma: no cover - InstanceSpec already rejects unknown modes
        raise GenerationFailed(f"unhandled mode {spec.mode!r}")

    diff = d.data != c.data
    differing_cols = np.flatnonzero(diff.any(axis=0))
    entries = int(diff.sum())
    if spec.mode == "equal":
        ok = entries == 0
    elif spec.mode == "single-entry":
        ok = entries == 1
    elif spec.mode == "single-column":
        ok = differing_cols.size == 1
    elif spec.mode == "rank-one":
        # u has no zero cancellations to worry about: column j of u v^T is
        # v_j u, nonzero exactly when v_j is.
        ok = v_support is not None and np.array_equal(differing_cols, v_support)
    else:
        ok = differing_cols.size >= 1
    if not ok:
        raise GenerationFailed(
            f"generated instance does not match mode {spec.mode!r}"
        )
    return a, b, c
