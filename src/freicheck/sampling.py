"""Seeded randomness and finite component distributions.

All random choices in the package flow through one generator, SplitMix64:
state advances by the 64-bit golden-gamma constant and each output is the
avalanche of the new state.  Substream ``j`` of a seed is keyed off output
``j + 1`` of the parent stream, so it depends on ``(seed, j)`` alone; that is
what lets iterations and trials be replayed or reordered without changing
what any one of them draws.

Component distributions store exact masses as integer weights over one total
(gcd 1, total the lcm of the reduced denominators, so equal laws store equal
weights).  Sampling maps a raw 64-bit word through inverse-CDF cut points:
cut i is ``((weights[0] + ... + weights[i]) << 64) // total``.  Flooring the cut
points biases any single mass by less than 2**-60 for the supports used here,
far below anything an empirical rate can resolve, and the exact analysis code
never touches the sampler.  The uniform law on Z_p (``field_uniform``) stores
p alone and draws through the closed form of that lookup, so it costs the
same for any prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import (
    ConfigInvalid,
    DuplicateSupport,
    InvalidDistribution,
    InvalidProbability,
    InvalidRing,
    SupportTooSmall,
)
from .matrix import INT64_MAX, INT64_MIN, PRIME_FIELD, RingSpec, Vector

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# numpy scalars built once: building them costs more than mixing a short array.
_U_GOLDEN, _U_MIX_A, _U_MIX_B = np.uint64(GOLDEN), np.uint64(_MIX_A), np.uint64(_MIX_B)
_U27, _U30, _U31, _U32 = np.uint64(27), np.uint64(30), np.uint64(31), np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function over a uint64 array: avalanche each word."""
    z = (z ^ (z >> _U30)) * _U_MIX_A
    z = (z ^ (z >> _U27)) * _U_MIX_B
    return z ^ (z >> _U31)


class SeededRng:
    """SplitMix64 stream; output ``i``, counting from 1, avalanches ``seed + i*GOLDEN``."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        word = int(_outputs(np.uint64(self.state), 1, 2)[0])
        self.state = (self.state + GOLDEN) & MASK64
        return word


def stream_seed(seed: int, index: int) -> int:
    """Seed of substream ``index``: output ``index + 1`` of the parent stream."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return int(_outputs(np.uint64((seed + index * GOLDEN) & MASK64), 1, 2)[0])


def substream(seed: int, index: int) -> SeededRng:
    return SeededRng(stream_seed(seed, index))


def _outputs(state, start: int, stop: int) -> np.ndarray:
    """Outputs ``start..stop-1`` of the stream in ``state``, ``mix64_np(state +
    i*GOLDEN)``; a uint64 array of states gives one stream per state, along a
    new last axis."""
    return mix64_np(state + np.arange(start, stop, dtype=np.uint64) * _U_GOLDEN)


def draw_words(rng: SeededRng, count: int) -> np.ndarray:
    """Next ``count`` raw outputs as a uint64 array.

    Advances ``rng`` exactly as ``count`` calls of ``next_u64`` would; a test
    pins the two paths together bit for bit.
    """
    if count < 1:
        raise ValueError("count must be positive")
    words = _outputs(np.uint64(rng.state), 1, count + 1)
    rng.state = (rng.state + count * GOLDEN) & MASK64
    return words


class DiscreteDistribution:
    """Finite law of one random component: distinct integer support values
    with exact positive rational masses summing to one, kept as integer
    ``weights`` over one ``total``."""

    __slots__ = ("support", "weights", "total", "_heaviest", "_support_arr", "_upper")

    def __init__(self, support, probs) -> None:
        support = tuple(int(v) for v in support)
        probs = tuple(Fraction(q) for q in probs)
        if len(support) < 2:
            raise SupportTooSmall(
                "need at least two support values; a single point cannot separate anything"
            )
        if len(set(support)) != len(support):
            raise DuplicateSupport(f"support values must be distinct: {support}")
        if len(probs) != len(support):
            raise InvalidDistribution("need exactly one mass per support value")
        if any(q <= 0 for q in probs):
            raise InvalidDistribution("all masses must be positive")
        if sum(probs) != 1:
            raise InvalidDistribution(f"masses sum to {sum(probs)}, not 1")
        total = math.lcm(*(q.denominator for q in probs))
        self._set(support, tuple(q.numerator * (total // q.denominator) for q in probs), total)

    def _set(self, support: tuple[int, ...], weights: tuple[int, ...], total: int) -> None:
        if any(v < INT64_MIN or v > INT64_MAX for v in support):
            raise InvalidDistribution("support values must fit the signed 64-bit range")
        self.support = support
        self.weights = weights
        self.total = total
        self._heaviest = max(weights)
        self._support_arr = np.array(support, dtype=np.int64)
        self._support_arr.flags.writeable = False
        # Inverse-CDF cut points: value i is chosen when the raw word falls in
        # [floor(F(i-1) * 2**64), floor(F(i) * 2**64)).  The last bucket is
        # implicit, so only len(support) - 1 cuts are stored.
        cuts = [(running << 64) // total for running in accumulate(weights[:-1])]
        self._upper = np.array(cuts, dtype=np.uint64)
        self._upper.flags.writeable = False

    def __len__(self) -> int:
        """Number of support values."""
        return len(self.support)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The exact masses, one ``Fraction`` per support value."""
        return tuple(Fraction(wt, self.total) for wt in self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.support == other.support and self.weights == other.weights

    def __hash__(self) -> int:
        m = self.total
        if len(self) == m > _LISTED and np.array_equal(self._support_arr, np.arange(m)):
            # Uniform on 0..m-1, so equal to _FieldUniform(m), which hashes
            # by m alone.  (m values whose integer weights sum to m are 1.)
            return hash(m)
        return hash((self.support, self.weights))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v}: {q}" for v, q in zip(self.support, self.probs))
        return f"DiscreteDistribution({pairs})"

    def validate_for_ring(self, ring: RingSpec) -> None:
        """Raise unless every support value is a valid element of ``ring``."""
        if ring.kind == PRIME_FIELD:
            p = ring.modulus
            bad = [v for v in self.support if not 0 <= v < p]
            if bad:
                raise ConfigInvalid(
                    f"support values {bad} are not reduced elements of {ring}"
                )

    def _draw(self, words: np.ndarray) -> np.ndarray:
        """Support values the raw 64-bit words select through the cut points."""
        return self._support_arr[np.searchsorted(self._upper, words, side="right")]


# Support size past which the uniform law on Z_p prints and hashes by p
# alone instead of by its p support values.
_LISTED = 1 << 10


class _FieldUniform(DiscreteDistribution):
    """Uniform law on Z_p, stored as p alone, so building it costs O(1) for
    any prime.  Support and weights are built only when read (the exact
    enumeration reads them, after its budget check).  Past ``_LISTED``
    values it hashes and prints by p alone, and compares with another law
    by p unless that law holds p values itself.  A word w selects
    ((w + 1) * p - 1) >> 64: the value whose cut points, i * 2**64 // p,
    bracket it, so the draws equal those of the general law."""

    __slots__ = ()

    def __init__(self, p: int) -> None:
        self.total = p
        self._heaviest = 1

    support = property(lambda self: tuple(range(self.total)))
    weights = property(lambda self: (1,) * self.total)

    def __len__(self) -> int:
        return self.total

    def __eq__(self, other) -> bool:
        if isinstance(other, _FieldUniform):
            return self.total == other.total
        if isinstance(other, DiscreteDistribution) and len(other) != self.total:
            return False
        return super().__eq__(other)

    def __hash__(self) -> int:
        return hash(self.total) if self.total > _LISTED else super().__hash__()

    def __repr__(self) -> str:
        p = self.total
        if p <= _LISTED:
            return super().__repr__()
        q = Fraction(1, p)
        return f"DiscreteDistribution(0: {q}, 1: {q}, ..., {p - 1}: {q})"

    def validate_for_ring(self, ring: RingSpec) -> None:
        if ring.kind == PRIME_FIELD and ring.modulus < self.total:
            bad = list(range(ring.modulus, self.total))
            raise ConfigInvalid(f"support values {bad} are not reduced elements of {ring}")

    def _draw(self, words: np.ndarray) -> np.ndarray:
        # (w + 1) * p - 1 = w * p + (p - 1); its high word from 32-bit limbs.
        p = self.total
        w_hi, w_lo = words >> _U32, words & _LOW32
        p_hi, p_lo = np.uint64(p >> 32), np.uint64(p & 0xFFFFFFFF)
        ll, lh, hl = w_lo * p_lo, w_lo * p_hi, w_hi * p_lo
        mid = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)  # < 3 * 2**32
        low = (mid << _U32) | (ll & _LOW32)  # w * p mod 2**64
        high = w_hi * p_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
        carry = low + np.uint64(p - 1) < low
        return (high + carry).astype(np.int64)


def p_max(dist: DiscreteDistribution) -> Fraction:
    """Largest point mass: the certified per-iteration false-accept bound."""
    return Fraction(dist._heaviest, dist.total)


def uniform_binary() -> DiscreteDistribution:
    """Fair coin on {0, 1}, the classic fingerprint distribution."""
    return DiscreteDistribution((0, 1), (Fraction(1, 2), Fraction(1, 2)))


def bernoulli(p) -> DiscreteDistribution:
    """P[1] = p, P[0] = 1 - p for rational 0 < p < 1."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise InvalidProbability(f"need 0 < p < 1, got {p}")
    return DiscreteDistribution((0, 1), (1 - p, p))


def uniform_support(values) -> DiscreteDistribution:
    """Uniform law over the given distinct integer values."""
    values = tuple(values)
    if len(values) < 2:
        raise SupportTooSmall("uniform support needs at least two values")
    support = tuple(int(v) for v in values)
    if len(set(support)) != len(support):
        raise DuplicateSupport(f"support values must be distinct: {support}")
    dist = DiscreteDistribution.__new__(DiscreteDistribution)
    dist._set(support, (1,) * len(support), len(support))
    return dist


def field_uniform(ring: RingSpec) -> DiscreteDistribution:
    """Uniform law over all of Z_p; only meaningful for prime-field rings."""
    if ring.kind != PRIME_FIELD:
        raise InvalidRing("full-field sampling needs a prime-field ring")
    return _FieldUniform(ring.modulus)


def sample_vector(
    dist: DiscreteDistribution, n: int, rng: SeededRng, ring: RingSpec | None = None
) -> Vector:
    """Draw n i.i.d. components from ``dist`` as a vector over ``ring``."""
    if n < 1:
        raise ValueError("need n >= 1 components")
    ring = RingSpec.int64() if ring is None else ring
    dist.validate_for_ring(ring)
    return Vector._wrap(dist._draw(draw_words(rng, n)), ring)


def _sample_trial_block(
    dist: DiscreteDistribution, n: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """Vectors for trials start..stop-1 as an (n, stop-start) int64 array.

    Column t is the vector ``sample_vector`` draws from
    ``substream(seed, start + t)``, bit for bit; a test pins that.
    """
    subs = _outputs(np.uint64(seed & MASK64), start + 1, stop + 1)
    # Row i, column t: output i + 1 of substream start + t.
    words = np.arange(1, n + 1, dtype=np.uint64)[:, None] * _U_GOLDEN + subs
    return dist._draw(mix64_np(words))


def parse_dist(text: str, ring: RingSpec) -> DiscreteDistribution:
    """Parse a distribution spec: ``u01``, ``bern:<num>/<den>``,
    ``usup:<v1,v2,...>`` or ``field``."""
    if text == "u01":
        return uniform_binary()
    if text == "field":
        return field_uniform(ring)
    if text.startswith("bern:"):
        body = text[len("bern:"):]
        try:
            q = Fraction(body)
        except (ValueError, ZeroDivisionError):
            raise ConfigInvalid(f"bad probability {body!r} in {text!r}") from None
        return bernoulli(q)
    if text.startswith("usup:"):
        body = text[len("usup:"):]
        try:
            values = tuple(int(tok) for tok in body.split(","))
        except ValueError:
            raise ConfigInvalid(f"bad support list {body!r} in {text!r}") from None
        return uniform_support(values)
    raise ConfigInvalid(
        f"unknown distribution spec {text!r}; expected u01, bern:<num>/<den>, "
        "usup:<v1,v2,...> or field"
    )
