"""Seeded randomness and finite component distributions.

All random choices in the package flow through one generator, SplitMix64:
state advances by the 64-bit golden-gamma constant and each output is the
avalanche of the new state.  Substream ``j`` of a seed is keyed off output
``j + 1`` of the parent stream, so it depends on ``(seed, j)`` alone; that is
what lets iterations and trials be replayed or reordered without changing
what any one of them draws.  Component i of a vector is output i + 1 of its
substream, so a block of trials can also draw only some components, with
the bits the whole vectors hold there.

Component distributions store exact masses as integer weights over one total
(gcd 1, total the lcm of the reduced denominators, so equal laws store equal
weights).  Sampling maps a raw 64-bit word through inverse-CDF cut points:
cut i is ``((weights[0] + ... + weights[i]) << 64) // total``.  Flooring the cut
points biases any single mass by less than 2**-60 for the supports used here,
far below anything an empirical rate can resolve, and the exact analysis code
never touches the sampler.  The uniform law on Z_p (``field_uniform``) stores
p alone and draws through the closed form of that lookup, so it costs the
same for any prime.

A block of trial vectors allocates its words, one scratch array and its
result, and nothing else of its size: each fresh block-sized array costs
page faults that weigh as much as the arithmetic at n = 64.  ``mix64_np``
avalanches the words in place; a single output is mixed in Python ints,
since numpy runs in-place ufuncs on a one-element array through a slower
path.  A law with one cut point (a two-value law such as ``u01``) compares
every word with the cut and picks its value from the result, which on
{0, 1} is the value itself; a law with more cuts takes one binary search
per word (``searchsorted``) and gathers into its intp index.  For p < 2**32
the Z_p draw ((w + 1) p - 1) >> 64 takes two multiplies on 32-bit halves
of w, (w_hi p + (((w_lo + 1) p - 1) >> 32)) >> 32: the inner term is below
2**64 and the outer sum below 2**64 - 2**32, so nothing carries.  Larger
p takes four 32-bit limb products and a carry.  No draw writes to the
words it reads.
"""

from __future__ import annotations

import functools
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
from .matrix import INT64_MAX, INT64_MIN, PRIME_FIELD, RingSpec, Vector, _without_leading_zeros

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _u64(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint64 array.  A ufunc takes one as it
    is, where a numpy scalar operand is converted on every call; on short
    arrays that conversion costs as much as the operation."""
    arr = np.array(value, dtype=np.uint64)
    arr.flags.writeable = False
    return arr


_U_GOLDEN, _U_MIX_A, _U_MIX_B = _u64(GOLDEN), _u64(_MIX_A), _u64(_MIX_B)
_U1, _U27, _U30, _U31, _U32 = _u64(1), _u64(27), _u64(30), _u64(31), _u64(32)
_LOW32 = _u64(0xFFFFFFFF)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function over a uint64 array: avalanche each word
    in place, through one scratch array, and return ``z``."""
    t = z >> _U30
    z ^= t
    z *= _U_MIX_A
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _U_MIX_B
    np.right_shift(z, _U31, out=t)
    z ^= t
    return z


def _mix64(z: int) -> int:
    """SplitMix64 output function on one 64-bit Python int."""
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


class SeededRng:
    """SplitMix64 stream; output ``i``, counting from 1, avalanches ``seed + i*GOLDEN``."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return _mix64(self.state)


def stream_seed(seed: int, index: int) -> int:
    """Seed of substream ``index``: output ``index + 1`` of the parent stream."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return _mix64((seed + (index + 1) * GOLDEN) & MASK64)


def substream(seed: int, index: int) -> SeededRng:
    return SeededRng(stream_seed(seed, index))


def _outputs(state: int, start: int, stop: int) -> np.ndarray:
    """Outputs ``start..stop-1`` of the stream in ``state``, ``mix64_np(state +
    i*GOLDEN)``, built in one new array."""
    if stop - start == 1:
        return np.array([_mix64((state + start * GOLDEN) & MASK64)], dtype=np.uint64)
    words = np.arange(start, stop, dtype=np.uint64)
    words *= _U_GOLDEN
    words += np.uint64(state)
    return mix64_np(words)


def draw_words(rng: SeededRng, count: int) -> np.ndarray:
    """Next ``count`` raw outputs as a uint64 array.

    Advances ``rng`` exactly as ``count`` calls of ``next_u64`` would; a test
    pins the two paths together bit for bit.
    """
    if count < 1:
        raise ValueError("count must be positive")
    words = _outputs(rng.state, 1, count + 1)
    rng.state = (rng.state + count * GOLDEN) & MASK64
    return words


class DiscreteDistribution:
    """Finite law of one random component: distinct integer support values
    with exact positive rational masses summing to one, kept as integer
    ``weights`` over one ``total``."""

    __slots__ = ("support", "weights", "total", "_heaviest", "_mag", "_support_arr", "_upper", "_cut")

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
        lo, hi = min(support), max(support)
        if lo < INT64_MIN or hi > INT64_MAX:
            raise InvalidDistribution("support values must fit the signed 64-bit range")
        self.support = support
        self.weights = weights
        self.total = total
        self._heaviest = max(weights)
        self._mag = max(-lo, hi)
        self._support_arr = np.array(support, dtype=np.int64)
        self._support_arr.flags.writeable = False
        # Inverse-CDF cut points: value i is chosen when the raw word falls in
        # [floor(F(i-1) * 2**64), floor(F(i) * 2**64)).  The last bucket is
        # implicit, so only len(support) - 1 cuts are stored.
        cuts = [(running << 64) // total for running in accumulate(weights[:-1])]
        self._upper = np.array(cuts, dtype=np.uint64)
        self._upper.flags.writeable = False
        # A one-cut law draws by one compare.  With more cuts, a compare per
        # cut lost to the binary search on the 64 x 1 and 64 x 19 blocks of an
        # n = 64 verify, by about 2 us per cut past the first (numpy 2.4).
        self._cut = _u64(cuts[0]) if len(cuts) == 1 else None

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

    def _magnitude(self) -> int:
        """The largest support value in absolute value."""
        return self._mag

    def _weight_of_zero(self) -> int:
        """The weight of the support value 0, or 0 if 0 is not one."""
        return self.weights[self.support.index(0)] if 0 in self.support else 0

    def _draw(self, words: np.ndarray) -> np.ndarray:
        """Support values the raw 64-bit words select through the cut points,
        as a new int64 array; ``words`` is left unchanged."""
        if self._cut is not None:
            hit = words >= self._cut
            v0, v1 = self.support
            return hit.astype(np.int64) if (v0, v1) == (0, 1) else np.where(hit, v1, v0)
        index = np.searchsorted(self._upper, words, side="right")
        # Gathered into the index itself; every index is in range, so "clip"
        # clips nothing and only spares the copy "raise" would make.
        return np.take(self._support_arr, index, out=index, mode="clip")


# Support size past which the uniform law on Z_p prints and hashes by p
# alone instead of by its p support values.
_LISTED = 1 << 10


class _FieldUniform(DiscreteDistribution):
    """Uniform law on Z_p, stored as p alone, so building it costs O(1) for
    any prime.  Support and weights are built only when read: the exact
    enumeration reads them, after its budget check, when E's nonzero columns
    are dependent, and otherwise the exact probability reads the weight of
    0 alone.  Past ``_LISTED`` values it hashes and prints by p alone, and
    compares with another law by p unless that law holds p values itself.
    A word w selects ((w + 1) * p - 1) >> 64: the value whose cut points,
    i * 2**64 // p, bracket it, so the draws equal those of the general
    law."""

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

    def _magnitude(self) -> int:
        return self.total - 1

    def _weight_of_zero(self) -> int:
        return 1

    def validate_for_ring(self, ring: RingSpec) -> None:
        m, p = ring.modulus, self.total
        if ring.kind == PRIME_FIELD and m < p:
            bad = list(range(m, p)) if p - m <= _LISTED else f"{m}..{p - 1}"
            raise ConfigInvalid(f"support values {bad} are not reduced elements of {ring}")

    def _draw(self, words: np.ndarray) -> np.ndarray:
        p = self.total
        if p < 1 << 32:
            # With w = w_hi 2**32 + w_lo: (w + 1) p - 1 = w_hi p 2**32 + L,
            # L = (w_lo + 1) p - 1 < 2**64, so the high word is
            # (w_hi p + (L >> 32)) >> 32, whose sum is below 2**64 - 2**32.
            out = words & _LOW32
            out *= p
            out += p - 1
            inner = np.empty(words.shape, np.uint32)  # L >> 32 < p
            np.right_shift(out, _U32, out=inner, casting="unsafe")
            np.right_shift(words, _U32, out=out)
            out *= p
            out += inner
            out >>= _U32
            return out.view(np.int64)
        # (w + 1) * p - 1 = w * p + (p - 1); its high word from 32-bit limbs.
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


@functools.lru_cache(maxsize=64)
def _two_point(w0: int, w1: int) -> DiscreteDistribution:
    """The law on {0, 1} with integer weights ``w0``, ``w1`` of gcd 1, built
    without the general constructor's Fraction arithmetic, and once per
    weight pair: a law is never changed after it is built and its arrays
    are read-only, so every caller can share one."""
    dist = DiscreteDistribution.__new__(DiscreteDistribution)
    dist._set((0, 1), (w0, w1), w0 + w1)
    return dist


def uniform_binary() -> DiscreteDistribution:
    """Fair coin on {0, 1}, the classic fingerprint distribution."""
    return _two_point(1, 1)


def bernoulli(p) -> DiscreteDistribution:
    """P[1] = p, P[0] = 1 - p for rational 0 < p < 1."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise InvalidProbability(f"need 0 < p < 1, got {p}")
    return _two_point(p.denominator - p.numerator, p.numerator)


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
    return Vector._wrap(dist._draw(draw_words(rng, n)), ring, dist._magnitude())


def _trial_keys(components: np.ndarray) -> np.ndarray:
    """The ``components`` (a uint64 array of indices) as the column of their
    offsets ``(components[i] + 1) * GOLDEN``: output ``components[i] + 1``
    of a substream mixes its seed plus that offset."""
    return ((components + _U1) * _U_GOLDEN)[:, None]


def _draw_trials(dist: DiscreteDistribution, keys: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    """``_sample_trial_block`` for the components whose ``_trial_keys`` are
    ``keys``, which a caller drawing many blocks forms once."""
    # Row i, column t: output components[i] + 1 of substream start + t.
    return dist._draw(mix64_np(keys + _outputs(seed & MASK64, start + 1, stop + 1)))


def _sample_trial_block(
    dist: DiscreteDistribution, components: np.ndarray, seed: int, start: int, stop: int
) -> np.ndarray:
    """The ``components`` (a uint64 array of indices) of the vectors for
    trials start..stop-1, as a (len(components), stop-start) int64 array.

    Row i of column t is component ``components[i]`` of the vector
    ``sample_vector`` draws from ``substream(seed, start + t)``, bit for
    bit, so all n indices give those vectors whole; tests pin both.
    """
    return _draw_trials(dist, _trial_keys(components), seed, start, stop)


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
            values = tuple(int(_without_leading_zeros(tok)) for tok in body.split(","))
        except ValueError:
            raise ConfigInvalid(f"bad support list {body!r} in {text!r}") from None
        return uniform_support(values)
    raise ConfigInvalid(
        f"unknown distribution spec {text!r}; expected u01, bern:<num>/<den>, "
        "usup:<v1,v2,...> or field"
    )
