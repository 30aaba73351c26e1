"""Generator and distribution behaviour.

The raw stream is pinned to frozen reference outputs, the vectorized paths
are pinned bit-for-bit to the scalar path, and sampled frequencies are
checked against the exact masses.
"""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from freicheck import (
    ConfigInvalid,
    DiscreteDistribution,
    DuplicateSupport,
    InvalidDistribution,
    InvalidProbability,
    InvalidRing,
    RingSpec,
    SupportTooSmall,
    SeededRng,
    VerifyConfig,
    bernoulli,
    field_uniform,
    p_max,
    parse_dist,
    sample_vector,
    stream_seed,
    substream,
    uniform_binary,
    uniform_support,
)
from freicheck.sampling import GOLDEN, _sample_trial_block, draw_words, mix64_np
from util import sample_reference, splitmix_reference

INT64 = RingSpec.int64()
ZP5 = RingSpec.prime_field(5)
MASK64 = (1 << 64) - 1

# Frozen reference outputs of the pinned generator.
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]
SEED1234567_STREAM = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


# ---------------------------------------------------------------- raw stream


def test_stream_matches_frozen_reference():
    rng = SeededRng(0)
    assert [rng.next_u64() for _ in range(5)] == SEED0_STREAM
    rng = SeededRng(1234567)
    assert [rng.next_u64() for _ in range(3)] == SEED1234567_STREAM


def test_stream_matches_plain_reference_implementation():
    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        rng = SeededRng(seed)
        assert [rng.next_u64() for _ in range(20)] == splitmix_reference(seed, 20)


def test_mix64_np_avalanches_in_place():
    states = np.array([(5 + i * GOLDEN) & MASK64 for i in range(1, 9)], dtype=np.uint64)
    out = mix64_np(states)
    assert out is states and out.tolist() == splitmix_reference(5, 8)


def test_draw_words_is_bit_identical_to_scalar_stream():
    for seed in (0, 99, 2 ** 63):
        scalar = SeededRng(seed)
        expected = [scalar.next_u64() for _ in range(37)]
        batched = SeededRng(seed)
        got = draw_words(batched, 37)
        assert [int(w) for w in got] == expected
        assert batched.state == scalar.state  # both advanced 37 steps
        # and the streams continue identically afterwards
        assert batched.next_u64() == scalar.next_u64()


def test_stream_seed_is_the_parent_output():
    rng = SeededRng(42)
    outputs = [rng.next_u64() for _ in range(4)]
    assert [stream_seed(42, j) for j in range(4)] == outputs
    with pytest.raises(ValueError):
        stream_seed(42, -1)


def test_substreams_differ():
    vectors = [
        sample_vector(uniform_binary(), 64, substream(7, j)).data.tolist()
        for j in range(8)
    ]
    assert len({tuple(v) for v in vectors}) == 8


# ---------------------------------------------------------------- distributions


def test_distribution_validation():
    with pytest.raises(SupportTooSmall):
        DiscreteDistribution((1,), (Fraction(1),))
    with pytest.raises(DuplicateSupport):
        DiscreteDistribution((1, 1), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution((0, 1), (Fraction(1, 2),))
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution((0, 1), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution((0, 1), (Fraction(0), Fraction(1)))
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution((0, 1), (Fraction(-1, 2), Fraction(3, 2)))
    with pytest.raises(SupportTooSmall):
        uniform_support([3])


def test_bernoulli_bounds():
    for bad in (0, 1, Fraction(5, 4), -1):
        with pytest.raises(InvalidProbability):
            bernoulli(bad)
    assert bernoulli(Fraction(1, 2)) == uniform_binary()


def test_p_max_values():
    assert p_max(uniform_binary()) == Fraction(1, 2)
    assert p_max(bernoulli(Fraction(1, 10))) == Fraction(9, 10)
    assert p_max(bernoulli(Fraction(3, 4))) == Fraction(3, 4)
    assert p_max(uniform_support((0, 1, 2))) == Fraction(1, 3)
    assert p_max(field_uniform(ZP5)) == Fraction(1, 5)


def test_field_uniform_needs_field():
    with pytest.raises(InvalidRing):
        field_uniform(INT64)
    d = field_uniform(ZP5)
    assert d.support == (0, 1, 2, 3, 4)


def test_masses_are_canonical_integer_weights():
    sixth = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    for dist, weights, total in [
        (bernoulli(Fraction(1, 3)), (2, 1), 3),
        (DiscreteDistribution((0, 1, 2), sixth), (1, 2, 3), 6),
        (DiscreteDistribution((0, 1), (Fraction(2, 4), Fraction(3, 6))), (1, 1), 2),
        (DiscreteDistribution((0, 1, 2), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))), (1, 1, 2), 4),
        (uniform_support((4, -5, 6)), (1, 1, 1), 3),
        (field_uniform(ZP5), (1,) * 5, 5),
    ]:
        assert (dist.weights, dist.total) == (weights, total)
        assert dist.probs == tuple(Fraction(w, total) for w in weights)
        assert p_max(dist) == Fraction(max(weights), total)
    # Equal laws store equal weights, however they were built.
    assert uniform_support((0, 1)) == uniform_binary() == bernoulli(Fraction(2, 4))
    assert hash(uniform_support((0, 1))) == hash(uniform_binary())


def test_two_point_laws_are_built_once_per_weight_pair():
    assert uniform_binary() is uniform_binary()
    assert bernoulli(Fraction(1, 3)) is bernoulli(Fraction(2, 6))
    assert bernoulli(Fraction(1, 3)) is not bernoulli(Fraction(2, 3))
    # Shared by every caller, so nothing a caller can reach may change.
    for arr in (bernoulli(Fraction(1, 3))._support_arr, bernoulli(Fraction(1, 3))._upper):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10**30), Fraction(10**30 - 1, 10**30), "1/7", 0.25])
def test_two_point_laws_equal_the_general_constructors(q):
    # uniform_binary and bernoulli skip the general constructor's Fraction
    # arithmetic; every field the sampler and the analysis read must still
    # equal the general law's.
    q = Fraction(q)
    for fast, general in (
        (bernoulli(q), DiscreteDistribution((0, 1), (1 - q, q))),
        (uniform_binary(), DiscreteDistribution((0, 1), (Fraction(1, 2), Fraction(1, 2)))),
    ):
        assert fast == general
        assert (fast.support, fast.weights, fast.total) == (general.support, general.weights, general.total)
        assert fast._upper.tolist() == general._upper.tolist()
        assert int(fast._cut) == int(general._cut)
        assert fast._support_arr.tolist() == general._support_arr.tolist()
        assert (fast._heaviest, fast._magnitude()) == (general._heaviest, general._magnitude())
        assert hash(fast) == hash(general) and repr(fast) == repr(general)
        assert fast.probs == general.probs


def test_field_uniform_makes_no_fraction_per_value(monkeypatch):
    import freicheck.sampling as sampling_mod

    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(sampling_mod, "Fraction", counting)
    dist = field_uniform(RingSpec.prime_field(10007))
    assert p_max(dist) == Fraction(1, 10007)
    assert len(made) <= 1


# The general law over range(p) draws through the cut points (i << 64) // p;
# field_uniform stores p alone and draws ((w + 1) * p - 1) >> 64.
@pytest.mark.parametrize("p", [2, 3, 5, 7, 10007, 65537])
def test_field_draw_equals_the_cut_point_lookup(p):
    general = uniform_support(range(p))
    words = {0, MASK64, 1, MASK64 - 1}
    for cut in general._upper.tolist():
        words |= {cut - 1, cut, cut + 1}
    words = np.array(sorted(words), dtype=np.uint64)
    rand = np.random.default_rng(p).integers(0, MASK64, 10_000, dtype=np.uint64, endpoint=True)
    for w in (words, rand, rand.reshape(100, 100)):
        assert np.array_equal(field_uniform(RingSpec.prime_field(p))._draw(w), general._draw(w))


# 4294967291 and 4294967311 are the primes on either side of 2**32, where
# the draw changes from two multiplies to four 32-bit limb products.
@pytest.mark.parametrize("p", [10007, 2**31 - 1, 4294967291, 4294967311, 2**61 - 1, 9223372036854775783])
def test_field_draw_matches_the_closed_form_on_python_ints(p):
    words = np.random.default_rng(1).integers(0, MASK64, 2000, dtype=np.uint64, endpoint=True)
    low32 = (1 << 32) - 1
    words[:8] = [0, 1, low32, low32 + 1, MASK64 - low32, MASK64 - low32 + 1, MASK64 - 1, MASK64]
    # The word with (w + 1) p = 1 mod 2**64: (w + 1) p - 1 is a multiple of
    # 2**64 there, so a carry or an addend off by one shows.
    words[8] = pow(p, -1, 1 << 64) - 1
    got = field_uniform(RingSpec.prime_field(p))._draw(words).tolist()
    assert got == [((w + 1) * p - 1) >> 64 for w in words.tolist()]


def test_field_sampler_is_bit_identical_to_the_general_law():
    ring = RingSpec.prime_field(10007)
    field, general = field_uniform(ring), uniform_support(range(10007))
    assert field == general and len(field) == 10007
    for seed in (0, 5, 2**64 - 1):
        assert sample_vector(field, 300, SeededRng(seed), ring) == sample_vector(general, 300, SeededRng(seed), ring)
        every = np.arange(17, dtype=np.uint64)
        assert np.array_equal(
            _sample_trial_block(field, every, seed, 3, 40), _sample_trial_block(general, every, seed, 3, 40)
        )


def test_field_uniform_compares_hashes_and_prints_by_p_alone():
    # Past _LISTED values the field law hashes and prints by p, and equals
    # another law only if that one is uniform on 0..p-1 too; up to it, it
    # is the general law's strings and hashes.
    ring = RingSpec.prime_field(2**31 - 1)
    start = time.perf_counter()
    dist = field_uniform(ring)
    assert repr(dist) == (
        "DiscreteDistribution(0: 1/2147483647, 1: 1/2147483647, ..., 2147483646: 1/2147483647)"
    )
    assert dist == field_uniform(ring) and hash(dist) == hash(field_uniform(ring))
    assert dist != field_uniform(RingSpec.prime_field(2**61 - 1)) and dist != uniform_binary()
    assert uniform_binary() != dist
    cfg = VerifyConfig(5, 1, dist)
    assert cfg == VerifyConfig(5, 1, field_uniform(ring)) and hash(cfg) == hash(VerifyConfig(5, 1, dist))
    assert time.perf_counter() - start < 0.5
    for p in (2, 5, 7, 1021, 1031):
        field, general = field_uniform(RingSpec.prime_field(p)), uniform_support(range(p))
        assert field == general and general == field and hash(field) == hash(general)
        assert field != uniform_support(range(1, p + 1)) and field != uniform_support(range(p - 1, -1, -1))
        if p <= 1024:
            assert repr(field) == repr(general)
            assert hash(field) == hash((general.support, general.weights))
    assert repr(field_uniform(ZP5)) == "DiscreteDistribution(0: 1/5, 1: 1/5, 2: 1/5, 3: 1/5, 4: 1/5)"


def test_field_uniform_over_a_31_bit_prime_builds_in_constant_time():
    ring = RingSpec.prime_field(2**31 - 1)
    start = time.perf_counter()
    dist = field_uniform(ring)
    bound, size = p_max(dist), len(dist)
    dist.validate_for_ring(ring)
    assert time.perf_counter() - start < 0.010
    assert (bound, size) == (Fraction(1, 2**31 - 1), 2**31 - 1)
    words = draw_words(SeededRng(9), 1000).tolist()
    got = sample_vector(dist, 1000, SeededRng(9), ring).data.tolist()
    assert got == [((w + 1) * (2**31 - 1) - 1) >> 64 for w in words]


def test_field_law_on_a_smaller_field_names_the_unreduced_values():
    with pytest.raises(ConfigInvalid) as field_err:
        field_uniform(RingSpec.prime_field(7)).validate_for_ring(ZP5)
    with pytest.raises(ConfigInvalid) as general_err:
        uniform_support(range(7)).validate_for_ring(ZP5)
    assert str(field_err.value) == str(general_err.value)
    field_uniform(ZP5).validate_for_ring(RingSpec.prime_field(7))
    field_uniform(ZP5).validate_for_ring(INT64)
    # Past _LISTED values the message names the range instead of listing it.
    with pytest.raises(ConfigInvalid) as big_err:
        field_uniform(RingSpec.prime_field(2**31 - 1)).validate_for_ring(ZP5)
    assert str(big_err.value) == "support values 5..2147483646 are not reduced elements of zp 5"


def test_validate_for_ring():
    d = uniform_support((0, 1, 7))
    d.validate_for_ring(INT64)
    with pytest.raises(ConfigInvalid):
        d.validate_for_ring(ZP5)


# ---------------------------------------------------------------- sampling


@pytest.mark.parametrize(
    "dist",
    [
        uniform_binary(),
        bernoulli(Fraction(1, 10)),
        bernoulli(Fraction(9, 10)),
        uniform_support((0, 1, 2)),
        uniform_support((-3, 0, 5, 11)),
        field_uniform(ZP5),
        DiscreteDistribution((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
        field_uniform(RingSpec.prime_field(10007)),
    ],
)
def test_sample_vector_matches_scalar_reference(dist):
    for seed in (0, 1, 31337):
        got = sample_vector(dist, 50, SeededRng(seed)).data.tolist()
        expected = sample_reference(dist.support, dist.probs, 50, seed)
        assert got == expected


# Laws with 1, 1, 2, 3, 4 and 39 cut points: the two one-cut laws draw by
# comparing words with the cut, the rest by binary search.
GENERAL_LAWS = [
    uniform_binary(),
    bernoulli(Fraction(1, 3)),
    uniform_support((-3, 0, 5)),
    DiscreteDistribution((7, -1, 0, 2), (Fraction(1, 2), Fraction(1, 8), Fraction(1, 8), Fraction(1, 4))),
    uniform_support((-3, 0, 5, 11, 2)),
    uniform_support(range(-20, 20)),
]
GENERAL_IDS = ["u01", "bern1/3", "usup3", "general4", "usup5", "usup40"]


@pytest.mark.parametrize("dist", GENERAL_LAWS, ids=GENERAL_IDS)
def test_draw_follows_the_cut_point_rule_at_boundary_words(dist):
    # Value i is chosen when the word lies in [cut i-1, cut i), cut i being
    # floor(F(i) * 2**64) in Python integers.
    cuts, acc = [], Fraction(0)
    for q in dist.probs[:-1]:
        acc += q
        cuts.append((acc.numerator << 64) // acc.denominator)
    words = {0, MASK64}
    for cut in cuts:
        words |= {w for w in (cut - 1, cut, cut + 1) if 0 <= w <= MASK64}
    words = sorted(words)
    expected = [dist.support[sum(w >= cut for cut in cuts)] for w in words]
    arr = np.array(words, dtype=np.uint64)
    assert dist._draw(arr).tolist() == expected
    assert dist._draw(arr[::-1].reshape(-1, 1)).ravel().tolist() == expected[::-1]


@pytest.mark.parametrize(
    "dist",
    GENERAL_LAWS + [field_uniform(ZP5), field_uniform(RingSpec.prime_field(4294967311))],
    ids=GENERAL_IDS + ["field5", "field2^32+15"],
)
def test_draw_leaves_its_words_unchanged(dist):
    words = np.random.default_rng(3).integers(0, MASK64, (16, 9), dtype=np.uint64, endpoint=True)
    before = words.copy()
    first = dist._draw(words)
    assert np.array_equal(words, before) and not np.shares_memory(first, words)
    assert np.array_equal(dist._draw(words), first)


@pytest.mark.parametrize(
    "dist",
    [uniform_binary(), uniform_support((-3, 0, 5, 11, 2)), field_uniform(RingSpec.prime_field(10007))],
    ids=["u01", "usup5", "field10007"],
)
def test_a_trial_block_draw_holds_under_three_blocks(dist):
    # A block draw allocates its words, one scratch array and its result;
    # the traced peak stays within three int64 blocks of the same shape.
    n, w = 64, 2048
    _sample_trial_block(dist, np.arange(n, dtype=np.uint64), 1, 0, w)
    tracemalloc.start()
    try:
        block = _sample_trial_block(dist, np.arange(n, dtype=np.uint64), 1, 0, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (n, w)
    assert peak <= 3 * block.nbytes


@pytest.mark.parametrize(
    "dist", [uniform_binary(), bernoulli(Fraction(1, 3)), uniform_support((-3, 0, 5, 11))]
)
def test_trial_block_columns_are_substream_vectors(dist):
    # Column t of the block for trials start..stop-1 is the vector
    # sample_vector draws from substream (seed, start + t), bit for bit.
    for seed, start, stop in ((0, 0, 1), (7, 0, 9), (2**64 - 5, 3, 40)):
        block = _sample_trial_block(dist, np.arange(13, dtype=np.uint64), seed, start, stop)
        assert block.shape == (13, stop - start)
        for t in range(stop - start):
            expected = sample_vector(dist, 13, substream(seed, start + t))
            assert block[:, t].tolist() == expected.data.tolist()


@pytest.mark.parametrize(
    "dist",
    GENERAL_LAWS + [field_uniform(RingSpec.prime_field(p)) for p in (10007, 4294967311, 2**61 - 1)],
    ids=GENERAL_IDS + ["field10007", "field2^32+15", "field2^61-1"],
)
def test_a_trial_block_of_some_components_is_those_rows_of_the_whole_block(dist):
    # Drawing any subset of the components, in any order and with repeats,
    # gives exactly those rows of the block drawn over all of them.
    rng = np.random.default_rng(11)
    n = 40
    for seed, start, stop in ((0, 0, 1), (9, 2, 70), (2**64 - 3, 1000, 1031)):
        whole = _sample_trial_block(dist, np.arange(n, dtype=np.uint64), seed, start, stop)
        for size in (1, 7, n):
            rows = rng.choice(n, size, replace=size == 7).astype(np.uint64)
            part = _sample_trial_block(dist, rows, seed, start, stop)
            assert part.dtype == whole.dtype and np.array_equal(part, whole[rows.astype(np.intp)])


def test_sample_vector_is_deterministic_and_advances_state():
    d = uniform_support((0, 1, 2))
    v1 = sample_vector(d, 10, SeededRng(5))
    v2 = sample_vector(d, 10, SeededRng(5))
    assert v1 == v2
    rng = SeededRng(5)
    first = sample_vector(d, 10, rng)
    second = sample_vector(d, 10, rng)
    assert first != second  # stream moved on


def test_sample_vector_ring_enforcement():
    d = uniform_support((0, 1, 7))
    with pytest.raises(ConfigInvalid):
        sample_vector(d, 4, SeededRng(0), ZP5)
    v = sample_vector(uniform_binary(), 4, SeededRng(0), ZP5)
    assert v.ring == ZP5


def test_uniform_binary_frequency():
    v = sample_vector(uniform_binary(), 100_000, SeededRng(2024))
    ones = int(v.data.sum())
    assert 0.49 <= ones / 100_000 <= 0.51


@pytest.mark.parametrize(
    "dist",
    [
        bernoulli(Fraction(1, 4)),
        uniform_support((0, 1, 2)),
        field_uniform(ZP5),
        bernoulli(Fraction(9, 10)),
    ],
)
def test_sampled_frequencies_fit_the_masses(dist):
    # Goodness of fit at significance 0.001 with a pinned seed.
    n = 100_000
    v = sample_vector(dist, n, SeededRng(777)).data
    observed = [int((v == s).sum()) for s in dist.support]
    expected = [float(q) * n for q in dist.probs]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(1, 200))
def test_draw_words_property(seed, count):
    a = SeededRng(seed)
    b = SeededRng(seed)
    assert [int(w) for w in draw_words(a, count)] == [b.next_u64() for _ in range(count)]


# ---------------------------------------------------------------- spec strings


def test_parse_dist_grammar():
    assert parse_dist("u01", INT64) == uniform_binary()
    assert parse_dist("bern:1/10", INT64) == bernoulli(Fraction(1, 10))
    assert parse_dist("usup:0,1,2", INT64) == uniform_support((0, 1, 2))
    assert parse_dist("usup:-3,5", INT64) == uniform_support((-3, 5))
    assert parse_dist("field", ZP5) == field_uniform(ZP5)


@pytest.mark.parametrize(
    "bad",
    ["", "u0", "bern:", "bern:2/1", "bern:x", "usup:", "usup:1", "usup:a,b", "gauss"],
)
def test_parse_dist_rejects_bad_specs(bad):
    with pytest.raises((ConfigInvalid, InvalidProbability, SupportTooSmall)):
        parse_dist(bad, INT64)


def test_usup_values_past_the_int_to_str_digit_limit():
    # int() refuses more than 4,300 digits, leading zeros too: 5,000 of them
    # leave a value as it is, and 5,000 nines keep the bad-list message.
    zeros = "0" * 5000
    assert parse_dist(f"usup:{zeros}1,2", INT64) == uniform_support((1, 2))
    assert parse_dist(f"usup:-{zeros}3,{zeros}", INT64) == uniform_support((-3, 0))
    body = "9" * 5000 + ",2"
    with pytest.raises(ConfigInvalid, match=f"^bad support list '{body}' in 'usup:{body}'$"):
        parse_dist("usup:" + body, INT64)


def test_parse_dist_field_needs_field_ring():
    with pytest.raises(InvalidRing):
        parse_dist("field", INT64)
