"""False-accept analysis against independent brute-force oracles.

``brute_fap`` in util.py enumerates the full support^n space with plain
Python arithmetic, so every agreement below means the library's reduced,
meet-in-the-middle enumeration reproduced a value computed by a completely
separate route.  Hand-derived expected values are frozen inline.
"""

import importlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freicheck.analysis as analysis_mod
from freicheck import (
    BudgetExceeded,
    ConfigInvalid,
    DiscreteDistribution,
    GenerationFailed,
    InstanceActuallyEqual,
    InstanceSpec,
    IntegerOverflow,
    Matrix,
    RingSpec,
    Vector,
    analyze_instance,
    bernoulli,
    difference_profile,
    empirical_false_accept_rate,
    exact_false_accept_probability,
    field_uniform,
    freivalds_iteration,
    generate_instance,
    identity,
    matmul,
    mats_equal,
    p_max,
    reset_scalar_multiplies,
    sample_vector,
    scalar_multiplies,
    substream,
    uniform_binary,
    uniform_support,
    wilson_interval,
)
from util import brute_fap, fraction_rank, random_unequal_triple

verify_mod = importlib.import_module("freicheck.verify")

INT64 = RingSpec.int64()
ZP2 = RingSpec.prime_field(2)
ZP3 = RingSpec.prime_field(3)
ZP5 = RingSpec.prime_field(5)
ZP61 = RingSpec.prime_field((1 << 61) - 1)
U01 = uniform_binary()
INT64_MAX = (1 << 63) - 1


def _triple_with_error(e_rows, ring):
    """A = I, B arbitrary, C = B - E, so that AB - C = E exactly."""
    n = len(e_rows)
    rng = random.Random(sum(map(abs, (v for row in e_rows for v in row))) + n)
    if ring.modulus:
        b_rows = [[rng.randrange(ring.modulus) for _ in range(n)] for _ in range(n)]
        c_rows = [
            [(b_rows[i][j] - e_rows[i][j]) % ring.modulus for j in range(n)]
            for i in range(n)
        ]
    else:
        b_rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        c_rows = [[b_rows[i][j] - e_rows[i][j] for j in range(n)] for i in range(n)]
    return identity(n, ring), Matrix(n, n, ring, b_rows), Matrix(n, n, ring, c_rows)


# ---------------------------------------------------------------- frozen exact values


def test_single_nonzero_column_u01_is_one_half():
    # Acceptance needs r_0 * e = 0, and over the integers that means r_0 = 0,
    # which a fair coin hits with probability exactly 1/2.
    a, b, c = _triple_with_error([[3, 0], [1, 0]], INT64)
    assert exact_false_accept_probability(a, b, c, U01) == Fraction(1, 2)


def test_single_nonzero_column_bernoulli_matches_mass_of_zero():
    a, b, c = _triple_with_error([[3, 0], [1, 0]], INT64)
    assert exact_false_accept_probability(a, b, c, bernoulli(Fraction(1, 4))) == Fraction(3, 4)
    assert exact_false_accept_probability(a, b, c, bernoulli(Fraction(9, 10))) == Fraction(1, 10)


def test_two_column_errors_hand_enumerated():
    # E = [[1, 1], [0, 0]] under u01: residual is r_0 + r_1, zero only for
    # (0, 0) among the four equally likely pairs.
    a, b, c = _triple_with_error([[1, 1], [0, 0]], INT64)
    assert exact_false_accept_probability(a, b, c, U01) == Fraction(1, 4)
    # E = [[1, -1], [0, 0]]: residual r_0 - r_1, zero for (0,0) and (1,1).
    a, b, c = _triple_with_error([[1, -1], [0, 0]], INT64)
    assert exact_false_accept_probability(a, b, c, U01) == Fraction(1, 2)
    # Same E under uniform {0,1,2}: zero for (0,0), (1,1), (2,2): 3 of 9.
    assert exact_false_accept_probability(a, b, c, uniform_support((0, 1, 2))) == Fraction(1, 3)
    # E = [[1, 1], [0, 0]] under uniform {0,1,2}: only (0,0) works: 1 of 9.
    a, b, c = _triple_with_error([[1, 1], [0, 0]], INT64)
    assert exact_false_accept_probability(a, b, c, uniform_support((0, 1, 2))) == Fraction(1, 9)


def test_field_single_column_is_one_over_p():
    # Over Z_5 with the full-field distribution, r_0 * e = 0 forces r_0 = 0:
    # probability exactly 1/5.
    a, b, c = _triple_with_error([[2, 0, 0], [0, 0, 0], [4, 0, 0]], ZP5)
    assert exact_false_accept_probability(a, b, c, field_uniform(ZP5)) == Fraction(1, 5)


def test_zp_wraparound_error_still_counts():
    # E = [[2, 1], [1, 2]] over Z_3 with u01: residuals (r0+2r1... transposed)
    # enumerate by hand: r=(0,0) -> (0,0) accept; (1,0) -> (2,1) reject;
    # (0,1) -> (1,2) reject; (1,1) -> (0,0) accept, since 2+1 = 0 mod 3.
    a, b, c = _triple_with_error([[2, 1], [1, 2]], ZP3)
    assert exact_false_accept_probability(a, b, c, U01) == Fraction(1, 2)


def test_bound_holds_with_equality_only_sometimes():
    # A full-rank two-column error under u01 keeps only the all-zero vector:
    # probability 1/4 < 1/2, showing the bound need not be tight.
    a, b, c = _triple_with_error([[1, 0], [0, 1]], INT64)
    assert exact_false_accept_probability(a, b, c, U01) == Fraction(1, 4)


# ---------------------------------------------------------------- oracle agreement


def _wide_triple(rng, n, ring, mag):
    """(A, B, C) whose E = AB - C has entries of size up to ``mag`` in every
    column, with column 1 the negative of column 0 so that some r accept."""
    e_rows = [
        [rng.randrange(mag // 2, mag) * rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)
    ]
    e_rows[0][0] = mag - 1
    for row in e_rows:
        row[1] = -row[0]
    if ring.modulus:
        e_rows = [[v % ring.modulus for v in row] for row in e_rows]
    return _triple_with_error(e_rows, ring)


def _sparse_triple(rng, ring, m, n=5):
    """(A, B, C) whose E = AB - C has exactly ``m`` nonzero columns and at
    least one all-zero row; small entries make accepting r common."""
    elem = (lambda: rng.randrange(ring.modulus)) if ring.modulus else (lambda: rng.randint(-3, 3))
    cols = rng.sample(range(n), m)
    zero_rows = set(rng.sample(range(n), rng.randint(1, 2)))
    live = [i for i in range(n) if i not in zero_rows]
    e_rows = [[0] * n for _ in range(n)]
    for j in cols:
        for i in live:
            e_rows[i][j] = elem()
        e_rows[rng.choice(live)][j] = 1
    a, b, c = _triple_with_error(e_rows, ring)
    assert difference_profile(a, b, c).y_size == m
    return a, b, c


def _sparse_case(ring, dists):
    ms = itertools.cycle((1, 2, 3, 4))
    return ring, dists, lambda rng: _sparse_triple(rng, ring, next(ms)), False


W3 = DiscreteDistribution((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))


def _small_case(ring):
    dists = [U01, bernoulli(Fraction(1, 3)), uniform_support((0, 1, 2))]
    if ring.modulus:
        dists.append(field_uniform(ring))
    return ring, dists, lambda rng: random_unequal_triple(rng, rng.randint(2, 4), ring), False


NEAR_2_40 = ((1 << 40) - 1, 1 << 40, (1 << 40) + 1)


@pytest.mark.parametrize(
    "ring, dists, triple, wide",
    [
        _small_case(INT64),
        _small_case(ZP3),
        _small_case(ZP5),
        _sparse_case(INT64, [U01, bernoulli(Fraction(1, 3)), uniform_support((-1, 0, 2)), W3]),
        _sparse_case(ZP2, [U01, bernoulli(Fraction(7, 10))]),
        _sparse_case(ZP3, [U01, W3, field_uniform(ZP3)]),
        (
            ZP61,
            [U01, bernoulli(Fraction(1, 3)), uniform_support((0, 1, 2))],
            lambda rng: _wide_triple(rng, 5, ZP61, ZP61.modulus),
            True,
        ),
        (
            INT64,
            [
                uniform_support(NEAR_2_40),
                DiscreteDistribution(NEAR_2_40, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
            ],
            lambda rng: _wide_triple(rng, rng.randint(2, 4), INT64, 1 << 23),
            True,
        ),
    ],
    ids=[
        "int64", "zp3", "zp5", "int64-m1to4", "zp2-m1to4", "zp3-m1to4",
        "zp2^61-1-wide", "int64-usup-2^40",
    ],
)
def test_exact_fap_matches_full_space_oracle(ring, dists, triple, wide):
    rng = random.Random(101 if ring.modulus is None else ring.modulus)
    for trial in range(12):
        a, b, c = triple(rng)
        if wide:
            # A = I, so E = B - C.  Residuals reach m * max|E| * max|support|,
            # past what int64 holds, so any 64-bit step in the enumeration
            # would show.
            n = a.rows
            cols = [[b[i, j] - c[i, j] for i in range(n)] for j in range(n)]
            if ring.modulus:
                cols = [[v % ring.modulus for v in col] for col in cols]
            m = sum(any(col) for col in cols)
            mag = max(abs(v) for col in cols for v in col)
            for dist in dists:
                assert m * mag * max(abs(v) for v in dist.support) > INT64_MAX
        for dist in dists:
            expected = brute_fap(a, b, c, dist.support, dist.probs)
            got = exact_false_accept_probability(a, b, c, dist)
            assert got == expected


def test_exact_fap_never_exceeds_p_max():
    rng = random.Random(55)
    for trial in range(20):
        ring = [INT64, ZP5][trial % 2]
        a, b, c = random_unequal_triple(rng, rng.randint(2, 4), ring)
        for dist in (U01, bernoulli(Fraction(1, 5)), uniform_support((0, 1, 2, 3))):
            assert exact_false_accept_probability(a, b, c, dist) <= p_max(dist)


@pytest.mark.parametrize(
    "n, mode, dist, expected",
    [
        (20, "dense-random", U01, Fraction(1, 1 << 20)),
        (20, "rank-one", U01, None),
        (7, "dense-random", uniform_support((0, 1, 2)), None),
    ],
    ids=["dense20-u01", "rank-one20-u01", "dense7-usup3"],
)
def test_stored_tables_hold_at_most_s_to_the_half_m(monkeypatch, n, mode, dist, expected):
    # The two residual tables cover floor(m/2) and ceil(m/2) - 1 columns, so
    # neither holds more than s**(m // 2) entries: 1024 at dense n=20, u01.
    a, b, c = generate_instance(InstanceSpec(n, INT64, mode, 3, entry_bound=1 << 24))
    sizes = []
    orig = analysis_mod._residual_table

    def spy(*args):
        table = orig(*args)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(analysis_mod, "_residual_table", spy)
    report = analyze_instance(a, b, c, dist, exact=True)
    m, s = report.instance_profile.y_size, len(dist.support)
    assert len(sizes) == 2 and max(sizes) <= s ** (m // 2)
    if expected is not None:
        assert (m, max(sizes)) == (n, 1024) and report.exact_fap == expected


def test_full_rank_at_the_budget_edge():
    # n = 24 under u01 is the largest n the default budget allows; a full
    # rank E keeps only r = 0.
    a, b, c = generate_instance(InstanceSpec(24, INT64, "dense-random", 5, entry_bound=1 << 24))
    report = analyze_instance(a, b, c, U01, exact=True)
    assert report.instance_profile.difference_rank == 24
    assert report.exact_fap == Fraction(1, 1 << 24)


# ---------------------------------------------------------------- preconditions


def test_equal_instance_is_rejected_up_front():
    a, b, _ = random_unequal_triple(random.Random(1), 3, INT64)
    c = matmul(a, b)
    with pytest.raises(InstanceActuallyEqual):
        exact_false_accept_probability(a, b, c, U01)
    with pytest.raises(InstanceActuallyEqual):
        empirical_false_accept_rate(a, b, c, U01, 100)


def test_budget_is_enforced_on_the_full_space():
    # 2^30 raw vectors exceed the default budget even though the reduced
    # enumeration would be tiny; the precondition is on n itself.
    n = 30
    e_rows = [[0] * n for _ in range(n)]
    e_rows[0][0] = 1
    a, b, c = _triple_with_error(e_rows, INT64)
    with pytest.raises(BudgetExceeded) as err:
        exact_false_accept_probability(a, b, c, U01)
    assert "largest enumerable n is 24" in str(err.value)
    # a raised budget lets the same call through
    assert exact_false_accept_probability(a, b, c, U01, budget=1 << 30) == Fraction(1, 2)


def test_budget_refuses_a_large_field_before_its_support_is_built(monkeypatch):
    ring = RingSpec.prime_field(2**31 - 1)
    dist = field_uniform(ring)

    def built(self):
        raise AssertionError("the support of Z_p was built")

    monkeypatch.setattr(type(dist), "support", property(built))
    monkeypatch.setattr(type(dist), "weights", property(built))
    a = Matrix(2, 2, ring, [[1, 0], [0, 1]])
    c = Matrix(2, 2, ring, [[1, 0], [0, 2]])
    with pytest.raises(BudgetExceeded, match="largest enumerable n is 0"):
        analyze_instance(a, a, c, dist, exact=True)
    # The sampler needs neither: a measured rate runs at this size.
    rate = analyze_instance(a, a, c, dist, trials=50).empirical
    assert rate.trials == 50


def test_trials_must_be_positive():
    a, b, c = random_unequal_triple(random.Random(2), 3, INT64)
    with pytest.raises(ConfigInvalid):
        empirical_false_accept_rate(a, b, c, U01, 0)


# ---------------------------------------------------------------- empirical rates


def test_empirical_trials_match_the_per_iteration_experiment():
    # The batched trial engine must agree decision-for-decision with running
    # the verifier's single iteration on the same substreams.
    rng = random.Random(13)
    for ring in (INT64, ZP5):
        a, b, c = random_unequal_triple(rng, 4, ring)
        trials, seed = 500, 42
        hits = 0
        for t in range(trials):
            r = sample_vector(U01, 4, substream(seed, t), ring)
            ok, _ = freivalds_iteration(a, b, c, r)
            hits += int(ok)
        report = empirical_false_accept_rate(a, b, c, U01, trials, seed)
        assert report.empirical.rate == hits / trials


def test_trial_chunking_does_not_change_the_answer(monkeypatch):
    a, b, c = random_unequal_triple(random.Random(3), 4, INT64)
    whole = empirical_false_accept_rate(a, b, c, U01, 1000, seed=9)
    monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", 64 * 4)
    chunked = empirical_false_accept_rate(a, b, c, U01, 1000, seed=9)
    assert whole == chunked


def test_empirical_blocks_stay_within_the_block_bound(monkeypatch):
    # The trials run in verify's blocks, so no R holds more than
    # _BLOCK_ENTRIES entries however many trials are asked for.
    n, trials = 256, 5000
    a, b, c = random_unequal_triple(random.Random(5), n, INT64)
    sizes = []
    block = verify_mod.fingerprint_block

    def spy(a, b, c, r):
        sizes.append((r.rows, r.cols))
        return block(a, b, c, r)

    monkeypatch.setattr(verify_mod, "fingerprint_block", spy)
    empirical_false_accept_rate(a, b, c, U01, trials, seed=3)
    assert sum(cols for _, cols in sizes) == trials
    assert all(rows * cols <= verify_mod._BLOCK_ENTRIES for rows, cols in sizes)


@pytest.mark.parametrize("width", [None, 3])
def test_empirical_overflow_names_the_first_overflowing_trial(monkeypatch, width):
    # A(Br) = (2^62 (r_0 + r_1), r_1) leaves int64 exactly when r = (1, 1);
    # AB itself fits.  The error must be the one-column error of the first
    # such trial, as freivalds_iteration raises it, not an entry of a block.
    if width is not None:
        monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", width * 2)
    big = 1 << 62
    a = Matrix.from_rows([[big, 0], [0, 1]], INT64)
    b = Matrix.from_rows([[1, 1], [0, 1]], INT64)
    c = Matrix.from_rows([[big, big], [0, 2]], INT64)
    vectors = [sample_vector(U01, 2, substream(1, t), INT64) for t in range(9)]
    assert [list(v.data) for v in vectors].index([1, 1]) == 8
    with pytest.raises(IntegerOverflow) as single:
        freivalds_iteration(a, b, c, vectors[8])
    with pytest.raises(IntegerOverflow) as measured:
        empirical_false_accept_rate(a, b, c, U01, 1000, seed=1)
    assert str(measured.value) == str(single.value)
    assert "(0, 0)" in str(measured.value)


def test_empirical_interval_contains_exact_value():
    rng = random.Random(2718)
    for trial in range(6):
        ring = ZP5 if trial % 2 else INT64
        a, b, c = random_unequal_triple(rng, 4, ring)
        dist = [U01, uniform_support((0, 1, 2)), bernoulli(Fraction(1, 4))][trial % 3]
        exact = exact_false_accept_probability(a, b, c, dist)
        report = empirical_false_accept_rate(a, b, c, dist, 30_000, seed=trial)
        lo, hi = report.empirical.ci99
        assert lo <= float(exact) <= hi
        assert report.per_iteration_bound == p_max(dist)


def test_report_carries_the_profile():
    a, b, c = _triple_with_error([[0, 5], [0, 0]], INT64)
    report = empirical_false_accept_rate(a, b, c, U01, 100, seed=0)
    assert report.instance_profile.differing_columns == (1,)
    assert report.instance_profile.differing_entries == 1
    assert report.instance_profile.difference_rank == 1


# ---------------------------------------------------------------- Wilson interval


def test_wilson_interval_known_value():
    # Independently written formula at z = 2.5758293035489004, h=500, t=1000.
    import math

    z = 2.5758293035489004
    phat, t = 0.5, 1000
    denom = 1 + z * z / t
    center = (phat + z * z / (2 * t)) / denom
    half = z * math.sqrt(phat * (1 - phat) / t + z * z / (4 * t * t)) / denom
    lo, hi = wilson_interval(500, 1000)
    assert lo == pytest.approx(center - half, abs=1e-15)
    assert hi == pytest.approx(center + half, abs=1e-15)


def test_wilson_interval_boundaries():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.25
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.75 < lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_interval_contains_the_point_estimate():
    for hits, trials in [(0, 10), (3, 10), (250, 1000), (999, 1000), (7, 7)]:
        lo, hi = wilson_interval(hits, trials)
        assert lo <= hits / trials <= hi


# ---------------------------------------------------------------- profiles


def test_profiles_by_construction():
    a, b, c = _triple_with_error([[0, 0, 0], [0, 4, 0], [0, 0, 0]], INT64)
    prof = difference_profile(a, b, c)
    assert prof.differing_columns == (1,)
    assert prof.differing_entries == 1
    assert prof.difference_rank == 1
    assert prof.y_size == 1

    a, b, c = _triple_with_error([[1, 0, 2], [0, 0, 0], [3, 0, 6]], INT64)
    prof = difference_profile(a, b, c)
    assert prof.differing_columns == (0, 2)
    assert prof.differing_entries == 4
    assert prof.difference_rank == 1  # second column is twice the first

    a, b, c = _triple_with_error([[1, 0], [0, 1]], INT64)
    assert difference_profile(a, b, c).difference_rank == 2

    # mod-p rank: [[1, 2], [2, 4]] has rank 1 over Z_5
    a, b, c = _triple_with_error([[1, 2], [2, 4]], ZP5)
    assert difference_profile(a, b, c).difference_rank == 1
    # ... but [[1, 2], [2, 3]] has determinant -1 = 4, rank 2
    a, b, c = _triple_with_error([[1, 2], [2, 3]], ZP5)
    assert difference_profile(a, b, c).difference_rank == 2


def test_equal_products_profile_cleanly():
    a, b, _ = random_unequal_triple(random.Random(4), 3, INT64)
    c = matmul(a, b)
    prof = difference_profile(a, b, c)
    assert prof.differing_columns == ()
    assert prof.differing_entries == 0
    assert prof.difference_rank == 0


def test_rank_is_skipped_beyond_the_size_limit():
    n = 65  # one past the exact-rank cutoff
    a, b, c = generate_instance(InstanceSpec(n, INT64, "single-entry", 8, entry_bound=4))
    prof = difference_profile(a, b, c)
    assert prof.differing_entries == 1
    assert prof.difference_rank is None


# ---------------------------------------------------------------- generation


def test_generation_is_deterministic():
    spec = InstanceSpec(6, ZP5, "rank-one", 99)
    first = generate_instance(spec)
    second = generate_instance(spec)
    for x, y in zip(first, second):
        assert mats_equal(x, y)


def test_generation_modes_meet_their_contracts():
    for seed in range(25):
        for ring in (INT64, ZP5):
            for mode, check in [
                ("equal", lambda p: p.differing_entries == 0),
                ("single-entry", lambda p: p.differing_entries == 1 and p.y_size == 1),
                ("single-column", lambda p: p.y_size == 1),
                ("rank-one", lambda p: p.difference_rank == 1),
                ("dense-random", lambda p: p.y_size >= 1),
            ]:
                n = 2 + seed % 7
                a, b, c = generate_instance(InstanceSpec(n, ring, mode, seed))
                assert check(difference_profile(a, b, c)), (mode, ring, seed)


def test_generation_computes_no_rank(monkeypatch):
    # The mode check reads which columns and entries differ; the rank is
    # left to the callers that report it.
    def refuse(*args):
        raise AssertionError("generate_instance computed a rank")

    monkeypatch.setattr(analysis_mod, "_exact_rank", refuse)
    for mode in ("equal", "single-entry", "single-column", "rank-one", "dense-random"):
        generate_instance(InstanceSpec(6, INT64, mode, 1))


def test_generation_seed_changes_the_instance():
    a1, _, _ = generate_instance(InstanceSpec(5, INT64, "dense-random", 0))
    a2, _, _ = generate_instance(InstanceSpec(5, INT64, "dense-random", 1))
    assert not mats_equal(a1, a2)


def test_generation_entry_ranges():
    a, b, c = generate_instance(InstanceSpec(8, INT64, "dense-random", 3, entry_bound=5))
    for m in (a, b):
        assert int(m.data.min()) >= -5
        assert int(m.data.max()) <= 5
    az, bz, cz = generate_instance(InstanceSpec(8, ZP5, "dense-random", 3))
    for m in (az, bz, cz):
        assert int(m.data.min()) >= 0
        assert int(m.data.max()) <= 4


def test_instance_spec_validation():
    with pytest.raises(ConfigInvalid):
        InstanceSpec(0, INT64, "equal", 0)
    with pytest.raises(ConfigInvalid):
        InstanceSpec(3, INT64, "zero-out", 0)
    with pytest.raises(ConfigInvalid):
        InstanceSpec(3, INT64, "equal", 0, entry_bound=0)


# ---------------------------------------------------------------- composition


def test_analyze_instance_composes_the_pieces():
    a, b, c = _triple_with_error([[2, 0], [0, 0]], INT64)
    report = analyze_instance(a, b, c, U01, exact=True, trials=5000, seed=5)
    assert report.exact_fap == Fraction(1, 2)
    assert report.per_iteration_bound == Fraction(1, 2)
    assert report.instance_profile.y_size == 1
    lo, hi = report.empirical.ci99
    assert lo <= 0.5 <= hi
    bare = analyze_instance(a, b, c, U01)
    assert bare.exact_fap is None and bare.empirical is None


def test_analysis_forms_the_product_and_the_error_once(monkeypatch):
    # One AB (n^3), one E, and 3n^2 per trial: 20,000 multiplies at n=20,
    # t=10, with the exact probability and the rank from the same E.
    n, t = 20, 10
    a, b, c = generate_instance(InstanceSpec(n, INT64, "single-column", 4, entry_bound=1 << 24))
    calls = {"matmul": 0, "mat_sub": 0}
    for name in calls:
        def spy(*args, _name=name, _orig=getattr(analysis_mod, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(analysis_mod, name, spy)
    reset_scalar_multiplies()
    report = analyze_instance(a, b, c, U01, exact=True, trials=t, seed=2)
    assert scalar_multiplies() == n**3 + 3 * n * n * t == 20_000
    assert calls == {"matmul": 1, "mat_sub": 1}
    assert report.exact_fap == Fraction(1, 2)
    assert report.instance_profile.difference_rank == 1


def test_arguments_are_checked_before_any_product(monkeypatch):
    # The enumeration here covers 2^20 vectors; a check made after it would
    # pay for its residual tables before refusing.
    a, b, c = generate_instance(InstanceSpec(20, INT64, "dense-random", 3))
    ran = []
    orig = analysis_mod._residual_table
    monkeypatch.setattr(analysis_mod, "_residual_table", lambda *args: ran.append(args) or orig(*args))
    for kwargs, kind, message in [
        ({"exact": True, "trials": 0}, ConfigInvalid, "need at least one trial, got 0"),
        ({"trials": -1}, ConfigInvalid, "need at least one trial, got -1"),
        ({"exact": True, "trials": 5, "budget": 1 << 19}, BudgetExceeded, "largest enumerable n is 19"),
    ]:
        reset_scalar_multiplies()
        with pytest.raises(kind, match=message):
            analyze_instance(a, b, c, U01, **kwargs)
        assert scalar_multiplies() == 0
    assert ran == []


def test_check_order_for_inputs_with_two_faults():
    # Order: shapes and rings, the law, trials, the budget, and only then
    # the product (which is what shows AB = C).
    a, b, _ = random_unequal_triple(random.Random(6), 30, INT64)
    equal = matmul(a, b)
    with pytest.raises(ConfigInvalid):
        analyze_instance(a, b, equal, U01, exact=True, trials=0)
    with pytest.raises(BudgetExceeded):
        analyze_instance(a, b, equal, U01, exact=True, trials=5)
    with pytest.raises(ConfigInvalid, match="not reduced"):
        analyze_instance(*random_unequal_triple(random.Random(6), 3, ZP3), uniform_support((0, 5)), trials=0)


@st.composite
def _rank_case(draw):
    ring = draw(st.sampled_from([INT64, ZP2, ZP3, ZP5, ZP61]))
    p = ring.modulus
    rows = draw(st.integers(min_value=1, max_value=7))
    cols = draw(st.integers(min_value=1, max_value=7))
    if draw(st.booleans()):
        # A product of an (rows x k) and a (k x cols) factor: rank <= k.
        k = draw(st.integers(min_value=0, max_value=min(rows, cols)))
        elem = st.integers(0, p - 1) if p else st.integers(-(1 << 20), 1 << 20)
        u = draw(st.lists(st.lists(elem, min_size=k, max_size=k), min_size=rows, max_size=rows))
        v = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=k, max_size=k))
        data = [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
        if p:
            data = [[x % p for x in row] for row in data]
    else:
        # Small entries make zero pivot-column entries common; large ones
        # reach 2**62.
        bound = draw(st.sampled_from([3, 1 << 62]))
        elem = st.integers(0, p - 1) if p else st.integers(-bound, bound)
        data = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        # Copy, negate or zero some rows, so that large entries meet deficient ranks.
        for dst, src, how in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, rows - 1), st.sampled_from("cnz")
        ), max_size=4)):
            row = data[src]
            data[dst] = {"c": list(row), "n": [(-x) % p if p else -x for x in row], "z": [0] * cols}[how]
    return ring, data


@settings(max_examples=300, deadline=None)
@given(_rank_case())
# Over Z a row whose pivot-column entry is 0 must still be scaled by the
# pivot, or the next division by it is inexact: here rank 3 would read 2.
@example((INT64, [[0, 1, -1], [0, 1, 0], [-2, 0, 0]]))
def test_exact_rank_matches_fraction_elimination(case):
    ring, data = case
    e = Matrix(len(data), len(data[0]), ring, data)
    assert analysis_mod._exact_rank(e) == fraction_rank(data, ring.modulus)


def test_exact_fallback_does_not_take_a_wrapped_residual_for_zero():
    # In both instances one r gives a residual that 64-bit arithmetic would
    # wrap onto zero; the enumeration must keep it on Python integers.
    # int64: 2**23 * (2**40 + 2**40) = 2**64, never 0 over the integers.
    a, b, c = _triple_with_error([[1 << 23, 1 << 23], [0, 0]], INT64)
    dist = uniform_support(NEAR_2_40)
    assert exact_false_accept_probability(a, b, c, dist) == 0
    assert brute_fap(a, b, c, dist.support, dist.probs) == 0
    # zp 2**61 - 1: r = (1, ..., 1) gives 4p + 8, which is 8 mod p, while
    # 4p + 8 - 2**64 = -4p is 0 mod p.  Only r = 0 accepts.
    p = ZP61.modulus
    n = 5
    e_rows = [[p - 1] * 4 + [12]] + [[0] * n for _ in range(n - 1)]
    a, b, c = _triple_with_error(e_rows, ZP61)
    assert exact_false_accept_probability(a, b, c, U01) == Fraction(1, 32)
    assert brute_fap(a, b, c, U01.support, U01.probs) == Fraction(1, 32)


def test_exact_rank_makes_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(analysis_mod, "Fraction", refuse)
    rng = random.Random(8)
    for ring in (INT64, ZP61):
        a, b, c = random_unequal_triple(rng, 12, ring, bound=1 << 20)
        assert difference_profile(a, b, c).difference_rank >= 1
