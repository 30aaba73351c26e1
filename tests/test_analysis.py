"""False-accept analysis against independent brute-force oracles.

``brute_fap`` in util.py enumerates the full support^n space with plain
Python arithmetic, so every agreement below means the library's closed form
or its reduced, meet-in-the-middle enumeration reproduced a value computed by
a completely separate route.  Hand-derived expected values are frozen inline.
"""

import importlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import freicheck.analysis as analysis_mod
from freicheck import (
    BudgetExceeded,
    ConfigInvalid,
    DifferenceProfile,
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
    mat_sub,
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
from freicheck.matrix import _fill
from util import brute_fap, fraction_rank, random_unequal_triple

verify_mod = importlib.import_module("freicheck.verify")

INT64 = RingSpec.int64()
ZP2 = RingSpec.prime_field(2)
ZP3 = RingSpec.prime_field(3)
ZP5 = RingSpec.prime_field(5)
ZP31 = RingSpec.prime_field((1 << 31) - 1)
Q31 = ZP31.modulus
# The largest prime p with p * p <= 2^63 - 1: the last one eliminated in
# int64, and the first of the integer rank certificate; then the next one.
WORD, WORD_2 = 3037000493, 3037000453
ZP_WORD = RingSpec.prime_field(WORD)
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


def test_one_differing_column_solves_instead_of_walking_the_support(monkeypatch):
    # One differing column has rank 1, so e v = 0 only for v = 0 and the
    # probability is the mass of 0, with no table and no walk over 2^20
    # support values; with no rank computed (RANK_LIMIT = 0) as well, and
    # over zp 2^61 - 1 without building the field law's p support values.
    walked = []
    for name in ("_shifted", "_residual_table"):
        orig = getattr(analysis_mod, name)
        monkeypatch.setattr(analysis_mod, name, lambda *args, orig=orig: walked.append(args) or orig(*args))
    a, b = Matrix(1, 1, INT64, [[3]]), Matrix(1, 1, INT64, [[5]])
    dist = uniform_support(range(-(1 << 19), 1 << 19))
    assert exact_false_accept_probability(a, b, Matrix(1, 1, INT64, [[14]]), dist) == Fraction(1, 1 << 20)
    zp = RingSpec.prime_field(1048573)
    fa, fb = Matrix(1, 1, zp, [[3]]), Matrix(1, 1, zp, [[5]])
    got = exact_false_accept_probability(fa, fb, Matrix(1, 1, zp, [[14]]), field_uniform(zp))
    assert got == Fraction(1, 1048573)

    def refuse(self):
        raise AssertionError("the field law's support or weights were built")

    monkeypatch.setattr(analysis_mod, "RANK_LIMIT", 0)
    for name in ("support", "weights"):
        monkeypatch.setattr(type(field_uniform(ZP61)), name, property(refuse))
    p = ZP61.modulus
    fa, fb = Matrix(1, 1, ZP61, [[3]]), Matrix(1, 1, ZP61, [[5]])
    report = analyze_instance(fa, fb, Matrix(1, 1, ZP61, [[14]]), field_uniform(ZP61), exact=True, budget=p)
    assert report.instance_profile.difference_rank is None
    assert report.exact_fap == Fraction(1, p)
    assert walked == []


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
        (7, "dense-random", uniform_support((0, 1, 2)), Fraction(1, 3**7)),
        (7, "rank-one", uniform_support((0, 1, 2)), None),
    ],
    ids=["dense20-u01", "rank-one20-u01", "dense7-usup3", "rank-one7-usup3"],
)
def test_stored_tables_hold_at_most_s_to_the_half_m(monkeypatch, n, mode, dist, expected):
    # The two residual tables cover floor(m/2) and ceil(m/2) - 1 columns, so
    # neither holds more than s**(m // 2) entries.  A full-rank E builds
    # none: only r = 0 on its columns accepts.
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
    if expected is None:
        assert report.instance_profile.difference_rank == 1 < m
        assert len(sizes) == 2 and max(sizes) <= s ** (m // 2)
    else:
        assert report.instance_profile.difference_rank == m == n
        assert sizes == [] and report.exact_fap == expected


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
    monkeypatch.setattr(analysis_mod, "_TRIAL_BLOCK", 64 * 4)
    chunked = empirical_false_accept_rate(a, b, c, U01, 1000, seed=9)
    assert whole == chunked


def _blocks_spied(monkeypatch):
    """Shapes of every R_S drawn and every E_S R_S formed by the E path;
    the verifier's rounds must not run."""
    drawn, formed = [], []
    draw, blocks = analysis_mod._sample_trial_block, analysis_mod._error_trials

    def draw_spy(*args):
        block = draw(*args)
        drawn.append(block.shape)
        return block

    def blocks_spy(*args):
        for block in blocks(*args):
            formed.append(block.shape)
            yield block

    monkeypatch.setattr(analysis_mod, "_sample_trial_block", draw_spy)
    monkeypatch.setattr(analysis_mod, "_error_trials", blocks_spy)
    monkeypatch.setattr(analysis_mod, "_trials", None)
    return drawn, formed


def test_empirical_blocks_stay_within_the_block_bound(monkeypatch):
    # However many trials are asked for, no R_S and no product E_S R_S
    # holds more than _BLOCK_ENTRIES entries: a dense E_S is 256 x 256, and
    # with m = 1 a 256 x 1 E_S makes each product 256 times its R_S.  Nor
    # more than _TRIAL_BLOCK, which the E path's blocks also keep to.
    n = 256
    dense = random_unequal_triple(random.Random(5), n, INT64)
    one_column = generate_instance(InstanceSpec(n, INT64, "single-column", 5))
    drawn, formed = _blocks_spied(monkeypatch)
    for (a, b, c), trials in ((dense, 5000), (one_column, 10**6)):
        drawn.clear()
        formed.clear()
        empirical_false_accept_rate(a, b, c, U01, trials, seed=3)
        assert sum(cols for _, cols in drawn) == sum(cols for _, cols in formed) == trials
        assert [cols for _, cols in drawn] == [cols for _, cols in formed]
        assert all(rows * cols <= verify_mod._BLOCK_ENTRIES for rows, cols in drawn + formed)
        assert all(rows * cols <= analysis_mod._TRIAL_BLOCK for rows, cols in drawn + formed)
    assert {rows for rows, _ in drawn} == {1} and {rows for rows, _ in formed} == {n}
    # Every block but the last is a full one of 2^15 entries.
    width = analysis_mod._TRIAL_BLOCK // n
    assert [cols for _, cols in formed[:-1]] == [width] * (len(formed) - 1) == [128] * 7812


def _hits_of_the_rounds(a, b, c, dist, trials, seed):
    """Passing trials counted from the verifier's own rounds, A(BR)
    against CR, exactly as the empirical rate was measured before it read
    E: the reference for the E path."""
    blocks = verify_mod._trials(a, b, c, dist, seed, trials)
    return sum(int(np.count_nonzero(~_fill(rows, a.rows).any(axis=0))) for _, _, rows in blocks)


@pytest.mark.parametrize("n", [1, 5, 64, 300])
@pytest.mark.parametrize("ring", [INT64, ZP5, ZP31, ZP61], ids=["int64", "zp5", "zp31", "zp61"])
def test_empirical_rate_from_e_matches_the_verifier_rounds(monkeypatch, ring, n):
    # Every law valid over the ring, every unequal mode: the E path's hit
    # count is the one the rounds give, trial for trial.
    laws = {"u01": U01, "bern:1/3": bernoulli(Fraction(1, 3))}
    if ring.modulus is None:
        laws["usup:-3,0,7"] = uniform_support((-3, 0, 7))
    else:
        laws["field"] = field_uniform(ring)
    trials = 200 if n == 300 else 1000
    drawn, _ = _blocks_spied(monkeypatch)
    for mode in ("single-entry", "single-column", "rank-one", "dense-random"):
        a, b, c = generate_instance(InstanceSpec(n, ring, mode, n + 7))
        for name, dist in laws.items():
            seed = len(name) + n
            hits = _hits_of_the_rounds(a, b, c, dist, trials, seed)
            drawn.clear()
            report = empirical_false_accept_rate(a, b, c, dist, trials, seed)
            assert sum(cols for _, cols in drawn) == trials, (mode, name)
            assert report.empirical == analysis_mod.EmpiricalRate(
                hits / trials, trials, wilson_interval(hits, trials)
            ), (mode, name)


def _gate_instance(failing):
    """An int64 instance at n = 2 whose rounds break exactly one of the
    four int64 bounds of the E path, with u01 (rho = 1)."""
    big = 1 << 62
    rows = {
        # n max|B| rho: A = 0, so A(Br) is 0, but B r_0 = 2^63 for r = (1, 1).
        1: ([[0, 0], [0, 0]], [[big, big], [0, 1]], [[1, 0], [0, 0]]),
        # n max|A| (n max|B| rho) = 2^64; AB and C stay near 2^61.
        2: ([[1 << 61, 0], [0, 0]], [[1, 0], [0, 2]], [[(1 << 61) + 1, 0], [0, 0]]),
        # n max|C| rho = 2^63 + 2, while E = AB - C is -2^62 in one column.
        3: ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[big + 1, 0], [0, 1]]),
        # m max|E_S| rho: two columns of E near 1.25 * 2^62.
        4: ([[1, 0], [0, 0]], [[1 << 60, 1 << 60], [0, 0]], [[1 - big, 1 - big], [0, 0]]),
    }[failing]
    return tuple(Matrix.from_rows(m, INT64) for m in rows)


@pytest.mark.parametrize("failing", [1, 2, 3, 4])
def test_rounds_that_could_overflow_run_the_verifier_engine(monkeypatch, failing):
    a, b, c = _gate_instance(failing)
    e = mat_sub(matmul(a, b), c)
    n, m = 2, len(difference_profile(a, b, c).differing_columns)
    big_b = n * max(abs(int(v)) for v in b.data.ravel())
    bounds = [
        big_b,
        n * max(abs(int(v)) for v in a.data.ravel()) * big_b,
        n * max(abs(int(v)) for v in c.data.ravel()),
        m * max(abs(int(v)) for v in e.data.ravel()),
    ]
    assert [i + 1 for i, x in enumerate(bounds) if x > INT64_MAX] == [failing]
    trials, seed = 300, 4
    try:
        expected = _hits_of_the_rounds(a, b, c, U01, trials, seed)
    except IntegerOverflow as err:
        expected = err
    ran = []
    engine = analysis_mod._trials
    monkeypatch.setattr(analysis_mod, "_trials", lambda *args: ran.append(args) or engine(*args))
    monkeypatch.setattr(analysis_mod, "_error_trials", None)
    if isinstance(expected, IntegerOverflow):
        with pytest.raises(IntegerOverflow) as raised:
            empirical_false_accept_rate(a, b, c, U01, trials, seed)
        assert str(raised.value) == str(expected)
    else:
        assert empirical_false_accept_rate(a, b, c, U01, trials, seed).empirical.rate == expected / trials
    assert len(ran) == 1
    # Bound 1 is the one that raises: B r = (2^63, 1) for r = (1, 1).
    assert isinstance(expected, IntegerOverflow) == (failing == 1)


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
    # The size limit bench applies too, checked before anything is drawn.
    assert InstanceSpec(8192, INT64, "equal", 0).n == 8192
    with pytest.raises(ConfigInvalid, match=r"^n = 8193 is past the limit of 8192$"):
        InstanceSpec(8193, INT64, "equal", 0)


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
    # One AB (n^3), one E, and (rows of E_S) m per trial, E_S being the one
    # basis row of E's rank-1 row space by its one nonzero column: 8,010
    # multiplies at n=20, t=10, with the exact probability, the rank and the
    # rate from one E, formed by one subtraction on that column.
    n, t = 20, 10
    a, b, c = generate_instance(InstanceSpec(n, INT64, "single-column", 4, entry_bound=1 << 24))
    calls = {"matmul": 0, "_add_sub": 0}
    for name in calls:
        def spy(*args, _name=name, _orig=getattr(analysis_mod, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(analysis_mod, name, spy)
    reset_scalar_multiplies()
    report = analyze_instance(a, b, c, U01, exact=True, trials=t, seed=2)
    assert scalar_multiplies() == n**3 + 1 * 1 * t == 8_010
    assert calls == {"matmul": 1, "_add_sub": 1}
    assert report.exact_fap == Fraction(1, 2)
    assert report.instance_profile.difference_rank == 1


def test_arguments_are_checked_before_any_product(monkeypatch):
    # The enumeration here covers 2^20 vectors and, as E has rank 1, builds
    # residual tables; a check made after it would pay for them before
    # refusing.
    a, b, c = generate_instance(InstanceSpec(20, INT64, "rank-one", 3))
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
    analyze_instance(a, b, c, U01, exact=True, trials=5)
    assert len(ran) == 2


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
    ring = draw(st.sampled_from([INT64, ZP2, ZP3, ZP5, ZP31, ZP_WORD, ZP61]))
    p = ring.modulus
    rows = draw(st.integers(min_value=1, max_value=16))
    cols = draw(st.integers(min_value=1, max_value=16))
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
# Rows whose pivot-column entry is 0: a fraction-free elimination that
# does not scale them by the pivot reads rank 3 here as 2.
@example((INT64, [[0, 1, -1], [0, 1, 0], [-2, 0, 0]]))
# Singular mod a prime but not over Z, so that prime alone must not decide:
# q = 2^31 - 1 divides the first three determinants (2^63 = 2 mod q), and
# the first prime the integer certificate tries divides the last two.
@example((INT64, [[Q31, 0], [0, 1]]))
@example((INT64, [[Q31, Q31], [1, 2]]))
@example((INT64, [[-(1 << 63), 2], [1, -1]]))
@example((INT64, [[WORD, 0], [0, 1]]))
@example((INT64, [[WORD, WORD], [1, 2]]))
def test_exact_rank_matches_fraction_elimination(case):
    ring, data = case
    e = Matrix(len(data), len(data[0]), ring, data)
    rows = analysis_mod._exact_rank(e)
    assert len(rows) == fraction_rank(data, ring.modulus)
    # rank(E) independent rows of E, in E's order: a basis of its row space.
    assert list(rows) == sorted(set(rows.tolist()))
    if len(rows):
        assert fraction_rank([data[i] for i in rows], ring.modulus) == len(rows)


_E_VALUES = (0, 0, 0, 1, -1, 2, WORD, -2 * WORD)


@st.composite
def _error_case(draw):
    """(ring, A, B, E): small A and B and an error E over int64, Z_5 or
    Z_(2^61 - 1), with most entries 0, so that zero rows and columns and
    one-row and one-column errors all occur; over int64 some entries are
    multiples of the first word prime."""
    ring = draw(st.sampled_from([INT64, ZP5, ZP61]))
    n, p = draw(st.integers(1, 6)), ring.modulus
    entry = st.integers(-9, 9) if p is None else st.integers(0, p - 1)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    e = draw(st.lists(st.lists(st.sampled_from(_E_VALUES), min_size=n, max_size=n), min_size=n, max_size=n))
    return ring, draw(square), draw(square), e if p is None else [[x % p for x in row] for row in e]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(_error_case())
# Equal columns between differing ones.
@example((INT64, _eye(4), _eye(4), [[1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 1, 0], [0, 0, 5, 0]]))
# One differing entry.
@example((INT64, _eye(3), _eye(3), [[0, 0, 0], [0, 0, 0], [0, -1, 0]]))
# One nonzero row.
@example((ZP5, _eye(3), _eye(3), [[0, 0, 0], [4, 0, 2], [0, 0, 0]]))
# One column of multiples of the first word prime: the elimination mod that
# prime sees only zeros there, and the rank is still 1.
@example((INT64, _eye(4), _eye(4), [[0, WORD, 0, 0], [0, 0, 0, 0], [0, -2 * WORD, 0, 0], [0, WORD, 0, 0]]))
# One column over Z_p past 3,037,000,499.
@example((ZP61, _eye(3), _eye(3), [[0, 0, 0], [0, 0, ZP61.modulus - 1], [0, 0, 7]]))
def test_profile_matches_the_full_error(case):
    ring, a_rows, b_rows, e_rows = case
    p, n = ring.modulus, len(a_rows)
    a, b = Matrix.from_rows(a_rows, ring), Matrix.from_rows(b_rows, ring)
    d = matmul(a, b)
    c_rows = [[x - y if p is None else (x - y) % p for x, y in zip(*rows)] for rows in zip(d.data.tolist(), e_rows)]
    c = Matrix.from_rows(c_rows, ring)
    full = mat_sub(d, c).data.tolist()
    cols = [j for j in range(n) if any(row[j] for row in full)]
    rank = fraction_rank(full, p)
    profile, e, e_s = analysis_mod._profile(d, c, True)
    assert profile == DifferenceProfile(tuple(cols), sum(x != 0 for row in full for x in row), rank)
    if not cols:
        assert e is None and e_s is None
        return
    # E is formed on its differing columns only, as an n x m block.
    block = [[row[j] for j in cols] for row in full]
    assert e.data.tolist() == block
    # E_S: rank(E) nonzero rows of E, independent, so they span its row space.
    basis = e_s.data.tolist()
    assert len(basis) == rank == fraction_rank(basis, p)
    assert all(any(row) and row in block for row in basis)


def _half_rank_error(n, ring):
    """An n x n E = U V with an n/2 inner dimension, entries up to 2^20 in
    U and V: rank at most n/2, with entries far past 2^31 over Z."""
    rng = np.random.default_rng(n)
    u = rng.integers(-(1 << 20), 1 << 20, (n, n // 2))
    v = rng.integers(-(1 << 20), 1 << 20, (n // 2, n))
    e = u @ v
    return Matrix(n, n, ring, (e if ring.modulus is None else e % ring.modulus).tolist())


@pytest.mark.parametrize("ring", [INT64, ZP31], ids=["int64", "zp31"])
@pytest.mark.parametrize("n", [48, 64])
def test_exact_rank_of_size_limit_errors_matches_the_python_loop(n, ring):
    a, b, c = generate_instance(InstanceSpec(n, ring, "dense-random", 5, entry_bound=1 << 24))
    dense = mat_sub(matmul(a, b), c)
    for e, rank in ((dense, n), (_half_rank_error(n, ring), n // 2)):
        assert len(analysis_mod._exact_rank(e)) == fraction_rank(e.data.tolist(), ring.modulus) == rank


def _primes_spied(monkeypatch):
    """``(q, whether the array holds Python integers)`` for every
    elimination mod q that ``_rank_mod`` runs."""
    calls = []
    rank_mod = analysis_mod._rank_mod

    def spy(a, q):
        calls.append((q, a.dtype == object))
        return rank_mod(a, q)

    monkeypatch.setattr(analysis_mod, "_rank_mod", spy)
    return calls


def test_a_full_rank_error_is_certified_by_one_prime(monkeypatch):
    calls = _primes_spied(monkeypatch)
    for ring, q in ((INT64, WORD), (ZP31, Q31), (ZP_WORD, WORD)):
        calls.clear()
        a, b, c = generate_instance(InstanceSpec(64, ring, "dense-random", 5, entry_bound=1 << 24))
        assert difference_profile(a, b, c).difference_rank == 64
        assert calls == [(q, False)]
    # Over a word-size Z_p the rank mod p is the answer, deficient or not.
    calls.clear()
    assert len(analysis_mod._exact_rank(Matrix(2, 2, ZP_WORD, [[1, 2], [2, 4]]))) == 1
    assert calls == [(WORD, False)]


def test_one_row_or_one_column_takes_no_elimination(monkeypatch):
    # Rank 1 with its first nonzero row as the basis, over Z with entries
    # past 2^24 and over a Z_p whose elimination would run on Python
    # integers; also a row of multiples of the first word prime.
    calls = _primes_spied(monkeypatch)
    for ring in (INT64, ZP61):
        for mode in ("single-entry", "single-column"):
            a, b, c = generate_instance(InstanceSpec(64, ring, mode, 5, entry_bound=1 << 24))
            assert difference_profile(a, b, c).difference_rank == 1
    e = Matrix.from_rows([[0, 0, 0], [WORD, 0, -2 * WORD], [0, 0, 0]], INT64)
    assert analysis_mod._exact_rank(e).tolist() == [1]
    assert calls == []


def test_a_deficient_rank_takes_more_primes_and_returns_the_right_rank(monkeypatch):
    calls = _primes_spied(monkeypatch)
    w, w2 = WORD, WORD_2
    # The primes run down from the largest; 3,037,000,507 is the next one up.
    assert [analysis_mod._word_prime(i) for i in range(3)] == [w, w2, 3037000429]
    assert w * w <= INT64_MAX < 3037000507 ** 2
    cases = [
        # Rank 2, singular mod the first prime (the first two for w * w2).
        ([[w, 0], [0, 1]], 2, 2),
        ([[w, w], [1, 2]], 2, 2),
        ([[w * w2, 0], [0, 1]], 2, 3),
        # Singular mod w, and the largest column norm alone is below w:
        # every 2-minor, not every 1-minor, must be bounded.
        ([[4, 1], [-1, (w - 1) // 4]], 2, 2),
        # Rank 2 mod w and 1 mod w2: the largest rank seen is the answer.
        ([[w2, 0, 0], [0, 1, 1], [0, 1, 1]], 2, 2),
    ]
    for data, rank, primes in cases:
        calls.clear()
        assert len(analysis_mod._exact_rank(Matrix.from_rows(data, INT64))) == rank == fraction_rank(data)
        assert calls == [(analysis_mod._word_prime(i), False) for i in range(primes)]
    a, b, c = generate_instance(InstanceSpec(64, INT64, "rank-one", 5))
    for e, rank, primes in ((mat_sub(matmul(a, b), c), 1, 2), (_half_rank_error(64, INT64), 32, 47)):
        calls.clear()
        assert len(analysis_mod._exact_rank(e)) == rank
        assert len(calls) == primes
    # Row 0 times 2^15 (entries to 2^58) raises every column norm and one row
    # norm, so the row norms bound the 33-minors as tightly as the column
    # norms bound those of the transpose: 47 primes for both (60 for the
    # first with column norms alone).
    heavy = _half_rank_error(64, INT64).data.copy()
    heavy[0] <<= 15
    for data in (heavy, heavy.T):
        calls.clear()
        assert len(analysis_mod._exact_rank(Matrix(64, 64, INT64, data.tolist()))) == 32
        assert len(calls) == 47
    # Past 3,037,000,499 the one prime is p, on Python integers.
    p = ZP61.modulus
    for data, rank in (([[1, 2], [2, 5]], 2), ([[1, 2], [2, 4]], 1), ([[p - 1, 1], [1, p - 1]], 1)):
        calls.clear()
        assert len(analysis_mod._exact_rank(Matrix(2, 2, ZP61, data))) == rank == fraction_rank(data, p)
        assert calls == [(p, True)]


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


def _rows_kept(monkeypatch):
    """The row count of every E_S that ``_error_trials`` multiplies."""
    kept = []
    blocks = analysis_mod._error_trials

    def spy(e_s, *args):
        kept.append(e_s.rows)
        return blocks(e_s, *args)

    monkeypatch.setattr(analysis_mod, "_error_trials", spy)
    return kept


def _basis_case(name, n):
    """An instance whose error E has rank below its count of nonzero rows:
    rank one over int64 (certified by two word primes, or by one with
    entries in [-1, 1], which make E r = 0 common with r_S != 0), over
    Z_{2^31 - 1} (int64 elimination) and over Z_{2^61 - 1} (elimination on
    Python integers); or E = U V of rank n/2 over int64, certified by more
    than two word primes."""
    if name == "half-rank":
        return _triple_with_error(_half_rank_error(n, INT64).data.tolist(), INT64)
    ring = {"int64": INT64, "int64-small": INT64, "zp31": ZP31, "zp61": ZP61}[name]
    bound = 1 if name == "int64-small" else 256
    return generate_instance(InstanceSpec(n, ring, "rank-one" if n > 1 else "single-entry", n, bound))


_BASIS_CASES = [(name, 64) for name in ("int64", "int64-small", "half-rank", "zp31", "zp61")] + [
    ("int64", 1), ("zp61", 1)
]


@pytest.mark.parametrize("name, n", _BASIS_CASES)
def test_the_rate_on_the_row_basis_matches_every_nonzero_row(monkeypatch, name, n):
    # The rate on E's basis rows is the verifier's rounds' and the rate on
    # every nonzero row of E (no rank below RANK_LIMIT = 0), trial for trial;
    # the rows kept are as many as the rank.
    a, b, c = _basis_case(name, n)
    e = mat_sub(matmul(a, b), c)
    nonzero_rows = int((e.data != 0).any(axis=1).sum())
    rank = {"half-rank": n // 2}.get(name, 1)
    assert nonzero_rows > rank or n == 1
    trials = 2000
    kept = _rows_kept(monkeypatch)
    for dist in (U01, bernoulli(Fraction(1, 64))):
        hits = _hits_of_the_rounds(a, b, c, dist, trials, 3)
        kept.clear()
        on_basis = empirical_false_accept_rate(a, b, c, dist, trials, seed=3)
        assert on_basis.instance_profile.difference_rank == rank
        assert kept == [rank] * len(kept) and kept
        with monkeypatch.context() as m:
            m.setattr(analysis_mod, "RANK_LIMIT", 0)
            kept.clear()
            on_every_row = empirical_false_accept_rate(a, b, c, dist, trials, seed=3)
            assert on_every_row.instance_profile.difference_rank is None
            assert kept == [nonzero_rows] * len(kept) and kept
        assert on_basis.empirical == on_every_row.empirical == analysis_mod.EmpiricalRate(
            hits / trials, trials, wilson_interval(hits, trials)
        )


@pytest.mark.parametrize(
    "name, n", [("int64", 12), ("int64-small", 12), ("half-rank", 10), ("zp31", 12), ("zp61", 12), ("int64", 1)]
)
def test_the_exact_fap_on_the_row_basis_matches_every_nonzero_row(monkeypatch, name, n):
    a, b, c = _basis_case(name, n)
    e = mat_sub(matmul(a, b), c)
    kept = []
    fap = analysis_mod._exact_fap
    monkeypatch.setattr(
        analysis_mod, "_exact_fap", lambda e_s, rank, dist: kept.append(e_s.rows) or fap(e_s, rank, dist)
    )
    for dist in (U01, bernoulli(Fraction(1, 5))):
        kept.clear()
        on_basis = analyze_instance(a, b, c, dist, exact=True)
        with monkeypatch.context() as m:
            m.setattr(analysis_mod, "RANK_LIMIT", 0)
            assert exact_false_accept_probability(a, b, c, dist) == on_basis.exact_fap
        assert kept == [on_basis.instance_profile.difference_rank, int((e.data != 0).any(axis=1).sum())]


@st.composite
def _low_rank_triple(draw):
    """(A, B, C, rank of E) at n <= 6 with E = U V != 0 of inner dimension
    k, over int64 or a small Z_p."""
    ring = draw(st.sampled_from([INT64, ZP3, ZP5]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    elem = st.integers(-3, 3)
    u = draw(st.lists(st.lists(elem, min_size=k, max_size=k), min_size=n, max_size=n))
    v = draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=k, max_size=k))
    e = [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    if ring.modulus:
        e = [[x % ring.modulus for x in row] for row in e]
    assume(any(any(row) for row in e))
    return (*_triple_with_error(e, ring), fraction_rank(e, ring.modulus))


@settings(max_examples=150, deadline=None)
@given(_low_rank_triple(), st.sampled_from(["u01", "bern:1/3", "usup:-1,0,2", "usup:1,2", "field"]))
def test_exact_fap_is_at_most_p_max_to_the_rank(triple, law):
    # Fix r outside the columns J of a nonsingular rank(E) x rank(E) minor:
    # E r = 0 leaves at most one r_J, of mass at most p_max^rank.  Under the
    # field law E r is uniform on E's column space, so P = p^-rank exactly.
    # When the m nonzero columns are independent only r = 0 on them
    # accepts, so P = (mass of 0)^m: 0 for a law without 0.
    a, b, c, rank = triple
    ring = a.ring
    if law == "field":
        assume(ring.modulus)
        dist = field_uniform(ring)
    else:
        dist = {
            "u01": U01, "bern:1/3": bernoulli(Fraction(1, 3)), "usup:-1,0,2": uniform_support((-1, 0, 2)),
            "usup:1,2": uniform_support((1, 2)),
        }[law]
        if ring.modulus:
            assume(all(0 <= x < ring.modulus for x in dist.support))
    fap = exact_false_accept_probability(a, b, c, dist)
    profile = difference_profile(a, b, c)
    assert profile.difference_rank == rank
    assert fap <= p_max(dist) ** rank
    if law == "field":
        assert fap == Fraction(1, ring.modulus ** rank)
    if rank == profile.y_size:
        assert fap == dict(zip(dist.support, dist.probs)).get(0, 0) ** rank
    if len(dist) ** a.rows <= 1024:
        assert fap == brute_fap(a, b, c, dist.support, dist.probs)


def test_exact_rank_makes_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(analysis_mod, "Fraction", refuse)
    rng = random.Random(8)
    for ring in (INT64, ZP61):
        a, b, c = random_unequal_triple(rng, 12, ring, bound=1 << 20)
        assert difference_profile(a, b, c).difference_rank >= 1
