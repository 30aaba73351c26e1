"""Fingerprint verification: correctness, witnesses and determinism."""

import importlib
import random
import time
from fractions import Fraction

import pytest

from freicheck import (
    ConfigInvalid,
    DimensionMismatch,
    IntegerOverflow,
    Matrix,
    RingMismatch,
    RingSpec,
    Vector,
    Verdict,
    VerifyConfig,
    bernoulli,
    field_uniform,
    freivalds_iteration,
    matmul,
    p_max,
    reset_scalar_multiplies,
    sample_vector,
    scalar_multiplies,
    substream,
    uniform_binary,
    uniform_support,
    verify,
)
from util import brute_matmul, brute_mat_vec, random_matrix, random_unequal_triple

verify_mod = importlib.import_module("freicheck.verify")

INT64 = RingSpec.int64()
ZP5 = RingSpec.prime_field(5)
U01 = uniform_binary()


def _cfg(k=20, seed=0, dist=U01):
    return VerifyConfig(k, seed, dist)


# ---------------------------------------------------------------- fixed behaviour


def test_accept_carries_the_compound_bound():
    a = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    b = Matrix.from_rows([[5, 6], [7, 8]], INT64)
    c = matmul(a, b)
    verdict = verify(a, b, c, _cfg(k=20))
    assert verdict.accepted
    assert verdict.error_bound == Fraction(1, 2) ** 20
    assert verdict.error_bound == Fraction(1, 1048576)
    assert verdict.witness is None
    assert verdict.witness_iteration is None
    assert verdict.mismatch_row is None


def test_reject_reports_first_iteration_and_smallest_row():
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randint(2, 6)
        ring = ZP5 if trial % 2 else INT64
        a, b, c = random_unequal_triple(rng, n, ring)
        verdict = verify(a, b, c, _cfg(k=40, seed=trial))
        if verdict.accepted:
            continue  # possible but rare at k=40; nothing to check here
        assert verdict.error_bound is None
        j = verdict.witness_iteration
        # replay: iterations before j accepted, iteration j produced exactly
        # this witness vector
        for earlier in range(j):
            r = sample_vector(U01, n, substream(trial, earlier), ring)
            ok, _ = freivalds_iteration(a, b, c, r)
            assert ok
        r = sample_vector(U01, n, substream(trial, j), ring)
        assert r == verdict.witness
        # the witness really separates: A(Br) != Cr, first difference at the
        # reported row (checked against plain integer arithmetic)
        m = ring.modulus
        br = brute_mat_vec(b.data.tolist(), r.data.tolist(), m)
        abr = brute_mat_vec(a.data.tolist(), br, m)
        cr = brute_mat_vec(c.data.tolist(), r.data.tolist(), m)
        mismatches = [i for i in range(n) if abr[i] != cr[i]]
        assert mismatches
        assert verdict.mismatch_row == mismatches[0]


def test_handpicked_iteration_outcomes():
    # E = AB - C is nonzero only in column 1, so the fingerprint sees the
    # error exactly when r_1 = 1.
    a = Matrix.from_rows([[1, 0], [0, 1]], INT64)
    b = Matrix.from_rows([[2, 3], [4, 5]], INT64)
    c = Matrix.from_rows([[2, 4], [4, 5]], INT64)
    ok, row = freivalds_iteration(a, b, c, Vector(INT64, [1, 0]))
    assert ok and row is None
    ok, row = freivalds_iteration(a, b, c, Vector(INT64, [0, 1]))
    assert not ok and row == 0
    ok, row = freivalds_iteration(a, b, c, Vector(INT64, [1, 1]))
    assert not ok and row == 0


def test_one_sided_error_over_many_seeds():
    rng = random.Random(9)
    for trial in range(60):
        n = rng.randint(1, 7)
        ring = ZP5 if trial % 2 else INT64
        a = random_matrix(rng, n, ring)
        b = random_matrix(rng, n, ring)
        c = matmul(a, b)
        verdict = verify(a, b, c, _cfg(k=4, seed=trial))
        assert verdict.accepted


def test_verdict_is_deterministic():
    rng = random.Random(17)
    a, b, c = random_unequal_triple(rng, 5, INT64)
    first = verify(a, b, c, _cfg(k=8, seed=3))
    second = verify(a, b, c, _cfg(k=8, seed=3))
    assert first == second


def test_prefix_consistency_across_iteration_counts():
    # Iteration j only depends on (seed, j), so lowering k cannot change
    # what the shared prefix of iterations sees.
    rng = random.Random(23)
    a, b, c = random_unequal_triple(rng, 4, INT64)
    full = verify(a, b, c, _cfg(k=10, seed=11))
    assert not full.accepted
    j = full.witness_iteration
    again = verify(a, b, c, _cfg(k=j + 1, seed=11))
    assert again.witness_iteration == j
    assert again.witness == full.witness
    assert again.mismatch_row == full.mismatch_row
    if j > 0:
        trimmed = verify(a, b, c, _cfg(k=j, seed=11))
        assert trimmed.accepted  # the failing iteration was cut off


def test_distribution_changes_the_bound():
    a = Matrix.from_rows([[1, 0], [0, 1]], INT64)
    b = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    c = matmul(a, b)
    skew = bernoulli(Fraction(1, 10))
    verdict = verify(a, b, c, _cfg(k=3, dist=skew))
    assert verdict.error_bound == Fraction(9, 10) ** 3


# ---------------------------------------------------------------- config and input errors


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        VerifyConfig(0, 0, U01)
    with pytest.raises(ConfigInvalid):
        VerifyConfig(-3, 0, U01)


def test_square_inputs_required():
    sq = Matrix.from_rows([[1, 2], [3, 4]], INT64)
    rect = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], INT64)
    with pytest.raises(DimensionMismatch):
        verify(rect, sq, sq, _cfg())
    with pytest.raises(DimensionMismatch):
        verify(sq, sq, Matrix.from_rows([[1]], INT64), _cfg())


def test_ring_agreement_required():
    a = Matrix.from_rows([[1, 0], [0, 1]], INT64)
    z = Matrix.from_rows([[1, 0], [0, 1]], ZP5)
    with pytest.raises(RingMismatch):
        verify(a, a, z, _cfg())
    with pytest.raises(RingMismatch):
        freivalds_iteration(a, a, a, Vector(ZP5, [1, 0]))
    with pytest.raises(DimensionMismatch):
        freivalds_iteration(a, a, a, Vector(INT64, [1, 0, 1]))


def test_distribution_must_fit_ring():
    z = Matrix.from_rows([[1, 0], [0, 1]], ZP5)
    bad = VerifyConfig(2, 0, bernoulli(Fraction(1, 2)))
    # {0, 1} is fine in Z_5 ...
    assert verify(z, z, matmul(z, z), bad).accepted
    from freicheck import uniform_support, ConfigInvalid as CI

    worse = VerifyConfig(2, 0, uniform_support((0, 9)))
    with pytest.raises(CI):
        verify(z, z, matmul(z, z), worse)


def test_iteration_never_forms_the_product():
    # Cost signature: one iteration performs exactly three n^2 blocks of
    # scalar multiplies, not the n^3 a recompute would need.
    rng = random.Random(31)
    n = 16
    a = random_matrix(rng, n, INT64)
    b = random_matrix(rng, n, INT64)
    c = matmul(a, b)
    r = sample_vector(U01, n, substream(0, 0))
    reset_scalar_multiplies()
    freivalds_iteration(a, b, c, r)
    assert scalar_multiplies() == 3 * n * n


# ---------------------------------------------------------------- batched iterations


def _reference_verdict(a, b, c, cfg):
    """The one-iteration-at-a-time loop that batched ``verify`` reproduces."""
    for j in range(cfg.iterations):
        r = sample_vector(cfg.distribution, a.rows, substream(cfg.seed, j), a.ring)
        ok, row = freivalds_iteration(a, b, c, r)
        if not ok:
            return Verdict(False, witness=r, witness_iteration=j, mismatch_row=row)
    return Verdict(True, error_bound=p_max(cfg.distribution) ** cfg.iterations)


def _single_column_triple(rng, n, ring):
    """(A, B, C) with AB - C nonzero in one column only, so most vectors of
    a skewed distribution miss the error and the witness comes late.  The
    column differs in a random set of rows, so the smallest one varies."""
    a = random_matrix(rng, n, ring)
    b = random_matrix(rng, n, ring)
    d = brute_matmul(a.data.tolist(), b.data.tolist(), ring.modulus)
    j = rng.randrange(n)
    for i in rng.sample(range(n), rng.randint(1, n)):
        d[i][j] = (d[i][j] + 1) % ring.modulus if ring.modulus else d[i][j] + 1
    return a, b, Matrix(n, n, ring, d)


def _block_end(j, k, width):
    """End of the verify block that holds iteration j >= 1."""
    return min(k, 1 + width * ((j - 1) // width + 1))


@pytest.mark.parametrize("width", [None, 3])
def test_verify_equals_the_sequential_loop(monkeypatch, width):
    n = 6
    if width is not None:
        monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", width * n)
    zp7 = RingSpec.prime_field(7)
    rng = random.Random(41)
    inside_block = 0
    rows_seen = set()
    for ring, dists in (
        (INT64, [U01, bernoulli(Fraction(1, 10)), uniform_support((-2, 0, 3))]),
        (zp7, [U01, bernoulli(Fraction(1, 10)), uniform_support((0, 2, 5)), field_uniform(zp7)]),
    ):
        for dist in dists:
            a, b, c = _single_column_triple(rng, n, ring)
            for k in (1, 2, 7, 33):
                for seed in range(4):
                    cfg = _cfg(k=k, seed=seed, dist=dist)
                    got = verify(a, b, c, cfg)
                    assert got == _reference_verdict(a, b, c, cfg)
                    assert verify(a, b, matmul(a, b), cfg).accepted
                    j = got.witness_iteration
                    if j is not None:
                        rows_seen.add(got.mismatch_row)
                    if width is not None and j is not None and j > 1 and (j - 1) % width:
                        inside_block += 1
    assert len(rows_seen) > 1
    if width is not None:
        # Some witnesses sat behind an accepting column of their own block.
        assert inside_block > 0


@pytest.mark.parametrize("width", [None, 4])
def test_multiply_counter_under_batching(monkeypatch, width):
    # An accept counts 3kn^2.  A reject counts 3n^2 per iteration actually
    # computed: 3n^2 when iteration 0 fails, else 3n^2 times the end of the
    # block holding the failing iteration.
    n, k = 8, 11
    if width is not None:
        monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", width * n)
    block = width if width is not None else k
    rng = random.Random(77)
    a = random_matrix(rng, n, INT64)
    b = random_matrix(rng, n, INT64)
    c = matmul(a, b)
    reset_scalar_multiplies()
    assert verify(a, b, c, _cfg(k=k, seed=1)).accepted
    assert scalar_multiplies() == 3 * k * n * n

    seen = set()
    a, b, c = _single_column_triple(rng, n, INT64)
    for seed in range(200):
        reset_scalar_multiplies()
        verdict = verify(a, b, c, _cfg(k=k, seed=seed, dist=bernoulli(Fraction(1, 4))))
        j = verdict.witness_iteration
        if j is None:
            assert scalar_multiplies() == 3 * k * n * n
            continue
        end = 1 if j == 0 else _block_end(j, k, block)
        assert scalar_multiplies() == 3 * n * n * end
        seen.add(end)
    assert 1 in seen and len(seen) >= (3 if width is not None else 2)


def test_trials_are_drawn_only_when_reached():
    # k is a CLI flag: a huge k must not build a schedule or draw vectors
    # past the first reject.  With one nonzero entry of E at column j and
    # r_j in {1, 2}, iteration 0 always rejects.
    n = 4
    a = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], INT64)
    b = Matrix.from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]], INT64)
    c = Matrix.from_rows([[2, 0, 0, 0], [0, 3, 9, 0], [0, 0, 5, 0], [0, 0, 0, 7]], INT64)
    start = time.perf_counter()
    verdict = verify(a, b, c, _cfg(k=10**15, seed=4, dist=uniform_support((1, 2))))
    assert time.perf_counter() - start < 0.5
    assert (verdict.accepted, verdict.witness_iteration, verdict.mismatch_row) == (False, 0, 1)
    assert len(verdict.witness) == n


def test_overflow_in_a_later_column_does_not_hide_an_earlier_reject():
    # With A = I, B r = (2^62 r_0, 0) and C r = (2^62 r_0 + r_1, 0): an
    # iteration overflows when r_0 = 2 and rejects when r_1 != 0.  Whichever
    # comes first in a one-at-a-time loop must decide, even when both fall
    # in one block of verify.
    big = 1 << 62
    a = Matrix.from_rows([[1, 0], [0, 1]], INT64)
    b = Matrix.from_rows([[big, 0], [0, 0]], INT64)
    c = Matrix.from_rows([[big, 1], [0, 0]], INT64)
    dist = uniform_support((0, 1, 2))
    masked = 0
    for seed in range(60):
        cfg = _cfg(k=30, seed=seed, dist=dist)
        try:
            expected = _reference_verdict(a, b, c, cfg)
        except IntegerOverflow:
            with pytest.raises(IntegerOverflow):
                verify(a, b, c, cfg)
            continue
        assert verify(a, b, c, cfg) == expected
        j = expected.witness_iteration
        later = (sample_vector(dist, 2, substream(seed, t))[0] for t in range(j + 1, 30))
        masked += j >= 1 and 2 in later
    assert masked > 0
