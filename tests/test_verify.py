"""Fingerprint verification: correctness, witnesses and determinism."""

import importlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
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
    empirical_false_accept_rate,
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

matrix_mod = importlib.import_module("freicheck.matrix")
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
    """End of the verify block that holds iteration j >= 1: blocks start at
    multiples of the width."""
    return min(k, width * (j // width + 1))


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
                    if width is not None and j is not None and j % width:
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


@pytest.mark.parametrize("n", [1, 3, 8, 11, 12, 16, 40])
def test_trial_blocks_wider_than_tall_fit_one_float_block(monkeypatch, n):
    # Patched small, sqrt(_FLOAT_BLOCK) ~ 11.3 puts n = 11 and 12 on either
    # side of the crossover, and _BLOCK_ENTRIES // n < n from n = 33 on.  No
    # block may pass _BLOCK_ENTRIES entries, and one wider than it is tall
    # must fit one _FLOAT_BLOCK, which matrix streams against whole.
    monkeypatch.setattr(verify_mod, "_BLOCK_ENTRIES", 1 << 10)
    monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", 1 << 7)
    rng = random.Random(n)
    a, b = random_matrix(rng, n, INT64), random_matrix(rng, n, INT64)
    sizes = []
    engine = verify_mod._trials

    def spy(*args):
        for block in engine(*args):
            sizes.append(block[1].shape)
            yield block

    monkeypatch.setattr(verify_mod, "_trials", spy)
    k = 300
    assert verify(a, b, matmul(a, b), _cfg(k=k)).accepted
    assert sum(w for _, w in sizes) == k
    for rows, w in sizes:
        assert rows == n and n * w <= 1 << 10
        assert w <= n or n * w <= 1 << 7, (n, w)
    assert max(w for _, w in sizes) > 1


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


# ---------------------------------------------------------------- row blocks
#
# matrix streams every product in row blocks of _FLOAT_BLOCK // n rows, and
# verify stops reading a block once its first trial differs.  Patched to
# 48 entries, n = 12 spans three row blocks of 4 rows: rows 0-3, 4-7, 8-11.

_ROW_BLOCK_N, _ROW_BLOCK_ENTRIES = 12, 48
_ROW_STEP = _ROW_BLOCK_ENTRIES // _ROW_BLOCK_N


def _python_verdict(a, b, c, cfg):
    """The one-at-a-time loop in Python integers, sharing nothing with the
    product code but the sampler."""
    m = a.ring.modulus
    rows = [x.data.tolist() for x in (a, b, c)]
    for j in range(cfg.iterations):
        r = sample_vector(cfg.distribution, a.rows, substream(cfg.seed, j), a.ring)
        rl = r.data.tolist()
        abr = brute_mat_vec(rows[0], brute_mat_vec(rows[1], rl, m), m)
        cr = brute_mat_vec(rows[2], rl, m)
        differ = [i for i in range(a.rows) if abr[i] != cr[i]]
        if differ:
            return Verdict(False, witness=r, witness_iteration=j, mismatch_row=differ[0])
    return Verdict(True, error_bound=p_max(cfg.distribution) ** cfg.iterations)


def _with_error(a, b, ring, cells):
    """C = AB plus 1 at each (row, column) of ``cells``."""
    m = ring.modulus
    d = brute_matmul(a.data.tolist(), b.data.tolist(), m)
    for i, j in cells:
        d[i][j] = (d[i][j] + 1) % m if m else d[i][j] + 1
    return Matrix(len(d), len(d), ring, d)


def _error_cells(rng, n, kind, block):
    """Differing entries of a kind, in row block ``block`` of ``_ROW_STEP``
    rows where the kind has a place."""
    rows = range(block * _ROW_STEP, (block + 1) * _ROW_STEP)
    if kind == "dense":
        return [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.5] + [(0, 0)]
    if kind == "single-column":
        j = rng.randrange(n)
        return [(i, j) for i in rng.sample(rows, 2)] + [(n - 1, j)]
    if kind == "single-entry":
        return [(rng.choice(rows), rng.randrange(n))]
    # "scattered": a trial that sees only column j0 differs in this block,
    # one that sees j1 differs in row 0, so a block whose first trial
    # fails late may hold a later trial that fails early.
    j0, j1 = rng.sample(range(n), 2)
    return [(rng.choice(rows), j0), (0, j1)]


@pytest.mark.parametrize("ring", [INT64, RingSpec.prime_field(2**31 - 1)], ids=str)
def test_verify_across_row_blocks_equals_the_sequential_loop(monkeypatch, ring):
    # Trial blocks are n = 12 columns wide here, from trial 0 on, so k = 12
    # ends on a block edge and 13, 14, 26 and 30 cross one.  The laws make
    # late witnesses, so failing trials land first, inside and last in their
    # blocks.
    n = _ROW_BLOCK_N
    monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", _ROW_BLOCK_ENTRIES)
    rng = random.Random(2024)
    dists = [U01, bernoulli(Fraction(1, 8)), uniform_support((0, 1, 2))]
    seen = set()
    for kind in ("dense", "single-column", "single-entry", "scattered"):
        for block in range(n // _ROW_STEP):
            a, b = random_matrix(rng, n, ring), random_matrix(rng, n, ring)
            c = _with_error(a, b, ring, _error_cells(rng, n, kind, block))
            for dist in dists:
                for k in (1, 2, 12, 13, 14, 26, 30):
                    cfg = _cfg(k=k, seed=rng.randrange(1 << 30), dist=dist)
                    got = verify(a, b, c, cfg)
                    assert got == _python_verdict(a, b, c, cfg) == _reference_verdict(a, b, c, cfg)
                    if not got.accepted:
                        j = got.witness_iteration
                        first = j % n == 0
                        seen.add((got.mismatch_row // _ROW_STEP, first))
            # The empirical rate reads every row of the same blocks.
            law, seed = dists[1], rng.randrange(1 << 30)
            passing = sum(
                freivalds_iteration(a, b, c, sample_vector(law, n, substream(seed, t), ring))[0] for t in range(30)
            )
            assert empirical_false_accept_rate(a, b, c, law, 30, seed).empirical.rate == passing / 30
            r = Matrix(n, 5, ring, [[rng.randrange(3) for _ in range(5)] for _ in range(n)])
            abr = brute_matmul(a.data.tolist(), brute_matmul(b.data.tolist(), r.data.tolist(), ring.modulus), ring.modulus)
            cr = brute_matmul(c.data.tolist(), r.data.tolist(), ring.modulus)
            expected = [[abr[i][t] != cr[i][t] for t in range(5)] for i in range(n)]
            assert verify_mod.fingerprint_block(a, b, c, r).tolist() == expected
    # Witnesses fell in every row block, both as the first trial of a block
    # (read early) and behind a passing first trial (read in full).
    assert seen >= {(blk, first) for blk in range(3) for first in (True, False)}


def test_a_trial_0_reject_reads_a_and_c_up_to_its_row_block(monkeypatch):
    # Trial 0 is probed first: B r is formed whole (n^2) and row block 0 of
    # A(Br) and Cr read (2n per row), so a mismatch in row block 0 counts
    # n^2 + 2n e, e the block's end row.  Otherwise block 0 holds trials
    # 0..w-1, w = min(k, width), with trial 0's B r and row block 0 carried
    # from the probe.  Like any block whose first trial fails, it then
    # charges n^2 w for BR and 2nw per row of A and C read: w (n^2 + 2n e)
    # for a mismatch of trial 0 in the row block ending at row e.  Blocks
    # start at multiples of the width, so a block [s, s + w) costs 3n^2 s
    # before it, plus n^2 w + 2nwe when its first trial fails, or 3n^2 w
    # when a later trial does.  freivalds_iteration reads one column: always
    # n^2 + 2n e.
    n, k = _ROW_BLOCK_N, 30
    width = n  # min(2**20 // n, max(n, _ROW_BLOCK_ENTRIES // n))
    monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", _ROW_BLOCK_ENTRIES)
    rng = random.Random(8)
    a, b = random_matrix(rng, n, INT64), random_matrix(rng, n, INT64)
    for row in range(n):
        c = _with_error(a, b, INT64, [(row, rng.randrange(n))])
        end = (row // _ROW_STEP + 1) * _ROW_STEP
        w = 1 if row < _ROW_STEP else min(k, width)
        reset_scalar_multiplies()
        verdict = verify(a, b, c, _cfg(k=k, seed=row, dist=uniform_support((1, 2))))
        assert (verdict.witness_iteration, verdict.mismatch_row) == (0, row)
        assert scalar_multiplies() == w * (n * n + 2 * n * end)
        reset_scalar_multiplies()
        assert freivalds_iteration(a, b, c, verdict.witness) == (False, row)
        assert scalar_multiplies() == n * n + 2 * n * end

    kinds = set()
    j_col = 5
    for row in (1, 6, 10):
        c = _with_error(a, b, INT64, [(row, j_col)])
        end = (row // _ROW_STEP + 1) * _ROW_STEP
        for seed in range(200):
            cfg = _cfg(k=k, seed=seed, dist=bernoulli(Fraction(1, 8)))
            reset_scalar_multiplies()
            j = verify(a, b, c, cfg).witness_iteration
            if j is None:
                continue
            start = width * (j // width)
            w = 1 if j == 0 and row < _ROW_STEP else min(k, start + width) - start
            if j == start:
                expected = 3 * n * n * start + n * n * w + 2 * n * w * end
            else:
                expected = 3 * n * n * (start + w)
            assert scalar_multiplies() == expected, (row, seed, j)
            kinds.add((j == 0, j == start, w == 1))
    # Trial 0 failing in row block 0 and past it, later blocks' first
    # trials, and trials behind a passing first one, in block 0 and later.
    assert kinds == {(True, True, True), (True, True, False), (False, True, False), (False, False, False)}


@pytest.mark.parametrize("ring", [INT64, RingSpec.prime_field(2**31 - 1)], ids=str)
@pytest.mark.parametrize("n", [12, 16])
def test_an_accept_reads_every_row_once(monkeypatch, ring, n):
    # Patched, n = 12 spans three row blocks of 4 rows and n = 16 six of 3
    # (the last one row).  Block 0 is trials 0..width-1 with trial 0's B r
    # and row block 0 carried from the probe, so an accept counts exactly
    # 3kn^2 on either side of the block width.
    monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", _ROW_BLOCK_ENTRIES)
    width = n  # min(2**20 // n, max(n, _ROW_BLOCK_ENTRIES // n))
    rng = random.Random(n)
    a, b = random_matrix(rng, n, ring), random_matrix(rng, n, ring)
    c = matmul(a, b)
    dists = [U01, uniform_support((0, 1, 2))] + ([field_uniform(ring)] if ring.modulus else [])
    for k in (1, 2, width - 1, width, width + 1):
        for dist in dists:
            reset_scalar_multiplies()
            assert verify(a, b, c, _cfg(k=k, seed=k, dist=dist)).accepted
            assert scalar_multiplies() == 3 * k * n * n, (k, dist)


@pytest.mark.parametrize("ring", [INT64, RingSpec.prime_field(2**31 - 1)], ids=str)
def test_verify_at_full_size_row_blocks_equals_the_one_at_a_time_loop(ring):
    # Unpatched: n = 362 is one row block, so the probe is trial 0's whole
    # check and block 0 is trial 0 alone; n = 363 is two row blocks, 361
    # rows and 2, and n = 1024 eight of 128.  Errors sit
    # in the first, a middle and the last row block, so trial 0 passes the
    # probe and fails later, or fails in it.
    m = ring.modulus
    gen = np.random.default_rng(11)
    seen = set()
    for n in (362, 363, 1024):
        a, b = (Matrix(n, n, ring, gen.integers(0, m, (n, n)) if m else gen.integers(-9, 10, (n, n))) for _ in range(2))
        ab = matmul(a, b).data
        step = matrix_mod._FLOAT_BLOCK // n
        last = (n - 1) // step
        for block in sorted({0, last // 2, last}):
            rows = np.arange(block * step, min(n, (block + 1) * step))
            for kind in ("dense", "single-column", "single-entry"):
                e = np.zeros((n, n), dtype=np.int64)
                if kind == "dense":
                    e[rows] = gen.integers(0, 2, (len(rows), n))
                elif kind == "single-column":
                    e[gen.choice(rows, 2, replace=False), gen.integers(n)] = 1
                else:
                    e[gen.choice(rows), gen.integers(n)] = 1
                c = Matrix(n, n, ring, (ab.data + e) % m if m else ab.data + e)
                for dist in (U01, bernoulli(Fraction(1, 8))):
                    for k in (1, 2, 10, 20):
                        cfg = _cfg(k=k, seed=int(gen.integers(1 << 30)), dist=dist)
                        got = verify(a, b, c, cfg)
                        assert got == _reference_verdict(a, b, c, cfg), (n, block, kind, k)
                        if not got.accepted:
                            seen.add((n, got.mismatch_row // step, got.witness_iteration == 0))
    # Witnesses in every row block tried, from trial 0 and from later trials.
    sizes = ((362, (0,)), (363, (0, 1)), (1024, (0, 3, 7)))
    assert seen >= {(n, blk, first) for n, blks in sizes for blk in blks for first in (True, False)}


@pytest.mark.parametrize("ring", [INT64, RingSpec.prime_field(2**31 - 1)], ids=str)
@pytest.mark.parametrize("n, float_block", [(1, None), (64, None), (362, None), (363, None), (12, _ROW_BLOCK_ENTRIES)])
def test_block_0_carries_trial_0_only_when_its_probe_stopped_early(monkeypatch, ring, n, float_block):
    # Block 0 carries the rows the probe left unread.  Up to n = 362 A is
    # one row block, so the probe reads all of trial 0 and nothing is
    # carried; n = 363 is row blocks of 361 rows and 2, and patched, n = 12
    # is three of 4 rows.  There an accept with k >= 2 carries trial 0 once,
    # and a reject does unless trial 0 failed in the probe.
    if float_block is not None:
        monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", float_block)
    step = matrix_mod._FLOAT_BLOCK // n
    carries = step < n
    calls, real = [], verify_mod._carried_rows

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(verify_mod, "_carried_rows", spy)
    m = ring.modulus
    gen = np.random.default_rng(n)
    a, b = (Matrix(n, n, ring, gen.integers(0, m, (n, n)) if m else gen.integers(-9, 10, (n, n))) for _ in range(2))
    ab = matmul(a, b)
    dist = bernoulli(Fraction(1, 8))
    for k in (1, 2, 20):
        cfg = _cfg(k=k, seed=k, dist=dist)
        calls.clear()
        reset_scalar_multiplies()
        got = verify(a, b, ab, cfg)
        assert got.accepted and scalar_multiplies() == 3 * k * n * n
        assert len(calls) == (carries and k > 1)
        reset_scalar_multiplies()
        assert got == _reference_verdict(a, b, ab, cfg)
        assert scalar_multiplies() == 3 * k * n * n
    seen = set()
    for i, j in {(0, n - 1), (n - 1, 0), (n // 2, n // 3)}:
        e = np.zeros((n, n), dtype=np.int64)
        e[i, j] = 1
        c = Matrix(n, n, ring, (ab.data + e) % m if m else ab.data + e)
        for k, law, seed in itertools.product((1, 2, 20), (U01, dist), range(3)):
            cfg = _cfg(k=k, seed=seed, dist=law)
            calls.clear()
            got = verify(a, b, c, cfg)
            assert got == _reference_verdict(a, b, c, cfg), (i, j, cfg)
            if n <= 12:
                assert got == _python_verdict(a, b, c, cfg)
            probe_failed = got.witness_iteration == 0 and got.mismatch_row < step
            assert len(calls) == (carries and k > 1 and not probe_failed)
            seen.add((got.accepted, probe_failed))
    # Rejects from the probe and from later trials, and accepts.
    assert seen == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("float_block", [16, None])
def test_an_overflow_past_the_probe_lets_trial_0_finish_first(monkeypatch, float_block):
    # A = I but A[7][0] = 2^62, B = I, and C = A plus 1 at (5, col): trial t
    # overflows in row 7 (the term 2^62 r_0) exactly when its r_0 is 2, and
    # differs in row 5 when its r_col is not 0.  Patched to 16 entries, row
    # 5 is in row block 2 of four blocks of 2 rows, and block 0 holds trials
    # 0..7: when trial 0 passes the probe, block 0's set-up raises if one of
    # its later trials overflows, and trial 0's own rows are then read
    # before trials 1.. run one at a time.  Unpatched, A is one row block,
    # so the probe is all of trial 0 and block 1, trials 1..9, raises on
    # set-up.  Either way, as in the one-at-a-time loop, trial 0 failing in
    # row 5 wins over the later overflow, and otherwise the first
    # overflowing trial raises the error a whole-product check raises.
    n, k = 8, 10
    if float_block is not None:
        monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", float_block)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a_rows = [row[:] for row in eye]
    a_rows[n - 1][0] = 1 << 62
    a, b = Matrix.from_rows(a_rows, INT64), Matrix.from_rows(eye, INT64)
    dist = uniform_support((0, 1, 2))
    message = "product term at entry (7, 0) leaves the 64-bit range"
    outcomes = set()
    for col in range(1, n):
        c_rows = [row[:] for row in a_rows]
        c_rows[5][col] += 1
        c = Matrix.from_rows(c_rows, INT64)
        for seed in range(30):
            cfg = _cfg(k=k, seed=seed, dist=dist)
            firsts = [sample_vector(dist, n, substream(seed, t))[0] for t in range(n)]
            if firsts[0] == 2 or 2 not in firsts[1:]:
                continue  # trial 0 overflows itself, or none of trials 1..7 does
            got, expected = [], []
            for call, out in ((verify, got), (_reference_verdict, expected)):
                try:
                    out.append(call(a, b, c, cfg))
                except IntegerOverflow as err:
                    out.append(str(err))
            assert got == expected, (col, seed)
            if got[0] == message:
                outcomes.add("overflow")
            elif (got[0].witness_iteration, got[0].mismatch_row) == (0, 5):
                outcomes.add("trial 0")
    assert outcomes == {"overflow", "trial 0"}


def test_overflow_in_the_last_row_block_wins_over_a_mismatch_in_the_first(monkeypatch):
    # A(Br) leaves int64 in row 7 (2^62 r_0, r_0 in {2, 3}) while row 0
    # differs from Cr.  The check covers all of A before any row is
    # compared, so the error is the one a whole-product check raises.
    n = 8
    monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", 16)  # 4 blocks of 2 rows
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a_rows = [row[:] for row in eye]
    a_rows[n - 1][0] = 1 << 62
    c_rows = [row[:] for row in a_rows]
    c_rows[0][0] = 2
    a, b, c = (Matrix.from_rows(m, INT64) for m in (a_rows, eye, c_rows))
    message = "product term at entry (7, 0) leaves the 64-bit range"
    for call in (
        lambda: verify(a, b, c, _cfg(k=5, dist=uniform_support((2, 3)))),
        lambda: freivalds_iteration(a, b, c, Vector(INT64, [2] * n)),
        lambda: verify_mod.fingerprint_block(a, b, c, Matrix(n, 2, INT64, [[2, 3]] * n)),
    ):
        with pytest.raises(IntegerOverflow) as err:
            call()
        assert str(err.value) == message


# Seeded products and verdicts of every float64 BLAS tier, pickled to
# stdout, each with the tiers it ran.
_BLAS_THREADS_CHILD = """
import importlib
import pickle
import sys

import numpy as np

from freicheck import Matrix, RingSpec, VerifyConfig, matmul, uniform_binary, verify

matrix_mod = importlib.import_module("freicheck.matrix")
verify_mod = importlib.import_module("freicheck.verify")
tiers = []


def spy(mod, name, tier):
    real = getattr(mod, name)

    def call(*args, **kwargs):
        tiers.append(tier)
        return real(*args, **kwargs)

    setattr(mod, name, call)


spy(matrix_mod, "_float_product", "float64")
spy(matrix_mod, "_limb_product", "limbs")
spy(matrix_mod, "_check_int64", "check")
spy(verify_mod, "_parts_differ", "parts")
int64, rng, out = RingSpec.int64(), np.random.default_rng(26), {}


def run(name, call):
    tiers.clear()
    out[name] = call(), tuple(dict.fromkeys(tiers))


def product(x, y):
    return matmul(x, y).data.tobytes()


def verdict(a, b, c, seed):
    v = verify(a, b, c, VerifyConfig(20, seed, uniform_binary()))
    witness = None if v.witness is None else v.witness.data.tobytes()
    return v.accepted, v.error_bound, witness, v.witness_iteration, v.mismatch_row


x, y = (Matrix(256, 256, int64, rng.integers(-(2**22), 2**22, size=(256, 256), endpoint=True)) for _ in range(2))
run("float", lambda: product(x, y))
zp = RingSpec.prime_field(2**61 - 1)
x, y = (Matrix(128, 128, zp, rng.integers(0, 2**61 - 1, size=(128, 128))) for _ in range(2))
run("limbs", lambda: product(x, y))
xa, ya = (rng.integers(-(2**20), 2**20, size=(8, 8), endpoint=True) for _ in range(2))
xa[5, 7], ya[3, 0] = 2**50, -(2**20)
ya[7] = rng.integers(-4, 4, size=8, endpoint=True)
run("check", lambda: product(Matrix(8, 8, int64, xa), Matrix(8, 8, int64, ya)))
a_arr, b_arr = (rng.integers(-(2**24), 2**24, size=(64, 64), endpoint=True) for _ in range(2))
c_arr = np.einsum("ik,kj->ij", a_arr, b_arr)
a, b, c = (Matrix(64, 64, int64, m) for m in (a_arr, b_arr, c_arr))
run("accept", lambda: verdict(a, b, c, 0))
c_arr[40, 17] += 1
run("reject", lambda: verdict(a, b, Matrix(64, 64, int64, c_arr), 2))
sys.stdout.buffer.write(pickle.dumps(out))
"""


def test_results_are_byte_identical_on_one_and_two_blas_threads():
    # Every float64 BLAS product is an exact integer in any summation order,
    # so the thread count a process starts BLAS with changes no product,
    # verdict or witness: the float64 tier (bound 2^52), the limb tier over
    # zp 2^61 - 1, an int64 product past 2^63 - 1 whose certificate clears
    # it, and verify's two-part compare, which a reject past trial 0 reaches.
    src = str(Path(verify_mod.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_CHILD], env=env, capture_output=True, timeout=120, check=True
        )
        runs[threads] = pickle.loads(child.stdout)
    assert runs["1"] == runs["2"]
    got = runs["1"]
    assert {name: tiers for name, (_, tiers) in got.items()} == {
        "float": ("float64",),
        "limbs": ("limbs", "float64"),
        "check": ("check", "float64"),
        "accept": ("parts",),
        "reject": ("parts",),
    }
    accepted, *_ = got["accept"][0]
    rejected, _, witness, iteration, row = got["reject"][0]
    assert accepted and not rejected and witness is not None
    assert iteration > 0 and row == 40


@pytest.mark.parametrize("mode", ["equal", "dense-random"])
def test_one_verify_scans_each_operand_at_most_once(monkeypatch, mode):
    # The plan reads max|A|, max|B| and max|C| once, when verify starts, and
    # bounds every trial block by the law's largest |support value|.  So a
    # fresh n = 64 instance is scanned once per operand and nothing more:
    # with entries to 2^24 the trial block is compared in two parts, which
    # need no max|BR|, and trial 0's single column stays below 2^63 - 1.
    n = 64
    rng = np.random.default_rng(12)
    a_arr, b_arr = (rng.integers(-(2**24), 2**24, size=(n, n), endpoint=True) for _ in range(2))
    c_arr = np.einsum("ik,kj->ij", a_arr, b_arr)
    if mode == "dense-random":
        c_arr = c_arr + rng.integers(-3, 3, size=(n, n), endpoint=True)
    a, b, c = (Matrix(n, n, INT64, m) for m in (a_arr, b_arr, c_arr))
    scans, real = [], matrix_mod._max_abs

    def spy(v):
        scans.append(v)
        return real(v)

    monkeypatch.setattr(matrix_mod, "_max_abs", spy)
    monkeypatch.setattr(verify_mod, "_max_abs", spy)
    verdict = verify(a, b, c, _cfg(k=20, seed=5))
    assert verdict.accepted == (mode == "equal")
    for m in (a, b, c):
        assert sum(np.shares_memory(v, m.data) for v in scans) == 1
    others = [v.shape for v in scans if not any(np.shares_memory(v, m.data) for m in (a, b, c))]
    assert others == []
    # A second verify of the same matrices reads their kept bounds.
    scans.clear()
    assert verify(a, b, c, _cfg(k=20, seed=5)) == verdict
    assert all(not np.shares_memory(v, m.data) for v in scans for m in (a, b, c))


def test_an_overflowing_block_reruns_its_trials_from_its_br(monkeypatch):
    # A = I but A[7][0] = 2^62, B = C = I: trial t overflows in A(B r_t),
    # row 7, exactly when its r_0 is 2, while B R never overflows.  The
    # block of trials 1..9 forms BR, its A(BR) set-up overflows, and its
    # trials then run one at a time from BR's columns: B is multiplied once
    # for the probe and once for the block, and each trial run on its own
    # before the overflowing one reads n^2 multiplies of A and n^2 of C.
    n, k = 8, 10
    a_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    a_rows[n - 1][0] = 1 << 62
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a, b, c = Matrix.from_rows(a_rows, INT64), Matrix.from_rows(eye, INT64), Matrix.from_rows(a_rows, INT64)
    dist = uniform_support((0, 1, 2))
    widths, real = [], verify_mod._Plan.br

    def spy(plan, r):
        widths.append(r.shape[1])
        return real(plan, r)

    monkeypatch.setattr(verify_mod._Plan, "br", spy)
    seen = set()
    for seed in range(40):
        firsts = [sample_vector(dist, n, substream(seed, t))[0] for t in range(k)]
        if firsts[0] == 2 or 2 not in firsts:
            continue
        f = firsts.index(2)
        widths.clear()
        reset_scalar_multiplies()
        with pytest.raises(IntegerOverflow, match=r"^product term at entry \(7, 0\) leaves the 64-bit range$"):
            verify(a, b, c, _cfg(k=k, seed=seed, dist=dist))
        assert widths == [1, k - 1]
        assert scalar_multiplies() == 3 * n * n + (k - 1) * n * n + 2 * n * n * (f - 1)
        seen.add(f)
    assert len(seen) >= 2


# ---------------------------------------------------------------- two-part tier


def _count_calls(monkeypatch, module, name):
    """A list that gets one entry per call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _at_bounds(rng, shape, bound):
    return bound * rng.choice(np.array([-1, 1], dtype=np.int64), size=shape)


def _inequality_case(which, past, seed):
    """(A, B, C, R) at n = 8, w = 3 whose plan meets one of
    ``matrix._part_width``'s inequalities as nearly as integers allow at s
    = 10, or passes it by one unit, and then fails the other at s = 9 too.
    "low": max|B| at n (2^10 - 1)(n max|B| rho + rho) <= 2^53, one past
    it in B.  "high": max|C| at n (ceil(max|A| / 2^10) n max|B| rho +
    ceil(max|C| / 2^10) rho) <= 2^53, one past it in C[n - 1, 0].  Row 0
    of A and column 0 of B are at their bounds, so max|AB| is max|A| n
    max|B|."""
    n, w, s = 8, 3, 10
    rng = np.random.default_rng(seed)
    mb = (2**53 // (n * (2**s - 1)) - 1) // n
    ma, mc = 2**18, None
    if which == "low":
        mb += past
    else:
        ma = 2**s * (2**53 // (16 * n * mb))
        mc = 2**s * (2**53 // n - -(-ma // 2**s) * n * mb) + past
    a, b = _at_bounds(rng, (n, n), ma), _at_bounds(rng, (n, n), mb)
    a[0], b[:, 0] = ma, mb
    c = np.einsum("ik,kj->ij", a, b)
    if mc is not None:
        c[n - 1, 0] = mc
    r = rng.integers(-1, 1, (n, w), endpoint=True)
    r[0, 0] = 1
    return a, b, c, r


@pytest.mark.parametrize("which", ["low", "high"])
def test_the_two_part_tier_at_its_inequalities(monkeypatch, which):
    # At each inequality the block is compared in two parts; one unit past
    # it no s is exact and the product tiers run.  The mask is the one Python
    # integers give either way.  The size limits are lifted for these 8 x 3
    # blocks.
    monkeypatch.setattr(verify_mod, "_PARTS_COLS", 2)
    monkeypatch.setattr(verify_mod, "_PARTS_MACS", 0)
    differ = _count_calls(monkeypatch, verify_mod, "_parts_differ")
    for past in (0, 1):
        for seed in range(4):
            arrays = _inequality_case(which, past, seed)
            a, b, c, r = (Matrix(len(x), len(x[0]), INT64, x) for x in arrays)
            plan = verify_mod._Plan(a, b, c, int(np.abs(arrays[3]).max()))
            assert plan.mbr <= 2**53 < a.rows * c._magnitude() * plan.rho <= matrix_mod.INT64_MAX
            assert plan.abr <= matrix_mod.INT64_MAX
            assert plan.parts() == (None if past else 10)
            differ.clear()
            mask = verify_mod.fingerprint_block(a, b, c, r)
            assert len(differ) == (0 if past else 1)
            abr = brute_matmul(a.data.tolist(), brute_matmul(b.data.tolist(), r.data.tolist()))
            cr = brute_matmul(c.data.tolist(), r.data.tolist())
            assert mask.tolist() == [[x != y for x, y in zip(u, v)] for u, v in zip(abr, cr)]


def _entries_2_24(n, seed, error=None):
    """A and B with entries to 2^24 at size n and C = AB, plus 1 in each
    (row, column) of ``error``."""
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(-(2**24), 2**24, (n, n), endpoint=True) for _ in range(2))
    c = np.einsum("ik,kj->ij", a, b)
    for i, j in error or ():
        c[i, j] += 1
    return tuple(Matrix(n, n, INT64, m) for m in (a, b, c))


@pytest.mark.parametrize("accept", [True, False], ids=["accept", "trial-block reject"])
def test_wide_int64_blocks_past_2_53_form_no_product(monkeypatch, accept):
    # n = 64, k = 20, entries to 2^24: A(BR) and CR pass 2^53 (n max|C| rho
    # about 2^58).  Trials 1..19 are compared in two parts: no int64
    # einsum of more than one column, no recombination, and no scan but
    # the one of each operand.  The reject's single differing column is
    # missed by trial 0 and caught in the trial block.
    n = 64
    a, b, c = _entries_2_24(n, 3, None if accept else [(i, 9) for i in (5, 40)])
    seed = 0
    if not accept:
        while verify(a, b, c, _cfg(k=20, seed=seed)).witness_iteration in (None, 0):
            seed += 1
    a, b, c = (Matrix(n, n, INT64, m.data) for m in (a, b, c))  # no kept bounds
    einsums = _count_calls(monkeypatch, matrix_mod, "_einsum_product")
    recombines = _count_calls(monkeypatch, matrix_mod, "_recombine")
    differ = _count_calls(monkeypatch, verify_mod, "_parts_differ")
    scans = _count_calls(monkeypatch, matrix_mod, "_max_abs")
    monkeypatch.setattr(verify_mod, "_max_abs", matrix_mod._max_abs)
    cfg = _cfg(k=20, seed=seed)
    reset_scalar_multiplies()
    got = verify(a, b, c, cfg)
    count = scalar_multiplies()
    assert len(differ) == 1
    assert [y.shape[1] for y, *_ in einsums] == [1, 1, 1]  # the probe's B r, A(B r) and C r
    assert recombines == []
    scanned = [v for v, in scans]
    assert len(scanned) == 3 and all(any(np.shares_memory(v, m.data) for m in (a, b, c)) for v in scanned)
    assert got == _reference_verdict(a, b, c, cfg)
    assert got.accepted == accept and (accept or got.witness_iteration >= 1)
    if accept:
        assert count == 3 * 20 * n * n


@pytest.mark.parametrize(
    "case",
    ["zp 2^61-1", "zp 2^31-1", "zp 2^26-5", "one column", "n = 1", "small", "narrow", "large", "cli-files", "verify-large",
     "within 2^53"],
)
def test_the_two_part_tier_is_left_to_other_blocks(monkeypatch, case):
    # Z_p (at p = 2^26 - 5 the int64 bounds would allow two parts, but they
    # would compare A(BR) with CR unreduced), single columns, n = 1, blocks
    # of fewer than _PARTS_MACS
    # multiply-adds per product (n = 8, k = 5), fewer than _PARTS_COLS
    # columns (n = 128, k = 5) or more than matrix._EINSUM_MACS (n = 128, k
    # = 20), all with entries to 2^24, and bounds that
    # stay within 2^53 (the shapes of perfbench's cli-files, n = 256, and
    # verify-large, n = 1024, both int64 with entries in [-256, 256]) keep
    # the product tiers.
    differ = _count_calls(monkeypatch, verify_mod, "_parts_differ")
    decided = []
    real = verify_mod._Plan.parts

    def parts(plan):
        decided.append(real(plan))
        return decided[-1]

    monkeypatch.setattr(verify_mod._Plan, "parts", parts)
    rng = np.random.default_rng(7)
    cfg = _cfg(k=20, seed=4)
    if case.startswith("zp"):
        p = {"zp 2^61-1": 2**61 - 1, "zp 2^31-1": 2**31 - 1, "zp 2^26-5": 2**26 - 5}[case]
        ring, n = RingSpec.prime_field(p), 64
        a, b = (Matrix(n, n, ring, rng.integers(0, p, (n, n))) for _ in range(2))
        if p < 2**31:
            assert matrix_mod._part_width(n, p - 1, p - 1, p - 1, 1) is not None
        assert verify(a, b, matmul(a, b), cfg).accepted
    elif case in ("one column", "n = 1"):
        n = 64 if case == "one column" else 1
        a, b, c = _entries_2_24(n, 5, [(n - 1, 0)])
        r = Matrix(n, 1, INT64, rng.integers(1, 3, (n, 1)))
        assert freivalds_iteration(a, b, c, Vector(INT64, r.data[:, 0])) == (False, n - 1)
        assert verify_mod.fingerprint_block(a, b, c, r).tolist() == [[i == n - 1] for i in range(n)]
        if n == 1:
            assert not verify(a, b, c, cfg).accepted
            r2 = Matrix(1, 3, INT64, [[1, 2, 3]])
            assert verify_mod.fingerprint_block(a, b, c, r2).tolist() == [[True] * 3]
            # A block of 69,999 trials passes the size limits; an inner
            # dimension of 1 still keeps the product tiers.
            a, b = Matrix(1, 1, INT64, [[2**27 + 1]]), Matrix(1, 1, INT64, [[-(2**27) - 3]])
            assert verify(a, b, matmul(a, b), _cfg(k=70_000)).accepted
    elif case in ("small", "narrow", "large"):
        n = 8 if case == "small" else 128
        a_arr, b_arr = (m.data.copy() for m in _entries_2_24(n, 6)[:2])
        a_arr[0], b_arr[:, 0] = 2**24, 2**24  # (AB)[0, 0] = n 2^48
        a, b = Matrix(n, n, INT64, a_arr), Matrix(n, n, INT64, b_arr)
        c = matmul(a, b)
        assert n * c._magnitude() > 2**53
        assert verify(a, b, c, _cfg(k=20 if case == "large" else 5, seed=4)).accepted
    else:
        n, bound = {"cli-files": (256, 256), "verify-large": (1024, 256), "within 2^53": (64, 2**19)}[case]
        a, b = (Matrix(n, n, INT64, rng.integers(-bound, bound, (n, n), endpoint=True)) for _ in range(2))
        c = matmul(a, b)
        assert n * c._magnitude() <= 2**53
        assert verify(a, b, c, cfg).accepted
    assert differ == [] and all(s is None for s in decided)


def test_a_br_past_2_53_keeps_the_product_tiers(monkeypatch):
    # max|A| = 1 and n max|B| = 2^54: A(BR) is within 2^63 - 1 and past
    # 2^53, but BR is not exact in float64, so the block keeps the product
    # tiers.  Row 0 of BR is 2^54 + 65 for R of ones, which float64 would
    # round.
    n, w = 64, 19
    differ = _count_calls(monkeypatch, verify_mod, "_parts_differ")
    rng = np.random.default_rng(2)
    a_arr = rng.integers(-1, 1, (n, n), endpoint=True)
    b_arr = rng.integers(-1, 1, (n, n), endpoint=True)
    b_arr[0], b_arr[0, n - 1] = 2**48 + 1, 2**48 + 2
    ab = brute_matmul(a_arr.tolist(), b_arr.tolist())
    a, b = Matrix(n, n, INT64, a_arr), Matrix(n, n, INT64, b_arr)
    r = Matrix(n, w, INT64, np.ones((n, w), dtype=np.int64))
    for cells in ([], [(5, 0)], [(n - 1, n - 1)]):
        c_rows = [row[:] for row in ab]
        for i, j in cells:
            c_rows[i][j] += 1
        c = Matrix(n, n, INT64, c_rows)
        plan = verify_mod._Plan(a, b, c, 1)
        assert plan.mbr > 2**53 and 2**53 < plan.abr <= matrix_mod.INT64_MAX
        mask = verify_mod.fingerprint_block(a, b, c, r)
        abr = brute_matmul(a_arr.tolist(), brute_matmul(b_arr.tolist(), r.data.tolist()))
        cr = brute_matmul(c_rows, r.data.tolist())
        assert mask.tolist() == [[x != y for x, y in zip(u, v)] for u, v in zip(abr, cr)]
    assert differ == []


def test_a_block_past_2_63_keeps_the_overflow_check(monkeypatch):
    # n max|A| max|BR| passes 2^63 - 1 while two parts would hold every
    # step: the block keeps the checked tiers, and a trial whose A(Br)
    # leaves int64 raises the error the one-at-a-time loop raises.  Row 7
    # of A is 2^38 throughout and B is 2^14 throughout, so row 7 of A(B r)
    # is 2^58 times the number of ones in r, past 2^63 - 1 from 32 ones on.
    # C is 0 but at (0, 0), so a trial that does not overflow rejects.
    n = 64
    differ = _count_calls(monkeypatch, verify_mod, "_parts_differ")
    rng = np.random.default_rng(4)
    a_arr = rng.integers(-1, 1, (n, n), endpoint=True)
    a_arr[7] = 2**38
    b_arr = np.full((n, n), 2**14, dtype=np.int64)
    c_arr = np.zeros((n, n), dtype=np.int64)
    c_arr[0, 0] = 2**50
    a, b, c = (Matrix(n, n, INT64, m) for m in (a_arr, b_arr, c_arr))
    plan = verify_mod._Plan(a, b, c, 1)
    assert 2**53 < n * c._magnitude() <= matrix_mod.INT64_MAX < plan.abr
    assert matrix_mod._part_width(n, 2**38, plan.mbr, c._magnitude(), 1) is not None
    assert plan.parts() is None
    # A block of 19 columns of ones overflows in row 7 of every column.
    with pytest.raises(IntegerOverflow) as err:
        verify_mod.fingerprint_block(a, b, c, Matrix(n, 19, INT64, np.ones((n, 19), dtype=np.int64)))
    with pytest.raises(IntegerOverflow) as first:
        freivalds_iteration(a, b, c, Vector(INT64, [1] * n))
    assert str(err.value) == str(first.value)
    seen = set()
    for seed in range(12):
        cfg = _cfg(k=20, seed=seed)
        got, expected = [], []
        for call, out in ((verify, got), (_reference_verdict, expected)):
            try:
                out.append(call(a, b, c, cfg))
            except IntegerOverflow as err:
                out.append(str(err))
        assert got == expected, seed
        seen.add(isinstance(got[0], str))
    # Some calls raised and some rejected, all as the loop does.
    assert seen == {True, False} and differ == []


@pytest.mark.parametrize("n, float_block", [(12, _ROW_BLOCK_ENTRIES), (363, None)])
def test_the_two_part_tier_across_row_blocks_and_the_carried_block(monkeypatch, n, float_block):
    # Patched, n = 12 is three row blocks of 4 rows; n = 363 is blocks of
    # 361 rows and 2.  The size limits are lifted, so blocks of both are
    # compared in two parts whatever their size.  Block 0 carries trial 0
    # when it passed the probe and is then compared in two parts too.
    # Entries to 2^24 at n = 12 and to 2^20 at n = 363 put n max|C| rho
    # past 2^53.
    if float_block is not None:
        monkeypatch.setattr(matrix_mod, "_FLOAT_BLOCK", float_block)
    monkeypatch.setattr(verify_mod, "_PARTS_COLS", 2)
    monkeypatch.setattr(verify_mod, "_PARTS_MACS", 0)
    monkeypatch.setattr(matrix_mod, "_EINSUM_MACS", n * n * 20)
    carried = _count_calls(monkeypatch, verify_mod, "_carried_rows")
    differ = _count_calls(monkeypatch, verify_mod, "_parts_differ")
    bits = 24 if n == 12 else 20
    rng = np.random.default_rng(n)
    a_arr, b_arr = (rng.integers(-(2**bits), 2**bits, (n, n), endpoint=True) for _ in range(2))
    ab = np.einsum("ik,kj->ij", a_arr, b_arr)
    a, b = Matrix(n, n, INT64, a_arr), Matrix(n, n, INT64, b_arr)
    step = matrix_mod._FLOAT_BLOCK // n
    seen = set()
    for cells in ([], [(0, n - 1)], [(n - 1, 0)], [(step, 3), (n - 1, 3)], [(i, 5) for i in range(n)]):
        c_arr = ab.copy()
        for i, j in cells:
            c_arr[i, j] += 1
        c = Matrix(n, n, INT64, c_arr)
        assert n * c._magnitude() > 2**53
        for k, seed in itertools.product((2, 20), range(4)):
            cfg = _cfg(k=k, seed=seed, dist=bernoulli(Fraction(1, 4)))
            carried.clear()
            differ.clear()
            reset_scalar_multiplies()
            got = verify(a, b, c, cfg)
            count = scalar_multiplies()
            assert got == _reference_verdict(a, b, c, cfg), (cells, k, seed)
            if n == 12:
                assert got == _python_verdict(a, b, c, cfg)
            if got.accepted:
                assert count == 3 * k * n * n
            seen.add((got.accepted, bool(carried), bool(differ)))
    assert {(True, True, True), (False, True, True)} <= seen
