"""Randomized verification of matrix products.

To check a claimed product C = AB without recomputing AB, draw a random
vector r and compare A(Br) with Cr: three matrix-vector products, Theta(n^2)
per iteration.  If AB = C every iteration agrees, so a reject is always
correct.  If AB != C, consider E = AB - C and any column index j where E is
nonzero: conditioned on all components of r except r_j, the residual Er = 0
forces r_j to one fixed ring element (columns live in an integral domain), so
an iteration wrongly accepts with probability at most the largest point mass
of the component distribution.  Independent iterations multiply, giving the
p_max**k certificate reported on accept.

One trial engine, ``_trials``, runs every iteration: ``fingerprint_block``
checks w vectors at once as three (n x n) by (n x w) products, A(BR)
against CR, through the exact product chooser in ``matrix``.  Trial 0 runs
alone, so a wrong product that the first vector exposes costs one pass over
A, B and C; later trials run in blocks of
``min(_BLOCK_ENTRIES // n, max(n, matrix._FLOAT_BLOCK // n))`` columns, at
least one, each drawn only when reached, so memory does not grow with k.
A block holds at most 2**20 entries, and one wider than it is tall at most
``_FLOAT_BLOCK`` (2**17, 1 MiB as float64): ``matrix`` streams every
product in one direction, row blocks of the left operand against the whole
block, and that bound keeps the block in cache.  From n = 1024 up the
width is 2**20 // n.  Trial j draws its vector from substream
``(seed, j)``, so the width moves no draw.  A block that overflows is run
again one trial at a time, so an overflow raises the one-column error of
the first overflowing trial after every earlier trial.  ``verify`` stops
at the first failing column and names its smallest differing row: the
witness, ``witness_iteration`` and ``mismatch_row`` of a one-at-a-time
loop, bit for bit.  The empirical rate in ``analysis`` counts the passing
columns of the same engine.  The multiply counter charges 3n^2 per trial
computed: 3kn^2 on accept, 3n^2 times the end of the block holding the
failing iteration on reject.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matrix
from .errors import ConfigInvalid, DimensionMismatch, IntegerOverflow, RingMismatch
from .matrix import Matrix, Vector, _exact_dot
from .sampling import DiscreteDistribution, _sample_trial_block, p_max

# Entries of the (n x w) vector block per verify block: bounds the block's
# memory at a few MiB while keeping products few and large.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class VerifyConfig:
    """Number of fingerprint iterations, master seed and component law."""

    iterations: int
    seed: int
    distribution: DiscreteDistribution

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigInvalid(f"need at least one iteration, got {self.iterations}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification run.

    ``error_bound`` is only set on accept; witness fields are only set on
    reject and name the first failing iteration, its random vector, and the
    smallest row index where A(Br) and Cr disagree.
    """

    accepted: bool
    error_bound: Fraction | None = None
    witness: Vector | None = None
    witness_iteration: int | None = None
    mismatch_row: int | None = None


def _check_inputs(a: Matrix, b: Matrix, c: Matrix) -> None:
    for other in (b, c):
        if other.ring != a.ring:
            raise RingMismatch(
                f"inputs use different rings: {a.ring} vs {other.ring}"
            )
    if a.rows != a.cols or b.rows != b.cols or c.rows != c.cols:
        raise DimensionMismatch("inputs must all be square")
    if not a.rows == b.rows == c.rows:
        raise DimensionMismatch(
            f"inputs must share one size, got {a.rows}, {b.rows}, {c.rows}"
        )


def fingerprint_block(a: Matrix, b: Matrix, c: Matrix, r: Matrix) -> np.ndarray:
    """The (n, w) mask of entries where A(BR) != CR, for the w columns of R.

    Column t is one fingerprint iteration with vector ``R[:, t]``.  Never
    forms AB: the cost is three (n x n) by (n x w) products, 3n^2 w scalar
    multiplies.
    """
    _check_inputs(a, b, c)
    if r.ring != a.ring:
        raise RingMismatch(f"vector ring {r.ring} does not match matrices ({a.ring})")
    if r.rows != a.cols:
        raise DimensionMismatch(f"vector length {r.rows} does not match n = {a.cols}")
    ring = a.ring
    br = Matrix._wrap(_exact_dot(b, r, ring), ring)
    return _exact_dot(a, br, ring) != _exact_dot(c, r, ring)


def freivalds_iteration(
    a: Matrix, b: Matrix, c: Matrix, r: Vector
) -> tuple[bool, int | None]:
    """One fingerprint comparison: does A(Br) equal Cr?

    Returns ``(True, None)`` on agreement, else ``(False, i)`` with the
    smallest row index i where the two sides differ.  Never forms AB: the
    cost is exactly three matrix-vector products.
    """
    mask = fingerprint_block(a, b, c, Matrix._wrap(r.data.reshape(-1, 1), r.ring))[:, 0]
    row = int(np.argmax(mask))
    return (False, row) if mask[row] else (True, None)


def _trials(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, seed: int, stop: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(first trial, R, mask)`` for consecutive blocks of trials 0..stop-1:
    column t of R is trial ``first + t``, and ``mask`` is R's
    ``fingerprint_block``.  The module docstring gives the block schedule
    and the overflow rule that every caller shares.
    """
    n, ring = a.rows, a.ring
    width = max(1, min(_BLOCK_ENTRIES // n, max(n, matrix._FLOAT_BLOCK // n)))
    start, single_until = 0, 1
    while start < stop:
        end = start + 1 if start < single_until else min(stop, start + width)
        r = _sample_trial_block(dist, n, seed, start, end)
        try:
            mask = fingerprint_block(a, b, c, Matrix._wrap(r, ring))
        except IntegerOverflow:
            if end - start == 1:
                raise
            single_until = end
            continue
        yield start, r, mask
        start = end


def verify(a: Matrix, b: Matrix, c: Matrix, cfg: VerifyConfig) -> Verdict:
    """Run up to ``cfg.iterations`` fingerprint iterations, stopping at the
    first mismatch.

    Iteration j draws its vector from substream ``(cfg.seed, j)``, so the
    verdict for any prefix of iterations is independent of how many were
    requested, and of how iterations are grouped into blocks.  On accept the
    verdict carries the p_max**k error bound; a reject is unconditionally
    correct and carries the witness vector.
    """
    _check_inputs(a, b, c)
    dist = cfg.distribution
    dist.validate_for_ring(a.ring)
    for start, r, mask in _trials(a, b, c, dist, cfg.seed, cfg.iterations):
        # Column-major order: the first True is the first failing column's
        # smallest differing row.
        flat = mask.T.ravel()
        first = int(np.argmax(flat))
        if flat[first]:
            t, row = divmod(first, a.rows)
            return Verdict(
                accepted=False,
                witness=Vector._wrap(r[:, t].copy(), a.ring),
                witness_iteration=start + t,
                mismatch_row=row,
            )
    return Verdict(accepted=True, error_bound=p_max(dist) ** cfg.iterations)
