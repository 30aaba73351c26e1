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

One trial engine, ``_trials``, runs every iteration.  It checks w vectors
at once, A(BR) against CR: BR is formed whole, and the row streams of A(BR)
and CR from the exact product chooser in ``matrix`` are compared block by
block, ``step = matrix._FLOAT_BLOCK // n`` rows at a time (all n rows at
once up to n = 362).  Trials run in blocks of
``width = min(_BLOCK_ENTRIES // n, max(n, matrix._FLOAT_BLOCK // n))``
columns, at least one, each drawn only when reached, so memory does not
grow with k.  A block holds at most 2**20 entries, and one wider than it is
tall at most ``_FLOAT_BLOCK`` (2**17, 1 MiB as float64): ``matrix`` streams
every product in one direction, row blocks of the left operand against the
whole block, and that bound keeps the block in cache.  From n = 1024 up the
width is 2**20 // n.  Trial j draws its vector from substream
``(seed, j)``, so the width moves no draw.

Trial 0 is probed first: B r_0 is formed whole and only row block 0 of
A(Br_0) and Cr_0 is compared, so a wrong product that the first vector
exposes there costs one pass over B and the first ``step`` rows of A and
C.  Block 0 carries the rows the probe left unread: when A has more than
one row block (n > 362), k > 1 and trial 0 passed the probe, block 0 is
trials 0..w-1, w = min(k, width).  BR' is formed for trials 1..w-1, row
block 0 of A(BR') and CR' is computed for those columns only, and the rest
of A and C is streamed once against all w columns, with B r_0 carried
from the probe.  Otherwise trial 0 is block 0 on its own.  An accept thus
reads A and C once, and B twice (B r_0 on one column, BR' on the rest); no
row of trial 0 is computed twice.  Every later block ends at the next
multiple of the width, or at k.

Once a block overflows, the width is one for the rest of the run.  Column
t of BR, A(BR) and CR depends only on r_t, so the block's first
overflowing trial overflows when run alone too, and the run ends inside
that block: it raises that trial's one-column error after every earlier
trial.  Every ``IntegerOverflow`` is raised before any row of its block is
compared.  The probe raises trial 0's own; if block 0 overflows after it,
trial 0's remaining rows are read from the probe's streams before trials
1, 2, ... run one at a time.

``verify`` and ``freivalds_iteration`` stop reading a block once its first
trial differs in some row: no earlier trial of the block can fail and no
earlier row of that trial did.  Otherwise they read the whole block, and
``verify`` stops at its first failing column.  Either way they name that
column's smallest differing row: the witness, ``witness_iteration`` and
``mismatch_row`` of a one-at-a-time loop, bit for bit.  The empirical rate
in ``analysis`` draws the same vectors and counts the trials with E r = 0,
from E = AB - C; it runs this engine, reading every row of each block, only
where a round could overflow int64.  The multiply counter charges what was
read: 3kn^2 on accept; on reject, 3n^2 per trial of every block before the
failing one, and for the failing block of w trials n^2 w for BR plus 2nw
per row of A and C read, that is up to the end e of the row block where
its first trial first differs, w (n^2 + 2n e), or all n rows when that
trial passes, 3n^2 w.  Trial 0 on its own is a block of w = 1:
n^2 + 2n e.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import matrix
from .errors import ConfigInvalid, DimensionMismatch, IntegerOverflow, RingMismatch
from .matrix import Matrix, Vector, _exact_dot, _exact_rows, _fill, _row_split
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


def _check_block(a: Matrix, b: Matrix, c: Matrix, r: Matrix) -> None:
    _check_inputs(a, b, c)
    if r.ring != a.ring:
        raise RingMismatch(f"vector ring {r.ring} does not match matrices ({a.ring})")
    if r.rows != a.cols:
        raise DimensionMismatch(f"vector length {r.rows} does not match n = {a.cols}")


def _row_masks(a: Matrix, br: Matrix, c: Matrix, r: Matrix):
    """The row stream of A(BR) != CR from ``_exact_rows``.  Both products
    are set up by this call, so it raises their ``IntegerOverflow`` before
    a mask row exists."""
    ring = a.ring
    return map(np.not_equal, _exact_rows(a, br, ring), _exact_rows(c, r, ring))


def _mask_rows(a: Matrix, b: Matrix, c: Matrix, r: Matrix):
    """Stream the mask A(BR) != CR in row blocks, pairing the row streams
    of A(BR) and CR.  BR is formed whole first; any ``IntegerOverflow`` of
    the three products is raised by this call, before a mask row exists."""
    return _row_masks(a, Matrix._wrap(_exact_dot(b, r, a.ring), a.ring), c, r)


def _carried_rows(a: Matrix, b: Matrix, c: Matrix, r: np.ndarray, r1: np.ndarray, br0: Matrix, head: np.ndarray):
    """``_mask_rows`` of R = ``r`` when column 0's B r, ``br0``, is formed
    and its mask over row block 0, ``head``, is read, and A has rows past
    that block; ``r1`` is R without column 0.  BR is formed for those
    columns, row block 0 is multiplied for them only, and the rows the
    probe left unread are streamed once against all of R, so no row of
    column 0 is computed twice.  Any ``IntegerOverflow`` is raised by this
    call, before a mask row is compared."""
    ring, step = a.ring, len(head)
    r1 = Matrix._wrap(r1, ring)
    br1 = _exact_dot(b, r1, ring)
    (a0, a1), (c0, c1) = _row_split(a, step), _row_split(c, step)
    br = Matrix._wrap(np.concatenate((br0.data, br1), axis=1), ring)
    tail = _row_masks(a1, br, c1, Matrix._wrap(r, ring))
    top = next(_row_masks(a0, Matrix._wrap(br1, ring), c0, r1))
    return chain((np.concatenate((head, top), axis=1),), tail)


def _first_failure(rows, n: int) -> tuple[int, int] | None:
    """``(t, i)``: the first column of an n-row mask stream with a True and
    that column's smallest such row, or None.  Stops reading at row n, not
    resuming a finished stream, or once column 0 has a True: no earlier
    column can fail and no earlier row of column 0 did, so the rows read so
    far decide."""
    parts, i = [], 0
    for part in rows:
        parts.append(part)
        i += len(part)
        if i == n or part[:, 0].any():
            break
    mask = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # Column-major order: the first True is the first failing column's
    # smallest differing row.
    flat = mask.T.ravel()
    # The method, not np.argmax: a microsecond less per call at n = 64.
    first = int(flat.argmax())
    return divmod(first, len(mask)) if flat[first] else None


def fingerprint_block(a: Matrix, b: Matrix, c: Matrix, r: Matrix) -> np.ndarray:
    """The (n, w) mask of entries where A(BR) != CR, for the w columns of R.

    Column t is one fingerprint iteration with vector ``R[:, t]``.  Never
    forms AB: the cost is three (n x n) by (n x w) products, 3n^2 w scalar
    multiplies.
    """
    _check_block(a, b, c, r)
    return _fill(_mask_rows(a, b, c, r), a.rows)


def freivalds_iteration(
    a: Matrix, b: Matrix, c: Matrix, r: Vector
) -> tuple[bool, int | None]:
    """One fingerprint comparison: does A(Br) equal Cr?

    Returns ``(True, None)`` on agreement, else ``(False, i)`` with the
    smallest row index i where the two sides differ.  Never forms AB: the
    cost is at most three matrix-vector products, and the rows of A and C
    past the row block holding row i are not read.
    """
    col = Matrix._wrap(r.data.reshape(-1, 1), r.ring)
    _check_block(a, b, c, col)
    hit = _first_failure(_mask_rows(a, b, c, col), a.rows)
    return (False, hit[1]) if hit else (True, None)


def _trials(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, seed: int, stop: int
) -> Iterator[tuple[int, np.ndarray, Iterator[np.ndarray]]]:
    """``(first trial, R, mask rows)`` for consecutive blocks of trials
    0..stop-1: column t of R is trial ``first + t``, and ``mask rows`` is
    R's stream of A(BR) != CR, read as far as the caller needs.  The module
    docstring gives the block schedule and the overflow rule that every
    caller shares.
    """
    n, ring = a.rows, a.ring
    components = np.arange(n, dtype=np.uint64)
    width = min(max(1, _BLOCK_ENTRIES // n), max(n, matrix._FLOAT_BLOCK // n))
    end = min(stop, width)
    # The probe: B r_0 whole, then row block 0 of trial 0's mask.
    r0 = _sample_trial_block(dist, components, seed, 0, 1)
    col = Matrix._wrap(r0, ring)
    br0 = Matrix._wrap(_exact_dot(b, col, ring), ring)
    rest = _row_masks(a, br0, c, col)
    head = next(rest)
    r, rows, start = r0, chain((head,), rest), 1
    # Block 0 carries the rows the probe left unread, if any.
    # count_nonzero: a third of ``any``'s call overhead on a small mask.
    if end > 1 and len(head) < n and not np.count_nonzero(head):
        r1 = _sample_trial_block(dist, components, seed, 1, end)
        carried = np.concatenate((r0, r1), axis=1)
        try:
            r, rows, start = carried, _carried_rows(a, b, c, carried, r1, br0, head), end
        except IntegerOverflow:
            width = 1
    yield 0, r, rows
    while start < stop:
        end = min(stop, width * (start // width + 1))
        r = _sample_trial_block(dist, components, seed, start, end)
        try:
            rows = _mask_rows(a, b, c, Matrix._wrap(r, ring))
        except IntegerOverflow:
            if end - start == 1:
                raise
            width = 1
            continue
        yield start, r, rows
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
    for start, r, rows in _trials(a, b, c, dist, cfg.seed, cfg.iterations):
        hit = _first_failure(rows, a.rows)
        if hit:
            t, row = hit
            return Verdict(
                accepted=False,
                witness=Vector._wrap(r[:, t].copy(), a.ring),
                witness_iteration=start + t,
                mismatch_row=row,
            )
    return Verdict(accepted=True, error_bound=p_max(dist) ** cfg.iterations)
