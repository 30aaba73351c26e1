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
block, ``step = matrix._FLOAT_BLOCK // n`` rows at a time, about 1 MiB of
entries of A and of C.  A product plan, ``_Plan``, is formed once per call,
when the engine starts: the bounds max|A|, max|B| and max|C| (read once per
matrix, which keeps them), rho, the law's largest |support value|, which
bounds every trial vector, and n max|B| rho, which bounds BR.  The plan
holds the block tier.  An int64 block of w columns, w at least
``_PARTS_COLS`` (8) and n^2 w from ``_PARTS_MACS`` (16,384) to
``matrix._EINSUM_MACS`` (98,304), is compared in two float64 parts where
A(BR) or CR passes 2**53, neither passes 2**63 - 1 and some split 2**s
keeps every step exact (``matrix._part_width``, whose inequalities then
bound BR by 2**53): BR is formed on float64 BLAS, and the mask is
that of [A | C] [BR; -R] in two parts, one BLAS call
(``matrix._parts_differ``), so neither A(BR) nor CR is formed, scanned or
recombined.  The plan decides this, and s, once, at the first such block,
so a call that ends in the probe pays nothing for it.  Every other
product of every block picks its tier and limb split from the bounds, so
no trial block is scanned; BR is scanned only where its bound carries
A(BR)'s past a tier boundary (2**63 - 1 for one column, 2**53 for more),
and its own magnitude may then pick a cheaper tier.  BR is formed by the
chooser's plain float tier on float32 wherever n max|B| rho is at most
2**24 (at n = 1024 with entries in [-256, 256] and the u01 law, 2**18), so
B is converted to half the bytes it takes as float64, and on float64 up
to 2**53.  The plan also holds the call's scratch buffers, which all its
BLAS products share, float32 and float64 alike.  Trials
run in blocks of
``width = min(_BLOCK_ENTRIES // n, max(n, matrix._FLOAT_BLOCK // n))``
columns, at least one, each drawn only when reached, so memory does not
grow with k.  A block holds at most 2**20 entries, and one wider than it is
tall at most ``_FLOAT_BLOCK`` (2**17, 1 MiB as float64): ``matrix`` streams
every product in one direction, row blocks of the left operand against the
whole block, and that bound keeps the block in cache.  From n = 1024 up the
width is 2**20 // n.  Trial j draws its vector from substream
``(seed, j)``, so the width moves no draw.

Trial 0 is probed first: B r_0 is formed whole, A(Br_0) and Cr_0 are set
up over all rows, and only their first ``_PROBE_ROWS`` (64) rows, or a row
block when that is shorter, are compared, so a wrong product that the
first vector exposes there costs one pass over B and those rows of A and
C.  Trial 0's stream goes on in row blocks of ``step`` rows from there.
Block 0 carries the rows the probe left unread: when A has more rows than
the probe, k > 1 and trial 0 passed the probe, block 0 is trials 0..w-1,
w = min(k, width).  BR' is formed for trials 1..w-1, the probe's rows of
A(BR') and CR' are computed for those columns only, and the rest of A and
C is streamed once against all w columns, in the row blocks of trial 0's
stream, with B r_0 carried from the probe.  Otherwise trial 0 is block 0
on its own.  An accept thus reads A and C once, and B twice (B r_0 on one
column, BR' on the rest); no row of trial 0 is computed twice.  Every later block ends at the next
multiple of the width, or at k.

Once a block's set-up overflows, its trials run one at a time.  Column t
of BR, A(BR) and CR depends only on r_t, so the block's first overflowing
trial overflows when run alone too, and the run ends inside that block: it
raises that trial's one-column error after every earlier trial.  When the
block's BR was formed (A(BR) or CR overflowed), each trial takes its B r_t
from BR's column instead of forming it again.  Every ``IntegerOverflow`` is
raised before any row of its block is compared.  The probe raises trial
0's own; if block 0 overflows after it, trial 0's remaining rows are read
from the probe's streams before trials 1, 2, ... run one at a time.

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
trial passes, 3n^2 w.  The row blocks of block 0 are those of trial 0's
stream, so there e is the probe's height or that plus a multiple of
``step`` (or n).  Trial 0 on its own is a block of w = 1: n^2 + 2n e.  A
trial rerun on its own after its block's set-up overflowed is charged 2n
per row of A and C read, plus n^2 when BR was not formed.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import matrix
from .errors import ConfigInvalid, DimensionMismatch, IntegerOverflow, RingMismatch
from .matrix import (
    INT64_MAX,
    Matrix,
    Vector,
    _block,
    _exact_product,
    _fill,
    _magnitudes,
    _max_abs,
    _part_width,
    _parts_differ,
)
from .sampling import DiscreteDistribution, _draw_trials, _trial_keys, p_max

# Entries of the (n x w) vector block per verify block: bounds the block's
# memory at a few MiB while keeping products few and large.
_BLOCK_ENTRIES = 1 << 20
# Blocks compared in two parts (``_Plan.parts``) have at least _PARTS_COLS
# columns and _PARTS_MACS multiply-adds per product, n^2 w, and at most
# ``matrix._EINSUM_MACS``: the int64 ``einsum`` products they replace.
# Below, the fixed cost of the split, about ten numpy calls over all of A
# and C, outweighs those products; above, the limb tier is faster than one
# product of twice the inner dimension.  A block's BR and mask, parts over
# products, in three runs of scripts/bench_limb_split.py on a 2-vCPU Xeon
# VM (BENCH_split_compare.json, 'split_compare', holds the last):
# 0.65-0.67x at n = 64, w = 19; 0.87-0.96x at w = 8 and 1.02-1.24x at w =
# 4; 0.99-1.03x at n = 32, w = 8 and 0.80-0.82x at w = 19; 1.08-1.13x at
# n = 128, w = 19 (311,296) and 1.2-2.5x at n = 256.
_PARTS_COLS = 8
_PARTS_MACS = 1 << 14
# Trial 0 is probed on at most this many rows of A and C, and no more than
# a row block: a wrong product that the first vector exposes there costs
# one pass over B and these rows.  Higher, the probe's one-column products
# took a larger share of an accept at n = 512 than at n = 1024.
_PROBE_ROWS = 64


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


class _Plan:
    """The products of one verify call, planned when it starts, from n, the
    ring, max|A|, max|B|, max|C| (one scan each, kept by the matrices) and
    rho, a bound on every entry of every trial vector: the law's largest
    |support value|.  BR is bounded by n max|B| rho (and by p - 1 over Z_p),
    and ``matrix._exact_product`` forms it on float32 BLAS wherever that
    bound is at most 2**24, on float64 up to 2**53.

    The plan holds the tier of a block of w columns, w at least
    ``_PARTS_COLS`` and n^2 w from ``_PARTS_MACS`` to
    ``matrix._EINSUM_MACS``, the sizes at which the products would run on
    ``einsum`` (``parts``, decided at the first such block): over int64,
    where A(BR) or CR passes 2**53 and neither passes 2**63 - 1, the
    block is compared in two float64 parts at the s of
    ``matrix._part_width``, if one keeps every step exact.  Its
    inequalities then bound BR, n max|B| rho, by 2**53: the low one does
    for s > 0, and for s = 0 the high one, n (max|A| max|BR| + max|C|
    rho) <= 2**53, does whenever max|A| > 0, which a comparison past 2**53
    then requires.  So BR is formed on float64 BLAS and stays float64,
    and the mask is that of [A | C] [BR; -R] (``matrix._parts_differ``):
    A(BR) and CR are never formed, and BR is never scanned.  The product
    tiers below serve the probe's single column, other blocks, Z_p, n = 1,
    bounds past 2**63 - 1 (which run ``_check_int64``) and comparisons
    within 2**53, where a scan of BR may still pick the plain float64
    tier.

    Every other product takes its tier and limb split from the bounds
    (``matrix._exact_product``), so no trial block is scanned.  BR is
    scanned, one n x w block, only where its bound lifts n max|A| max|BR|
    past a tier boundary: 2**63 - 1 for a single column, which takes
    ``einsum`` below it, and 2**53 for a wider block.  There the block's own
    max|BR| may still pick a cheaper tier or fewer limbs for A(BR), the ones
    a scan of every operand would pick.  The call's BLAS products share
    one pool of scratch buffers, held as bytes and viewed at the element
    type each product runs on, so a call allocates each buffer once."""

    __slots__ = ("a", "b", "c", "p", "ma", "mb", "mc", "rho", "mbr", "abr", "s", "step", "scratch", "mags")

    def __init__(self, a: Matrix, b: Matrix, c: Matrix, rho: int) -> None:
        n, p = a.rows, a.ring.modulus
        self.a, self.b, self.c, self.p, self.rho = a._a, b._a, c._a, p, rho
        self.ma, self.mb, self.mc = a._magnitude(), b._magnitude(), c._magnitude()
        self.mbr = n * self.mb * rho if p is None else min(n * self.mb * rho, p - 1)
        self.abr = n * self.ma * self.mbr
        # s is -1 until the first block compared in two parts decides it.
        self.s = -1
        self.step = matrix._FLOAT_BLOCK // n or 1
        self.scratch = {}
        self.mags = {}

    def _abs(self, name: str, rows: slice | None = None) -> np.ndarray:
        """``matrix._magnitudes`` of the operand ``name`` ("a", "b" or
        "c") over ``rows``, formed once per plan: the operand of every
        ``_check_int64`` certificate of its products."""
        m = self.mags.get(name)
        if m is None:
            m = self.mags[name] = _magnitudes(getattr(self, name))
        return m if rows is None else m[rows]

    def parts(self) -> int | None:
        """The s at which blocks within the size limits compare A(BR) with
        CR in two float64 parts, or None, decided once, at the first such
        block."""
        if self.s == -1:
            n = len(self.a)
            cmp = max(self.abr, n * self.mc * self.rho)
            self.s = None
            if self.p is None and n > 1 and matrix._FLOAT_EXACT < cmp <= INT64_MAX:
                self.s = _part_width(n, self.ma, self.mbr, self.mc, self.rho)
        return self.s

    def br(self, r: np.ndarray) -> np.ndarray:
        """BR, whole; raises its ``IntegerOverflow`` before any entry.  A
        block compared in two parts gets BR as float64, from one BLAS call,
        exact because ``parts`` bounds n max|B| rho by 2**53: formed by
        ``_exact_product`` and converted, an n = 64 accept with 19 such
        columns took 1.09x as long."""
        w = r.shape[1]
        if w >= _PARTS_COLS and _PARTS_MACS <= len(r) ** 2 * w <= matrix._EINSUM_MACS and self.parts() is not None:
            return _block(self.b, lambda b: np.matmul(b.astype(np.float64), r.astype(np.float64)))
        return _block(self.b, _exact_product(self.b, r, self.p, self.mb, self.rho, self.scratch, lambda: self._abs("b")))

    def masks(self, br: np.ndarray, r: np.ndarray, rows: slice | None = None, first: int | None = None):
        """The stream of A(BR) != CR over ``rows`` of A and C (all of
        them for None), in row blocks of ``step`` rows, the first of them
        ``first`` rows when given, each computed when it is read.  Both
        products are set up over all those rows by this call, so it raises
        their ``IntegerOverflow`` before a mask row exists."""
        a, c, p = self.a, self.c, self.p
        if rows is not None:
            a, c = a[rows], c[rows]
        one = len(a) <= (first or self.step)
        cuts = None if one else [0, *range(first or self.step, len(a), self.step), len(a)]
        if br.dtype.kind == "f":
            differ = self._parts(br, r)
            if one:
                return (differ(a, c) for _ in (0,))
            return (differ(a[i:j], c[i:j]) for i, j in zip(cuts, cuts[1:]))
        limit = INT64_MAX if br.shape[1] == 1 else matrix._FLOAT_EXACT
        mbr = _max_abs(br) if self.abr > limit else self.mbr
        ab = _exact_product(a, br, p, self.ma, mbr, self.scratch, lambda: self._abs("a", rows))
        cr = _exact_product(c, r, p, self.mc, self.rho, self.scratch, lambda: self._abs("c", rows))
        if one:
            # One row block, read without slicing: a slice per read cost
            # about a microsecond at n = 64.
            return (np.not_equal(_block(a, ab), _block(c, cr)) for _ in (0,))
        return (np.not_equal(_block(a[i:j], ab), _block(c[i:j], cr)) for i, j in zip(cuts, cuts[1:]))

    def _parts(self, br: np.ndarray, r: np.ndarray):
        """The mask of rows of A and C as ``matrix._parts_differ`` of [A |
        C] [BR; -R], which is A(BR) - CR, each row block charged as the
        two products it replaces."""
        n, cols = len(self.a), r.shape[1]
        y = np.empty((2 * n, cols))
        y[:n] = br
        np.negative(r, out=y[n:], casting="unsafe")

        def differ(a: np.ndarray, c: np.ndarray) -> np.ndarray:
            matrix._ops.multiplies += 2 * a.size * cols
            return _parts_differ(a, c, y, self.s, self.scratch)

        return differ


def _carried_rows(plan: _Plan, r0: np.ndarray, br0: np.ndarray, head: np.ndarray, r1: np.ndarray, br1: np.ndarray):
    """``(R, mask rows)`` for R = ``r0`` and ``r1`` side by side when
    column 0's B r, ``br0``, is formed, its mask over the probe's rows,
    ``head``, is read, and A has rows past them.  The probe's rows are
    multiplied for ``r1``'s columns only, and the rows the probe left
    unread are streamed once against all of R, in row blocks of ``step``
    rows, so no row of column 0 is computed twice.  Any ``IntegerOverflow``
    is raised by this call, before a mask row is compared."""
    step = len(head)
    r = np.concatenate((r0, r1), axis=1)
    tail = plan.masks(np.concatenate((br0, br1), axis=1), r, slice(step, None))
    top = next(plan.masks(br1, r1, slice(step)))
    return r, chain((np.concatenate((head, top), axis=1),), tail)


def _mask_rows(a: Matrix, b: Matrix, c: Matrix, r: np.ndarray):
    """Stream the mask A(BR) != CR in row blocks.  BR is formed whole
    first; any ``IntegerOverflow`` of the three products is raised by this
    call, before a mask row exists."""
    plan = _Plan(a, b, c, _max_abs(r))
    return plan.masks(plan.br(r), r)


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
    # count_nonzero: a third of ``any``'s call overhead on a small mask.
    if not np.count_nonzero(mask):
        return None
    # Column-major order: the first True is the first failing column's
    # smallest differing row.
    flat = mask.T.ravel()
    # The method, not np.argmax: a microsecond less per call at n = 64.
    return divmod(int(flat.argmax()), len(mask))


def fingerprint_block(a: Matrix, b: Matrix, c: Matrix, r: Matrix) -> np.ndarray:
    """The (n, w) mask of entries where A(BR) != CR, for the w columns of R.

    Column t is one fingerprint iteration with vector ``R[:, t]``.  Never
    forms AB: the cost is three (n x n) by (n x w) products, 3n^2 w scalar
    multiplies.
    """
    _check_block(a, b, c, r)
    return _fill(_mask_rows(a, b, c, r._a), a.rows)


def freivalds_iteration(
    a: Matrix, b: Matrix, c: Matrix, r: Vector
) -> tuple[bool, int | None]:
    """One fingerprint comparison: does A(Br) equal Cr?

    Returns ``(True, None)`` on agreement, else ``(False, i)`` with the
    smallest row index i where the two sides differ.  Never forms AB: the
    cost is at most three matrix-vector products, and the rows of A and C
    past the row block holding row i are not read.
    """
    col = Matrix._wrap(r._a.reshape(-1, 1), r.ring)
    _check_block(a, b, c, col)
    hit = _first_failure(_mask_rows(a, b, c, col._a), a.rows)
    return (False, hit[1]) if hit else (True, None)


@functools.lru_cache(maxsize=16)
def _keys(n: int) -> np.ndarray:
    """``_trial_keys`` of components 0..n-1, read-only, kept for the sizes
    verified last."""
    keys = _trial_keys(np.arange(n, dtype=np.uint64))
    keys.flags.writeable = False
    return keys


def _trials(
    a: Matrix, b: Matrix, c: Matrix, dist: DiscreteDistribution, seed: int, stop: int
) -> Iterator[tuple[int, np.ndarray, Iterator[np.ndarray]]]:
    """``(first trial, R, mask rows)`` for consecutive blocks of trials
    0..stop-1: column t of R is trial ``first + t``, and ``mask rows`` is
    R's stream of A(BR) != CR, read as far as the caller needs.  The module
    docstring gives the block schedule and the overflow rule that every
    caller shares.
    """
    n = a.rows
    plan = _Plan(a, b, c, dist._magnitude())
    keys = _keys(n)
    width = min(max(1, _BLOCK_ENTRIES // n), max(n, matrix._FLOAT_BLOCK // n))
    end = min(stop, width)
    # The probe: B r_0 whole, then the first rows of trial 0's mask.
    r0 = _draw_trials(dist, keys, seed, 0, 1)
    br0 = plan.br(r0)
    rest = plan.masks(br0, r0, first=min(_PROBE_ROWS, plan.step))
    head = next(rest)
    # Block 0 carries the rows the probe left unread, if any.
    # count_nonzero: a third of ``any``'s call overhead on a small mask.
    if end > 1 and len(head) < n and not np.count_nonzero(head):
        yield from _block_trials(plan, 1, _draw_trials(dist, keys, seed, 1, end), (r0, br0, head, rest))
    else:
        yield 0, r0, chain((head,), rest)
        end = 1
    while end < stop:
        start, end = end, min(stop, width * (end // width + 1))
        yield from _block_trials(plan, start, _draw_trials(dist, keys, seed, start, end))


def _block_trials(plan: _Plan, start: int, r: np.ndarray, carry=None):
    """The block of trials ``start``.. drawn as the columns of ``r``, as one
    ``(first trial, R, mask rows)``, or, when its set-up overflows, as one
    per trial.  With ``carry``, the probe's r_0, B r_0, its mask over row
    block 0 and the rest of its stream, the block carries trial 0
    (``_carried_rows``), and on overflow the probe's own rows come first.
    A trial run on its own takes its B r from the block's BR when that was
    formed, and raises its ``IntegerOverflow`` when it is reached, after
    every earlier trial."""
    br = None
    try:
        br = plan.br(r)
        if carry is None:
            rows = plan.masks(br, r)
        else:
            r, rows = _carried_rows(plan, *carry[:3], r, br)
    except IntegerOverflow:
        if carry is None and r.shape[1] == 1:
            raise
    else:
        yield start - (carry is not None), r, rows
        return
    if carry is not None:
        r0, _, head, rest = carry
        yield 0, r0, chain((head,), rest)
    for t in range(r.shape[1]):
        rt = r[:, t : t + 1]
        yield start + t, rt, plan.masks(plan.br(rt) if br is None else br[:, t : t + 1], rt)


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
