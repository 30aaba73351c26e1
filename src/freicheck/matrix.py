"""Exact dense matrices over checked 64-bit integers or a prime field.

Two element domains are supported, both integral domains, which is what makes
a random fingerprint informative:

* ``int64``: ordinary integers restricted to the signed 64-bit range.  Any
  operation whose true result leaves that range raises ``IntegerOverflow``
  naming the offending entry; results never wrap or get promoted silently.
* ``zp``: integers modulo a prime ``p``.  Entries are kept canonical in
  ``[0, p)`` and every operation reduces its result.

Storage is a read-only numpy array at the narrowest signed width that holds
the entries, int16 or int64 (``_width``; ``_INT16_TOP`` gives the reason
int32 is not one), where int16 holds magnitudes up to 2**15 - 1, so that ``abs``
never wraps.  A verifier is bound by the bytes it reads, not by
arithmetic, and entries in [-256, 256] take int16: an n = 1024 verify
reads A and B at a quarter of their int64 bytes.  The width comes from
the entries' largest magnitude, which construction and the ``freimat``
parser find in the scan that vets them and keep; a computed result takes
the width of the bound its product or sum already holds, without a scan,
and keeps its magnitude unread until a product asks (one scan, kept: the
objects are immutable).  ``data`` reads the entries as int64, a copy for
narrow storage; the package reads the stored array.  Products convert
narrow rows to float64 directly.  What needs int64 widens what it reads:
``einsum`` (against an int64 y), limb digits (``_split``, whose shifts
pass 15 and 31 bits), sums and their wrap test, and Z_p reductions.

Every product of ``Matrix``/``Vector`` operands (``matmul``, ``mat_vec``,
``outer`` and the verifier's fingerprint blocks) goes through one chooser,
``_exact_product``.  It picks a tier once per product, from a bound on
every partial sum of the whole of ``x @ y``, ``inner * mx * my``, for
bounds ``mx >= max|x|`` and ``my >= max|y|`` in both rings, and returns the
tier's block product: a function of any run of rows of ``x``, with ``y``
converted (and split into limbs) once, when the product is set up.
``_exact_dot`` applies it to all of ``x``, with both operands' own
magnitudes.  ``verify`` streams it over row blocks of ``_FLOAT_BLOCK //
inner`` rows, about 1 MiB of entries, with bounds it plans once per call.
Each tier bounds its own temporaries, whatever the rows asked for.  The tier is the fastest one
that the bound proves exact:

* at most 2**53, the inner dimension is past 1, and ``y`` has more than
  one column or a narrow ``x`` has more than ``_EINSUM_MACS`` entries:
  float64 BLAS.  Every product and partial sum is then an
  integer a double holds exactly, in any summation order.  Rows of ``x``
  are converted into one reused buffer of at most a block (half a block
  when ``y`` is smaller than a block), so no float64 copy of ``x`` is
  made, and no float64 copy is kept.  In the package only blocks of
  trial vectors have more columns than rows, and ``verify`` keeps each of
  those within 1 MiB, so ``y`` stays in cache too;
* at most 2**63 - 1 or checked int64, and ``y`` has at most two columns,
  the inner dimension is 1 or the product has at most ``_EINSUM_MACS``
  (98,304) multiply-adds: int64 numpy, ``einsum`` of the rows asked for
  against ``y`` transposed once, so both operands are read along rows
  (numpy's float64 ``matmul`` runs an inner dimension of 1 on a slow
  generic loop, not BLAS).  Larger and wider products run faster on limbs
  (``BENCH_lean_limbs.json``);
* otherwise limbs on float64 BLAS, for both rings: the same BLAS path as
  the first tier, with the operands split.  ``x`` is split into a-bit
  limbs and ``y`` into b-bit limbs, two's complement digits below a top
  limb that carries the sign; among the splits with
  ``inner * max|x limb| * (2**b - 1) <= 2**53``, so that every limb
  product is exact, the one with the fewest limb products is taken, and
  on a tie the one that splits the operand with fewer entries further.
  For p = 2**31 - 1 at n = 1024 that is three 12-bit limbs of ``y`` and
  ``x`` whole; for p = 2**61 - 1, three limbs on each side; for a 64 x 64
  ``x`` with entries up to 2**24 against a 64 x 3999 block, two limbs of
  ``x`` and ``y`` whole.  ``y``'s limbs stand side by side as the columns
  of one float64 array.  Rows of ``x`` are split as they are converted,
  straight into the reused buffer, each row's limbs on consecutive rows,
  so one BLAS call covers every limb product of those rows.  The limb
  products of a span of rows (a row block of the stream, or all of ``x``
  when they are narrow) go to int64 in one call, one plane per limb
  product, and are recombined into the output by in-place Horner steps,
  high limbs first: over y's limbs for every limb of x at once, then over
  x's limbs; mod p in uint64, shifting by at most ``64 - bitlen(p)`` bits
  at a time so no step leaves 64 bits for any p below 2**63; in
  ``int64`` by wrapping shift-adds, exact wherever the true entry fits.
  Recombining a span costs ten numpy calls for p = 2**31 - 1 and seventy
  for p = 2**61 - 1 (3-bit shift steps), which a Z_p verify at n = 1024
  pays once per 128-row block of each product.  A whole two-limb int64
  product at n = 64, 19 columns, takes about fifteen numpy calls and costs
  about as much as ``einsum`` there, hence the limits above for products
  that must be formed.

The verifier never needs A(BR) or CR, only whether they differ, so an
int64 block of trial vectors whose comparison passes 2**53 need form
neither.  ``verify._Plan`` takes this for blocks within its size limits,
where the products would run on ``einsum``: BR is formed by one float64
BLAS call where n max|B| rho is at most 2**53, and ``_parts_differ``
forms the mask of [A | C] [BR; -R], which is A(BR) - CR, as one BLAS call.
``_split`` splits [A | C] at 2**s into its low digits and its high limb,
each row's two limbs on consecutive rows, so the call gives the limb
products L and H, and A(BR) - CR = 2**s H + L.  ``_part_width`` picks s
from the bounds and states the inequalities under which every partial sum
of L and H is an integer a double holds; an entry then differs exactly
where L != -2**s H, and nothing is recombined or formed as int64.  BR
and the mask took 0.65-0.67x the time of BR and the two ``einsum``
products at n = 64, 19 columns (``BENCH_split_compare.json``).

The ``int64`` overflow rule is that of checking every product term and
every partial sum, in ascending inner index, entry by entry in row-major
order: the first one outside the 64-bit range raises ``IntegerOverflow``
naming its kind and entry.  The bound rules it out below 2**63, on every
tier.  Past 2**63 - 1 an int64 product is checked first, then takes the
tier its size picks.  ``_exact_product`` checks through a certificate,
``sum_k |x_ik| |y_kj|`` computed by one float64 BLAS product with its
rounding error bounded: an entry whose certificate is provably at most
2**63 - 1 cannot overflow, and only the others are checked term by term in
Python integers.  Once the check passes every entry fits, so int64
arithmetic, exact mod 2**64, returns it on any tier.  The check covers the
whole of ``x`` and runs when the product is set up, so an
``IntegerOverflow`` is raised before any row of the product exists.

Products on float64 BLAS run on as many threads as the process's BLAS
was started with, and are exact in any summation order, so the thread
count cannot change a result; ``OPENBLAS_NUM_THREADS=1`` pins one thread.

``scalar_multiplies()`` exposes a process-wide count of ring multiplications
performed by products.  The count is derived from operand shapes (the
schoolbook cost ``rows * inner * cols`` of each row block read), not timed,
so it is exact and deterministic regardless of which tier ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    IntegerOverflow,
    InvalidEntry,
    InvalidRing,
    RingMismatch,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

INT64 = "int64"
PRIME_FIELD = "zp"


# Miller-Rabin with these bases is exact for every n < 3.3 * 10**24, so it
# decides primality of any 64-bit modulus without trial division.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """Element domain of a matrix: ``int64`` or ``zp`` with a prime modulus."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind == INT64:
            if self.modulus is not None:
                raise InvalidRing("int64 ring takes no modulus")
        elif self.kind == PRIME_FIELD:
            if self.modulus is None:
                raise InvalidRing("prime-field ring needs a modulus")
            if self.modulus > INT64_MAX:
                raise InvalidRing("modulus too large for 64-bit storage")
            if not _is_prime(self.modulus):
                raise InvalidRing(f"modulus {self.modulus} is not prime")
        else:
            raise InvalidRing(f"unknown ring kind {self.kind!r}")

    @staticmethod
    def int64() -> "RingSpec":
        return RingSpec(INT64)

    @staticmethod
    def prime_field(p: int) -> "RingSpec":
        return RingSpec(PRIME_FIELD, p)

    def __str__(self) -> str:
        return INT64 if self.kind == INT64 else f"zp {self.modulus}"


def _without_leading_zeros(token: str) -> str:
    """``token`` with the leading zeros of its ASCII digits dropped, keeping
    one digit: int() refuses more than 4,300 digits, leading zeros too.
    Any other token is returned as it is."""
    sign = token[:1] if token[:1] in ("+", "-") else ""
    digits = token[len(sign):]
    if digits.isascii() and digits.isdigit():
        return sign + (digits.lstrip("0") or "0")
    return token


def parse_ring(text: str) -> RingSpec:
    """Parse ``"int64"`` or ``"zp <p>"`` into a ring."""
    parts = text.split()
    if parts == [INT64]:
        return RingSpec.int64()
    if len(parts) == 2 and parts[0] == PRIME_FIELD:
        try:
            p = int(_without_leading_zeros(parts[1]))
        except ValueError:
            raise InvalidRing(f"bad modulus {parts[1]!r}") from None
        return RingSpec.prime_field(p)
    raise InvalidRing(f"bad ring {text!r}; expected 'int64' or 'zp <p>'")


def _coerce_entries(data, shape: tuple[int, ...], ring: RingSpec) -> tuple[np.ndarray, int]:
    """The entries of ``data`` as an array of ``shape`` at the narrowest
    width that holds them (``_width``), and their largest magnitude, from
    the one scan that vets them."""
    try:
        arr = np.asarray(data)
    except ValueError:
        raise DimensionMismatch("ragged data cannot fill a matrix") from None
    size = 1
    for d in shape:
        size *= d
    if arr.ndim == 1 and len(shape) == 2 and arr.size == size:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise DimensionMismatch(f"data of shape {arr.shape} does not fill {shape}")
    if np.issubdtype(arr.dtype, np.integer):
        lo, hi = int(arr.min()), int(arr.max())
        if hi > INT64_MAX:
            # numpy holds nonnegative integers past int64 in uint64.
            raise InvalidEntry(f"entry {arr[arr > INT64_MAX][0]} outside the signed 64-bit range")
    else:
        # Mixed, object or non-integer input: vet each value exactly.  A value
        # past 64 bits makes numpy guess float64 for the whole list, so vet
        # the caller's own values, not that guess.
        if arr.dtype != object:
            arr = np.array(data, dtype=object)
        vals = []
        for v in arr.ravel().tolist():
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidEntry(f"non-integer entry {v!r}")
            if v < INT64_MIN or v > INT64_MAX:
                # str() refuses integers past 4,300 digits; Decimal prints any.
                raise InvalidEntry(f"entry {Decimal(v)} outside the signed 64-bit range")
            vals.append(v)
        arr, lo, hi = vals, min(vals), max(vals)
    if ring.kind == PRIME_FIELD and (lo < 0 or hi >= ring.modulus):
        p = ring.modulus
        out = np.array(arr, dtype=np.int64).reshape(shape)
        pos = np.argwhere((out < 0) | (out >= p))[0]
        raise InvalidEntry(
            f"entry {out[tuple(pos)]} at {tuple(int(i) for i in pos)} "
            f"is not reduced mod {p}"
        )
    bound = max(-lo, hi)
    return np.array(arr, dtype=_width(bound)).reshape(shape), bound


class _Dense:
    """Shared storage of ``Matrix`` and ``Vector``: a read-only array at the
    narrowest width that holds the entries (``_width``: int16 or int64), its
    ring, and the largest entry magnitude once known."""

    __slots__ = ("ring", "_a", "_bound")

    def _set(self, arr: np.ndarray, bound: int | None, ring: RingSpec) -> None:
        arr.flags.writeable = False
        self.ring = ring
        self._a = arr
        self._bound = bound

    @classmethod
    def _wrap(cls, arr: np.ndarray, ring: RingSpec, bound: int | None = None, exact: bool = False):
        """Internal constructor for entries the caller already validated,
        stored at the width of ``bound``, a bound on their magnitudes (kept
        as the largest magnitude when ``exact``), or at ``arr``'s own width
        for None.  Narrowing converts; nothing is scanned."""
        obj = cls.__new__(cls)
        dtype = arr.dtype if bound is None else _width(bound)
        obj._set(np.ascontiguousarray(arr, dtype=dtype), bound if exact else None, ring)
        return obj

    @property
    def data(self) -> np.ndarray:
        """The entries as a read-only int64 array: the stored array when it
        is int64, and otherwise a new copy on each read."""
        a = self._a
        if a.dtype != np.int64:
            a = a.astype(np.int64)
            a.flags.writeable = False
        return a

    def _magnitude(self) -> int:
        if self._bound is None:
            self._bound = _max_abs(self._a)
        return self._bound

    __hash__ = None


class Matrix(_Dense):
    """Immutable dense matrix with row-major entries in a fixed ring."""

    __slots__ = ()

    def __init__(self, rows: int, cols: int, ring: RingSpec, data) -> None:
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrix needs at least one row and one column")
        self._set(*_coerce_entries(data, (rows, cols), ring), ring)

    @classmethod
    def from_rows(cls, rows, ring: RingSpec) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs at least one row and one column")
        return cls(len(rows), len(rows[0]), ring, rows)

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def __getitem__(self, key) -> int:
        return int(self._a[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self._a, other._a)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.ring})"


class Vector(_Dense):
    """Immutable vector with entries in a fixed ring."""

    __slots__ = ()

    def __init__(self, ring: RingSpec, data) -> None:
        arr = np.asarray(data)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("vector needs a one-dimensional, nonempty sequence")
        self._set(*_coerce_entries(data, (arr.size,), ring), ring)

    def __len__(self) -> int:
        return self._a.shape[0]

    def __getitem__(self, i) -> int:
        return int(self._a[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.ring == other.ring and np.array_equal(self._a, other._a)

    def __repr__(self) -> str:
        return f"Vector({len(self)}, {self.ring})"


def identity(n: int, ring: RingSpec) -> Matrix:
    return Matrix._wrap(np.eye(n, dtype=np.int16), ring, 1, exact=True)


class _OpCounter:
    __slots__ = ("multiplies",)

    def __init__(self) -> None:
        self.multiplies = 0


_ops = _OpCounter()


def reset_scalar_multiplies() -> None:
    _ops.multiplies = 0


def scalar_multiplies() -> int:
    """Ring multiplications counted since the last reset: ``rows * inner *
    cols`` per row block of a product read, so a verify that reads every
    row of j fingerprints counts 3jn^2 however they were batched."""
    return _ops.multiplies


def _same_ring(x, y) -> None:
    if x.ring != y.ring:
        raise RingMismatch(f"operands use different rings: {x.ring} vs {y.ring}")


_FLOAT_EXACT = 1 << 53
# Past 2**53, int64 ``einsum`` keeps a product of at most this many
# multiply-adds, and one of at most two columns, whose limb products pay
# for converting all of x for little BLAS work.  In BENCH_lean_limbs.json
# the limb tier took 0.97x einsum's time at 64 x 64 x 19 (77,824 in int64,
# 1.35x in Z_p), 0.75x at 128 x 128 x 8 (131,072), and on two columns
# 1.2-6.3x up to n = 256 and 0.95-1.03x at n = 512 and 1024.  ``verify``
# compares an int64 block of at least 8 columns within this limit in two
# parts instead of forming its products (see the module docstring), and
# keeps these tiers above it, where the limb tier is faster.
_EINSUM_MACS = 3 << 15
# Entries of x converted to float64 per BLAS call (1 MiB): no float64 copy
# of a large x is ever made, and calls stay few and large.
_FLOAT_BLOCK = 1 << 17
# The plan of a product with neither operand split.
_WHOLE = (1, 0, 1, 0)
# Bytes in a page, the span over which loads are matched against earlier
# stores by their low address bits.
_PAGE = 4096


# The largest magnitude stored in int16, 2**15 - 1, so that abs never
# wraps on it; past it, int64.  int32 is left out: an int32 operand reaches
# the int64-only einsum tier in the small products it keeps (at n = 64 with
# entries to 2**24, every one-column product), where widening it cost more
# than reading int64, and perfbench's analyze-small rejects ran 16-20%
# slower with such operands in int32 (2-vCPU Xeon VM).
_INT16_TOP = (1 << 15) - 1


def _width(bound: int) -> np.dtype:
    """The narrowest storage width for entries of magnitude at most
    ``bound``: int16 or int64."""
    return np.dtype(np.int16 if bound <= _INT16_TOP else np.int64)


def _max_abs(v: np.ndarray) -> int:
    """The largest entry magnitude of ``v``, by one scan."""
    return max(-int(v.min()), int(v.max()))


def _block(xb: np.ndarray, product) -> np.ndarray:
    """``product(xb)``, adding ``rows * inner * cols`` to the multiply
    count."""
    part = product(xb)
    _ops.multiplies += part.size * xb.shape[1]
    return part


def _fill(blocks, rows: int) -> np.ndarray:
    """The ``rows`` rows of a stream of consecutive row blocks as one
    array; a stream of one block returns that block itself."""
    out, i = None, 0
    for part in blocks:
        if len(part) == rows:
            return part
        if out is None:
            out = np.empty((rows, *part.shape[1:]), dtype=part.dtype)
        out[i : i + len(part)] = part
        i += len(part)
    return out


def _magnitudes(v: np.ndarray) -> np.ndarray:
    """``|v|`` at v's width.  abs wraps INT64_MIN onto itself, which reads
    as 2**63 in uint64; a narrow width holds no such entry."""
    return np.abs(v).view(np.uint64) if v.dtype == np.int64 else np.abs(v)


def _split(v: np.ndarray, width: int, count: int, dst: np.ndarray, tmp: np.ndarray | None) -> None:
    """Write the ``count`` limbs of ``v``, low first, into ``dst[0]``,
    ``dst[1]``, ... as float64: the two's complement digits ``(v >> width
    * l) & (2**width - 1)`` below the top limb ``v >> width * (count -
    1)``, which carries v's sign, so that v is the sum of ``limb[l] <<
    (width * l)``.  A single limb is ``v`` itself.  Each digit is formed
    in ``tmp``, an int64 array of v's shape, and then converted: a bitwise
    ufunc writing float64 itself took about twice as long.  A narrow ``v``
    is widened to int64 as it is read, so shifts and masks past its width
    are exact."""
    if count == 1:
        np.copyto(dst[0], v)
        return
    mask = (1 << width) - 1
    for l in range(count):
        # Past bit 63 every digit is the sign's, as at bit 63.
        shift = min(width * l, 63)
        if shift:
            np.right_shift(v, shift, out=tmp, dtype=np.int64)
        if l < count - 1:
            np.bitwise_and(tmp if shift else v, mask, out=tmp, dtype=np.int64)
        np.copyto(dst[l], tmp)


def _limb_plan(rows: int, inner: int, cols: int, mx: int, my: int, signed: bool = False) -> tuple[int, int, int, int]:
    """``(nx, a, ny, b)`` for a ``rows x inner`` x and an ``inner x cols``
    y: split x into nx limbs of a bits (one limb is x itself) and y into ny
    limbs of b bits, with the fewest limb products for which
    ``inner * max|x limb| * (2**b - 1) <= 2**53``.  Among plans with as few
    products, the one converting the fewest limb entries,
    ``inner * (rows * nx + cols * ny)``, wins: the operand with fewer
    entries is the one split further.

    ``signed`` operands are split into two's complement digits (see
    ``_split``), whose top limb takes the sign as one more bit, so every
    limb stays below ``2**a`` (or ``2**b``) in magnitude.  The search stops
    once nx alone passes the fewest products found."""
    best, key = None, None
    bits, nx = mx.bit_length(), 0
    while nx < bits and (key is None or nx < key[0]):
        nx += 1
        a = bits if nx == 1 else -(-(bits + signed) // nx)
        top = mx if nx == 1 else (1 << a) - 1
        b = (_FLOAT_EXACT // (inner * top) + 1).bit_length() - 1
        if b:
            ny = 1 if my.bit_length() <= b else -(-(my.bit_length() + signed) // b)
            cost = (nx * ny, rows * nx + cols * ny)
            if key is None or cost < key:
                best, key = (nx, a, ny, b), cost
    return best


def _part_width(inner: int, mx: int, my: int, mu: int, mv: int) -> int | None:
    """The s at which ``[x | u] @ [y; v]``, for ``x`` and ``u`` of
    ``inner`` columns each, is exact on float64 BLAS with ``[x | u]`` split
    into two limbs at 2**s (``_parts_differ``), from bounds ``mx >=
    max|x|``, ``my >= max|y|``, ``mu >= max|u|`` and ``mv >= max|v|``;
    None where no s is.

    ``_split``'s low limb of an entry lies in [0, 2**s) and its high limb,
    the entry shifted right by s, has magnitude at most ceil(m / 2**s) for
    an entry bounded by m.  Every partial sum of both limb products is then
    an integer of magnitude at most 2**53 when

        inner * (2**s - 1) * (my + mv) <= 2**53,
        inner * (ceil(mx / 2**s) * my + ceil(mu / 2**s) * mv) <= 2**53.

    The first fixes the largest s; the second only eases as s grows, so
    that s is the one returned if any is."""
    s = (_FLOAT_EXACT // max(inner * (my + mv), 1) + 1).bit_length() - 1
    if inner * (-(-mx >> s) * my + -(-mu >> s) * mv) <= _FLOAT_EXACT:
        return s
    return None


def _shift_add(acc: np.ndarray, shift: int, add: np.ndarray, p: int | None, out: np.ndarray) -> None:
    """``acc * 2**shift + add`` on uint64 arrays, into ``out``, which may
    be ``acc``: wrapping for ``p`` None, else mod p for ``acc`` in [0, p)
    and ``add`` in [0, 2**63).

    Mod p the shift goes in steps of ``64 - bitlen(p)`` bits, so every
    intermediate stays below 2**64 for every p below 2**63.
    """
    if p is None:
        np.left_shift(acc, shift, out=out)
        out += add
        return
    step = 64 - p.bit_length()
    while shift:
        s = min(step, shift)
        np.left_shift(acc, s, out=out)
        out %= p
        acc, shift = out, shift - s
    np.add(acc, add, out=out)
    out %= p


def _recombine(u: np.ndarray, a: int, b: int, p: int | None, out: np.ndarray) -> None:
    """The sum of ``u[l, m] << (a l + b m)`` into ``out``, wrapping or mod
    p, for limb products ``u`` (uint64, ``(nx, ny, rows, cols)``, at least
    two of them, below 2**63 mod p), by in-place Horner steps, high limbs
    first: over y's limbs for every limb of x at once, then over x's limbs.
    The last step writes into ``out``; ``u`` is overwritten."""
    nx, ny = u.shape[:2]
    r = u[:, -1]
    if p:
        r %= p
    for m in range(ny - 2, -1, -1):
        _shift_add(r, b, u[:, m], p, out[None] if m == 0 and nx == 1 else r)
    for l in range(nx - 2, -1, -1):
        _shift_add(r[-1], a, r[l], p, out if l == 0 else r[-1])


def _scratch(pool: dict | None, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of ``shape``: a view of ``pool[name]`` when the
    pool holds one of ``dtype`` at least that large, else a new one, which
    the pool then keeps.  Without a pool, a new array each time."""
    size = math.prod(shape)
    if pool is None:
        return np.empty(shape, dtype)
    buf = pool.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = pool[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _float_product(y: np.ndarray, rows: int, plan=_WHOLE, p: int | None = None, dtype=np.int64, scratch: dict | None = None):
    """The block product of a left operand of ``rows`` rows times ``y`` on
    float64 BLAS: ``xb @ y`` as ``dtype``, reduced mod ``p`` when given,
    under the limb split ``plan = (nx, a, ny, b)`` of ``_limb_plan``;
    ``_WHOLE`` splits neither operand.  It is exact when every partial sum
    of every limb product is an integer of magnitude at most 2**53.

    ``y`` is split into its ny limbs here, once, and they stand side by
    side as the columns of one float64 array.  Rows of x are split as they
    are converted, into one reused buffer, with their nx limbs stacked as
    rows, so one BLAS call covers every limb product of those rows and no
    float64 copy of x is made.  The limb products are recombined into the
    output at once, by in-place shift-adds (Horner steps, high limbs
    first: over y's limbs for every limb of x, then over x's limbs), mod p
    in uint64, and otherwise wrapping, exact wherever the true entry fits.

    A BLAS call converts at most ``_FLOAT_BLOCK`` entries of x, and half
    as many against a y of fewer entries, such as a block of trial
    vectors, which ``verify`` bounds to ``_FLOAT_BLOCK`` entries whenever
    it has more columns than rows.

    The buffers that only a call of the block product uses, for x's limbs
    and the limb products, come from ``scratch`` (see ``_scratch``), so
    the products that share one pool reuse them: those of a verify call
    or of an empirical rate.  The block product never suspends while it
    holds them.
    """
    inner, cols = y.shape
    nx, a, ny, b = plan
    # BLAS packs y again on every call.  A y of a block's size or more is
    # multiplied by whole blocks, so it is packed as few times as possible.
    # A smaller y, such as a block of trial vectors, by half blocks: the
    # verifier reads two such products side by side, and their two buffers
    # then take the 1 MiB one whole block took, which a 2 MiB L2 keeps
    # beside the rows being read.  On a 2-vCPU Xeon VM, an n = 1024 verify
    # that accepts ran 7-8% slower reading its products side by side with
    # whole-block buffers than computing them one after the other, and about
    # 10% faster with halves; an n = 1024 matmul ran 10-19% slower with
    # halves.
    block = _FLOAT_BLOCK if inner * cols >= _FLOAT_BLOCK else _FLOAT_BLOCK // 2
    step = min(rows, block // (nx * inner) or 1)
    # Limb products are recombined a span of rows at a time: the rows of as
    # many BLAS calls as hold at most _FLOAT_BLOCK limb products, and of at
    # least one.  A verify's row block is one span, so a Z_p product pays
    # the recombination's dozens of numpy calls once per row block.
    span = max(step, min(rows, _FLOAT_BLOCK // (nx * ny * cols)) // step * step)
    # The temporaries are allocated once, before any block's output, or
    # taken from the scratch pool: freed, they then lie below it in the
    # heap, and the next product reuses their pages instead of faulting in
    # fresh ones, which nearly doubled an n = 512 product on a 2-vCPU Xeon
    # VM.
    if ny == 1:
        yf = y.astype(np.float64)
    else:
        yf = np.empty((inner, ny, cols))
        _split(y, b, ny, yf.transpose(1, 0, 2), _scratch(scratch, "int", y.shape, np.int64))
        yf = yf.reshape(inner, ny * cols)
    # Row i's limbs of x are rows i nx .. i nx + nx - 1 of xf, so the limb
    # products of consecutive BLAS calls fill consecutive rows of of.
    xf = _scratch(scratch, "x", (step * nx, inner), np.float64)
    # The limb products' buffer has a page's worth of bytes more than it
    # holds (_PAGE // 8 doubles), so that each output can read it from a
    # view whose address lies half a page from the output's (see product).
    held = span * nx * ny * cols
    raw = _scratch(scratch, "out", (held + _PAGE // 8,), np.float64)
    tmp = _scratch(scratch, "int", (step, inner), np.int64) if nx > 1 else None
    ints = _scratch(scratch, "limbs", (nx, ny, span, cols), np.int64) if nx * ny > 1 else None

    def piece(xp: np.ndarray, part: np.ndarray, of: np.ndarray) -> None:
        # Rows xp, at most a span, of x times y, into the same rows of the
        # output, through the limb products' buffer of.
        k = len(xp)
        for j in range(0, k, step):
            q = min(step, k - j)
            xs = xf if q == step else xf[: q * nx]
            if nx == 1:
                np.copyto(xs, xp[j : j + q])
            else:
                _split(xp[j : j + q], a, nx, xs.reshape(q, nx, inner).transpose(1, 0, 2), tmp[:q])
            np.matmul(xs, yf, out=of[j * nx : (j + q) * nx])
        os = of if k == span else of[: k * nx]
        if ints is None:
            np.copyto(part, os, casting="unsafe")
            if p:
                part %= p
            return
        # Every limb product to int64 at once, one contiguous plane each.
        planes = ints if k == span else ints[:, :, :k]
        np.copyto(planes, os.reshape(k, nx, ny, cols).transpose(1, 2, 0, 3), casting="unsafe")
        _recombine(planes.view(np.uint64), a, b, p, part.view(np.uint64))

    def product(xb: np.ndarray) -> np.ndarray:
        out = np.empty((len(xb), cols), dtype=dtype)
        # A load whose address agrees in its low 12 bits with a store just
        # before it waits for that store (4K aliasing).  Two large arrays
        # from the allocator often start at the same offset into a page, and
        # then converting the limb products into the output stalls on every
        # load: an n = 512 matmul's output conversion took 0.59 ms instead
        # of 0.10 ms with the output 16 bytes past them modulo 4 KiB
        # (2-vCPU Xeon VM).  Read from half a page away, no load waits.  An
        # output of at most a page of entries skips this: reading the two
        # addresses costs more than its conversion can lose.
        skew = (out.ctypes.data - raw.ctypes.data - _PAGE // 2) % _PAGE // 8 if out.size > _PAGE else 0
        of = raw[skew : skew + held].reshape(span * nx, ny * cols)
        for j in range(0, len(xb), span):
            piece(xb[j : j + span], out[j : j + span], of)
        return out

    return product


def _parts_differ(x: np.ndarray, u: np.ndarray, yv: np.ndarray, s: int, scratch: dict | None = None) -> np.ndarray:
    """The mask ``[x | u] @ yv != 0``, for int64 ``x`` and ``u`` of
    ``inner`` columns each and a float64 ``yv`` of ``2 inner`` rows, exact
    under ``_part_width``'s inequalities at ``s``.

    ``[x | u]`` is split by ``_split`` into its low digits, row 2i of one
    float64 array, and its high limb, row 2i + 1, so that one BLAS call
    gives both limb products, L and H, and ``[x | u] @ yv`` is 2**s H + L.
    Both are exact integers, so an entry is nonzero exactly where L !=
    -2**s H: nothing is recombined.  The split array and its int64 digits
    come from ``scratch`` (see ``_scratch``)."""
    rows, inner = x.shape
    xs = _scratch(scratch, "parts", (rows, 2, 2, inner), np.float64)
    tmp = _scratch(scratch, "int", (rows, inner), np.int64)
    _split(x, s, 2, xs[:, :, 0].transpose(1, 0, 2), tmp)
    _split(u, s, 2, xs[:, :, 1].transpose(1, 0, 2), tmp)
    parts = np.matmul(xs.reshape(2 * rows, 2 * inner), yv).reshape(rows, 2, -1)
    low, high = parts[:, 0], parts[:, 1]
    high *= -(2.0**s)
    return np.not_equal(low, high)


def _check_entry(xi: list, yj: list, i: int, j: int) -> None:
    # Python integers, checking each elementary product and each partial
    # sum (accumulated in ascending inner index) against int64.
    acc = 0
    for u, v in zip(xi, yj):
        term = u * v
        if term < INT64_MIN or term > INT64_MAX:
            raise IntegerOverflow(f"product term at entry ({i}, {j}) leaves the 64-bit range")
        acc += term
        if acc < INT64_MIN or acc > INT64_MAX:
            raise IntegerOverflow(f"partial sum at entry ({i}, {j}) leaves the 64-bit range")


def _check_int64(x: np.ndarray, y: np.ndarray, x_abs=None) -> None:
    """Raise ``IntegerOverflow`` at the first entry of ``x @ y``, in
    row-major order, with a product term or an ascending partial sum
    outside int64.  ``x_abs``, when given, returns ``_magnitudes(x)``, so
    that a caller checking many products of one x forms it once.

    The certificate ``c = sum_k |x_ik| |y_kj|`` bounds every term and
    partial sum of its entry.  Computed on float64 BLAS, in any summation
    order, it reads at least ``(1 - g) c`` with ``g < 2 (inner + 2) 2**-53``
    (rounded inputs, products and sums), so an entry whose certificate reads
    at most ``2**63 - (inner + 2) 2**11`` has ``c < 2**63`` and fits; only
    the others run the exact check.
    """
    inner = x.shape[1]
    x_mag = _magnitudes(x) if x_abs is None else x_abs()
    cert = _float_product(_magnitudes(y), len(x), dtype=np.float64)(x_mag)
    for i, j in np.argwhere(cert > float((1 << 63) - (inner + 2) * (1 << 11))).tolist():
        _check_entry(x[i].tolist(), y[:, j].tolist(), i, j)


def _limb_product(x: np.ndarray, y: np.ndarray, mx: int, my: int, p: int | None, scratch: dict | None = None):
    """The block product for ``x @ y`` exactly, reduced mod ``p`` or, for
    ``p`` None, in int64 (past 2**63 - 1 an int64 product is checked
    first), from limb products on float64 BLAS under ``_limb_plan``'s
    split; ``mx``, ``my`` bound the operands' magnitudes."""
    (rows, inner), cols = x.shape, y.shape[1]
    return _float_product(y, rows, _limb_plan(rows, inner, cols, mx, my, p is None), p, scratch=scratch)


def _einsum_product(y: np.ndarray, p: int | None):
    """The block product ``xb @ y`` on int64 ``einsum``, reduced mod ``p``
    when given: exact when every partial sum fits int64, and mod 2**64
    otherwise.  Over a transposed y, widened to int64 once, so both operands
    are read along rows and ``einsum`` widens a narrow xb as it reads it."""
    yt = np.ascontiguousarray(y.T) if y.itemsize == 8 else y.T.astype(np.int64)

    def product(xb: np.ndarray) -> np.ndarray:
        out = np.einsum("ik,jk->ij", xb, yt)
        if p:
            out %= p
        return out

    return product


def _exact_product(
    x: np.ndarray, y: np.ndarray, p: int | None, mx: int, my: int, scratch: dict | None = None,
    x_abs=None, dtype=np.int64,
):
    """The block product for ``x @ y`` computed exactly, mod ``p`` or in
    int64 for ``p`` None, from bounds ``mx >= max|x|`` and ``my >= max|y|``:
    the tier chosen from ``inner * mx * my``, a bound on every partial sum
    of the whole product (see the module docstring).  Past 2**63 - 1 an
    int64 product is checked first, then takes the tier its size picks:
    ``_check_int64`` runs here and nowhere else, so any ``IntegerOverflow``
    is raised by this call, before a row exists.  ``x_abs`` is passed on to
    it.  ``scratch`` is the pool of buffers its BLAS tiers share (see
    ``_float_product``).  The plain float64 tier writes an int64 product as
    ``dtype``, which must hold it; every other tier returns int64."""
    (rows, inner), cols = x.shape, y.shape[1]
    bound = inner * mx * my
    if bound > INT64_MAX and p is None:
        _check_int64(x, y, x_abs)
    # A narrow x converts to float64 faster than int64 einsum reads it, so
    # a large one takes BLAS even on one column.
    wide = cols > 1 or (x.itemsize < 8 and rows * inner > _EINSUM_MACS)
    if bound <= _FLOAT_EXACT and wide and inner > 1:
        return _float_product(y, rows, p=p, dtype=np.int64 if p else dtype, scratch=scratch)
    if (bound <= INT64_MAX or p is None) and (cols <= 2 or inner == 1 or rows * inner * cols <= _EINSUM_MACS):
        return _einsum_product(y, p)
    return _limb_product(x, y, mx, my, p, scratch)


def _exact_dot(x: _Dense, y: _Dense, ring: RingSpec, cls):
    """``x @ y`` computed exactly in ``ring`` as a ``cls`` in ``y``'s shape
    (a Vector for a vector): the chosen block product over all of x, from
    both operands' own magnitudes, counting ``rows * inner * cols`` scalar
    multiplies.  The result is stored at the width of the tier's bound,
    ``inner * max|x| * max|y|``, or p - 1 over Z_p, so it needs no scan.
    One call, not row blocks: filled from 128-row blocks, an n = 1024
    mat-vec ran 11% slower and an n = 1024 matmul 4% (interleaved, 2-vCPU
    Xeon VM)."""
    xa, p = x._a, ring.modulus
    ya = y._a.reshape(xa.shape[1], -1)
    mx, my = x._magnitude(), y._magnitude()
    bound = xa.shape[1] * mx * my if p is None else min(xa.shape[1] * mx * my, p - 1)
    product = _exact_product(xa, ya, p, mx, my, dtype=_width(bound))
    return cls._wrap(_block(xa, product).reshape(len(xa), *y._a.shape[1:]), ring, bound)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact schoolbook product; the Theta(n^3) deterministic baseline."""
    _same_ring(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    return _exact_dot(a, b, a.ring, Matrix)


def mat_vec(x: Matrix, r: Vector) -> Vector:
    """Matrix-vector product in Theta(rows * cols)."""
    _same_ring(x, r)
    if x.cols != len(r):
        raise DimensionMismatch(f"cannot apply {x.rows}x{x.cols} to length-{len(r)} vector")
    return _exact_dot(x, r, x.ring, Vector)


def mats_equal(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality; needs matching shapes and rings."""
    _same_ring(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"cannot compare {a.rows}x{a.cols} with {b.rows}x{b.cols}"
        )
    return bool(np.array_equal(a._a, b._a))


def column(x: Matrix, i: int) -> Vector:
    """Column ``i`` as a vector; valid indices are 0 <= i < cols."""
    if not 0 <= i < x.cols:
        raise IndexOutOfRange(f"column {i} outside [0, {x.cols})")
    return Vector._wrap(x._a[:, i].copy(), x.ring)


def _add_sub(a: Matrix, b: Matrix, sign: int, cols: np.ndarray | None = None) -> Matrix:
    """a + b or a - b.  When a and b hold columns ``cols`` (ascending) of
    two larger matrices, an overflow names its entry by those matrices'
    column: row-major order over the columns kept is their order there."""
    _same_ring(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"cannot combine {a.rows}x{a.cols} with {b.rows}x{b.cols}"
        )
    x, y, p = a._a, b._a, a.ring.modulus
    if p:
        # Both operands lie in [0, p), so x - y and x - (p - y) stay inside
        # int64 for every 64-bit p, where x + y might not.
        out = np.subtract(x, y if sign < 0 else np.subtract(p, y, dtype=np.int64), dtype=np.int64)
        out %= p
        return Matrix._wrap(out, a.ring, p - 1)
    # numpy widens as it reads, and a result of two int16 operands cannot wrap.
    out = (np.subtract if sign < 0 else np.add)(x, y, dtype=np.int64)
    if x.itemsize == 8 or y.itemsize == 8:
        # numpy wraps; a result whose sign the operands' signs rule out wrapped.
        wrapped = ((x ^ out) & ((x ^ y) if sign < 0 else (y ^ out))) < 0
        if wrapped.any():
            i, j = (int(k) for k in np.argwhere(wrapped)[0])
            raise IntegerOverflow(f"entry {(i, j if cols is None else int(cols[j]))} leaves the 64-bit range")
    return Matrix._wrap(out, a.ring)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum with the same overflow discipline as ``matmul``."""
    return _add_sub(a, b, 1)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise difference with the same overflow discipline as ``matmul``."""
    return _add_sub(a, b, -1)


def outer(u: Vector, v: Vector) -> Matrix:
    """Rank-one product u v^T."""
    _same_ring(u, v)
    col = Matrix._wrap(u._a.reshape(-1, 1), u.ring)
    row = Matrix._wrap(v._a.reshape(1, -1), u.ring)
    return _exact_dot(col, row, u.ring, Matrix)
