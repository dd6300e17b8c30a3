"""Modular reduction methods (§4.1, Table 3 of the paper).

Implements the four reduction methods the paper compares — Barrett,
(unsigned) Montgomery, Shoup, and the signed Montgomery reduction (SMR,
Alg. 2) Cheddar adopts — bit-faithfully: each method's modular multiply
is written once, below, as a straight-line run of the 32-bit primitives a
GPU int32 core provides (``mulwide32``, ``mullo32``, ``mulhi32``, 32- and
64-bit adds, word shifts, the ``min(s, s - q)`` fold and SMR's sign fold)
on explicit typed registers.  So are the NTT butterfly bodies for both
stage-state kinds, the limb-wise add, subtract and negate, and
``exact_rescale``'s constant chain.

This module also decides what a residue looks like everywhere else: each
reducer's :meth:`~_Reducer.canonical` is the one fold from its output
range into ``[0, q)``, and its :meth:`~_Reducer.prepare` builds the one
operand form (``(w,)``, or Shoup's ``(w, w')``) that
:meth:`~_Reducer.mul_prepared`, the NTT tables, the lazy accumulator and
the C kernels consume.

A *primitive set* runs those definitions.  :data:`NUMPY` executes every
primitive as an in-place ufunc on the caller's arrays, and every numpy
caller runs the definitions through it: the reducer classes here, the
batched NTT's stage kernels, the polynomial layer's limb-wise ops, the
basis converter, ModDown, the rescale and the lazy accumulator.
:mod:`repro.analysis.ranges` interprets the same functions over exact
intervals, so the range certificate is about the op sequence that runs;
the tests count each definition's primitives against Table 3
(:data:`REDUCTION_COSTS`, the data the plan pricing reads).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError


def _parse_moduli(q, label: str) -> tuple[list[int], bool]:
    """Normalize a modulus spec into ``(values, batched)``.

    A plain int is the classic single-prime mode.  A sequence / 1-D array /
    ``(L, 1)`` column of primes selects *batched* mode: every reducer
    constant becomes an ``(L, 1)`` column vector that broadcasts row-wise
    against ``(L, N)`` limb-matrix data, so one vectorized pass reduces all
    limbs at once (the paper's limb-parallel execution).
    """
    if isinstance(q, (int, np.integer)):
        return [int(q)], False
    arr = np.asarray(q)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(
            f"{label} moduli must be one int or a non-empty 1-D/(L, 1) "
            f"sequence of ints, got shape {np.shape(q)}"
        )
    return [int(v) for v in arr], True


def align_rows(c, ndim: int):
    """Reshape an ``(L, 1)`` per-limb constant column to broadcast against
    limb-major data of the given ndim.

    NTT stages view the ``(L, N)`` limb matrix as ``(L, m, t)`` blocks;
    a 2-D column does not broadcast against 3-D data under NumPy's
    trailing-axis rules, so constants grow trailing singleton axes to
    match.  Scalars and already-matching arrays pass through untouched.
    """
    if not isinstance(c, np.ndarray) or c.ndim < 2 or c.ndim == ndim:
        return c
    return c.reshape(c.shape[0], *([1] * (ndim - 1)))


@dataclass(frozen=True)
class ReductionCost:
    """Instruction cost of one modular multiplication (Table 3).

    Costs are expressed in equivalent int32 instructions.  ``mulwide32``
    counts as two (it writes a 64-bit result through the 32-bit datapath);
    ``mulhi`` and ``mullo`` count as one each; 64-bit adds count as two.
    """

    name: str
    mul_instrs: int
    add_instrs: int

    @property
    def total_instrs(self) -> int:
        return self.mul_instrs + self.add_instrs


@dataclass(frozen=True)
class OperandPart:
    """One part of a reducer's prepared operand for canonical ``w``: the
    register type the multiply reads it as, and the inclusive range
    ``span(q)`` of its values (``prepare`` keeps each in 64-bit words)."""

    dtype: str
    span: Callable[[int], tuple[int, int]] = field(repr=False, compare=False)


#: ``w`` itself, or a Montgomery form of it: a canonical residue
_CANONICAL = OperandPart("uint64", lambda q: (0, q - 1))


@dataclass(frozen=True)
class ReducerContract:
    """Machine-readable range contract of one Table-3 reducer.

    ``output_lo_q``/``output_hi_q`` give the reducer's *lazy* output range
    as exclusive multiples of the modulus (``(-1, 1)`` means ``(-q, q)``;
    the unsigned reducers' ``(-1, 2)`` is ``[0, 2q)`` in their unsigned
    carrier).  ``axiom`` is the fact interval arithmetic cannot derive —
    the reduced value lies below ``axiom_hi_q * q`` (Barrett's residual
    before its fold: ``3q``) — and ``admits(q, v, w)`` is its
    precondition over the multiply's operand ranges (anything with
    ``lo``/``hi``).  Each definition names its axiom at the step where it
    applies, and the range analyzer discharges ``admits`` before assuming
    the range.  ``prepared`` is the format of ``prepare``'s operand, one
    :class:`OperandPart` per part, which the NTT tables, the C product
    kernels, the range certificate and the pricing read.

    The same fields fix §4.2's lazy-accumulation rule
    (:meth:`lazy_bounds`), which the accumulator, the kernel
    certificate, the plan checker and basis conversion all read.
    """

    name: str
    signed: bool
    carrier: str  # accumulator dtype the products ride in
    output_lo_q: int  # exclusive lower bound, as a multiple of q
    output_hi_q: int  # exclusive upper bound, as a multiple of q
    axiom_hi_q: int  # exclusive upper bound of the axiom step
    axiom: str
    admits: Callable = field(repr=False, compare=False)
    prepared: tuple[OperandPart, ...] = field(repr=False, compare=False)

    def axiom_range(self, q: int) -> tuple[int, int]:
        """Inclusive ``(lo, hi)`` the axiom step's value lies in."""
        lo = self.output_lo_q * q + 1 if self.signed else 0
        return lo, self.axiom_hi_q * q - 1

    def lazy_bounds(self, q: int) -> tuple[int, int]:
        """(carrier maximum, per-term bound) of lazy accumulation mod ``q``.

        Reduced products ride unfolded in the ``carrier`` word, so its
        largest value caps the worst-case magnitude of the sum, and each
        product adds at most ``max(-output_lo_q, output_hi_q) * q - 1``:
        ``q - 1`` for SMR's ``(-q, q)``, ``2q - 1`` for ``[0, 2q)``.
        Batched callers pass their largest limb modulus, the binding row.
        """
        per_term = max(-self.output_lo_q, self.output_hi_q) * int(q) - 1
        return int(np.iinfo(self.carrier).max), per_term

    def lazy_headroom(self, q: int, bound: int = 0) -> int:
        """Worst-case products that still fit a carrier already at ``bound``."""
        carrier_max, per_term = self.lazy_bounds(q)
        return (carrier_max - bound) // per_term


#: Range contracts the static analyzer discharges, one per Table-3 method.
REDUCER_CONTRACTS = {
    "barrett": ReducerContract(
        "barrett", signed=False, carrier="uint64",
        output_lo_q=-1, output_hi_q=2, axiom_hi_q=3,
        axiom="r = x - floor(x*mu/2^64)*q lands in [0, 3q) for any "
              "x < 2^64; one conditional fold brings it into [0, 2q)",
        # x = v*w in [0, 2^64)
        admits=lambda q, v, w: min(v.lo, w.lo) >= 0 and v.hi * w.hi < 2**64,
        prepared=(_CANONICAL,),
    ),
    "montgomery": ReducerContract(
        "montgomery", signed=False, carrier="uint64",
        output_lo_q=-1, output_hi_q=2, axiom_hi_q=2,
        axiom="t = (x + mullo32(x, -q^-1)*q) >> 32 < x/2^32 + q < 2q",
        # x = v*w in [0, q*2^32)
        admits=lambda q, v, w: (
            min(v.lo, w.lo) >= 0 and v.hi * w.hi < q << 32
        ),
        prepared=(_CANONICAL,),
    ),
    "shoup": ReducerContract(
        "shoup", signed=False, carrier="uint64",
        output_lo_q=-1, output_hi_q=2, axiom_hi_q=2,
        axiom="(v*w - mulhi32(v, w')*q) mod 2^32 lands in [0, 2q)",
        # v a word; w in [0, q), so its companion floor(w*2^32 / q) is a word
        admits=lambda q, v, w: (
            0 <= v.lo and v.hi < 2**32 and 0 <= w.lo and w.hi < q
        ),
        # w as a word, then its companion floor(w * 2^32 / q)
        prepared=(
            OperandPart("uint32", lambda q: (0, q - 1)),
            OperandPart("uint64", lambda q: (0, ((q - 1) << 32) // q)),
        ),
    ),
    "smr": ReducerContract(
        "smr", signed=True, carrier="int64",
        output_lo_q=-1, output_hi_q=1, axiom_hi_q=1,
        axiom="x_hi - mulhi32(mullo32(x_lo, q^-1), q) lands in (-q, q)",
        # |x| = |v*w| < q * 2^31 (Alg. 2)
        admits=lambda q, v, w: (
            max(-v.lo, v.hi) * max(-w.lo, w.hi) < q << 31
        ),
        # the signed Montgomery form, in (-q, q)
        prepared=(OperandPart("int64", lambda q: (-(q - 1), q - 1)),),
    ),
}


#: Table 3 of the paper, as data the GPU model consumes.  The tests count
#: each definition below against these rows (without its operand product).
REDUCTION_COSTS = {
    "barrett": ReductionCost("barrett", mul_instrs=2 + 2, add_instrs=2),
    "montgomery": ReductionCost("montgomery", mul_instrs=2 + 1, add_instrs=2),
    "shoup": ReductionCost("shoup", mul_instrs=2, add_instrs=1),
    "smr": ReductionCost("smr", mul_instrs=2, add_instrs=1),
}


# ---------------------------------------------------------------------------
# The primitives.
#
# Registers are typed by width: a *word* holds 32 bits, a *wide* register
# 64; on numpy a register is an array whose dtype is its type (uint32 /
# int32, uint64 / int64), and an op's width is its destination's.  A wide
# op may read a word held in a wide array.
#
#   mulwide(d, a, b)       d = a*b, the full product of two words (d wide)
#   mullo(d, a, b)         d = a*b mod 2^32 (d a word)
#   mulhi(d, a, b)         d = floor(a*b / 2^32) of two words, in a wide d
#   hi(d, x)               d = floor(x / 2^32), x's high word (d wide)
#   lo(d, x)               d = x mod 2^32, x's low word (a word, or a
#                          wide d zero-extends it)
#   add(d, a, b)           d = a + b, which must fit d
#   sub(d, a, b)           d = a - b modulo d's width
#   fold(d, s, m, t)       d = min(s, s - m): s - m if s >= m, else s
#                          (unsigned wrap select; t scratch)
#   sign_fold(d, s, q, t)  d = s + q if s < 0, else s (t scratch)
#   axiom(d, c, q, v, w)   contract c's axiom holds at d, given that its
#                          precondition held of the multiply's operands
#                          v and w; an annotation that computes nothing
#
# Registers may alias wherever a step reads an operand before it writes,
# except that a multiply's operands stay intact up to its axiom.
# ---------------------------------------------------------------------------


#: typed shift counts and masks: a Python int is converted on every call,
#: and NumPy 1.x promotes it with a uint64 scalar or 0-d array to float64
_SHIFT32 = {"u": np.uint64(32), "i": np.int64(32)}
_SIGN = np.int64(63)
_MASK32 = np.uint64(0xFFFFFFFF)


class _NumpyOps:
    """The numpy primitive set: in-place ufuncs on the caller's arrays.

    Operands have their destination's dtype, or a narrower one that a
    wide op first widens into the destination with a plain cast.
    """

    @staticmethod
    def mulwide(d, a, b):
        if a.dtype is not d.dtype:
            np.copyto(d, a)
            a = d
        np.multiply(a, b, out=d)

    @staticmethod
    def mullo(d, a, b):
        np.multiply(a, b, out=d)

    @staticmethod
    def mulhi(d, a, b):
        if a.dtype is not d.dtype:
            np.copyto(d, a)
            a = d
        np.multiply(a, b, out=d)
        np.right_shift(d, _SHIFT32[d.dtype.kind], out=d)

    @staticmethod
    def hi(d, x):
        np.right_shift(x, _SHIFT32[x.dtype.kind], out=d)

    @staticmethod
    def lo(d, x):
        if d.itemsize == 8:
            np.bitwise_and(x, _MASK32, out=d)
        else:
            np.copyto(d, x, casting="unsafe")

    @staticmethod
    def add(d, a, b):
        np.add(a, b, out=d)

    @staticmethod
    def sub(d, a, b):
        np.subtract(a, b, out=d)

    @staticmethod
    def fold(d, s, m, t):
        np.subtract(s, m, out=t)
        np.minimum(s, t, out=d)

    @staticmethod
    def sign_fold(d, s, q, t):
        np.right_shift(s, _SIGN, out=t)
        np.bitwise_and(t, q, out=t)
        np.add(s, t, out=d)

    @staticmethod
    def axiom(d, contract, q, v, w):
        pass


#: the primitive set every numpy caller runs the definitions through
NUMPY = _NumpyOps()

BARRETT, MONTGOMERY, SHOUP, SMR = (
    REDUCER_CONTRACTS[m] for m in ("barrett", "montgomery", "shoup", "smr")
)


# -- the Table-3 multiplies: out = v*w (mod q) in the contract's range ------


def barrett_mul(P, out, v, w, q, q2, mu_hi, mu_lo, x, xh, xl, mid, t):
    """Barrett: ``out = v*w mod q`` in ``[0, 2q)``, for ``v*w < 2^64``.

    ``mu = floor(2^64 / q)`` enters as its words ``mu_hi``/``mu_lo``;
    the estimate ``q_hat`` of ``floor(x*mu / 2^64)`` sums the half-word
    products and drops the low carries.  Wide: ``out``, ``x``, ``xh``,
    ``mid``, ``t``; ``xl`` holds a word.
    """
    P.mulwide(x, v, w)  # x = v*w
    P.hi(xh, x)
    P.lo(xl, x)
    P.mulwide(mid, xl, mu_hi)
    P.mulhi(t, xl, mu_lo)
    P.add(mid, mid, t)
    P.mulwide(t, xh, mu_lo)
    P.add(mid, mid, t)
    P.hi(mid, mid)
    P.mulwide(t, xh, mu_hi)
    P.add(t, t, mid)  # q_hat = x_hi*mu_hi + (mid >> 32)
    P.mulwide(t, t, q)
    P.sub(t, x, t)  # r = x - q_hat*q
    P.axiom(t, BARRETT, q, v, w)  # r in [0, 3q)
    P.fold(out, t, q2, x)  # [0, 2q)


def montgomery_mul(P, out, v, w, q, qinv, p, m, mq):
    """Montgomery, R = 2^32: ``out = v*w*2^-32 mod q`` in ``[0, 2q)``.

    ``qinv = -q^-1 mod 2^32``.  Words: ``out``, ``m``; wide: ``p``,
    ``mq``.  Feed ``w`` in Montgomery form to cancel the ``2^-32``.
    """
    P.mulwide(p, v, w)  # p = v*w < q*2^32
    P.lo(m, p)
    P.mullo(m, m, qinv)  # m = mullo32(p_lo, -q^-1)
    P.mulwide(mq, m, q)
    P.add(mq, mq, p)  # p + m*q, a multiple of 2^32
    P.hi(mq, mq)
    P.axiom(mq, MONTGOMERY, q, v, w)  # t < 2q
    P.lo(out, mq)


def shoup_mul(P, out, v, w, ws, q, h, t):
    """Shoup: ``out = v*w mod q`` in ``[0, 2q)`` for a constant ``w``.

    ``ws = floor(w * 2^32 / q)`` is ``w``'s precomputed companion.
    Words: ``out``, ``t``; wide: ``h``.
    """
    P.mulhi(h, v, ws)  # hi = mulhi32(v, w')
    P.lo(t, h)
    P.mullo(t, t, q)  # hi*q mod 2^32
    P.mullo(out, v, w)  # v*w mod 2^32
    P.sub(out, out, t)
    P.axiom(out, SHOUP, q, v, w)  # in [0, 2q)


def smr_mul(P, out, v, w, q, m, x, z, h):
    """SMR (Alg. 2): ``out = v*w*2^-32 mod q`` in ``(-q, q)``.

    ``m = q^-1 mod 2^32`` as a signed word.  Signed wide: ``out``, ``x``,
    ``h``; signed word: ``z``.
    """
    P.mulwide(x, v, w)  # x = v*w, |x| < q*2^31
    P.lo(z, x)
    P.mullo(z, z, m)  # z = mullo32(x_lo, m), signed
    P.mulhi(h, z, q)  # mulhi32(z, q), signed
    P.hi(x, x)  # x_hi
    P.sub(out, x, h)
    P.axiom(out, SMR, q, v, w)  # in (-q, q)


# -- the NTT stage kernels: twiddle products into the stage state ----------
#
# ``tw`` holds the twiddle table registers, ``k`` the limb constants
# (:meth:`stage_constants`, the state's fold modulus first) and ``r`` the
# scratch registers of :data:`STAGE_KINDS` (the first two are the
# butterfly's own).  ``out = v*w`` lands in the state's range: canonical
# ``[0, q)`` words, or Barrett's 2q-lazy wide state.


def _barrett_twiddle(P, out, v, tw, k, r):
    q2, q, mu_hi, mu_lo = k
    x, xh, mid, t, xl = r
    barrett_mul(P, out, v, tw[0], q, q2, mu_hi, mu_lo, x, xh, xl, mid, t)


def _montgomery_twiddle(P, out, v, tw, k, r):
    q, qinv, q64 = k
    s, t, p, mq, m = r
    montgomery_mul(P, s, v, tw[0], q64, qinv, p, m, mq)
    P.fold(out, s, q, t)


def _shoup_twiddle(P, out, v, tw, k, r):
    q = k[0]
    s, t, h = r
    shoup_mul(P, s, v, tw[0], tw[1], q, h, t)
    P.fold(out, s, q, t)


def _smr_twiddle(P, out, v, tw, k, r):
    m, q64 = k[1:]
    x, h, z, y = r[2:]
    smr_mul(P, y, v, tw[0], q64, m, x, z, h)
    P.sign_fold(y, y, q64, h)
    P.lo(out, y)


def ct_butterfly(P, twiddle, yu, yv, u, v, tw, k, r):
    """Cooley-Tukey: ``(u, v) -> (u + v*w, u - v*w)`` on the stage state.

    States lie in ``[0, qq)``, ``qq = k[0]``: ``q`` for canonical words,
    ``2q`` for Barrett's lazy wide state.  The product lands in ``yv``
    first.
    """
    qq, s, t = k[0], r[0], r[1]
    twiddle(P, yv, v, tw, k, r)
    P.add(s, u, yv)
    P.fold(yu, s, qq, t)
    P.add(s, u, qq)
    P.sub(s, s, yv)
    P.fold(yv, s, qq, t)


def gs_butterfly(P, twiddle, yu, yv, u, v, tw, k, r):
    """Gentleman-Sande: ``(u, v) -> (u + v, (u - v)*w)`` on the stage state."""
    qq, s, t = k[0], r[0], r[1]
    P.add(s, u, v)
    P.fold(yu, s, qq, t)
    P.add(s, u, qq)
    P.sub(s, s, v)
    P.fold(yv, s, qq, t)
    twiddle(P, yv, yv, tw, k, r)


# -- limb-wise ring ops: canonical residues in, canonical residues out -----
#
# ``t`` is the fold's scratch and must not alias ``out``.


def mod_add(P, out, a, b, q, t):
    """``out = a + b mod q``: the sum lies below ``2q``, one fold."""
    P.add(out, a, b)
    P.fold(out, out, q, t)


def mod_sub(P, out, a, b, q, t):
    """``out = a - b mod q``: ``a + q - b`` lies in ``(0, 2q)``, one fold.
    ``out`` must not alias ``b``."""
    P.add(out, a, q)
    P.sub(out, out, b)
    P.fold(out, out, q, t)


def mod_neg(P, out, a, q, t):
    """``out = -a mod q``: ``q - a`` lies in ``(0, q]``, and the fold
    takes ``q`` (a negated zero) to 0."""
    P.sub(out, q, a)
    P.fold(out, out, q, t)


@dataclass(frozen=True)
class StageKind:
    """How one family's NTT stage kernels hold their state.

    ``state`` is the coefficient register type and ``lazy`` its invariant
    (``[0, lazy*q)``); ``scratch`` the stage scratch registers' types,
    the butterfly's two first; ``twiddle`` the family's product into the
    state.  The twiddle tables take the types of the reducer contract's
    ``prepared`` parts.
    """

    state: str
    lazy: int
    scratch: tuple[str, ...]
    twiddle: Callable


STAGE_KINDS = {
    "barrett": StageKind(
        "uint64", 2, ("uint64",) * 5, _barrett_twiddle,
    ),
    "montgomery": StageKind(
        "uint32", 1, ("uint32", "uint32", "uint64", "uint64", "uint32"),
        _montgomery_twiddle,
    ),
    "shoup": StageKind(
        "uint32", 1, ("uint32", "uint32", "uint64"), _shoup_twiddle,
    ),
    "smr": StageKind(
        "uint32", 1, ("uint32", "uint32", "int64", "int64", "int32", "int64"),
        _smr_twiddle,
    ),
}


def rescale_constants(q_last: int, live: list[int]) -> tuple[list[int], ...]:
    """Per surviving limb ``q``: ``(q_L^-1 mod q, its Shoup companion,
    floor(2^32 / q), -q_L mod q)``, the constants :func:`rescale_limb`
    reads beside ``q`` and one."""
    inv = [pow(q_last, -1, q) for q in live]
    return (
        inv,
        [(w << 32) // q for w, q in zip(inv, live)],
        [(1 << 32) // q for q in live],
        [(q - q_last % q) % q for q in live],
    )


def rescale_limb(P, out, lift, limb, q, one, mu32, corr, inv, inv_sh, h, s, t, d):
    """``exact_rescale``'s chain for one surviving limb: canonical ``out``.

    ``lift = q_L - [c]_{q_L}`` is the dropped limb's centered remainder,
    shifted positive (a word below ``2 q_L``).  It reduces mod ``q`` as a
    Shoup multiply by one (companion ``mu32 = floor(2^32 / q)``); ``corr
    = -q_L mod q`` undoes the shift, the limb is added, and the
    difference ``d`` is scaled by ``inv = q_L^-1 mod q``.  Words: ``s``,
    ``t``, ``d``; wide: ``h``.
    """
    shoup_mul(P, s, lift, one, mu32, q, h, t)
    P.fold(s, s, q, t)
    P.add(s, s, corr)
    P.fold(s, s, q, t)
    P.add(s, s, limb)
    P.fold(d, s, q, t)
    shoup_mul(P, s, d, inv, inv_sh, q, h, t)
    P.fold(out, s, q, t)


# ---------------------------------------------------------------------------
# Reducer objects: per-limb constants plus the functional (allocating) API.
# ---------------------------------------------------------------------------


def _operands(dtype, *xs) -> list[np.ndarray]:
    return [np.asarray(x, dtype=dtype) for x in xs]


def _regs(shape, *dtypes) -> list[np.ndarray]:
    return [np.empty(shape, dtype=dt) for dt in dtypes]


class _Reducer:
    """Shared construction: validate the moduli, keep them as constants."""

    label = ""
    odd = False

    def __init__(self, q) -> None:
        qs, self.batched = _parse_moduli(q, self.label)
        for qi in qs:
            if not (2 < qi < 2**31) or (self.odd and qi % 2 == 0):
                raise ParameterError(f"{self.label} modulus {qi} invalid")
        self.q_ints = qs
        self.q = self._const(qs, np.int64 if self.contract.signed else np.uint64)

    def _const(self, values, dtype) -> np.ndarray:
        """Per-limb constants: an ``(L, 1)`` column when batched, else 0-d."""
        arr = np.array(values, dtype=dtype)
        return arr.reshape(-1, 1) if self.batched else arr.reshape(())

    def _aligned(self, *arrays):
        """``(shape, stage constants)`` broadcast against ``arrays``."""
        ndim = max(np.ndim(a) for a in (*arrays, self.q))
        consts = [align_rows(c, ndim) for c in self.stage_constants()]
        shape = np.broadcast_shapes(*(np.shape(a) for a in (*arrays, *consts)))
        return shape, consts

    def canonical(self, r) -> np.ndarray:
        """Fold the contract's output range into canonical ``[0, q)`` uint64.

        ``min(s, s - q)`` from the unsigned ``[0, 2q)``, the sign fold
        from SMR's ``(-q, q)``.  ``r`` widens to the modulus dtype first
        (word results too, so the dtype does not hang on promotion rules).
        """
        x = np.asarray(r, dtype=self.q.dtype)
        q = align_rows(self.q, x.ndim)
        out = np.empty(np.broadcast_shapes(x.shape, q.shape), x.dtype)
        fold = NUMPY.sign_fold if self.contract.signed else NUMPY.fold
        fold(out, x, q, out)
        return out.view(np.uint64)

    def prepare(self, w) -> tuple[np.ndarray, ...]:
        """The operand form :meth:`mul_prepared` consumes, for canonical
        ``w``: ``(w,)`` as it is here (Barrett); the Montgomery family
        stores ``w`` in its form and Shoup adds the companion.  Preparing
        once lets every product against ``w`` skip that work.  The parts
        are the contract's ``prepared``."""
        return (np.asarray(w, dtype=np.uint64),)

    def check_prepared(self, parts: tuple) -> tuple:
        """``parts``, or a :class:`ParameterError` when its length is not
        the prepared format's (a raw ``(w,)`` handed to Shoup, say)."""
        want = len(self.contract.prepared)
        if len(parts) != want:
            raise ParameterError(
                f"{self.label} prepared operand has {want} part(s), got {len(parts)}"
            )
        return parts

    def mul_prepared(self, a, parts: tuple) -> np.ndarray:
        """``a`` times an operand from :meth:`prepare`, in the contract's
        output range."""
        return self.mulmod(a, *self.check_prepared(parts))


class BarrettReducer(_Reducer):
    """Classical Barrett reduction for a 64-bit product of 31-bit operands.

    Precomputes mu = floor(2^64 / q).  ``mulmod`` returns the product mod
    q in [0, 2q) (Table 3); ``canonical`` folds into [0, q).

    ``q`` may be one prime or a sequence of L primes; batched mode stores
    ``q``/``mu`` as ``(L, 1)`` columns broadcasting against ``(L, N)``
    limb-matrix data (one row per limb).
    """

    contract = BARRETT
    label = "Barrett"

    def __init__(self, q) -> None:
        super().__init__(q)
        # Each mu fits in 33 bits for q near 2^31, so uint64 carries it.
        self.mu = self._const([(1 << 64) // qi for qi in self.q_ints], np.uint64)

    def stage_constants(self) -> tuple[np.ndarray, ...]:
        """(2q, q, mu_hi, mu_lo): the multiply's wide constant registers."""
        return (
            self.q * np.uint64(2), self.q,
            self.mu >> _SHIFT32["u"], self.mu & _MASK32,
        )

    def mulmod(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """a * b mod q with result in [0, 2q) (Table 3).

        Valid input range: ``a * b < 2^64`` (canonical or 2q-lazy
        residues with ``q < 2^31``).  ``b`` may be a scalar or an array
        broadcastable against ``a``.
        """
        a, b = _operands(np.uint64, a, b)
        shape, (q2, q, mu_hi, mu_lo) = self._aligned(a, b)
        out, x, xh, mid, t, xl = _regs(shape, *(np.uint64,) * 6)
        barrett_mul(NUMPY, out, a, b, q, q2, mu_hi, mu_lo, x, xh, xl, mid, t)
        return out


class MontgomeryReducer(_Reducer):
    """Unsigned Montgomery reduction with R = 2^32.

    ``mulmod(a, b)`` returns a * b * 2^-32 mod q in [0, 2q).  to_form /
    from_form convert into and out of the Montgomery representation
    x*2^32 mod q.
    """

    contract = MONTGOMERY
    label = "Montgomery"
    odd = True

    def __init__(self, q) -> None:
        super().__init__(q)
        qs = self.q_ints
        self.q_inv_neg = self._const(
            [(-pow(qi, -1, 1 << 32)) % (1 << 32) for qi in qs], np.uint64
        )
        self.r2 = self._const([pow(1 << 32, 2, qi) for qi in qs], np.uint64)

    def stage_constants(self) -> tuple[np.ndarray, ...]:
        """(q, -q^-1 mod 2^32) as words, then q wide."""
        return (
            self.q.astype(np.uint32), self.q_inv_neg.astype(np.uint32), self.q
        )

    def mulmod(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """a * b * 2^-32 mod q with result in [0, 2q) (Table 3).

        Valid input range: any ``a, b >= 0`` with ``a * b < q * 2^32``;
        canonical residues in ``[0, q)`` — or lazy values in ``[0, 2q)``
        for ``q < 2^30`` — always qualify.  Note the implicit ``2^-32``
        factor: feed ``b`` in Montgomery form (``b * 2^32 mod q``, see
        :meth:`to_form`) to get a plain product out.  ``b`` may be a
        scalar or an array broadcastable against ``a``.
        """
        a, b = _operands(np.uint64, a, b)
        shape, (_, qinv, q) = self._aligned(a, b)
        out, m = _regs(shape, np.uint32, np.uint32)
        p, mq = _regs(shape, np.uint64, np.uint64)
        montgomery_mul(NUMPY, out, a, b, q, qinv, p, m, mq)
        return out

    def to_form(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        return self.canonical(self.mulmod(a, align_rows(self.r2, a.ndim)))

    def from_form(self, a: np.ndarray) -> np.ndarray:
        return self.canonical(self.mulmod(a, 1))

    def prepare(self, w) -> tuple[np.ndarray, ...]:
        """``(w*2^32 mod q,)``: the form cancels each product's ``2^-32``."""
        return (self.to_form(w),)


class ShoupReducer(_Reducer):
    """Shoup modular multiplication by a *constant* w.

    Requires precomputing w' = floor(w * 2^32 / q) per constant, which is
    the "many constants" drawback of Table 3: each unique multiplicand
    needs its own precomputed companion (extra memory traffic).
    """

    contract = SHOUP
    label = "Shoup"

    def stage_constants(self) -> tuple[np.ndarray, ...]:
        """(q,) as a word."""
        return (self.q.astype(np.uint32),)

    def precompute(self, w: int | np.ndarray) -> np.ndarray:
        """Companion constant(s) w' = floor(w * 2^32 / q) for w in [0, q).

        ``w`` broadcasts row-wise against the modulus (in batched mode a
        scalar, an ``(L, 1)`` column, or a full ``(L, N)`` matrix of
        per-limb constants), and the range check applies per row.

        Raises:
            ParameterError: if any ``w >= q`` (or ``w < 0``).  For such w
                the companion exceeds 32 bits and ``mulmod_const`` would
                silently truncate it, producing wrong residues.
        """
        w_arr = np.asarray(w)
        if w_arr.size and w_arr.dtype.kind != "u" and int(w_arr.min()) < 0:
            raise ParameterError(
                f"Shoup constant out of range: min={int(w_arr.min())} < 0"
            )
        w_u = w_arr.astype(np.uint64)
        q = align_rows(self.q, max(w_u.ndim, self.q.ndim))
        if w_u.size and np.any(w_u >= q):
            raise ParameterError(
                f"Shoup constant out of per-limb range [0, q): "
                f"max={int(w_u.max())} vs min modulus {min(self.q_ints)}; "
                "the precomputed companion would overflow 32 bits"
            )
        # w < q < 2^31, so w << 32 < 2^63 stays inside uint64.
        return (w_u << np.uint64(32)) // q

    def prepare(self, w) -> tuple[np.ndarray, ...]:
        """``(w, w')``: the constant and its :meth:`precompute` companion."""
        w = np.asarray(w, dtype=np.uint64)
        return (w, self.precompute(w))

    def mul_prepared(self, a, parts: tuple) -> np.ndarray:
        return self.mulmod_const(a, *self.check_prepared(parts))

    def mulmod_const(
        self,
        a: np.ndarray,
        w: int | np.ndarray,
        w_shoup: int | np.ndarray,
    ) -> np.ndarray:
        """a * w mod q with result in [0, 2q) (Table 3).

        Valid input range: ``a`` in ``[0, 2q)`` (lazy inputs are fine —
        Shoup's error analysis only needs ``a < 2^32``), and ``w`` in
        ``[0, q)`` with ``w_shoup = precompute(w)``.  ``w`` may be a scalar
        or an array broadcastable against ``a`` (per-element constants, as
        the NTT's per-stage twiddle vectors require); ``precompute`` is the
        only sanctioned way to build ``w_shoup`` — it enforces ``w < q``.
        """
        a, w = _operands(np.uint32, a, w)
        w_shoup = np.asarray(w_shoup, dtype=np.uint64)
        # The shape follows the product's rank, not a's: cross-basis uses
        # push higher-rank constants (an (L_out, 1) column against 1-D
        # data), and aligning to a.ndim would broadcast q along the wrong
        # axis.
        shape, (q,) = self._aligned(a, w, w_shoup)
        out, t = _regs(shape, np.uint32, np.uint32)
        h = np.empty(shape, np.uint64)
        shoup_mul(NUMPY, out, a, w, w_shoup, q, h, t)
        return out

    def mulmod_cross(
        self,
        x: np.ndarray,
        w: np.ndarray,
        w_shoup: np.ndarray,
        *,
        out: np.ndarray | None = None,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Cross-basis product tensor: ``out[j, i] = x[i] * w[j, i] mod q_j``.

        The fast-basis-conversion shape: ``(L_in, N)`` scaled residues
        times an ``(L_out, L_in)`` constant matrix (``q_i_hat mod p_j``
        with its per-row Shoup companions), producing the
        ``(L_out, L_in, N)`` tensor of lazy products in ``[0, 2q_j)`` that
        a deferred-fold accumulator then sums over axis 1.  Requires
        batched mode with ``L_out`` moduli rows.

        ``out`` (a uint32 tensor of that shape) and ``scratch`` (a uint64
        and a uint32 tensor, the multiply's ``h`` and ``t``) are optional
        registers — the converter preallocates them so the hot path never
        allocates; the result lands in, and is returned as, ``out``.
        """
        if not self.batched:
            raise ParameterError(
                "mulmod_cross needs a batched Shoup reducer (one modulus "
                "row per output-basis prime)"
            )
        l_out = len(self.q_ints)
        if x.ndim != 2 or w.shape != (l_out, x.shape[0]):
            raise ParameterError(
                f"mulmod_cross: data {x.shape} vs constants {w.shape} "
                f"do not form an ({l_out}, L_in, N) cross product"
            )
        shape = (l_out, x.shape[0], x.shape[1])
        if out is None:
            out = np.empty(shape, np.uint32)
        h, t = scratch if scratch is not None else _regs(shape, np.uint64, np.uint32)
        x, w = _operands(np.uint32, x, w)
        shoup_mul(
            NUMPY, out, x[None], w[:, :, None],
            np.asarray(w_shoup, dtype=np.uint64)[:, :, None],
            align_rows(self.stage_constants()[0], 3), h, t,
        )
        return out


class SignedMontgomeryReducer(_Reducer):
    """Signed Montgomery reduction (SMR), Alg. 2 of the paper.

    Works on signed representatives.  ``mulmod(a, b)`` returns
    a * b * 2^-32 mod q in (-q, q) using exactly mulhi32 + mullo32 + a
    32-bit subtract after the product — the cheapest row of Table 3.

    The Montgomery constant here is m = q^-1 mod 2^32 interpreted as a
    *signed* 32-bit value, matching Alg. 2's requirement m in [-2^31, 2^31).
    """

    contract = SMR
    label = "SMR"
    odd = True

    def __init__(self, q) -> None:
        super().__init__(q)
        qs = self.q_ints
        ms = [pow(qi, -1, 1 << 32) for qi in qs]
        # reinterpret as signed 32-bit
        self.m = self._const([m - (1 << 32) if m >= 1 << 31 else m for m in ms],
                             np.int64)
        self.r2 = self._const([pow(1 << 32, 2, qi) for qi in qs], np.int64)

    def stage_constants(self) -> tuple[np.ndarray, ...]:
        """(q, m) as words, m signed, then q signed wide."""
        return (self.q.astype(np.uint32), self.m.astype(np.int32), self.q)

    def mulmod(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """a * b * 2^-32 mod q with result in (-q, q) (Table 3).

        Valid input range: signed representatives with ``|a| < 2^31`` and
        ``|b| < q``  (so ``|a*b| < q*2^31``, Alg. 2's precondition).  The
        usual case is both in ``(-q, q)``; the slack on ``a`` admits
        operands not yet folded back into that range.  Like Montgomery,
        the result carries a ``2^-32`` factor — pre-scale one operand
        with :meth:`to_form`.
        """
        a, b = _operands(np.int64, a, b)
        shape, (_, m, q) = self._aligned(a, b)
        out, x, h = _regs(shape, np.int64, np.int64, np.int64)
        z = np.empty(shape, np.int32)
        smr_mul(NUMPY, out, a, b, q, m, x, z, h)
        return out

    def to_form(self, a: np.ndarray) -> np.ndarray:
        """Lift canonical residues [0, q) into Montgomery form (-q, q)."""
        a = np.asarray(a, dtype=np.int64)
        return self.mulmod(a, align_rows(self.r2, a.ndim))

    def from_form(self, a: np.ndarray) -> np.ndarray:
        """Drop the 2^32 factor: Montgomery form -> canonical [0, q)."""
        return self.canonical(self.mulmod(a, 1))

    def prepare(self, w) -> tuple[np.ndarray, ...]:
        """``(w*2^32 mod q,)`` signed in ``(-q, q)``: the form cancels
        each product's ``2^-32``."""
        return (self.to_form(w),)


def make_reducer(method: str, q):
    """Factory over the four reduction methods of Table 3.

    ``q`` is one prime (classic scalar mode) or a sequence of L primes
    (batched mode: constants become ``(L, 1)`` columns broadcasting
    row-wise against ``(L, N)`` limb-matrix data).
    """
    if method == "barrett":
        return BarrettReducer(q)
    if method == "montgomery":
        return MontgomeryReducer(q)
    if method == "shoup":
        return ShoupReducer(q)
    if method == "smr":
        return SignedMontgomeryReducer(q)
    raise ParameterError(f"unknown reduction method {method!r}")
