"""Modular reduction methods (§4.1, Table 3 of the paper).

Implements the four reduction methods the paper compares — Barrett,
(unsigned) Montgomery, Shoup, and the signed Montgomery reduction (SMR,
Alg. 2) Cheddar adopts — in bit-faithful vectorized NumPy.  "Bit-faithful"
means each method is written in terms of the 32-bit primitive operations a
GPU int32 core provides (``mullo32``, ``mulhi32``, 32/64-bit adds), with the
same intermediate ranges, so unit tests can check the exact output-range
claims of Table 3 and the lazy-reduction accumulation bounds of §4.2.

Every method also carries its instruction cost so the GPU model can price
kernels (Table 3's "computation requirements" column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def mullo32(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Lower 32 bits of a 32x32-bit product (uint64 carrier)."""
    return (a * np.asarray(b, dtype=np.uint64)) & _U32


def mulhi32(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Upper 32 bits of a 32x32-bit unsigned product."""
    return ((a & _U32) * (np.asarray(b, dtype=np.uint64) & _U32)) >> _SHIFT32


def _signed_mulhi32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Upper 32 bits of a signed 32x32-bit product (int64 carrier)."""
    return (a.astype(np.int64) * b.astype(np.int64)) >> np.int64(32)


def _signed_mullo32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lower 32 bits of a product, reinterpreted as signed int32."""
    lo = (a.astype(np.int64) * b.astype(np.int64)) & np.int64(0xFFFFFFFF)
    return (lo ^ np.int64(1 << 31)) - np.int64(1 << 31)  # sign-extend bit 31


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


def _column(values: list[int], dtype) -> np.ndarray:
    return np.array(values, dtype=dtype).reshape(-1, 1)


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
    extra_consts: int  # precomputed constants per prime (per unique constant
    # for Shoup)
    output_range: str

    @property
    def total_instrs(self) -> int:
        return self.mul_instrs + self.add_instrs


@dataclass(frozen=True)
class ReducerContract:
    """Machine-readable range contract of one Table-3 reducer.

    The static analyzer (:mod:`repro.analysis.ranges`) seeds its interval
    domain from these contracts instead of re-deriving the output ranges
    from the implementations: ``output_lo_q``/``output_hi_q`` give the
    reducer's *lazy* output range as exclusive multiples of the modulus
    (``(-1, 1)`` means ``(-q, q)``; the unsigned reducers' ``(-1, 2)`` is
    ``[0, 2q)`` in their unsigned carrier), and ``precondition`` states
    the input domain under which that range — the reducer's axiom —
    holds.  The analyzer discharges the precondition with exact per-limb
    arithmetic and only then assumes the output range.

    The same fields fix §4.2's lazy-accumulation rule
    (:meth:`lazy_bounds`), which the accumulator, the kernel
    certificate, the plan checker and basis conversion all read.
    """

    name: str
    signed: bool
    carrier: str  # accumulator dtype the products ride in
    output_lo_q: int  # exclusive lower bound, as a multiple of q
    output_hi_q: int  # exclusive upper bound, as a multiple of q
    precondition: str
    axiom: str

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
        output_lo_q=-1, output_hi_q=2,
        precondition="a, b canonical in [0, q) with q < 2^31",
        axiom="r = x - floor(x*mu/2^64)*q lands in [0, 3q) for any "
              "x < 2^64; one conditional fold brings it into [0, 2q)",
    ),
    "montgomery": ReducerContract(
        "montgomery", signed=False, carrier="uint64",
        output_lo_q=-1, output_hi_q=2,
        precondition="x = a*b in [0, q*2^32)",
        axiom="t = (x + mullo32(x, -q^-1)*q) >> 32 < x/2^32 + q < 2q",
    ),
    "shoup": ReducerContract(
        "shoup", signed=False, carrier="uint64",
        output_lo_q=-1, output_hi_q=2,
        precondition="a < 2^32 and constant w in [0, q) with "
                     "w' = floor(w*2^32 / q)",
        axiom="(a*w - mulhi32(a, w')*q) mod 2^32 lands in [0, 2q)",
    ),
    "smr": ReducerContract(
        "smr", signed=True, carrier="int64",
        output_lo_q=-1, output_hi_q=1,
        precondition="|x| < q * 2^31 (Alg. 2)",
        axiom="x_hi - mulhi32(mullo32(x_lo, q^-1), q) lands in (-q, q)",
    ),
}


#: Table 3 of the paper, as data the GPU model consumes.
REDUCTION_COSTS = {
    "barrett": ReductionCost("barrett", mul_instrs=2 + 2, add_instrs=2,
                             extra_consts=1, output_range="[0, 2q)"),
    "montgomery": ReductionCost("montgomery", mul_instrs=2 + 1, add_instrs=2,
                                extra_consts=1, output_range="[0, 2q)"),
    "shoup": ReductionCost("shoup", mul_instrs=2, add_instrs=1,
                           extra_consts=-1, output_range="[0, 2q)"),
    "smr": ReductionCost("smr", mul_instrs=2, add_instrs=1,
                         extra_consts=1, output_range="(-q, q)"),
}


class BarrettReducer:
    """Classical Barrett reduction for a 64-bit product of 31-bit operands.

    Precomputes mu = floor(2^64 / q).  reduce(x) returns x mod q in [0, 2q)
    (Table 3); ``reduce_strict`` folds into [0, q).

    ``q`` may be one prime or a sequence of L primes; batched mode stores
    ``q``/``mu`` as ``(L, 1)`` columns broadcasting against ``(L, N)``
    limb-matrix data (one row per limb).
    """

    contract = REDUCER_CONTRACTS["barrett"]

    def __init__(self, q) -> None:
        qs, self.batched = _parse_moduli(q, "Barrett")
        for qi in qs:
            if not (2 < qi < 2**31):
                raise ParameterError(
                    f"Barrett modulus {qi} out of 32-bit range"
                )
        self.q_ints = qs
        if self.batched:
            self.q = _column(qs, np.uint64)
            # Each mu fits in 33 bits for q near 2^31, so uint64 carries it.
            self.mu = _column([(1 << 64) // qi for qi in qs], np.uint64)
        else:
            self.q = np.uint64(qs[0])
            self.mu = (1 << 64) // qs[0]  # fits in 33 bits for q near 2^31

    def mulmod(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """a * b mod q with result in [0, 2q) (Table 3).

        Valid input range: ``a`` and ``b`` must be canonical residues in
        ``[0, q)`` with ``q < 2^31``; the 64-bit product then never wraps
        and the mu-approximation error stays below 2q.  ``b`` may be a
        scalar or an array broadcastable against ``a``.
        """
        x = a.astype(np.uint64) * np.asarray(b, dtype=np.uint64)
        q = align_rows(self.q, x.ndim)
        # q_hat = floor(x * mu / 2^64), computed via the high product.
        # NumPy lacks 128-bit ints; emulate with 32-bit halves as a GPU would.
        x_hi = x >> _SHIFT32
        x_lo = x & _U32
        mu = align_rows(np.asarray(self.mu, dtype=np.uint64), x.ndim)
        mu_hi = mu >> _SHIFT32
        mu_lo = mu & _U32
        mid = (x_lo * mu_hi + ((x_lo * mu_lo) >> _SHIFT32) + x_hi * mu_lo)
        q_hat = x_hi * mu_hi + (mid >> _SHIFT32)
        r = x - q_hat * q
        return np.where(r >= 2 * q, r - 2 * q, r)

    def reduce_strict(self, r: np.ndarray) -> np.ndarray:
        q = align_rows(self.q, np.ndim(r))
        return np.where(r >= q, r - q, r)


class MontgomeryReducer:
    """Unsigned Montgomery reduction with R = 2^32.

    reduce(x) returns x * 2^-32 mod q in [0, 2q).  to_form / from_form
    convert into and out of the Montgomery representation x*2^32 mod q.
    """

    contract = REDUCER_CONTRACTS["montgomery"]

    def __init__(self, q) -> None:
        qs, self.batched = _parse_moduli(q, "Montgomery")
        for qi in qs:
            if not (2 < qi < 2**31) or qi % 2 == 0:
                raise ParameterError(f"Montgomery modulus {qi} invalid")
        self.q_ints = qs
        inv_neg = [(-pow(qi, -1, 1 << 32)) % (1 << 32) for qi in qs]
        r2 = [pow(1 << 32, 2, qi) for qi in qs]  # for to_form
        if self.batched:
            self.q = _column(qs, np.uint64)
            self.q_inv_neg = _column(inv_neg, np.uint64)
            self.r2 = _column(r2, np.uint64)
        else:
            self.q = np.uint64(qs[0])
            self.q_int = qs[0]
            self.q_inv_neg = np.uint64(inv_neg[0])
            self.r2 = r2[0]

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x in [0, q*2^32) -> x*2^-32 mod q, result in [0, 2q)."""
        m = mullo32(x & _U32, align_rows(self.q_inv_neg, np.ndim(x)))
        t = (x + m * align_rows(self.q, np.ndim(x))) >> _SHIFT32
        return t

    def mulmod(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """a * b * 2^-32 mod q with result in [0, 2q) (Table 3).

        Valid input range: any ``a, b >= 0`` with ``a * b < q * 2^32``;
        canonical residues in ``[0, q)`` — or lazy values in ``[0, 2q)``
        for ``q < 2^30`` — always qualify.  Note the implicit ``2^-32``
        factor: feed ``b`` in Montgomery form (``b * 2^32 mod q``, see
        :meth:`to_form`) to get a plain product out.  ``b`` may be a
        scalar or an array broadcastable against ``a``.
        """
        return self.reduce(a.astype(np.uint64) * np.asarray(b, dtype=np.uint64))

    def to_form(self, a: np.ndarray) -> np.ndarray:
        a = a.astype(np.uint64)
        return self.reduce_strict(self.mulmod(a, align_rows(self.r2, a.ndim)))

    def from_form(self, a: np.ndarray) -> np.ndarray:
        return self.reduce_strict(self.reduce(a.astype(np.uint64)))

    def reduce_strict(self, r: np.ndarray) -> np.ndarray:
        q = align_rows(self.q, np.ndim(r))
        return np.where(r >= q, r - q, r)


class ShoupReducer:
    """Shoup modular multiplication by a *constant* w.

    Requires precomputing w' = floor(w * 2^32 / q) per constant, which is
    the "many constants" drawback of Table 3: each unique multiplicand
    needs its own precomputed companion (extra memory traffic).
    """

    contract = REDUCER_CONTRACTS["shoup"]

    def __init__(self, q) -> None:
        qs, self.batched = _parse_moduli(q, "Shoup")
        for qi in qs:
            if not (2 < qi < 2**31):
                raise ParameterError(f"Shoup modulus {qi} out of range")
        self.q_ints = qs
        if self.batched:
            self.q = _column(qs, np.uint64)
        else:
            self.q = np.uint64(qs[0])
            self.q_int = qs[0]

    def precompute(self, w: int | np.ndarray) -> int | np.ndarray:
        """Companion constant(s) w' = floor(w * 2^32 / q) for w in [0, q).

        In batched mode ``w`` broadcasts row-wise against the ``(L, 1)``
        modulus column (a scalar, an ``(L, 1)`` column, or a full ``(L, N)``
        matrix of per-limb constants), and the range check applies per row.

        Raises:
            ParameterError: if any ``w >= q`` (or ``w < 0``).  For such w
                the companion exceeds 32 bits and ``mulmod_const`` would
                silently truncate it, producing wrong residues.
        """
        if self.batched:
            w_arr = np.asarray(w)
            if w_arr.size and w_arr.dtype.kind != "u" and int(w_arr.min()) < 0:
                raise ParameterError(
                    f"Shoup constant out of range: min={int(w_arr.min())} < 0"
                )
            w_u = w_arr.astype(np.uint64)
            q = align_rows(self.q, max(w_u.ndim, 2))
            if w_u.size and np.any(w_u >= q):
                raise ParameterError(
                    f"Shoup constant out of per-limb range [0, q): "
                    f"max={int(w_u.max())} vs min modulus {min(self.q_ints)}"
                )
            # w < q < 2^31, so w << 32 < 2^63 stays inside uint64.
            return (w_u << _SHIFT32) // q
        if isinstance(w, np.ndarray):
            if w.size and (int(w.min()) < 0 or int(w.max()) >= self.q_int):
                raise ParameterError(
                    f"Shoup constant out of range [0, {self.q_int}): "
                    f"min={int(w.min())}, max={int(w.max())}"
                )
            # w < q < 2^31, so w << 32 < 2^63 stays inside uint64.
            return (w.astype(np.uint64) << _SHIFT32) // np.uint64(self.q_int)
        if not 0 <= w < self.q_int:
            raise ParameterError(
                f"Shoup constant {w} out of range [0, {self.q_int}): "
                "precomputed companion would overflow 32 bits"
            )
        return (w << 32) // self.q_int

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
        w = np.asarray(w, dtype=np.uint64)
        w_shoup = np.asarray(w_shoup, dtype=np.uint64)
        hi = mulhi32(a.astype(np.uint64), w_shoup)
        # Align q to the *product's* rank, not a's: cross-basis uses push
        # higher-rank constants (an (L_out, 1) column against 1-D data),
        # and aligning to a.ndim would broadcast q along the wrong axis.
        q = align_rows(self.q, max(np.ndim(a), w.ndim, w_shoup.ndim))
        r = (a.astype(np.uint64) * w - hi * q) & _U32
        return r

    def mulmod_cross(
        self,
        x: np.ndarray,
        w: np.ndarray,
        w_shoup: np.ndarray,
        *,
        out: np.ndarray | None = None,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """Cross-basis product tensor: ``out[j, i] = x[i] * w[j, i] mod q_j``.

        The fast-basis-conversion shape: ``(L_in, N)`` scaled residues
        times an ``(L_out, L_in)`` constant matrix (``q_i_hat mod p_j``
        with its per-row Shoup companions), producing the
        ``(L_out, L_in, N)`` tensor of lazy products in ``[0, 2q_j)`` that
        a deferred-fold accumulator then sums over axis 1.  Requires
        batched mode with ``L_out`` moduli rows.

        ``out`` and ``work`` are optional ``(L_out, L_in, N)`` uint64
        scratch tensors (the converter preallocates them so the hot path
        never allocates); the result lands in — and is returned as —
        ``out``.
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
            out = np.empty(shape, dtype=np.uint64)
        if work is None:
            work = np.empty(shape, dtype=np.uint64)
        x3 = x[None, :, :].astype(np.uint64, copy=False)
        w3 = w.astype(np.uint64, copy=False)[:, :, None]
        ws3 = w_shoup.astype(np.uint64, copy=False)[:, :, None]
        q3 = align_rows(self.q, 3)
        np.multiply(x3, ws3, out=work)
        np.right_shift(work, _SHIFT32, out=work)  # hi = mulhi32(x, w')
        np.multiply(work, q3, out=work)  # hi * q (low 64 bits)
        np.multiply(x3, w3, out=out)  # x * w (exact, < 2^62)
        np.subtract(out, work, out=out)
        np.bitwise_and(out, _U32, out=out)  # in [0, 2q_j)
        return out

    def reduce_strict(self, r: np.ndarray) -> np.ndarray:
        q = align_rows(self.q, np.ndim(r))
        return np.where(r >= q, r - q, r)


class SignedMontgomeryReducer:
    """Signed Montgomery reduction (SMR), Alg. 2 of the paper.

    Works on signed representatives.  ``reduce(x)`` takes a 64-bit product
    x in [-q*2^31, q*2^31) and returns y = x * 2^-32 mod q with y in
    (-q, q) using exactly mulhi32 + mullo32 + a 32-bit subtract — the
    cheapest row of Table 3.

    The Montgomery constant here is m = q^-1 mod 2^32 interpreted as a
    *signed* 32-bit value, matching Alg. 2's requirement m in [-2^31, 2^31).
    """

    contract = REDUCER_CONTRACTS["smr"]

    def __init__(self, q) -> None:
        qs, self.batched = _parse_moduli(q, "SMR")
        for qi in qs:
            if not (2 < qi < 2**31) or qi % 2 == 0:
                raise ParameterError(f"SMR modulus {qi} invalid")
        self.q_ints = qs
        ms = []
        for qi in qs:
            m = pow(qi, -1, 1 << 32)
            if m >= 1 << 31:  # reinterpret as signed 32-bit
                m -= 1 << 32
            ms.append(m)
        r2 = [pow(1 << 32, 2, qi) for qi in qs]  # 2^64 mod q, for to_form
        r1 = [pow(1 << 32, 1, qi) for qi in qs]  # 2^32 mod q
        if self.batched:
            self.q = _column(qs, np.int64)
            self.m = _column(ms, np.int64)
            self.r2 = _column(r2, np.int64)
            self.r1 = _column(r1, np.int64)
        else:
            self.q_int = qs[0]
            self.q = np.int64(qs[0])
            self.m = np.int64(ms[0])
            self.r2 = r2[0]
            self.r1 = r1[0]

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Alg. 2: x (int64, |x| < q*2^31) -> x*2^-32 mod q in (-q, q)."""
        x = x.astype(np.int64, copy=False)
        x_hi = x >> np.int64(32)  # line 1 (bit extraction, arithmetic shift)
        x_lo = x & np.int64(0xFFFFFFFF)  # unsigned low half
        m = np.broadcast_to(align_rows(self.m, x.ndim), x_lo.shape)
        z = _signed_mullo32(x_lo, m)  # line 2
        q = np.broadcast_to(align_rows(self.q, x.ndim), z.shape)
        z = _signed_mulhi32(z, q)  # line 3
        return x_hi - z  # line 4

    def mulmod(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """a * b * 2^-32 mod q with result in (-q, q) (Table 3).

        Valid input range: signed representatives with ``|a| < 2^31`` and
        ``|b| < q``  (so ``|a*b| < q*2^31``, Alg. 2's precondition).  The
        usual case is both in ``(-q, q)``; the slack on ``a`` admits
        operands not yet folded back into that range.  Like Montgomery,
        the result carries a ``2^-32`` factor — pre-scale one operand
        with :meth:`to_form`.
        """
        prod = a.astype(np.int64) * (
            b.astype(np.int64) if isinstance(b, np.ndarray) else np.int64(b)
        )
        return self.reduce(prod)

    def to_form(self, a: np.ndarray) -> np.ndarray:
        """Lift canonical residues [0, q) into Montgomery form (-q, q)."""
        a = a.astype(np.int64)
        r2 = align_rows(np.asarray(self.r2, dtype=np.int64), a.ndim)
        return self.reduce(a * r2)

    def from_form(self, a: np.ndarray) -> np.ndarray:
        """Drop the 2^32 factor: Montgomery form -> canonical [0, q)."""
        return self.canonical(self.reduce(a.astype(np.int64)))

    def canonical(self, a: np.ndarray) -> np.ndarray:
        """Fold signed representatives (-q, q) into canonical [0, q)."""
        a = a.astype(np.int64, copy=False)
        q = align_rows(self.q, a.ndim)
        return np.where(a < 0, a + q, a).astype(np.uint64)

    def center(self, a: np.ndarray) -> np.ndarray:
        """Fold canonical residues [0, q) into centered (-q/2, q/2]."""
        a = a.astype(np.int64, copy=False)
        q = align_rows(self.q, a.ndim)
        return np.where(a > q // 2, a - q, a)


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
