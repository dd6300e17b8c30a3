"""Fast RNS basis conversion and the fused key-switching pipeline (§4.3).

The paper's priced kernels beyond the NTT all reduce to *fast basis
extension* (HPS-style): an element known limb-wise in a source basis
``{q_1..q_L}`` is re-expressed in a target basis ``{p_1..p_K}`` without
ever reconstructing the big integer.  Writing ``Q = prod q_i`` and
``q_i_hat = Q / q_i``,

    x_hat_i = [x_i * q_i_hat^-1]_{q_i}                  (scale step)
    [x]_{p_j} = sum_i x_hat_i * [q_i_hat]_{p_j} - v * [Q]_{p_j}
    v = round-down of sum_i x_hat_i / q_i               (the correction)

:class:`BasisConverter` runs this entirely on ``(L, N)`` limb matrices:
the scale step is one vectorized per-row Shoup multiply, the CRT matrix
product is one ``(L_out, L_in, N)`` pass through
:meth:`~repro.rns.reduction.ShoupReducer.mulmod_cross` summed through a
batched :class:`~repro.poly.lazy.LazyAccumulator` (deferred folds, one
terminal fold per lane), and ``v`` is the floating-point correction term
— guarded by an exact resolution of the (measure-zero) boundary
coefficients from the source residues' mixed-radix digits
(:class:`~repro.rns.crt.CrtReconstructor`), so every output *bit-matches*
a big-int CRT reference, not just approximates it.

On top of the converter sit the key-switching kernels:

* :class:`ModUp` — extend one digit of the limb basis to the full
  extended basis ``Q ∪ P`` (digit rows are copied, the complement is
  converted);
* :class:`ModDown` — divide an extended-basis element by ``P`` exactly
  (convert the P-part back to Q, subtract, scale by ``P^-1``), the
  floor-division counterpart of ``exact_rescale``;
* :class:`KeySwitcher` — the fused hybrid key-switching pipeline, one
  chain per switch: per digit a ModUp, one extended forward NTT and the
  MAC into two lazy accumulators, then one fold, two extended inverse
  NTTs and two ModDowns.  That is ``dnum`` forward and 2 inverse passes
  over the ``L+K`` extended rows, with no redundant round trip; an
  NTT-domain operand adds one ``L``-row inverse unless it carries a
  cached coefficient twin.  The hoisted variant shares the front across
  rotations and the same finish.  All intermediates live in persistent
  per-switcher scratch buffers.  On the compiled tier the MAC (with a
  rotation's slot gather fused into it), the fold and ModDown's combine
  are one C call each.

Domain/representative conventions: conversion acts on the *canonical*
representative ``X in [0, Q)`` of the CRT reconstruction, and ModDown
computes ``floor(X / P)`` — the same conventions the big-int reference
uses, which is what makes bit-equality a meaningful test.  (The centered
variants CKKS noise analysis prefers differ by a data-independent shift
and are out of scope for this layer.)
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.analysis.sanitizer import assert_within, checked_mode
from repro.errors import LayoutError, ParameterError
from repro.poly.backends import compiled_library, resolve_backend
from repro.poly.lazy import LazyAccumulator
from repro.poly.ntt import _range_error
from repro.rns.crt import CrtReconstructor
from repro.rns.primes import digit_ranges
from repro.rns.reduction import NUMPY, ShoupReducer, shoup_mul

#: coefficients whose fractional CRT weight lies this close to a nonzero
#: integer are resolved exactly instead of trusting the float64
#: correction term.  float64 accumulates < L * 2^-52 of error over the
#: sum, so 2^-30 is ~4 million times wider than the worst case — the
#: guard fires only when the true value genuinely straddles a boundary
#: (x within ~Q * 2^-30 of 0 or Q), where floats cannot decide but the
#: half-compare of x's mixed-radix digits against Q/2 can.
_V_GUARD = 2.0**-30


def _as_ints(primes) -> list[int]:
    return [int(p) for p in primes]


class BasisConverter:
    """Fast basis extension from one RNS basis onto another.

    All per-prime constants are precomputed at construction: the inverse
    CRT weights ``q_i_hat^-1 mod q_i`` with Shoup companions (scale
    step), the ``(L_out, L_in)`` CRT matrix ``[q_i_hat]_{p_j}`` with
    per-row companions, and the v-correction constants ``[-Q]_{p_j}``.
    The converter's arithmetic is method-independent — canonical
    residues through the shared Shoup multiply
    (:func:`~repro.rns.reduction.shoup_mul`, on word registers) — so one
    converter serves every NTT backend, and its output bit-matches the
    big-int CRT reference by construction (see :meth:`_v_term`'s
    exactness guard).

    Scratch registers (three ``(L_out, L_in, N)`` tensors, a few
    ``(L, N)`` rows) are allocated lazily on first :meth:`convert` and
    reused for the life of the converter.  Steady-state conversions
    still allocate transients: the range check's boolean mask in
    :meth:`scale`, the float passes of the v-term and, on the numpy
    tier, the cast buffer of the cross tensor's row sum (about 130 KB
    peak for 12 source and 4 target limbs at N=1024).  ROADMAP item 4
    (plan-owned buffers) is where those go.
    """

    def __init__(
        self,
        src_primes,
        dst_primes,
        ring_degree: int,
        *,
        checked: bool | None = None,
        backend: str | None = None,
    ) -> None:
        self.src = _as_ints(src_primes)
        self.dst = _as_ints(dst_primes)
        self.n = int(ring_degree)
        self.checked = checked_mode(checked)
        #: dispatch tier for the scale step, the CRT tensor pass and
        #: ModDown's combine (same semantics as
        #: :class:`~repro.poly.batch_ntt.BatchNTT`'s ``backend``); the
        #: v-term and its boundary guard run in numpy on both tiers
        self.backend_tier = resolve_backend(backend)
        if not self.src or not self.dst:
            raise ParameterError("basis conversion needs non-empty bases")
        if len(set(self.src)) != len(self.src):
            raise ParameterError("source basis primes must be distinct")
        for q in (*self.src, *self.dst):
            if not (2 < q < 2**31):
                raise ParameterError(f"basis prime {q} out of 32-bit range")
        l_in, l_out = len(self.src), len(self.dst)

        #: Q = prod q_i
        self.modulus = 1
        for q in self.src:
            self.modulus *= q
        q_hat = [self.modulus // q for q in self.src]

        # Moduli and multiplicands are word columns, Shoup companions wide
        # ones; both tiers read these.
        col = lambda v: np.array(v, dtype=np.uint32).reshape(-1, 1)  # noqa: E731
        wide = lambda v: np.array(v, dtype=np.uint64).reshape(-1, 1)  # noqa: E731
        self._q_src, self._q_dst = col(self.src), col(self.dst)
        # Scale step: w_i = q_i_hat^-1 mod q_i with Shoup companions.
        w = [pow(h, -1, q) for h, q in zip(q_hat, self.src)]
        self._w = col(w)
        self._w_sh = wide([(wi << 32) // q for wi, q in zip(w, self.src)])
        # CRT matrix M[j, i] = q_i_hat mod p_j with per-row companions.
        self._m = np.array(
            [[h % p for h in q_hat] for p in self.dst], dtype=np.uint32
        )
        self._m_sh = np.array(
            [[(h % p << 32) // p for h in q_hat] for p in self.dst],
            dtype=np.uint64,
        )
        # v-correction constant (-Q) mod p_j, with companions.
        corr = [(-self.modulus) % p for p in self.dst]
        self._corr = col(corr)
        self._corr_sh = wide([(c << 32) // p for c, p in zip(corr, self.dst)])
        #: float64 reciprocals 1/q_i for the correction term
        self._inv_q = 1.0 / np.array(self.src, dtype=np.float64).reshape(-1, 1)

        #: batched Shoup reducer over the target basis — supplies
        #: mulmod_cross and the accumulator's per-row moduli
        self.reducer = ShoupReducer(self.dst)
        self._acc = LazyAccumulator(
            self.reducer, (l_out, self.n),
            checked=self.checked, backend=self.backend_tier,
        )
        #: worst-case |term| of one lazy product in the target basis, and
        #: of one summed cross-product row (see ``_convert_core``)
        self._term_bound = self.reducer.contract.lazy_bounds(max(self.dst))[1]
        self._row_bound = l_in * self._term_bound
        self._space: tuple | None = None

    def _workspace(self) -> tuple:
        if self._space is None:
            l_in, l_out, n = len(self.src), len(self.dst), self.n
            cross = (l_out, l_in, n)
            self._space = (
                np.empty((l_in, n), np.uint64),  # default scale output
                np.empty((l_in, n), np.uint32),  # word registers x, s, t
                np.empty((l_in, n), np.uint32),
                np.empty((l_in, n), np.uint32),
                np.empty((l_in, n), np.uint64),  # wide register h
                np.empty(cross, np.uint32),  # cross tensor and its s, t, h
                np.empty(cross, np.uint32),
                np.empty(cross, np.uint64),
                np.empty((l_out, n), np.uint64),  # row sums
                np.empty((l_in, n), np.float64),  # v weights
                np.empty(n, np.float64),  # v sum
                np.empty(n, np.float64),  # v rounding scratch
                np.empty((1, n), np.uint64),  # v as residues
                np.empty((l_out, n), np.uint64),  # default output
            )
        return self._space

    def scale(self, x: np.ndarray, out: np.ndarray | None = None):
        """The scale step: ``x_hat_i = x_i * q_i_hat^-1 mod q_i``.

        One vectorized per-row Shoup multiply over the whole ``(L_in, N)``
        limb matrix; exposed separately because tests pin its exact
        intermediate (and ModUp's digit reuse wants it cheap).
        """
        if x.shape != (len(self.src), self.n):
            raise LayoutError(
                f"expected ({len(self.src)}, {self.n}) source limbs, "
                f"got {x.shape}"
            )
        if x.size and np.any(x >= self._q_src):
            raise _range_error(x, self._q_src)
        if out is None:
            out = self._workspace()[0]
        return self._impl.scale_core(x, out)

    @cached_property
    def _impl(self):
        """The scale step, tensor pass and ModDown combine, chosen once on
        first use: :class:`~repro.poly.backends.compiled.CompiledConvert`
        for an unchecked converter on the compiled tier when the library
        loads, else this converter's numpy ``*_core`` methods."""
        lib = None if self.checked else compiled_library(self.backend_tier)
        if lib is None:
            return self
        from repro.poly.backends.compiled import CompiledConvert

        return CompiledConvert(self, lib)

    def scale_core(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The numpy scale step of range-checked ``x`` into ``out``."""
        x32, s, t, h = self._workspace()[1:5]
        q = self._q_src
        NUMPY.lo(x32, x)  # canonical residues are words
        shoup_mul(NUMPY, s, x32, self._w, self._w_sh, q, h, t)
        NUMPY.fold(out, s, q, t)
        return out

    def _v_term(self, x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
        """The correction multiplicities ``v = floor(sum x_hat_i / q_i)``.

        The sum is ``v + X/Q``, taken in float64.  A column whose sum lies
        within :data:`_V_GUARD` of a nonzero integer ``k`` has ``X``
        within ``~Q * 2^-30`` of 0 or of ``Q``, so ``v`` is ``k`` when
        ``X < Q/2`` and ``k - 1`` otherwise; the mixed-radix digits of
        those columns' source residues ``x`` decide which
        (:meth:`~repro.rns.crt.CrtReconstructor.upper_half`).  A sum that
        rounds to 0 needs no guard: its nonnegative terms sum below 1, so
        ``v`` is 0.  The returned ``v`` is *always* the exact integer the
        CRT identity needs — conversion stays bit-identical to the
        big-int reference even for adversarial inputs like ``X = Q - 1``.
        """
        fw, fs, fr, v_row = self._workspace()[9:13]
        np.multiply(x_hat, self._inv_q, out=fw)
        np.sum(fw, axis=0, out=fs)
        np.rint(fs, out=fr)
        np.subtract(fs, fr, out=fr)
        np.abs(fr, out=fr)
        near = np.nonzero(fr < _V_GUARD)[0]
        k = np.rint(fs[near])
        np.floor(fs, out=fs)
        np.copyto(v_row[0], fs, casting="unsafe")
        boundary = near[k != 0]
        if boundary.size:
            upper = self._crt.upper_half(self._crt.digits(x[:, boundary]))
            v_row[0, boundary] = k[k != 0].astype(np.uint64) - upper
        return v_row

    @cached_property
    def _crt(self) -> CrtReconstructor:
        """The source basis's CRT reconstruction, for the boundary guard."""
        return CrtReconstructor(self.src, checked=self.checked)

    def convert_core(
        self, x_hat: np.ndarray, v_row: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """The numpy tensor pass: cross products + v-term + fold.

        Separated from :meth:`convert` as the dispatch seam — the
        compiled implementation replaces exactly this (canonical ``x_hat``
        and exact ``v`` in, canonical target residues out), never the
        v step.
        """
        space = self._workspace()
        x32, cross, cross_t, cross_h, sums = space[1], *space[5:9]
        NUMPY.lo(x32, x_hat)
        self.reducer.mulmod_cross(
            x32, self._m, self._m_sh, out=cross, scratch=(cross_h, cross_t)
        )
        np.add.reduce(cross, axis=1, out=sums)
        acc = self._acc
        acc.reset()
        acc.accumulate_value(sums, self._row_bound)
        # v-correction term v * [-Q]_{p_j}, the same Shoup multiply in the
        # registers' first slices (free once the rows are summed).
        s, t, h = cross[:, 0], cross_t[:, 0], cross_h[:, 0]
        v = x32[:1]
        NUMPY.lo(v, v_row)
        shoup_mul(NUMPY, s, v, self._corr, self._corr_sh, self._q_dst, h, t)
        acc.accumulate_value(s, self._term_bound)
        acc.fold_into(out)
        return out

    def combine_core(
        self,
        x_base: np.ndarray,
        conv: np.ndarray,
        w: np.ndarray,
        w_sh: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """ModDown's numpy combine ``out = (x_base - conv) * w mod p`` over
        the target basis; ``w`` / ``w_sh`` are the per-limb ``P^-1`` word
        column and its wide Shoup companion."""
        s, t, d, h = self._combine_regs
        q = self._q_dst
        NUMPY.lo(d, conv)
        NUMPY.sub(s, q, d)  # q - conv in (0, q]
        NUMPY.lo(d, x_base)
        NUMPY.add(s, s, d)  # x - conv + q in (0, 2q)
        NUMPY.fold(d, s, q, t)  # canonical difference
        shoup_mul(NUMPY, s, d, w, w_sh, q, h, t)
        NUMPY.fold(out, s, q, t)
        return out

    @cached_property
    def _combine_regs(self) -> tuple[np.ndarray, ...]:
        """The numpy combine's registers: words s, t, d and a wide h."""
        shape = (len(self.dst), self.n)
        return (*(np.empty(shape, np.uint32) for _ in range(3)),
                np.empty(shape, np.uint64))

    def convert(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(L_in, N)`` residues in the source basis -> ``(L_out, N)``.

        Exact: output row ``j`` is ``X mod p_j`` for the canonical CRT
        representative ``X in [0, Q)`` of ``x``.  When ``out`` is omitted
        the result lands in (and is returned as) converter-owned scratch
        overwritten by the next call.
        """
        x_hat = self.scale(x)
        v_row = self._v_term(x, x_hat)
        if out is None:
            out = self._workspace()[13]
        self._impl.convert_core(x_hat, v_row, out)
        if self.checked:
            assert_within(
                out, self.reducer.q - np.uint64(1),
                kernel="BasisConverter", stage="convert output",
            )
        return out


class ModUp:
    """Extend one digit of a limb basis onto the full extended basis.

    ``ext_primes`` is the extended basis (base limbs then auxiliary
    limbs); the digit occupies rows ``[lo, hi)``.  :meth:`apply` copies
    the digit rows verbatim and fills the complement — the rows before
    ``lo``, after ``hi``, and the whole P-part — from one
    :class:`BasisConverter` pass.
    """

    def __init__(
        self,
        ext_primes,
        lo: int,
        hi: int,
        ring_degree: int,
        *,
        checked: bool | None = None,
        backend: str | None = None,
    ) -> None:
        ext = _as_ints(ext_primes)
        if not 0 <= lo < hi <= len(ext):
            raise ParameterError(
                f"digit rows [{lo}, {hi}) outside the {len(ext)}-limb "
                "extended basis"
            )
        if hi - lo == len(ext):
            raise ParameterError(
                "digit covers the whole extended basis; nothing to extend"
            )
        self.lo, self.hi = lo, hi
        self.num_ext = len(ext)
        self.converter = BasisConverter(
            ext[lo:hi], ext[:lo] + ext[hi:], ring_degree,
            checked=checked, backend=backend,
        )

    def apply(self, digit: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``digit`` (digit rows, coeff domain) -> ``out`` (L_ext, N)."""
        lo, hi = self.lo, self.hi
        conv = self.converter.convert(digit)
        out[:lo] = conv[:lo]
        out[lo:hi] = digit
        out[hi:] = conv[lo:]
        return out


class ModDown:
    """Exact division by the auxiliary modulus ``P`` (floor convention).

    For an extended-basis element with canonical representative
    ``X in [0, Q*P)``, computes ``floor(X / P)`` in the base basis:
    convert the P-part residues back onto Q, subtract, and scale by the
    cached ``P^-1 mod q_i`` — the key-switching counterpart of
    ``exact_rescale`` (which divides by one limb; this divides by the
    whole P-part in one pass).  Both steps run on the converter's
    implementation: the conversion, and :meth:`combine` as one C loop on
    the compiled tier (numpy for a checked ModDown, like its converter).
    """

    def __init__(
        self,
        base_primes,
        aux_primes,
        ring_degree: int,
        *,
        checked: bool | None = None,
        backend: str | None = None,
    ) -> None:
        self.base = _as_ints(base_primes)
        self.aux = _as_ints(aux_primes)
        self.n = int(ring_degree)
        self.checked = checked_mode(checked)
        self.converter = BasisConverter(
            self.aux, self.base, ring_degree,
            checked=self.checked, backend=backend,
        )
        self.p_modulus = 1
        for p in self.aux:
            self.p_modulus *= p
        # word columns, and P^-1's wide Shoup companion; both tiers read these
        col = lambda v, dt=np.uint32: np.array(v, dtype=dt).reshape(-1, 1)  # noqa: E731
        self._q = col(self.base)
        pinv = [pow(self.p_modulus, -1, q) for q in self.base]
        self._pinv = col(pinv)
        self._pinv_sh = col(
            [(w << 32) // q for w, q in zip(pinv, self.base)], np.uint64
        )

    def combine(
        self, x_base: np.ndarray, conv: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out = (x_base - conv) * P^-1 mod q`` on ``(L, N)`` rows."""
        self.converter._impl.combine_core(
            x_base, conv, self._pinv, self._pinv_sh, out
        )
        if self.checked:
            assert_within(
                out, self._q - np.uint32(1),
                kernel="ModDown", stage="combine output",
            )
        return out

    def apply(self, x_ext: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Coefficient-domain ModDown of an ``(L+K, N)`` limb matrix."""
        num_base = len(self.base)
        if x_ext.shape != (num_base + len(self.aux), self.n):
            raise LayoutError(
                f"expected ({num_base + len(self.aux)}, {self.n}) extended "
                f"limbs, got {x_ext.shape}"
            )
        conv = self.converter.convert(x_ext[num_base:])
        return self.combine(x_ext[:num_base], conv, out)


# ---------------------------------------------------------------------------
# Hybrid key switching
# ---------------------------------------------------------------------------


class KeySwitchKey:
    """A hybrid key-switching key: ``dnum`` NTT-domain polynomial pairs.

    Each pair lives in the *extended* context (base limbs then auxiliary
    limbs) in the NTT domain; pair ``d`` multiplies the ModUp-extension
    of digit ``d``.  The pairs cache their reducer-prepared operands on
    first use, so a long-lived key pays Shoup-companion / Montgomery
    ``to_form`` precompute exactly once across all switches.

    This layer treats the key as opaque data — the pipeline is linear in
    the key, so correctness (bit-matching the composed reference) is
    independent of how the pairs were generated; :meth:`random` supplies
    uniform pairs for tests and benchmarks.
    """

    def __init__(self, ext_ctx, num_aux: int, pairs) -> None:
        from repro.poly.rns_poly import NTT

        self.ext_ctx = ext_ctx
        self.num_aux = int(num_aux)
        if not 1 <= self.num_aux < ext_ctx.num_limbs:
            raise ParameterError(
                f"num_aux={num_aux} must lie in [1, {ext_ctx.num_limbs})"
            )
        self.pairs = [tuple(pair) for pair in pairs]
        if not self.pairs:
            raise ParameterError("a key-switching key needs >= 1 digit pair")
        for pair in self.pairs:
            if len(pair) != 2:
                raise ParameterError("each digit needs a (k0, k1) pair")
            for k in pair:
                if not ext_ctx.compatible(k.ctx):
                    raise ParameterError(
                        "key pair context does not match the extended basis"
                    )
                if k.domain != NTT:
                    raise LayoutError("key pairs must be NTT-domain")

    @property
    def dnum(self) -> int:
        return len(self.pairs)

    @property
    def base_primes(self) -> list[int]:
        return self.ext_ctx.primes[: -self.num_aux]

    @property
    def aux_primes(self) -> list[int]:
        return self.ext_ctx.primes[-self.num_aux :]

    @classmethod
    def random(cls, ctx, aux_primes, dnum: int, rng) -> KeySwitchKey:
        """Uniform key pairs over ``ctx`` extended by ``aux_primes``."""
        ext_ctx = ctx.extend(aux_primes)
        pairs = [
            (ext_ctx.random(rng).to_ntt(), ext_ctx.random(rng).to_ntt())
            for _ in range(dnum)
        ]
        return cls(ext_ctx, len(_as_ints(aux_primes)), pairs)


class KeySwitcher:
    """The fused hybrid key-switching pipeline for one (ctx, P, dnum).

    Cached on the base :class:`~repro.poly.rns_poly.PolyContext` (see
    ``PolyContext.key_switcher``); holds every per-basis precompute — one
    :class:`ModUp` per digit, the :class:`ModDown`, the extended-basis
    batched NTT (twiddle tables shared with the base context via
    ``BatchNTT.extend``), two :class:`~repro.poly.lazy.LazyAccumulator`
    halves on the context's tier, and all transform scratch — so the
    stages' results land in reusable buffers.  A switch still allocates:
    its two output polynomials, the converters' transients (see
    :class:`BasisConverter`) and, on the numpy tier, the reducer's
    registers for every MAC product and a rotation's gathered operand.
    ROADMAP item 4 (plan-owned buffers) is where those go.  On the
    compiled tier the MAC, the fold and ModDown's combine are one C call
    each.

    :meth:`run` (one key switch) and :meth:`run_hoisted` (one key against
    a shared :meth:`hoist` front) differ only in where the NTT-domain
    extended digits come from; both end in the same fold → extended
    inverse NTT → ModDown finish.
    """

    def __init__(self, ctx, aux_primes, dnum: int) -> None:
        self.ctx = ctx
        self.aux = _as_ints(aux_primes)
        self.ext_ctx = ctx.extend(self.aux)
        self.num_ext = ctx.num_limbs + len(self.aux)
        self.digits = digit_ranges(ctx.num_limbs, dnum)
        self.dnum = dnum
        n = ctx.ring_degree
        ext_primes = self.ext_ctx.primes
        self.checked = ctx.checked
        self.backend = ctx.backend
        self.modups = [
            ModUp(
                ext_primes, lo, hi, n,
                checked=self.checked, backend=self.backend,
            )
            for lo, hi in self.digits
        ]
        self.moddown = ModDown(
            ctx.primes, self.aux, n,
            checked=self.checked, backend=self.backend,
        )
        ext_shape = (self.num_ext, n)
        self._ext_buf = np.empty(ext_shape, np.uint64)
        self._ahat = np.empty(ext_shape, np.uint64)
        self._c = (np.empty(ext_shape, np.uint64),
                   np.empty(ext_shape, np.uint64))

    @cached_property
    def _accs(self) -> tuple[LazyAccumulator, LazyAccumulator]:
        red = self.ext_ctx.batch_ntt.reducer
        shape = (self.num_ext, self.ctx.ring_degree)
        return tuple(
            LazyAccumulator(
                red, shape, checked=self.checked, backend=self.backend,
            )
            for _ in range(2)
        )

    def run(self, poly, ksk: KeySwitchKey):
        """Key-switch ``poly`` under ``ksk``: the coefficient-domain
        ``(c0, c1)`` pair.

        Per digit: ModUp onto ``Q ∪ P``, one extended forward NTT, and the
        MAC into both halves; then the shared finish.  An NTT-domain
        operand enters through ``to_coeff()`` — free when it carries a
        cached coefficient twin, one ``L``-row inverse otherwise.
        """
        if not self.ctx.compatible(poly.ctx):
            raise ParameterError("polynomial context does not match switcher")
        self._check_key(ksk)
        coeff_limbs = poly.to_coeff().limbs
        for acc in self._accs:
            acc.reset()
        for d, (lo, hi) in enumerate(self.digits):
            self.modups[d].apply(coeff_limbs[lo:hi], self._ext_buf)
            self.ext_ctx.batch_ntt.forward(self._ext_buf, out=self._ahat)
            self._mac(self._ahat, ksk, d)
        return self._finish()

    # -- hoisting (shared ModUp across rotations) --------------------------
    def hoist(self, poly, *, out: np.ndarray | None = None) -> np.ndarray:
        """Shared ModUp: extend + forward-transform every digit once.

        Returns the ``(dnum, L+K, N)`` NTT-domain extended digit tensor.
        A Galois automorphism acts on this tensor as a *pure* NTT-domain
        slot permutation per digit — ``sigma_k`` of the integer digit
        lift commutes with reduction mod every extended prime — so one
        ModUp + transform pass (the expensive front of a key switch)
        serves every rotation index; :meth:`run_hoisted` finishes each
        rotation from here.  This is the Halevi–Shoup hoisting trick on
        top of the hybrid pipeline.

        ``out``, when given, receives the tensor (a compiled caller's
        per-plan buffer) instead of a fresh allocation.
        """
        if not self.ctx.compatible(poly.ctx):
            raise ParameterError("polynomial context does not match switcher")
        coeff_limbs = poly.to_coeff().limbs
        shape = (self.dnum, self.num_ext, self.ctx.ring_degree)
        if out is None:
            hoisted = np.empty(shape, np.uint64)
        else:
            if out.shape != shape or out.dtype != np.uint64:
                raise LayoutError(
                    f"hoist output buffer {out.shape} ({out.dtype}) != "
                    f"{shape} (uint64)"
                )
            hoisted = out
        for d, (lo, hi) in enumerate(self.digits):
            self.modups[d].apply(coeff_limbs[lo:hi], self._ext_buf)
            self.ext_ctx.batch_ntt.forward(self._ext_buf, out=hoisted[d])
        return hoisted

    def run_hoisted(
        self,
        hoisted: np.ndarray,
        ksk: KeySwitchKey,
        *,
        perm: np.ndarray | None = None,
    ):
        """MAC + fold + ModDown of one key against hoisted digits.

        ``perm``, when given, is an NTT-domain slot gather (e.g.
        ``automorphism_tables(N, k)[2]``) applied to every digit row
        inside the MAC (the product call gathers its operand; the
        compiled tier fuses the gather into the product kernel) — the
        only per-rotation work ahead of the output transforms.  Returns
        the coefficient-domain ``(c0, c1)`` pair (rotations are followed
        by adds/rescales, which want coeff).

        A single rotation *is* ``run_hoisted(hoist(c1), ksk, perm=...)``
        — the production rotate path executes exactly this — so hoisted
        and independent rotations are bit-identical by construction.
        """
        self._check_key(ksk)
        expect = (self.dnum, self.num_ext, self.ctx.ring_degree)
        if np.shape(hoisted) != expect:
            raise LayoutError(
                f"hoisted digit tensor {np.shape(hoisted)} != {expect}"
            )
        for acc in self._accs:
            acc.reset()
        for d in range(self.dnum):
            self._mac(hoisted[d], ksk, d, perm)
        return self._finish()

    # -- the shared back half ----------------------------------------------
    def _check_key(self, ksk: KeySwitchKey) -> None:
        if (
            ksk.dnum != self.dnum
            or ksk.num_aux != len(self.aux)
            or not self.ext_ctx.compatible(ksk.ext_ctx)
        ):
            raise ParameterError(
                "key-switching key does not match this switcher's "
                "(basis, dnum) configuration"
            )

    def _mac(
        self,
        a_hat: np.ndarray,
        ksk: KeySwitchKey,
        d: int,
        perm: np.ndarray | None = None,
    ) -> None:
        """Accumulate digit ``d``'s two products into the c0/c1 halves."""
        for acc, key in zip(self._accs, ksk.pairs[d]):
            acc.accumulate_product(a_hat, key.prepared_operand(), perm=perm)

    def _finish(self):
        """Fold both halves, inverse-transform them over ``Q ∪ P`` and
        ModDown each onto ``Q``: the coefficient-domain ``(c0, c1)``."""
        from repro.poly.rns_poly import COEFF, RnsPolynomial

        c0, c1 = self._c
        self._accs[0].fold_into(c0)
        self._accs[1].fold_into(c1)
        ext_batch = self.ext_ctx.batch_ntt
        ext_batch.inverse(c0, out=c0)
        ext_batch.inverse(c1, out=c1)
        halves = []
        for c in (c0, c1):
            out = np.empty((self.ctx.num_limbs, self.ctx.ring_degree), np.uint64)
            self.moddown.apply(c, out)
            halves.append(RnsPolynomial(self.ctx, out, COEFF))
        return halves[0], halves[1]
