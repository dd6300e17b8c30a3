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
the scale step is one vectorized per-row Shoup chain, the CRT matrix
product is one ``(L_out, L_in, N)`` pass through
:meth:`~repro.rns.reduction.ShoupReducer.mulmod_cross` summed through a
batched :class:`~repro.poly.lazy.LazyAccumulator` (deferred folds, one
terminal fold per lane), and ``v`` is the floating-point correction term
— guarded by an exact big-int resolution of the (measure-zero) boundary
coefficients so every output *bit-matches* a big-int CRT reference, not
just approximates it.

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
  per-switcher scratch buffers.

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
from repro.poly.backends import make_convert_impl, resolve_backend
from repro.poly.lazy import LazyAccumulator
from repro.poly.ntt import _range_error
from repro.rns.primes import digit_ranges
from repro.rns.reduction import ShoupReducer

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: coefficients whose fractional CRT weight lies this close to an integer
#: are resolved with exact big-int arithmetic instead of trusting the
#: float64 correction term.  float64 accumulates < L * 2^-52 of error
#: over the sum, so 2^-30 is ~4 million times wider than the worst case —
#: the guard fires only when the true value genuinely straddles a
#: boundary (x within ~Q * 2^-30 of 0 or Q), where floats cannot decide.
_V_GUARD = 2.0**-30


def _as_ints(primes) -> list[int]:
    return [int(p) for p in primes]


class BasisConverter:
    """Fast basis extension from one RNS basis onto another.

    All per-prime constants are precomputed at construction: the inverse
    CRT weights ``q_i_hat^-1 mod q_i`` with Shoup companions (scale
    step), the ``(L_out, L_in)`` CRT matrix ``[q_i_hat]_{p_j}`` with
    per-row companions, and the v-correction constants ``[-Q]_{p_j}``.
    The converter's arithmetic is method-independent — canonical uint64
    residues through Shoup chains — so one converter serves every NTT
    backend, and its output bit-matches the big-int CRT reference by
    construction (see the module docstring's exactness guard).

    Scratch (two ``(L_out, L_in, N)`` tensors, a few ``(L, N)`` rows) is
    allocated lazily on first :meth:`convert` and reused for the life of
    the converter, so steady-state conversions allocate nothing.
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
        #: dispatch tier for the scale step and the CRT tensor pass (same
        #: semantics as :class:`~repro.poly.batch_ntt.BatchNTT`'s
        #: ``backend``); the exact v-term always runs in Python
        self.backend_tier = resolve_backend(backend)
        self._impl = None
        self._impl_ready = False
        if not self.src or not self.dst:
            raise ParameterError("basis conversion needs non-empty bases")
        if len(set(self.src)) != len(self.src):
            raise ParameterError("source basis primes must be distinct")
        for q in (*self.src, *self.dst):
            if not (2 < q < 2**31):
                raise ParameterError(f"basis prime {q} out of 32-bit range")
        l_in, l_out = len(self.src), len(self.dst)

        #: Q = prod q_i and the big-int CRT weights (kept for the exact
        #: resolution of boundary coefficients).
        self.modulus = 1
        for q in self.src:
            self.modulus *= q
        self._q_hat = [self.modulus // q for q in self.src]

        col = lambda v, dt=np.uint64: np.array(v, dtype=dt).reshape(-1, 1)  # noqa: E731
        self._q_src = col(self.src)
        # Scale step: w_i = q_i_hat^-1 mod q_i with Shoup companions.
        w = [pow(h, -1, q) for h, q in zip(self._q_hat, self.src)]
        self._w = col(w)
        self._w_sh = col([(wi << 32) // q for wi, q in zip(w, self.src)])
        # CRT matrix M[j, i] = q_i_hat mod p_j with per-row companions.
        self._m = np.array(
            [[h % p for h in self._q_hat] for p in self.dst], dtype=np.uint64
        )
        self._m_sh = np.array(
            [[(h % p << 32) // p for h in self._q_hat] for p in self.dst],
            dtype=np.uint64,
        )
        # v-correction constant (-Q) mod p_j, with companions.
        corr = [(-self.modulus) % p for p in self.dst]
        self._corr = col(corr)
        self._corr_sh = col([(c << 32) // p for c, p in zip(corr, self.dst)])
        #: float64 reciprocals 1/q_i for the correction term
        self._inv_q = 1.0 / np.array(self.src, dtype=np.float64).reshape(-1, 1)

        #: batched Shoup reducer over the target basis — supplies
        #: mulmod_cross and the accumulator's per-row moduli
        self.reducer = ShoupReducer(self.dst)
        self._acc = LazyAccumulator(
            self.reducer, (l_out, self.n), strategy="reduced",
            checked=self.checked,
        )
        #: worst-case |term| of one summed cross-product row (see fold)
        self._row_bound = l_in * (2 * max(self.dst) - 1)
        self._space: tuple | None = None

    def _workspace(self) -> tuple:
        if self._space is None:
            l_in, l_out, n = len(self.src), len(self.dst), self.n
            self._space = (
                np.empty((l_in, n), np.uint64),  # scale scratch a
                np.empty((l_in, n), np.uint64),  # scale scratch b
                np.empty((l_out, l_in, n), np.uint64),  # cross tensor
                np.empty((l_out, l_in, n), np.uint64),  # cross work
                np.empty((l_out, n), np.uint64),  # row sums
                np.empty((l_in, n), np.float64),  # v weights
                np.empty(n, np.float64),  # v sum
                np.empty(n, np.float64),  # v rounding scratch
                np.empty((1, n), np.uint64),  # v as residues
                np.empty((l_out, n), np.uint64),  # default output
                np.empty((l_out, n), np.uint64),  # v-term product scratch
            )
        return self._space

    def scale(self, x: np.ndarray, out: np.ndarray | None = None):
        """The scale step: ``x_hat_i = x_i * q_i_hat^-1 mod q_i``.

        One vectorized per-row Shoup chain over the whole ``(L_in, N)``
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
        s1, s2 = self._workspace()[:2]
        if out is None:
            out = s1
        impl = self._tier_impl()
        if impl is not None:
            res = impl.scale_core(np.ascontiguousarray(x, dtype=np.uint64), out)
            if res is not None:
                return res
        np.multiply(x, self._w_sh, out=s2)
        np.right_shift(s2, _SHIFT32, out=s2)  # hi = mulhi32(x, w')
        np.multiply(s2, self._q_src, out=s2)  # hi * q (low 64)
        np.multiply(x, self._w, out=out)
        np.subtract(out, s2, out=out)
        np.bitwise_and(out, _U32, out=out)  # in [0, 2q)
        np.subtract(out, self._q_src, out=s2)
        np.minimum(out, s2, out=out)  # canonical [0, q)
        return out

    def _v_term(self, x_hat: np.ndarray) -> np.ndarray:
        """The correction multiplicities ``v = floor(sum x_hat_i / q_i)``.

        Float64 with an exact big-int fallback: coefficients whose
        fractional weight lies within :data:`_V_GUARD` of an integer are
        recomputed as ``(sum x_hat_i * q_i_hat) // Q`` in Python ints, so
        the returned ``v`` is *always* the exact integer the CRT identity
        needs — conversion stays bit-identical to the big-int reference
        even for adversarial inputs like ``X = Q - 1``.
        """
        fw, fs, fr, v_row = self._workspace()[5:9]
        np.multiply(x_hat, self._inv_q, out=fw)
        np.sum(fw, axis=0, out=fs)
        np.rint(fs, out=fr)
        np.subtract(fs, fr, out=fr)
        np.abs(fr, out=fr)
        ambiguous = np.nonzero(fr < _V_GUARD)[0]
        np.floor(fs, out=fs)
        np.copyto(v_row[0], fs, casting="unsafe")
        for j in ambiguous:
            exact = sum(int(x_hat[i, j]) * self._q_hat[i] for i in range(len(self.src)))
            v_row[0, j] = exact // self.modulus
        return v_row

    def _tier_impl(self):
        """The lazily built compiled impl, or ``None`` for numpy."""
        if not self._impl_ready:
            self._impl_ready = True
            self._impl = make_convert_impl(self, self.backend_tier)
        return self._impl

    def _convert_core(
        self, x_hat: np.ndarray, v_row: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """The numpy-tier tensor pass: cross products + v-term + fold.

        Separated from :meth:`convert` as the dispatch seam — a backend
        impl replaces exactly this (canonical ``x_hat`` and exact ``v``
        in, canonical target residues out), never the scale/v steps.
        """
        space = self._workspace()
        cross, work, sums = space[2:5]
        self.reducer.mulmod_cross(x_hat, self._m, self._m_sh, out=cross, work=work)
        np.add.reduce(cross, axis=1, out=sums)
        acc = self._acc
        acc.reset()
        acc.accumulate_value(sums, self._row_bound)
        # v-correction term v * [-Q]_{p_j}, same Shoup chain in scratch
        # (sums is free again once accumulated above).
        t = space[10]
        q_dst = self.reducer.q
        np.multiply(v_row, self._corr_sh, out=t)
        np.right_shift(t, _SHIFT32, out=t)  # hi = mulhi32(v, corr')
        np.multiply(t, q_dst, out=t)
        np.multiply(v_row, self._corr, out=sums)
        np.subtract(sums, t, out=sums)
        np.bitwise_and(sums, _U32, out=sums)  # in [0, 2q)
        acc.accumulate_value(sums, 2 * max(self.dst) - 1)
        acc.fold_into(out)
        return out

    def convert(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(L_in, N)`` residues in the source basis -> ``(L_out, N)``.

        Exact: output row ``j`` is ``X mod p_j`` for the canonical CRT
        representative ``X in [0, Q)`` of ``x``.  When ``out`` is omitted
        the result lands in (and is returned as) converter-owned scratch
        overwritten by the next call.
        """
        x_hat = self.scale(x)
        v_row = self._v_term(x_hat)
        if out is None:
            out = self._workspace()[9]
        impl = self._tier_impl()
        res = (
            impl.convert_core(x_hat, v_row, out) if impl is not None else None
        )
        if res is None:
            self._convert_core(x_hat, v_row, out)
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
    whole P-part in one pass).
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
        col = lambda v: np.array(v, dtype=np.uint64).reshape(-1, 1)  # noqa: E731
        self._q = col(self.base)
        pinv = [pow(self.p_modulus, -1, q) for q in self.base]
        self._pinv = col(pinv)
        self._pinv_sh = col([(w << 32) // q for w, q in zip(pinv, self.base)])
        shape = (len(self.base), self.n)
        self._s1 = np.empty(shape, np.uint64)
        self._s2 = np.empty(shape, np.uint64)

    def combine(
        self, x_base: np.ndarray, conv: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out = (x_base - conv) * P^-1 mod q`` on ``(L, N)`` rows."""
        s1, s2 = self._s1, self._s2
        q = self._q
        np.subtract(q, conv, out=s1)  # q - conv in (0, q]
        np.add(s1, x_base, out=s1)  # x - conv + q in (0, 2q)
        np.subtract(s1, q, out=s2)
        np.minimum(s1, s2, out=s1)  # canonical difference
        np.multiply(s1, self._pinv_sh, out=s2)
        np.right_shift(s2, _SHIFT32, out=s2)
        np.multiply(s2, q, out=s2)  # hi * q
        np.multiply(s1, self._pinv, out=s1)
        np.subtract(s1, s2, out=s1)
        np.bitwise_and(s1, _U32, out=s1)  # in [0, 2q)
        np.subtract(s1, q, out=s2)
        np.minimum(s1, s2, out=out)
        if self.checked:
            assert_within(
                out, q - np.uint64(1),
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
    of digit ``d``.  The pairs cache their backend-prepared operands on
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
    halves, and all transform scratch — so every stage of a steady-state
    switch writes into reusable buffers (the reducer-level temporaries
    inside the MAC and the two output polynomials are the only fresh
    arrays).

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
        self.checked = bool(getattr(ctx, "checked", False))
        self.backend = getattr(ctx, "backend", None)
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
        self._signed = ctx.method == "smr"
        self._lanes = (np.empty(ext_shape, np.int64) if self._signed else None)

    @cached_property
    def _accs(self) -> tuple[LazyAccumulator, LazyAccumulator]:
        red = self.ext_ctx.batch_ntt.backend.red
        shape = (self.num_ext, self.ctx.ring_degree)
        return (
            LazyAccumulator(red, shape, strategy="reduced", checked=self.checked),
            LazyAccumulator(red, shape, strategy="reduced", checked=self.checked),
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
        before the MAC — the only per-rotation work ahead of the output
        transforms.  Returns the coefficient-domain ``(c0, c1)`` pair
        (rotations are followed by adds/rescales, which want coeff).

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
            if perm is None:
                a_hat = hoisted[d]
            else:
                a_hat = np.take(hoisted[d], perm, axis=1, out=self._ahat)
            self._mac(a_hat, ksk, d)
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

    def _mac(self, a_hat: np.ndarray, ksk: KeySwitchKey, d: int) -> None:
        """Accumulate digit ``d``'s two products into the c0/c1 halves."""
        shoup = self.ctx.method == "shoup"
        if self._signed:
            np.copyto(self._lanes, a_hat)
            lanes = self._lanes
        else:
            lanes = a_hat
        for acc, key in zip(self._accs, ksk.pairs[d]):
            parts = key.prepared_operand()
            if shoup:
                acc.accumulate_product(lanes, parts[0], b_shoup=parts[1])
            else:
                acc.accumulate_product(lanes, parts[0])

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
