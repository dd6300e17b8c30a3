"""Slot-wise linear-algebra workloads over encrypted SIMD vectors.

The paper-shaped workload layer on top of the canonical-embedding
encoder and the homomorphic evaluator: element-wise plaintext-vector
products, the Halevi–Shoup diagonal matrix-vector product in
baby-step/giant-step form, and BSGS (Paterson–Stockmeyer) polynomial
evaluation of encrypted inputs.

Scheduling — the parts that are not textbook:

* ``matvec`` factors the ``dim`` diagonals as ``d = g*bs + b`` and
  computes ``sum_g rot_{g*bs}( sum_b diag'_{g,b} ⊙ rot_b(ct) )``.  The
  fast path pays **one** shared ModUp for the whole baby front
  (:meth:`Evaluator.rotate_hoisted`), reuses the rotated ciphertexts
  across every giant step, and fuses each giant step's inner sum through
  one NTT-domain :meth:`RnsPolynomial.multiply_accumulate` per component
  (one inverse transform per giant step instead of one per diagonal); a
  giant step then costs exactly one more key switch.  The naive
  composition (:meth:`matvec_naive`) evaluates the *same* formula one
  diagonal at a time — an independent rotation, a plaintext multiply and
  an accumulate per diagonal.  Because hoisted rotations are
  bit-identical to independent ones and the NTT is linear over each
  limb's modular ring, the two paths produce **bit-identical**
  ciphertexts — the benchmark asserts this before timing, so the fast
  path cannot drift semantically.
* ``poly_eval`` evaluates ``p(x) = sum_k c_k x^k`` slot-wise with the
  baby/giant power split and *scale stacking*: no rescaling happens, so
  every product stays at the *input's* level (which may itself sit
  below keygen — plaintext operands are encoded and scale budgets
  checked against the operand's live basis) and ``x^k`` carries scale
  ``Delta^k``.  The scalar
  coefficients absorb the imbalance — ``c_{g*bs+b}`` is encoded at
  ``Delta^(bs*gs - g*bs - b)`` so every giant-step term lands at the
  common output scale ``Delta^(bs*gs)`` (the encoder's exact big-int
  path handles the huge constants).  The scale budget
  (:func:`stack_budget`, which the ML level planner checks too):
  ``bs*gs*log2(Delta)`` plus :data:`STACK_HEADROOM_BITS` must fit under
  ``log2(Q) - 1``; a :class:`ParameterError` names the shortfall
  otherwise.  The fast path computes each power of ``x`` once through a
  balanced halving tree; the naive composition re-derives the *same*
  tree for every monomial, so the two stay bit-identical while the fast
  path wins on reuse.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.poly.rns_poly import COEFF, RnsPolynomial
from repro.scheme.ciphertext import Ciphertext, Plaintext
from repro.scheme.encoder import CanonicalEncoder
from repro.scheme.evaluator import Evaluator, validate_rotations
from repro.scheme.ops import MAC, materialize


#: bits of noise/rounding headroom a poly_eval scale stack keeps under Q/2
STACK_HEADROOM_BITS = 8


def bsgs_split(count: int, baby_steps: int | None = None) -> tuple[int, int]:
    """``(baby, giant)`` split with ``baby * giant >= count``.

    Balanced by default; ``baby_steps`` overrides the baby count.
    """
    if count < 1:
        raise ParameterError(f"BSGS needs a positive term count, got {count}")
    if baby_steps is None:
        baby = math.isqrt(count)
        if baby * baby < count:
            baby += 1
    else:
        baby = int(baby_steps)
        if baby < 1:
            raise ParameterError(f"baby_steps must be >= 1, got {baby}")
    return baby, -(-count // baby)


def stack_budget(ct, coeffs: Sequence[float], stack: int) -> tuple[float, float]:
    """``(need, have)`` in bits for stacking ``ct``'s scale ``stack``-fold.

    ``need`` covers ``Delta^stack`` times the coefficient mass; ``have``
    is ``log2(Q/2)`` of ``ct``'s *live* basis (after rescales the stack
    must fit the remaining limbs, not the keygen-level Q) less
    :data:`STACK_HEADROOM_BITS`.  The stack fits iff ``need <= have``.
    """
    need = stack * math.log2(ct.scale) + math.log2(
        max(1.0, sum(abs(c) for c in coeffs))
    )
    return need, math.log2(ct.ctx.modulus) - 1 - STACK_HEADROOM_BITS


class SlotLinalg:
    """Slot-wise workloads bound to one (encoder, evaluator) pair.

    Args:
        encoder: the canonical-embedding encoder (fixes the ring and the
            slot orbit).
        evaluator: the homomorphic evaluator; needs Galois keys for the
            rotation indices :meth:`matvec_rotations` reports before
            :meth:`matvec` can run.
    """

    def __init__(self, encoder: CanonicalEncoder, evaluator: Evaluator):
        reason = encoder.ctx.mismatch_reason(evaluator.ctx)
        if reason is not None:
            raise ParameterError(f"encoder vs evaluator context: {reason}")
        self.encoder = encoder
        self.ev = evaluator
        self.ctx = evaluator.ctx
        # Per-level encoder cache: plaintext operands are encoded at the
        # *operand's* live basis so every workload keeps working after
        # rescales (the embedding tables are shared per ring degree, so
        # a lower-level encoder costs only the limb-lift bookkeeping).
        self._encoders = {tuple(self.ctx.primes): encoder}

    def _encoder_for(self, ctx) -> CanonicalEncoder:
        key = tuple(ctx.primes)
        enc = self._encoders.get(key)
        if enc is None:
            enc = CanonicalEncoder(ctx)
            self._encoders[key] = enc
        return enc

    # -- element-wise vector ops -------------------------------------------
    def multiply_vector(
        self, ct: Ciphertext, vector, *, scale: float | None = None
    ) -> Ciphertext:
        """Slot-wise product with a plaintext vector.

        The vector's length is its slot count (it must divide ``N/2``);
        the plaintext is encoded at ``scale`` (default: the ciphertext's
        own scale, so one rescale restores the level-entry scale).
        """
        vector = np.asarray(vector, dtype=np.complex128).ravel()
        pt = self._encoder_for(ct.ctx).encode(
            vector,
            ct.scale if scale is None else scale,
            num_slots=vector.size,
        )
        return self.ev.multiply_plain(ct, pt)

    def add_vector(self, ct: Ciphertext, vector) -> Ciphertext:
        """Slot-wise sum with a plaintext vector (encoded at ct's scale)."""
        vector = np.asarray(vector, dtype=np.complex128).ravel()
        pt = self._encoder_for(ct.ctx).encode(
            vector, ct.scale, num_slots=vector.size
        )
        return self.ev.add_plain(ct, pt)

    # -- BSGS diagonal matrix-vector product -------------------------------
    @staticmethod
    def matvec_rotations(dim: int, *, baby_steps: int | None = None) -> list[int]:
        """Rotation indices a ``dim``-slot matvec needs Galois keys for."""
        bs, gs = bsgs_split(dim, baby_steps)
        return list(range(1, bs)) + [g * bs for g in range(1, gs)]

    def _check_matrix(self, matrix) -> tuple[np.ndarray, int]:
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError(
                f"matvec needs a square matrix, got shape {matrix.shape}"
            )
        dim = Plaintext.validate_slots(self.encoder.n, matrix.shape[0])
        return matrix, dim

    def matvec(
        self,
        ct: Ciphertext,
        matrix,
        *,
        baby_steps: int | None = None,
        scale: float | None = None,
    ) -> Ciphertext:
        """BSGS diagonal matvec: hoisted baby front + fused inner MACs.

        Decodes to ``matrix @ slots`` at scale ``ct.scale * pt_scale``.
        Bit-identical to :meth:`matvec_naive` by construction.
        """
        matrix, dim = self._check_matrix(matrix)
        bs, gs = bsgs_split(dim, baby_steps)
        babies: dict[int, Ciphertext] = {0: ct}
        if bs > 1:
            babies.update(self.ev.rotate_hoisted(ct, list(range(1, bs))))
        return self._matvec(
            ct, matrix, dim, (bs, gs), scale, babies.__getitem__, fused=True
        )

    def matvec_naive(
        self,
        ct: Ciphertext,
        matrix,
        *,
        baby_steps: int | None = None,
        scale: float | None = None,
    ) -> Ciphertext:
        """The per-diagonal composition: one independent rotation, one
        plaintext multiply and one accumulate per matrix diagonal
        (the reference the benchmark times the fast path against)."""
        matrix, dim = self._check_matrix(matrix)
        bs, gs = bsgs_split(dim, baby_steps)

        def baby(b: int) -> Ciphertext:
            return ct if b == 0 else self.ev.rotate(ct, b)

        return self._matvec(ct, matrix, dim, (bs, gs), scale, baby, fused=False)

    def _matvec(
        self,
        ct: Ciphertext,
        matrix: np.ndarray,
        dim: int,
        split: tuple[int, int],
        scale: float | None,
        baby: Callable[[int], Ciphertext],
        *,
        fused: bool,
    ) -> Ciphertext:
        bs, gs = split
        validate_rotations(
            self.matvec_rotations(dim, baby_steps=bs), dim, "matvec"
        )
        pt_scale = ct.scale if scale is None else float(scale)
        encoder = self._encoder_for(ct.ctx)
        acc: Ciphertext | None = None
        for g in range(gs):
            terms: list[tuple[Ciphertext, Plaintext]] = []
            for b in range(bs):
                d = g * bs + b
                if d >= dim:
                    break
                # rot_{-g*bs} of diagonal d, so the giant rotation at the
                # end of the group realigns every product at once.
                diag = matrix[np.arange(dim), (np.arange(dim) + d) % dim]
                pt = encoder.encode(np.roll(diag, g * bs), pt_scale, num_slots=dim)
                terms.append((baby(b), pt))
            if not terms:
                continue
            if fused and len(terms) > 1:
                inner = self._fused_inner(terms)
            else:
                inner = None
                for baby_ct, pt in terms:
                    t = self.ev.multiply_plain(baby_ct, pt)
                    inner = t if inner is None else self.ev.add(inner, t)
            if g:
                inner = self.ev.rotate(inner, g * bs)
            acc = inner if acc is None else self.ev.add(acc, inner)
        assert acc is not None  # dim >= 1 guarantees at least one term
        return acc

    def _fused_inner(
        self, terms: Sequence[tuple[Ciphertext, Plaintext]]
    ) -> Ciphertext:
        """One giant step's inner sum through the op table's fused MAC.

        ``sum_b pt_b ⊙ baby_b`` per component through a single
        NTT-domain multiply-accumulate and **one** inverse transform,
        instead of an inverse per diagonal — bit-identical to the
        multiply-then-add chain (see :class:`~repro.scheme.ops.Mac`).
        """
        babies = [baby for baby, _ in terms]
        pts = [pt for _, pt in terms]
        consts, _ = MAC.capture(babies[0].ctx, pts, None)
        return materialize(
            MAC.apply(babies, pts, None, self.ev.noise_model, **consts)
        )

    # -- BSGS polynomial evaluation ----------------------------------------
    def poly_eval(
        self,
        ct: Ciphertext,
        coeffs: Sequence[float],
        *,
        baby_steps: int | None = None,
    ) -> Ciphertext:
        """``p(ct)`` slot-wise, with cached baby/giant powers."""
        return self._poly_eval(ct, coeffs, baby_steps, cached=True)

    def poly_eval_naive(
        self,
        ct: Ciphertext,
        coeffs: Sequence[float],
        *,
        baby_steps: int | None = None,
    ) -> Ciphertext:
        """The per-monomial composition: every power of ``x`` re-derived
        through the same balanced tree for every term it appears in."""
        return self._poly_eval(ct, coeffs, baby_steps, cached=False)

    def _poly_eval(
        self,
        ct: Ciphertext,
        coeffs: Sequence[float],
        baby_steps: int | None,
        *,
        cached: bool,
    ) -> Ciphertext:
        coeffs = [float(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if len(coeffs) < 2 or not any(coeffs[1:]):
            raise ParameterError(
                "poly_eval needs a nonzero coefficient of degree >= 1 "
                "(plain constants need no ciphertext)"
            )
        bs, gs = bsgs_split(len(coeffs), baby_steps)
        self._check_scale_budget(ct, coeffs, bs * gs)
        power = self._power_tree(ct, cached=cached)
        sc = ct.scale
        lvl_ctx = ct.ctx  # poly_eval never rescales: one level throughout
        acc: Ciphertext | None = None
        tail = 0.0  # the degree-0 coefficient, folded in at the end
        for g in range(gs):
            inner: Ciphertext | None = None
            for b in range(1, bs):
                k = g * bs + b
                if k >= len(coeffs):
                    break
                if coeffs[k] == 0.0:
                    continue
                pt = self._encode_constant(
                    coeffs[k], sc ** (bs * gs - g * bs - b), lvl_ctx
                )
                t = self.ev.multiply_plain(power(b), pt)
                inner = t if inner is None else self.ev.add(inner, t)
            c0 = coeffs[g * bs] if g * bs < len(coeffs) else 0.0
            if inner is not None:
                if c0:
                    inner = self.ev.add_plain(
                        inner, self._encode_constant(c0, inner.scale, lvl_ctx)
                    )
                term = inner if g == 0 else self.ev.multiply(power(g * bs), inner)
            elif c0 and g:
                term = self.ev.multiply_plain(
                    power(g * bs),
                    self._encode_constant(c0, sc ** (bs * gs - g * bs), lvl_ctx),
                )
            else:
                tail += c0
                continue
            acc = term if acc is None else self.ev.add(acc, term)
        assert acc is not None  # a degree >= 1 coefficient exists
        if tail:
            acc = self.ev.add_plain(
                acc, self._encode_constant(tail, acc.scale, lvl_ctx)
            )
        return acc

    def _power_tree(
        self, ct: Ciphertext, *, cached: bool
    ) -> Callable[[int], Ciphertext]:
        """``x^k`` through a balanced halving tree, optionally cached.

        Both variants walk the *same* tree (``x^k = x^(k - k//2) *
        x^(k//2)``), so cached and uncached evaluation stay
        bit-identical; caching only removes the recomputation.
        """
        cache: dict[int, Ciphertext] = {1: ct}

        def power(k: int) -> Ciphertext:
            if k in cache:
                return cache[k]
            half = k // 2
            v = self.ev.multiply(power(k - half), power(half))
            if cached:
                cache[k] = v
            return v

        return power

    def _check_scale_budget(
        self, ct: Ciphertext, coeffs: Sequence[float], stack: int
    ) -> None:
        """Refuse scale stacks that cannot fit under ``Q/2``."""
        if ct.scale <= 1.0:
            raise ParameterError(
                f"poly_eval needs a scale > 1 to stack, got {ct.scale}"
            )
        need, have = stack_budget(ct, coeffs, stack)
        if need > 960:
            raise ParameterError(
                f"poly_eval scale stack needs ~{need:.0f} bits, beyond "
                "float64 scale tracking; lower the degree or the scale"
            )
        if need > have:
            raise ParameterError(
                f"poly_eval scale budget: Delta^{stack} plus coefficient "
                f"mass needs ~{need:.0f} bits but level {ct.level} leaves "
                f"{have:.0f} (log2(Q/2) less {STACK_HEADROOM_BITS} bits of "
                "headroom); lower the degree, the scale, or baby_steps"
            )

    def _encode_constant(
        self, c: float, scale: float, ctx=None
    ) -> Plaintext:
        """Exact slot-constant plaintext: one scaled coefficient at X^0.

        A constant slot vector is a constant polynomial, so the encoding
        is ``round(c * scale)`` at coefficient 0 — built directly (and
        exactly, through Python ints when the scale stack exceeds int64)
        rather than through the float FFT, whose rounding dust would be
        amplified by the huge stacked scales.  ``ctx`` selects the live
        basis (default: the keygen level).
        """
        if scale <= 0 or not math.isfinite(scale):
            raise ParameterError(f"constant scale must be > 0, got {scale}")
        ctx = self.ctx if ctx is None else ctx
        ci = int(round(c * scale))
        if 2 * abs(ci) >= ctx.modulus:
            raise ParameterError(
                f"constant {c} at scale 2^{math.log2(scale):.1f} exceeds Q/2"
            )
        limbs = np.zeros((ctx.num_limbs, ctx.ring_degree), dtype=np.uint64)
        limbs[:, 0] = [ci % q for q in ctx.primes]
        poly = RnsPolynomial(ctx, limbs, COEFF, scale=float(scale))
        return Plaintext(poly, slots=self.encoder.slots)
