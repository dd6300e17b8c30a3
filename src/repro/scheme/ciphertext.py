"""Plaintexts and two-component RLWE ciphertexts with explicit state.

A :class:`Ciphertext` is the pair ``(c0, c1)`` decrypting as
``c0 + c1 * s``; it carries the *same* explicit
:class:`~repro.poly.rns_poly.LimbState` (domain / level / scale) the
polynomial layer uses, plus a heuristic noise estimate in bits.  The
evaluator reads this state to refuse unsound combinations (level
mismatches raise :class:`~repro.errors.LevelError`, scale mismatches
:class:`~repro.errors.ScaleMismatchError`) instead of silently producing
garbage.

:class:`Plaintext` wraps either packing: the plain coefficient encoding
(a real vector scaled by ``Delta`` and rounded into polynomial
coefficients, ``slots is None``) or the canonical-embedding SIMD packing
produced by :class:`~repro.scheme.encoder.CanonicalEncoder`, in which
case ``slots`` records the packed slot count — a value that must divide
``N/2`` (the embedding has exactly ``N/2`` conjugate-pair evaluation
points, and only divisors replicate into well-defined sparse packings);
anything else raises :class:`~repro.errors.ParameterError` naming the
offending count.  Galois automorphisms act on the coefficient packing as
signed index permutations and on the slot packing as cyclic slot
rotations — the ring-level machinery is identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.poly.rns_poly import _FP_MIX, LimbState, PolyContext, RnsPolynomial


class Plaintext:
    """A scaled integer-coefficient plaintext element.

    Thin wrapper over an :class:`RnsPolynomial` whose
    ``state.scale`` records the encoding factor ``Delta``:
    coefficient ``j`` holds ``round(values[j] * Delta)``.

    ``slots`` is ``None`` for the plain coefficient packing, or the
    SIMD slot count for canonical-embedding encodings (validated via
    :meth:`validate_slots`: it must divide ``N/2``).
    """

    __slots__ = ("poly", "slots")

    def __init__(self, poly: RnsPolynomial, *, slots: int | None = None) -> None:
        self.poly = poly
        if slots is not None:
            slots = self.validate_slots(poly.ctx.ring_degree, slots)
        self.slots = slots

    @staticmethod
    def validate_slots(ring_degree: int, slots) -> int:
        """``slots`` as an int iff it divides ``N/2``; ParameterError else.

        The canonical embedding offers exactly ``N/2`` slots; a sparse
        packing replicates a length-``s`` vector ``(N/2)/s`` times, which
        is only well defined (and only rotation-compatible) when ``s``
        divides ``N/2`` — any other count used to be accepted silently
        and decoded to garbage.
        """
        half = ring_degree // 2
        slots = int(slots)
        if slots < 1 or half % slots != 0:
            raise ParameterError(
                f"slot count {slots} does not divide N/2 = {half} "
                f"(ring degree {ring_degree})"
            )
        return slots

    @property
    def ctx(self) -> PolyContext:
        return self.poly.ctx

    @property
    def scale(self) -> float:
        return self.poly.state.scale

    @property
    def level(self) -> int:
        return self.poly.state.level

    @classmethod
    def encode(cls, ctx: PolyContext, values, scale: float) -> Plaintext:
        """Encode a real vector (length <= N, zero-padded) at ``scale``."""
        if scale <= 0:
            raise ParameterError(f"encoding scale must be > 0, got {scale}")
        values = np.asarray(values, dtype=np.float64).ravel()
        n = ctx.ring_degree
        if values.size > n:
            raise LayoutError(
                f"{values.size} values do not fit a ring of degree {n}"
            )
        coeffs = [0] * n
        half_q = ctx.modulus // 2
        for j, v in enumerate(values):
            c = round(float(v) * scale)
            if abs(c) > half_q:
                raise ParameterError(
                    f"encoded coefficient {c} at index {j} exceeds Q/2: "
                    "value too large for this (scale, level)"
                )
            coeffs[j] = c
        poly = ctx.from_int_coeffs(coeffs)
        poly.state.scale = float(scale)
        return cls(poly)

    def decode(self) -> np.ndarray:
        """Centered CRT reconstruction divided by the scale."""
        return self.poly.to_coeff().to_float_coeffs() / self.scale


class Ciphertext:
    """A two-component RLWE ciphertext ``(c0, c1)``.

    Decrypts as ``c0 + c1 * s``.  The ciphertext-level
    :class:`LimbState` is authoritative for domain / level / scale (the
    component polynomials' own scales are neither consulted nor
    mutated — they may carry intermediate product scales), and
    ``noise_bits`` tracks a heuristic worst-case-ish estimate of
    ``log2 |noise|`` maintained by the evaluator — good for budgeting
    and test assertions, not a cryptographic guarantee.
    """

    __slots__ = ("c0", "c1", "state", "noise_bits")

    def __init__(
        self,
        c0: RnsPolynomial,
        c1: RnsPolynomial,
        *,
        scale: float,
        noise_bits: float = 0.0,
    ) -> None:
        reason = c0.ctx.mismatch_reason(c1.ctx)
        if reason is not None:
            raise ParameterError(f"ciphertext component contexts: {reason}")
        if c0.domain != c1.domain:
            raise LayoutError(
                f"ciphertext component domains differ: "
                f"{c0.domain} vs {c1.domain}"
            )
        if scale <= 0:
            raise ParameterError(f"ciphertext scale must be > 0, got {scale}")
        self.c0 = c0
        self.c1 = c1
        # The ciphertext state is authoritative; the borrowed component
        # polynomials are NOT mutated (they may be shared with another
        # ciphertext or carry intermediate product scales), so their own
        # state.scale is not consulted by any evaluator op.
        self.state = LimbState(c0.domain, c0.ctx.num_limbs, scale)
        self.noise_bits = float(noise_bits)

    @property
    def ctx(self) -> PolyContext:
        return self.c0.ctx

    @property
    def domain(self) -> str:
        return self.state.domain

    @property
    def level(self) -> int:
        return self.state.level

    @property
    def scale(self) -> float:
        return self.state.scale

    def fingerprint(self) -> int:
        """Cheap state-integrity checksum over both components.

        Folds the component polynomials'
        :meth:`~repro.poly.rns_poly.RnsPolynomial.fingerprint` digests
        with the authoritative scale, so any silent mutation of either
        limb matrix — a bit flip, a stale cache written behind
        :meth:`~repro.poly.rns_poly.LimbState.invalidate` — changes the
        result.  The serving layer fingerprints a batch's input
        ciphertext before dispatch and re-checks it afterwards; a
        mismatch discards the (possibly corrupted) execution and
        re-encrypts.  Not cryptographic: it detects faults, not
        adversaries.
        """
        with np.errstate(over="ignore"):
            h = np.uint64(self.c0.fingerprint()) * _FP_MIX
            h ^= np.uint64(self.c1.fingerprint())
            h ^= np.float64(self.scale).view(np.uint64)
            return int(h * _FP_MIX)

    @property
    def noise_budget_bits(self) -> float:
        """Estimated bits of headroom: ``log2(Q/2) - noise_bits``.

        A budget near zero means the estimated noise magnitude
        approaches ``Q/2`` and decryption is about to wrap — the
        estimate is heuristic (see :attr:`noise_bits`), so treat this as
        an engineering gauge, not a proof.
        """
        return math.log2(self.ctx.modulus) - 1.0 - self.noise_bits
