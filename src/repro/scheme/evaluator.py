"""Homomorphic evaluator over two-component RLWE ciphertexts.

Every op is one entry of the op table (:mod:`repro.scheme.ops`): the
evaluator runs an entry's operand checks, captures its constants, then
runs its arithmetic and its scale and noise rules, and hands back a
coefficient-domain ciphertext.
The compiled-circuit executor and the static analyzer read the same
entries, which is what keeps them bit-identical to this eager path.

Every operation is a composition of the priced polynomial kernels — the
batched NTT, the fused hybrid key switch, exact rescaling, the Galois
index-permutation passes — so a compiled plan prices each of its steps
from the :class:`~repro.poly.cost.CostModel` kernel entries
(:meth:`~repro.scheme._circuit.CircuitPlan.cost`).
``rotate_hoisted`` shares the ModUp + extended-NTT front of a Galois key
switch across many rotation indices (Halevi–Shoup hoisting); hoisted and
independent rotations are bit-identical by construction.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import KeyError_, ParameterError
from repro.poly.basis_conv import KeySwitchKey
from repro.poly.rns_poly import PolyContext
from repro.scheme.ciphertext import Ciphertext, Plaintext
from repro.scheme.keys import (
    DEFAULT_SIGMA,
    KeyGenerator,
    PublicKey,
    SecretKey,
    conjugation_element,
    galois_element,
    lift_signed,
    sample_error,
    sample_ternary,
)
from repro.scheme.ops import (
    ADD,
    ADD_PLAIN,
    GALOIS,
    MULTIPLY,
    MULTIPLY_PLAIN,
    NEGATE,
    RESCALE,
    SUB,
    NoiseModel,
    Op,
    check_key_level,
    materialize,
)


def validate_rotations(
    rotations: Sequence[int], num_slots: int, op: str
) -> None:
    """Reject zero, out-of-range, and duplicate rotation indices up front.

    Shared by :meth:`Evaluator.rotate_hoisted` and
    :meth:`~repro.scheme._linalg.SlotLinalg.matvec` so a bad rotation
    list fails with a :class:`ParameterError` naming the offending
    index, instead of deep inside the automorphism table lookup.
    Duplicates are detected modulo ``num_slots`` (two indices that
    rotate the packed slots identically would silently collapse into
    one result).
    """
    seen: set[int] = set()
    for r in rotations:
        r = int(r)
        if r == 0:
            raise ParameterError(
                f"{op}: rotation 0 is the identity; drop it from the "
                "rotation list"
            )
        if not -num_slots < r < num_slots:
            raise ParameterError(
                f"{op}: rotation {r} out of range for {num_slots} slots "
                f"(need |rotation| < {num_slots})"
            )
        canonical = r % num_slots
        if canonical in seen:
            raise ParameterError(
                f"{op}: duplicate rotation {r} (rotates by {canonical} "
                f"mod {num_slots}, already requested)"
            )
        seen.add(canonical)


class Evaluator:
    """Encrypt / decrypt and the homomorphic op set for one context.

    Args:
        ctx: the evaluation context (keys must be generated at it).
        relin_key: ``s^2 -> s`` switching key; required by
            :meth:`multiply`.
        galois_keys: mapping Galois element -> switching key; required
            by :meth:`rotate` / :meth:`conjugate` /
            :meth:`rotate_hoisted`.
        sigma: RLWE error width used by :meth:`encrypt` (and by the
            noise estimates).
        key_source: optional :class:`KeyGenerator` the evaluator derives
            *below-keygen-level* switching keys from (lazily, cached in
            the generator).  Without it, key switching after a rescale
            raises :class:`~repro.errors.KeyError_` as before.
    """

    def __init__(
        self,
        ctx: PolyContext,
        *,
        relin_key: KeySwitchKey | None = None,
        galois_keys: dict[int, KeySwitchKey] | None = None,
        sigma: float = DEFAULT_SIGMA,
        key_source: KeyGenerator | None = None,
    ) -> None:
        self.ctx = ctx
        self.relin_key = relin_key
        self.galois_keys = dict(galois_keys or {})
        self.key_source = key_source
        self.sigma = float(sigma)
        self.noise_model = NoiseModel(ctx.ring_degree, self.sigma)

    @classmethod
    def from_keygen(
        cls,
        keygen: KeyGenerator,
        *,
        rotations: Sequence[int] = (),
        conjugate: bool = False,
    ) -> Evaluator:
        """An evaluator wired with a keygen's relin + Galois keys."""
        return cls(
            keygen.ctx,
            relin_key=keygen.relinearization_key(),
            galois_keys=keygen.galois_keys(rotations, conjugate=conjugate),
            sigma=keygen.sigma,
            key_source=keygen,
        )

    # -- encryption --------------------------------------------------------
    def encrypt(
        self, pt: Plaintext, pk: PublicKey, rng: np.random.Generator
    ) -> Ciphertext:
        """Public-key RLWE encryption of ``pt`` at its scale.

        ``c0 = v*b + e0 + m``, ``c1 = v*a + e1`` with ternary ``v`` and
        rounded-Gaussian errors, all drawn from ``rng`` in fixed order
        (deterministic per seed).
        """
        ctx = pt.ctx
        reason = self.ctx.mismatch_reason(ctx)
        if reason is not None:
            raise ParameterError(f"plaintext context: {reason}")
        reason = self.ctx.mismatch_reason(pk.ctx)
        if reason is not None:
            raise KeyError_(f"public key context: {reason}")
        n = ctx.ring_degree
        v = lift_signed(ctx, sample_ternary(rng, n)).to_ntt()
        e0 = lift_signed(ctx, sample_error(rng, n, sigma=self.sigma))
        e1 = lift_signed(ctx, sample_error(rng, n, sigma=self.sigma))
        c0 = v.pointwise_multiply(pk.b).to_coeff().add(e0).add(pt.poly.to_coeff())
        c1 = v.pointwise_multiply(pk.a).to_coeff().add(e1)
        noise = self.noise_model.fresh_bits
        return Ciphertext(c0, c1, scale=pt.scale, noise_bits=noise)

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> Plaintext:
        """``c0 + c1 * s`` at the ciphertext's level, as a plaintext."""
        s = sk.poly(ct.ctx)
        m = ct.c0.to_coeff().add(ct.c1.to_coeff().multiply(s))
        m.state.scale = ct.scale
        return Plaintext(m)

    # -- key lookup ---------------------------------------------------------
    def _relin_for(self, ct: Ciphertext, op: str) -> KeySwitchKey:
        """The ``s^2 -> s`` key at the operand's level.

        The keygen-level key is used directly; below it, the key is
        derived (once, cached) from ``key_source``.
        """
        ksk = self.relin_key
        if ksk is None:
            raise KeyError_(
                f"{op} requires a relinearization key "
                "(KeyGenerator.relinearization_key)"
            )
        if ksk.base_primes != ct.ctx.primes and self.key_source is not None:
            ksk = self.key_source.relinearization_key(ct.ctx)
        check_key_level(ksk, ct.ctx.primes, ct.level, op)
        return ksk

    def _galois_for(self, k: int, ct: Ciphertext, op: str) -> KeySwitchKey:
        """The ``sigma_k(s) -> s`` key at the operand's level.

        The rotation set stays an up-front contract: element ``k`` must
        be among the configured ``galois_keys`` even when the actual key
        is derived at a lower level.
        """
        ksk = self._galois_key_for(k, op)
        if ksk.base_primes != ct.ctx.primes and self.key_source is not None:
            ksk = self.key_source.galois_key(k, ct.ctx)
        check_key_level(ksk, ct.ctx.primes, ct.level, op)
        return ksk

    # -- the op set: every op is one entry of the op table ---------------
    def _apply(self, op: Op, cts, arg=None, **res) -> Ciphertext:
        """Check the operands, capture the entry's constants, run it and
        return a coefficient-domain result (the tracer overrides this to
        record instead)."""
        key = op.check(self, cts, arg)
        consts, _ = op.capture(cts[0].ctx, arg, key)
        return materialize(
            op.apply(cts, arg, key, self.noise_model, **consts, **res)
        )

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._apply(ADD, (a, b))

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._apply(SUB, (a, b))

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return self._apply(NEGATE, (ct,))

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        return self._apply(ADD_PLAIN, (ct,), pt)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Scale-multiplying plaintext product of both components."""
        return self._apply(MULTIPLY_PLAIN, (ct,), pt)

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """HMult fused with relinearization (:class:`~repro.scheme.ops.Multiply`)."""
        return self._apply(MULTIPLY, (a, b))

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last limb from both components, dividing the scale."""
        return self._apply(RESCALE, (ct,))

    # -- Galois rotations --------------------------------------------------
    def _galois_key_for(self, k: int, op: str) -> KeySwitchKey:
        ksk = self.galois_keys.get(k)
        if ksk is None:
            raise KeyError_(
                f"{op}: no Galois key for element {k}; generate it via "
                "KeyGenerator.galois_key and pass it in galois_keys"
            )
        return ksk

    def apply_galois(self, ct: Ciphertext, k: int) -> Ciphertext:
        """``sigma_k`` of the ciphertext, switched back under ``s``."""
        return self._apply(GALOIS, (ct,), int(k))

    def rotate(self, ct: Ciphertext, rotation: int) -> Ciphertext:
        """Rotate by ``rotation`` slots (Galois element ``5^rotation``).

        Under the canonical-embedding packing
        (:class:`~repro.scheme.encoder.CanonicalEncoder`, slots
        orbit-ordered by powers of 5) this is exactly the cyclic shift
        ``np.roll(slots, -rotation)``; on a sparse packing the shift
        wraps mod the packed slot count.
        """
        return self.apply_galois(ct, galois_element(rotation, self.ctx.ring_degree))

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """``sigma_{-1}``: slot-wise complex conjugation under the
        canonical-embedding packing."""
        return self.apply_galois(ct, conjugation_element(self.ctx.ring_degree))

    def rotate_hoisted(
        self, ct: Ciphertext, rotations: Sequence[int]
    ) -> dict[int, Ciphertext]:
        """Many rotations of one ciphertext sharing a single ModUp.

        The expensive front of every rotation's key switch — ModUp of
        each digit onto ``Q ∪ P`` plus the extended forward NTT — is
        input-only, so it is paid once and every rotation index finishes
        from the shared digit tensor through the op table's Galois entry.
        Bit-identical to calling :meth:`rotate` per index, just without
        the repeated front.
        """
        if not rotations:
            raise ParameterError("rotate_hoisted needs >= 1 rotation index")
        n = self.ctx.ring_degree
        validate_rotations(rotations, n // 2, "rotate_hoisted")
        elements = [galois_element(r, n) for r in rotations]
        keys = [self._galois_for(k, ct, "rotate_hoisted") for k in elements]
        first = keys[0]
        for ksk in keys:
            if (ksk.aux_primes != first.aux_primes or ksk.dnum != first.dnum):
                raise ParameterError(
                    "rotate_hoisted: all Galois keys must share one "
                    "(aux basis, dnum) configuration to share a ModUp"
                )
        hoisted = self._hoist(ct, first)
        return {
            r: self._apply(GALOIS, (ct,), k, hoisted=hoisted)
            for r, k in zip(rotations, elements)
        }

    def _hoist(self, ct: Ciphertext, ksk: KeySwitchKey) -> np.ndarray:
        return ct.ctx.key_switcher(ksk.aux_primes, ksk.dnum).hoist(ct.c1)
