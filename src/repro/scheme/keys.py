"""Key material for the RLWE scheme layer: seeded samplers and keygen.

Everything the evaluator consumes is generated here from one
``numpy.random.Generator``: the ternary secret, the RLWE public key, the
relinearization key (a hybrid key-switching key for ``s^2``) and Galois
keys (one per automorphism element, for ``sigma_k(s)``).  Determinism is
a contract — every sampler takes the generator explicitly and draws from
it in a fixed order, so a whole keygen + encryption pipeline replays
bit-identically from a single seed (the test suite pins this).

Key-switching keys ride the existing hybrid pipeline
(:class:`~repro.poly.basis_conv.KeySwitcher`): for digit ``d`` of the
live basis with digit modulus ``D_d``, the pair is

    ``(b_d, a_d)  with  b_d = -a_d * s + e_d + P * g_d * s'  (mod QP)``

where ``g_d = (Q / D_d) * [(Q / D_d)^-1]_{D_d}`` is the CRT
interpolation basis (``1 mod D_d``, ``0`` mod every other digit) and
``s'`` is the source secret (``s^2`` for relinearization,
``sigma_k(s)`` for a Galois key).  The executor's ModUp digits ``x_d``
then satisfy ``sum_d x_d * (b_d + a_d s) = P * s' * c + sum_d x_d e_d``
mod ``QP``, which ModDown's division by ``P`` turns into the switched
ciphertext half plus small noise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.poly.basis_conv import KeySwitchKey
from repro.poly.ntt import automorphism_tables
from repro.poly.rns_poly import COEFF, PolyContext, RnsPolynomial
from repro.rns.primes import Prime, digit_ranges

#: default RLWE error width (the standard sigma ~ 3.2 discrete Gaussian)
DEFAULT_SIGMA = 3.2

#: the slot-rotation generator: rotations map to the Galois elements
#: 5^r mod 2N (5 generates the order-N/2 cyclic factor of (Z/2N)^*)
ROTATION_GEN = 5


def galois_element(rotation: int, ring_degree: int) -> int:
    """The Galois element ``5^rotation mod 2N`` for a slot rotation.

    Negative rotations work (the exponent is reduced mod the order
    ``N/2`` of 5 in ``(Z/2N)^*`` first).
    """
    if ring_degree < 4:
        raise ParameterError(f"ring degree {ring_degree} too small to rotate")
    order = ring_degree // 2
    return pow(ROTATION_GEN, rotation % order, 2 * ring_degree)


def conjugation_element(ring_degree: int) -> int:
    """The Galois element ``-1 mod 2N`` (complex conjugation)."""
    return 2 * ring_degree - 1


def sample_ternary(
    rng: np.random.Generator, n: int, *, hamming_weight: int | None = None
) -> np.ndarray:
    """A ternary secret/encryption vector in ``{-1, 0, 1}^n`` (int64).

    Uniform per coefficient by default; with ``hamming_weight`` exactly
    that many coefficients are nonzero (the sparse-secret variant).
    """
    if hamming_weight is None:
        return rng.integers(-1, 2, n, dtype=np.int64)
    if not 0 < hamming_weight <= n:
        raise ParameterError(
            f"hamming weight {hamming_weight} outside [1, {n}]"
        )
    s = np.zeros(n, dtype=np.int64)
    idx = rng.choice(n, size=hamming_weight, replace=False)
    s[idx] = rng.choice(np.array([-1, 1], dtype=np.int64), size=hamming_weight)
    return s


def sample_error(
    rng: np.random.Generator, n: int, *, sigma: float = DEFAULT_SIGMA
) -> np.ndarray:
    """A rounded-Gaussian RLWE error vector (int64)."""
    if sigma <= 0:
        raise ParameterError(f"error width sigma must be > 0, got {sigma}")
    return np.rint(rng.normal(0.0, sigma, n)).astype(np.int64)


def lift_signed(ctx: PolyContext, coeffs) -> RnsPolynomial:
    """Lift small signed integer coefficients into limb residues.

    ``coeffs[j] mod q_i`` per limb row (Python/NumPy floor-mod, so
    negatives land in ``[0, q_i)``); the standard embedding of a secret,
    error, or plaintext polynomial into every RNS basis it must meet.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape != (ctx.ring_degree,):
        raise LayoutError(
            f"expected {ctx.ring_degree} coefficients, got {coeffs.shape}"
        )
    limbs = np.empty((ctx.num_limbs, ctx.ring_degree), dtype=np.uint64)
    for i, q in enumerate(ctx.primes):
        limbs[i] = np.mod(coeffs, q).astype(np.uint64)
    return RnsPolynomial(ctx, limbs, COEFF)


class SecretKey:
    """A ternary RLWE secret with its per-basis limb lifts cached.

    The integer coefficient vector is the source of truth; ``poly(ctx)``
    lifts it into any context (full, rescaled, or extended) and caches
    the lift, so keygen and every decrypt at every level lifts once.
    """

    def __init__(self, coeffs: np.ndarray) -> None:
        self.coeffs = np.asarray(coeffs, dtype=np.int64).copy()
        self.coeffs.flags.writeable = False
        self._lifts: dict[tuple, RnsPolynomial] = {}

    def poly(self, ctx: PolyContext) -> RnsPolynomial:
        key = (ctx.ring_degree, tuple(ctx.primes), ctx.method)
        lifted = self._lifts.get(key)
        if lifted is None:
            lifted = lift_signed(ctx, self.coeffs)
            self._lifts[key] = lifted
        return lifted


class PublicKey:
    """An RLWE encryption pair ``(b, a)`` with ``b = -a*s + e``.

    Both halves are kept NTT-domain so every encryption's two products
    against them are pointwise passes over cached prepared operands.
    """

    def __init__(self, b: RnsPolynomial, a: RnsPolynomial) -> None:
        self.b = b.to_ntt()
        self.a = a.to_ntt()
        self.ctx = self.b.ctx


class KeyGenerator:
    """Seeded generation of the full key set for one parameter choice.

    Args:
        ctx: the top-level :class:`PolyContext`.  Keys default to the
            full limb basis; :meth:`relinearization_key` /
            :meth:`galois_key` also derive keys for any rescaled prefix
            of it (pass the lower context), so key switching keeps
            working after rescales.
        aux_primes: the auxiliary P-part primes for hybrid key switching
            (e.g. ``PrimePool.extension_basis``).
        dnum: hybrid key-switching digit count.
        rng: the *single* :class:`numpy.random.Generator` every sample
            draws from — one seed reproduces the whole key set.
        sigma: RLWE error width.
        hamming_weight: optional sparse-secret weight.
    """

    def __init__(
        self,
        ctx: PolyContext,
        aux_primes: Sequence[Prime | int],
        dnum: int,
        rng: np.random.Generator,
        *,
        sigma: float = DEFAULT_SIGMA,
        hamming_weight: int | None = None,
    ) -> None:
        self.ctx = ctx
        self.aux = [int(p) for p in aux_primes]
        self.dnum = int(dnum)
        digit_ranges(ctx.num_limbs, self.dnum)  # validates dnum
        self.rng = rng
        self.sigma = float(sigma)
        self.ext_ctx = ctx.extend(self.aux)
        self.p_modulus = math.prod(self.aux)
        self.secret = SecretKey(
            sample_ternary(rng, ctx.ring_degree, hamming_weight=hamming_weight)
        )
        self.public = self._public_key()
        # Caches keyed by the (level) prime basis the key lives at, so
        # the same generator serves the keygen level and every rescaled
        # prefix without re-deriving.
        self._relin: dict[tuple, KeySwitchKey] = {}
        self._galois: dict[tuple, KeySwitchKey] = {}

    def _public_key(self) -> PublicKey:
        ctx = self.ctx
        a = ctx.random(self.rng)
        e = lift_signed(ctx, sample_error(self.rng, ctx.ring_degree, sigma=self.sigma))
        b = e.sub(a.multiply(self.secret.poly(ctx)))
        return PublicKey(b, a)

    def _level_ctx(self, ctx: PolyContext | None) -> PolyContext:
        """Validate a requested key level: a prefix of the keygen basis."""
        if ctx is None or ctx is self.ctx:
            return self.ctx
        top = self.ctx
        if (
            ctx.ring_degree != top.ring_degree
            or ctx.method != top.method
            or ctx.primes != top.primes[: ctx.num_limbs]
        ):
            reason = top.mismatch_reason(ctx) or "not a rescaled prefix"
            raise ParameterError(
                f"cannot derive keys for a foreign context: {reason}"
            )
        if ctx.num_limbs < self.dnum:
            raise ParameterError(
                f"cannot derive dnum={self.dnum} switching keys at level "
                f"{ctx.num_limbs}: fewer live limbs than digits"
            )
        return ctx

    def switching_key(
        self, source_coeffs, *, ctx: PolyContext | None = None
    ) -> KeySwitchKey:
        """A hybrid key-switching key moving ``s'``-decryptions under ``s``.

        ``source_coeffs`` are the integer coefficients of the source
        secret ``s'`` (small: ``s^2`` or an automorphism of ``s``); the
        returned :class:`KeySwitchKey` plugs straight into
        ``RnsPolynomial.key_switch`` / ``KeySwitcher.run_hoisted``.
        ``ctx`` selects the live basis the key serves (default: the
        keygen level; pass a rescaled prefix context for lower levels).
        """
        base = self._level_ctx(ctx)
        ext = base.extend(self.aux)
        n = base.ring_degree
        big_q = base.modulus
        sp = lift_signed(ext, source_coeffs)
        s_ext = self.secret.poly(ext)
        pairs = []
        for lo, hi in digit_ranges(base.num_limbs, self.dnum):
            d_mod = math.prod(base.primes[lo:hi])
            d_hat = big_q // d_mod
            g = d_hat * pow(d_hat, -1, d_mod)  # CRT basis of digit d
            consts = np.array(
                [[(self.p_modulus * g) % q] for q in ext.primes],
                dtype=np.uint64,
            )
            a = ext.random(self.rng)
            e = lift_signed(ext, sample_error(self.rng, n, sigma=self.sigma))
            # b = e - a*s + (P * g_d) * s'; the per-limb constant column
            # stays < 2^31 so the product fits uint64 before the fold.
            term = RnsPolynomial(ext, (sp.limbs * consts) % ext.moduli, COEFF)
            b = e.sub(a.multiply(s_ext)).add(term)
            pairs.append((b.to_ntt(), a.to_ntt()))
        return KeySwitchKey(ext, len(self.aux), pairs)

    def relinearization_key(
        self, ctx: PolyContext | None = None
    ) -> KeySwitchKey:
        """The ``s^2 -> s`` switching key (cached per level).

        ``s^2`` is computed exactly as the integer negacyclic square of
        the ternary secret (coefficients bounded by N, so plain int64
        convolution is exact).
        """
        base = self._level_ctx(ctx)
        ksk = self._relin.get(tuple(base.primes))
        if ksk is None:
            s = self.secret.coeffs
            n = self.ctx.ring_degree
            full = np.convolve(s, s)
            s2 = full[:n].copy()
            s2[: n - 1] -= full[n:]  # X^N = -1 wrap
            ksk = self.switching_key(s2, ctx=base)
            self._relin[tuple(base.primes)] = ksk
        return ksk

    def galois_key(
        self, k: int, ctx: PolyContext | None = None
    ) -> KeySwitchKey:
        """The ``sigma_k(s) -> s`` switching key (cached per element/level)."""
        n = self.ctx.ring_degree
        k %= 2 * n
        base = self._level_ctx(ctx)
        cache_key = (k, tuple(base.primes))
        ksk = self._galois.get(cache_key)
        if ksk is None:
            src, neg, _ = automorphism_tables(n, k)
            sp = self.secret.coeffs[src].copy()
            sp[neg] = -sp[neg]
            ksk = self.switching_key(sp, ctx=base)
            self._galois[cache_key] = ksk
        return ksk

    def galois_keys(
        self, rotations: Sequence[int] = (), *, conjugate: bool = False
    ) -> dict[int, KeySwitchKey]:
        """Galois keys for a rotation set, keyed by Galois element."""
        n = self.ctx.ring_degree
        elements = [galois_element(r, n) for r in rotations]
        if conjugate:
            elements.append(conjugation_element(n))
        return {k: self.galois_key(k) for k in elements}
