"""CKKS canonical-embedding SIMD encoder (the special FFT over 2N-th roots).

A real-coefficient element of ``R = Z[X]/(X^N + 1)`` is determined by its
values at the ``N`` primitive complex ``2N``-th roots of unity, which come
in ``N/2`` conjugate pairs — so a plaintext polynomial carries exactly
``N/2`` independent *complex slots*, and ring multiplication acts on them
slot-wise (SIMD).  This module converts between ``complex128`` slot
vectors and :class:`~repro.scheme.ciphertext.Plaintext` RNS coefficients:

* the transform is the *negacyclic special FFT*: the same iterative
  Cooley-Tukey / Gentleman-Sande butterfly schedule as the modular NTT
  engines (natural-order coefficients, bit-reversed evaluations at
  ``psi^(2*brv[t]+1)``), run over ``complex128`` with twiddles sliced
  from the per-``N``-cached :func:`~repro.poly.ntt.complex_root_powers`
  table;
* slots are *orbit-ordered* by powers of 5
  (:func:`~repro.poly.ntt.canonical_slot_tables`): slot ``j`` is the
  evaluation at ``psi^(5^j mod 2N)``.  Because the Galois rotation
  elements are the same powers of 5, ``Evaluator.rotate(r)`` is exactly
  the cyclic slot shift ``np.roll(slots, -r)`` and
  ``Evaluator.conjugate`` is exactly ``np.conj(slots)`` — the property
  tests pin this against the automorphism kernels;
* sparse packing: ``num_slots`` may be any divisor of ``N/2``; the slot
  vector is replicated across the full orbit on encode and the copies
  are averaged on decode (rotations then act mod ``num_slots``).

Precision: encoding quantizes each coefficient to ``1/scale``, so a
round trip is exact to about ``N/2 / scale`` in the worst case (each of
the ``N`` coefficient roundings contributes at most ``1/(2*scale)`` to a
slot value); :meth:`CanonicalEncoder.roundtrip_precision` tracks the
bits actually achieved for a given vector.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.poly.ntt import (
    bit_reverse_permutation,
    canonical_slot_tables,
    complex_root_powers,
)
from repro.poly.rns_poly import PolyContext
from repro.scheme.ciphertext import Plaintext
from repro.scheme.keys import lift_signed

#: above this coefficient magnitude the int64 fast path could overflow,
#: so encode falls back to exact Python-int CRT decomposition
_INT64_SAFE = 2.0**62


@lru_cache(maxsize=64)
def _fft_twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit-reversed complex twiddle tables ``(forward, inverse)`` per N.

    Exactly the modular engines' table layout — ``psi^k`` for
    ``k in [0, N)`` gathered through the bit-reversal permutation — with
    ``psi = exp(i*pi/N)`` the complex primitive ``2N``-th root; the
    inverse table holds the ``psi^-k`` powers.  Cached and read-only.
    """
    roots = complex_root_powers(n)
    brv = bit_reverse_permutation(n)
    fwd = roots[:n][brv]
    inv = roots[(-np.arange(n)) % (2 * n)][brv]
    for arr in (fwd, inv):
        arr.flags.writeable = False
    return fwd, inv


def special_fft(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (natural order) -> evaluations (bit-reversed order).

    The complex twin of :meth:`~repro.poly.ntt.NegacyclicNTT.forward`:
    iterative CT-DIT, stage ``m`` reading the contiguous twiddle slice
    ``[m, 2m)``.  Output slot ``t`` holds the value at
    ``psi^(2*brv[t]+1)``.
    """
    x = np.array(coeffs, dtype=np.complex128)
    n = x.size
    if n < 2 or n & (n - 1):
        raise ParameterError(f"special FFT needs a power-of-two N, got {n}")
    fwd, _ = _fft_twiddles(n)
    t = n
    m = 1
    while m < n:
        t >>= 1
        blk = x.reshape(m, 2 * t)
        u = blk[:, :t].copy()
        v = blk[:, t:] * fwd[m : 2 * m, None]
        blk[:, :t] = u + v
        blk[:, t:] = u - v
        m <<= 1
    return x


def special_ifft(values: np.ndarray) -> np.ndarray:
    """Evaluations (bit-reversed order) -> coefficients (natural order).

    GS-DIF butterflies then the final ``1/N`` scaling, mirroring
    :meth:`~repro.poly.ntt.NegacyclicNTT.inverse`.
    """
    x = np.array(values, dtype=np.complex128)
    n = x.size
    if n < 2 or n & (n - 1):
        raise ParameterError(f"special iFFT needs a power-of-two N, got {n}")
    _, inv = _fft_twiddles(n)
    t = 1
    m = n
    while m > 1:
        h = m >> 1
        blk = x.reshape(h, 2 * t)
        u = blk[:, :t].copy()
        v = blk[:, t:].copy()
        blk[:, :t] = u + v
        blk[:, t:] = (u - v) * inv[h : 2 * h, None]
        t <<= 1
        m = h
    x /= n
    return x


class CanonicalEncoder:
    """Encode/decode between complex slot vectors and RNS plaintexts.

    One encoder serves one :class:`PolyContext`; the heavy tables
    (complex roots, bit-reversed twiddles, the power-of-5 slot orbit)
    are cached per ring degree at module level, so many encoders /
    contexts over the same ``N`` share them.

    Args:
        ctx: the polynomial context plaintexts are lifted into.  Decode
            accepts plaintexts at any level of the same ring (the slot
            structure does not depend on the limb basis).
    """

    def __init__(self, ctx: PolyContext) -> None:
        if ctx.ring_degree < 4:
            raise ParameterError(
                f"canonical embedding needs N >= 4, got {ctx.ring_degree}"
            )
        self.ctx = ctx
        self.n = ctx.ring_degree
        #: the full slot count N/2
        self.slots = self.n // 2
        self.slot_idx, self.conj_idx = canonical_slot_tables(self.n)

    # -- the embedding (float-level, no scaling) ---------------------------
    def _resolve_slots(self, values: np.ndarray, num_slots: int | None) -> int:
        if num_slots is None:
            num_slots = values.size
        num_slots = Plaintext.validate_slots(self.n, num_slots)
        if values.size != num_slots:
            raise LayoutError(
                f"{values.size} slot values for a {num_slots}-slot encoding"
            )
        return num_slots

    def embed(self, values, num_slots: int | None = None) -> np.ndarray:
        """Slot vector -> real coefficient vector (float64, unscaled).

        Scatters the slots (and their conjugates) onto the full orbit,
        replicating ``N/2 / num_slots`` times for sparse packings, and
        runs the inverse special FFT; the imaginary parts cancel by
        conjugate symmetry, so only rounding dust is discarded.
        """
        values = np.asarray(values, dtype=np.complex128).ravel()
        num_slots = self._resolve_slots(values, num_slots)
        full = np.tile(values, self.slots // num_slots)
        vals = np.zeros(self.n, dtype=np.complex128)
        vals[self.slot_idx] = full
        vals[self.conj_idx] = np.conj(full)
        return special_ifft(vals).real

    def project(self, coeffs, num_slots: int | None = None) -> np.ndarray:
        """Real coefficient vector -> slot vector (the decode transform).

        Runs the forward special FFT and gathers the power-of-5 orbit;
        a sparse packing averages its replicated copies (the exact
        inverse of :meth:`embed`'s replication, and a free noise
        reduction on decrypted data).
        """
        coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
        if coeffs.size != self.n:
            raise LayoutError(
                f"expected {self.n} coefficients, got {coeffs.size}"
            )
        if num_slots is None:
            num_slots = self.slots
        num_slots = Plaintext.validate_slots(self.n, num_slots)
        z = special_fft(coeffs)[self.slot_idx]
        if num_slots < self.slots:
            z = z.reshape(-1, num_slots).mean(axis=0)
        return z

    # -- Plaintext round trip ----------------------------------------------
    def encode(
        self, values, scale: float, *, num_slots: int | None = None
    ) -> Plaintext:
        """Encode a complex slot vector at ``scale`` into a Plaintext.

        The embedded coefficients are multiplied by ``scale`` and
        rounded to nearest integers, then CRT-lifted into the context's
        limb basis (an exact big-int path takes over beyond int64 range,
        so scale-stacked workloads like BSGS polynomial evaluation can
        encode at ``Delta^k``).  Raises :class:`ParameterError` when a
        rounded coefficient would exceed ``Q/2``.
        """
        if not math.isfinite(scale) or scale <= 0:
            raise ParameterError(f"encoding scale must be > 0, got {scale}")
        values = np.asarray(values, dtype=np.complex128).ravel()
        num_slots = self._resolve_slots(values, num_slots)
        scaled = self.embed(values, num_slots) * float(scale)
        peak = float(np.abs(scaled).max())
        if not math.isfinite(peak):
            raise ParameterError("encoded coefficients overflow float64")
        if 2 * int(math.ceil(peak)) >= self.ctx.modulus:
            j = int(np.abs(scaled).argmax())
            raise ParameterError(
                f"encoded coefficient ~2^{math.log2(peak):.1f} at index {j} "
                f"exceeds Q/2: value too large for this (scale, level)"
            )
        if peak < _INT64_SAFE:
            poly = lift_signed(self.ctx, np.rint(scaled).astype(np.int64))
        else:
            poly = self.ctx.from_int_coeffs([int(round(float(c))) for c in scaled])
        poly.state.scale = float(scale)
        return Plaintext(poly, slots=num_slots)

    def decode(self, pt: Plaintext, *, num_slots: int | None = None) -> np.ndarray:
        """Centered CRT reconstruction, descaling, and slot projection.

        ``num_slots`` defaults to the plaintext's recorded slot count
        (full packing when it carries none, e.g. fresh decryptions).
        """
        if pt.ctx.ring_degree != self.n:
            raise ParameterError(
                f"plaintext ring degree {pt.ctx.ring_degree} != "
                f"encoder ring degree {self.n}"
            )
        if num_slots is None:
            num_slots = pt.slots if pt.slots is not None else self.slots
        coeffs = pt.poly.to_coeff().to_float_coeffs()
        return self.project(coeffs / pt.scale, num_slots)

    def roundtrip_precision(
        self, values, scale: float, *, num_slots: int | None = None
    ) -> float:
        """Bits of slot precision an encode→decode round trip achieves.

        Returns ``-log2(max_j |decode(encode(v))_j - v_j|)`` — the
        tracking gauge for the quantization error budget (about
        ``scale_bits - log2(N)`` bits in the worst case).
        """
        values = np.asarray(values, dtype=np.complex128).ravel()
        back = self.decode(self.encode(values, scale, num_slots=num_slots))
        err = float(np.abs(back - values).max())
        return math.inf if err == 0.0 else -math.log2(err)
