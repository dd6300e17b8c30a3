"""Exact CRT reconstruction over one prime basis, vectorized over a ring.

A coefficient known by its residues ``x_i = X mod q_i`` is rebuilt here
without Python big ints, in three row-batched passes over the ``(L, N)``
limb matrix:

* **Mixed-radix digits** (Garner), over the basis primes in ascending
  order ``q_0 < q_1 < ...``: ``X = v_0 + v_1 q_0 + v_2 q_0 q_1 + ...``
  with ``0 <= v_i < q_i``.  Once digit ``j`` is known, every later row
  ``i`` takes ``(x_i - v_j) * q_j^-1 mod q_i`` in one pass: a
  ``mod_sub``, then the same :func:`~repro.rns.reduction.shoup_mul` the
  basis converter's scale step runs.  The ascending order is what lets
  ``v_j`` enter the subtraction as it is: ``v_j < q_j < q_i``, while in
  the basis order a digit could exceed a later, smaller prime (a basis
  may span a 32x range of primes).
* **Sign**: ``X`` lies in the upper half, and stands for ``X - Q``,
  exactly when its digits compare above those of ``floor(Q/2)``, most
  significant first.  An upper-half coefficient's magnitude ``Q - X`` has
  the complemented digits ``q_i - 1 - v_i`` (the digits of ``Q - 1 - X``,
  no borrows), plus one.
* **Magnitude**: base-``2^32`` words by Horner over the digits, one
  row-batched multiply-add per digit with carry-save words, then exact
  carries.

From the words, :meth:`CrtReconstructor.to_float` rounds each magnitude
to float64 correctly (the top 64 bits with a sticky bit for everything
below, converted round half to even, then ``ldexp``), which is exactly
Python's ``float(int)`` for every coefficient, and
:meth:`CrtReconstructor.to_ints` builds Python ints from the same words.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitizer import assert_within, checked_mode
from repro.errors import ParameterError
from repro.rns.reduction import NUMPY, mod_sub, shoup_mul

__all__ = ["CrtReconstructor"]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ONE = np.uint64(1)
#: zero word rows below the magnitude, so the top three words of every
#: column gather without bounds cases
_PAD = 2


class CrtReconstructor:
    """Mixed-radix CRT reconstruction for one prime basis.

    Every per-prime constant is precomputed here, with the primes in
    ascending order: per Garner step ``j`` the columns of later moduli
    ``q_i`` and ``q_j^-1 mod q_i`` with its Shoup companion; the digits
    of ``floor(Q/2)``; and per Horner step the word count the partial
    magnitude can reach.  Calls allocate their registers, so one
    reconstructor is safe to share across threads.  With ``checked``
    (default ``REPRO_CHECKED``) the digit rows are range-asserted.
    """

    def __init__(self, primes, *, checked: bool | None = None) -> None:
        self.primes = [int(q) for q in primes]
        if not self.primes:
            raise ParameterError("CRT reconstruction needs at least one prime")
        if len(set(self.primes)) != len(self.primes):
            raise ParameterError("CRT basis primes must be distinct")
        for q in self.primes:
            if not (2 < q < 2**31):
                raise ParameterError(f"CRT basis prime {q} out of 32-bit range")
        self.checked = checked_mode(checked)
        #: the basis rows in ascending prime order, the digits' order
        self._order = np.argsort(self.primes)
        qs = sorted(self.primes)
        self.modulus = 1
        for q in qs:
            self.modulus *= q
        col = lambda v, dt=np.uint32: np.array(v, dtype=dt).reshape(-1, 1)  # noqa: E731
        self._top = col([q - 1 for q in qs])
        #: Garner step j, as columns over the later rows i > j: q_i,
        #: q_j^-1 mod q_i and its Shoup companion
        self._garner = []
        for j, qj in enumerate(qs[:-1]):
            later = qs[j + 1 :]
            inv = [pow(qj, -1, q) for q in later]
            inv_sh = col([(w << 32) // q for w, q in zip(inv, later)], np.uint64)
            self._garner.append((col(later), col(inv), inv_sh))
        half, digits = self.modulus // 2, []
        for q in qs:
            half, digit = divmod(half, q)
            digits.append(digit)
        #: the mixed-radix digits of floor(Q/2)
        self._half = col(digits)
        #: Horner step over digit i, from the second-highest down: i, q_i
        #: as a wide scalar and the word count of prod_{j >= i} q_j
        self.num_words = (self.modulus.bit_length() + 31) // 32
        self._horner, bound = [], qs[-1]
        for i in reversed(range(len(qs) - 1)):
            bound *= qs[i]
            words = (bound.bit_length() + 31) // 32
            self._horner.append((i, np.uint64(qs[i]), words))

    def _check(self, limbs: np.ndarray) -> np.ndarray:
        limbs = np.asarray(limbs)
        if limbs.ndim != 2 or limbs.shape[0] != len(self.primes):
            raise ParameterError(
                f"expected ({len(self.primes)}, N) residues, got {limbs.shape}"
            )
        return limbs

    # -- the passes --------------------------------------------------------
    def digits(self, limbs: np.ndarray) -> np.ndarray:
        """``(L, N)`` canonical residues -> their ``(L, N)`` mixed-radix
        digits as words, row ``i`` the digit of the ``i``-th smallest
        prime ``q_i``, in ``[0, q_i)`` (range-asserted when checked)."""
        limbs = self._check(limbs)
        v = np.empty(limbs.shape, np.uint32)
        NUMPY.lo(v, limbs[self._order])  # canonical residues are words
        rows = (max(len(self.primes) - 1, 1), limbs.shape[1])
        r, s, t = (np.empty(rows, np.uint32) for _ in range(3))
        h = np.empty(rows, np.uint64)
        for j, (q, inv, inv_sh) in enumerate(self._garner):
            m = len(q)
            x = v[j + 1 :]
            rm, sm, tm, hm = r[:m], s[:m], t[:m], h[:m]
            mod_sub(NUMPY, sm, x, v[j : j + 1], q, tm)  # v_j < q_j < q_i
            shoup_mul(NUMPY, rm, sm, inv, inv_sh, q, hm, tm)
            NUMPY.fold(x, rm, q, tm)
        if self.checked:
            assert_within(v, self._top, kernel="CRT", stage="mixed-radix digits")
        return v

    def upper_half(self, digits: np.ndarray) -> np.ndarray:
        """Per column, whether ``X > floor(Q/2)``: decided at the most
        significant digit that differs from ``floor(Q/2)``'s (none
        differs at ``X = floor(Q/2)``, whose top digit compares equal)."""
        above = digits > self._half
        differs = digits != self._half
        top = len(digits) - 1 - np.argmax(differs[::-1], axis=0)
        return above[top, np.arange(digits.shape[1])]

    def _magnitudes(self, limbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(negative, padded)`` of the centered representatives.

        ``negative`` marks the upper-half columns; ``padded`` is
        ``(_PAD + num_words + 1, N)`` uint64, zero rows first, then one
        base-``2^32`` word of ``|X|`` per row, least significant first.
        """
        v = self.digits(limbs)
        negative = self.upper_half(v)
        np.subtract(self._top, v, out=v, where=negative)  # q_i - 1 - v_i
        n = v.shape[1]
        padded = np.zeros((_PAD + self.num_words + 1, n), np.uint64)
        words = padded[_PAD:]  # a zero row of headroom above the top word
        hi = np.empty_like(words)
        words[0] = v[-1]
        used = 1
        # Carry-save: each step adds every word's high half into the next
        # word without rippling, so words stay below 2^33 and
        # ``w * q_i + v_i`` below 2^64; the loop below ripples at the end.
        for i, q, reach in self._horner:
            w, h = words[:used], hi[:used]
            np.multiply(w, q, out=w)
            w[0] += v[i]
            np.right_shift(w, _SHIFT32, out=h)
            w &= _MASK32
            words[1 : used + 1] += h
            used = reach
        words[0] += negative  # the complement's + 1
        while True:  # exact carries, until every word is below 2^32
            np.right_shift(words, _SHIFT32, out=hi)
            if not hi.any():
                return negative, padded
            words &= _MASK32
            words[1:] += hi[:-1]

    # -- the readers -------------------------------------------------------
    def to_float(self, limbs: np.ndarray) -> np.ndarray:
        """Centered representatives as float64, each equal to Python's
        ``float(int)`` of the exact value (round half to even; a
        magnitude past float64's range gives inf where ``float`` raises)."""
        negative, padded = self._magnitudes(limbs)
        n = padded.shape[1]
        nonzero = padded != 0
        # the top and lowest nonzero rows per column; an all-zero column
        # reads the last and a pad row, and its zero words give 0.0
        top = len(padded) - 1 - np.argmax(nonzero[::-1], axis=0)
        lowest = np.argmax(nonzero, axis=0)
        below = (lowest >= _PAD) & (lowest < top - 2)  # a nonzero word under w0
        at = top * n + np.arange(n)
        flat = padded.reshape(-1)
        w2, w1, w0 = (flat[at - d * n] for d in range(3))
        _, b = np.frexp(w2.astype(np.float64))
        b = np.maximum(b, 1).astype(np.uint64)  # bits in the top word
        lead = (w2 << (np.uint64(64) - b)) | (w1 << (_SHIFT32 - b)) | (w0 >> b)
        # The bits below the top 64 only break ties: OR them in as one
        # sticky bit under the 11 that float64 drops, then the conversion
        # rounds half to even.
        lead |= below | ((w0 & ((_ONE << b) - _ONE)) != 0)
        exponent = (top.astype(np.int64) - _PAD) * 32 + b.astype(np.int64) - 64
        out = np.ldexp(lead.astype(np.float64), exponent)
        np.negative(out, out=out, where=negative)
        return out

    def to_ints(self, limbs: np.ndarray, *, centered: bool = True) -> list[int]:
        """Python ints from the magnitude words: centered representatives
        in ``(-Q/2, Q/2]``, or canonical ones in ``[0, Q)``."""
        negative, padded = self._magnitudes(limbs)
        words = padded[_PAD:]
        width = 4 * len(words)
        raw = np.ascontiguousarray(words.T, dtype="<u4").tobytes()
        mags = [
            int.from_bytes(raw[j : j + width], "little")
            for j in range(0, len(raw), width)
        ]
        big_q = self.modulus
        if centered:
            return [-m if s else m for m, s in zip(mags, negative.tolist())]
        return [big_q - m if s else m for m, s in zip(mags, negative.tolist())]
