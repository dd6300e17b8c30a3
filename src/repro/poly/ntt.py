"""Negacyclic number-theoretic transform engine (§4 of the paper).

Every kernel the paper prices — basis conversion, key switching, rescaling —
bottoms out in limb-wise negacyclic NTTs over the 25-30 RNS prime system.
This module implements the transform bit-faithfully on top of the Table-3
reducers of :mod:`repro.rns.reduction`:

* forward: iterative Cooley-Tukey decimation-in-time, natural-order input,
  bit-reversed output;
* inverse: iterative Gentleman-Sande decimation-in-frequency, bit-reversed
  input, natural-order output (with the final ``n^-1`` scaling);
* twiddles: powers of a primitive ``2N``-th root psi (``psi^N = -1``), stored
  in bit-reversed order so each stage reads a contiguous slice — the memory
  layout GPU NTT kernels use to keep twiddle loads coalesced.

The negacyclic wrap means ``inverse(forward(a) . forward(b))`` is the product
``a * b mod (x^N + 1)`` with no zero-padding, which is exactly the ring
arithmetic CKKS needs.

``method`` picks Shoup, SMR, Barrett or (unsigned) Montgomery per Table 3.
The reducer's ``prepare`` builds the twiddle tables — the Montgomery family
keeps them in Montgomery form, absorbing the ``2^-32`` factor, so
coefficients never leave the standard domain between butterflies — and its
``mul_prepared`` forms each product.  This reference engine keeps its own
schedule and ``np.where`` butterflies: one backend serves the three
unsigned reducers over canonical residues, and SMR's keeps Alg. 2's signed
representatives.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError
from repro.rns.primes import Prime, primitive_root_of_unity
from repro.rns.reduction import make_reducer


def _range_error(a: np.ndarray, q) -> ParameterError:
    """Error naming the first out-of-range coefficient and *its* modulus.

    With per-limb moduli, ``a.max()`` can be a perfectly valid value from
    a large-prime row while the violator hides in a small-prime row, so
    the offending entry is located explicitly.
    """
    q_full = np.broadcast_to(np.asarray(q, dtype=np.uint64), a.shape)
    idx = tuple(int(i[0]) for i in np.nonzero(a >= q_full))
    return ParameterError(
        f"coefficient {int(a[idx])} at index {idx} out of range "
        f"[0, {int(q_full[idx])})"
    )


@lru_cache(maxsize=32)
def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index array ``p`` with ``p[i]`` = ``i`` bit-reversed over log2(n) bits.

    Cached per ``n`` (and returned read-only so shared state cannot be
    corrupted): every engine construction — each per-prime engine, each
    batched table build, each extended-basis table build — gathers its
    twiddle tables through this index array, and at small ``N`` that
    repeated build + gather is the largest non-butterfly cost.
    """
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"bit reversal needs a power of two, got {n}")
    log_n = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for bit in range(log_n):
        rev |= ((idx >> bit) & 1) << (log_n - 1 - bit)
    rev.flags.writeable = False
    return rev


@lru_cache(maxsize=64)
def complex_root_powers(n: int) -> np.ndarray:
    """All ``2N`` complex ``2N``-th roots of unity, indexed by exponent.

    ``complex_root_powers(n)[k] == exp(i * pi * k / n)`` — the complex
    analogue of the modular psi power tables the NTT engines build: the
    canonical-embedding encoder's special FFT twiddles are slices of this
    table, and the big-int reference evaluator's slot oracle evaluates
    polynomials against it directly (exponents reduced mod ``2N`` by
    index, so no ``psi**k`` drift accumulates).  Cached per ``N`` and
    read-only.
    """
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"root table needs a power-of-two N, got {n}")
    table = np.exp(1j * np.pi * np.arange(2 * n) / n)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def canonical_slot_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot-orbit index tables for the canonical embedding, cached per N.

    The encoder's ``N/2`` slots are the evaluations at the primitive
    ``2N``-th roots ``psi^(5^j mod 2N)``, *orbit-ordered* by powers of 5 —
    the same generator :data:`repro.scheme.keys.ROTATION_GEN` the Galois
    rotation elements use, which is exactly why ``Evaluator.rotate(k)``
    acts as a cyclic slot shift and ``conjugate`` as slot-wise
    conjugation.  Returns two read-only arrays mapping orbit position
    ``j`` into the engines' bit-reversed NTT slot ordering (slot ``t``
    evaluates at ``psi^(2*brv[t]+1)``, see :func:`automorphism_tables`):

    * ``slot_idx[j]`` — the NTT slot holding the evaluation at
      ``psi^(5^j)``;
    * ``conj_idx[j]`` — the NTT slot holding the evaluation at
      ``psi^(-5^j)``, the conjugate point (real-coefficient polynomials
      take conjugate values there, which is what makes ``N`` real
      coefficients carry exactly ``N/2`` free complex slots).

    Together the two arrays enumerate all ``N`` odd residues mod ``2N``
    (the orbit of 5 and its negation partition them), so scatter-by-both
    followed by the inverse transform is a bijection.
    """
    if n < 4 or n & (n - 1):
        raise ParameterError(
            f"slot tables need a power-of-two N >= 4, got {n}"
        )
    brv = bit_reverse_permutation(n)
    exps = np.empty(n // 2, dtype=np.int64)
    e = 1
    for j in range(n // 2):
        exps[j] = e
        e = (e * 5) % (2 * n)
    slot_idx = brv[(exps - 1) // 2]
    conj_idx = brv[(2 * n - exps - 1) // 2]
    for arr in (slot_idx, conj_idx):
        arr.flags.writeable = False
    return slot_idx, conj_idx


def automorphism_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached per ``(N, k)`` index tables for the Galois map ``X -> X^k``.

    ``k`` must be odd (i.e. coprime to ``2N``), so ``sigma_k`` is a ring
    automorphism of ``Z[X]/(X^N + 1)``.  Returns three read-only arrays:

    * ``coeff_src`` — coefficient-domain gather indices: output
      coefficient ``j`` reads input coefficient ``coeff_src[j]``;
    * ``coeff_neg`` — boolean mask of output coefficients that pick up a
      sign flip (``X^{ik}`` wrapped past ``X^N = -1`` an odd number of
      times);
    * ``ntt_perm`` — NTT-domain gather indices in the engines'
      bit-reversed evaluation ordering: slot ``t`` of the output reads
      slot ``ntt_perm[t]`` of the input.  The evaluation points
      ``psi^(2j+1)`` are the odd powers of ``psi``, and multiplication
      by ``k`` permutes the odd residues mod ``2N`` among themselves, so
      the NTT-domain action is a *pure* permutation — no transform round
      trip and no sign corrections.

    ``k`` is reduced mod ``2N`` first, so ``sigma_k`` composition tests
    can pass products directly.
    """
    if n <= 0 or n & (n - 1):
        raise ParameterError(f"automorphism needs a power-of-two N, got {n}")
    k %= 2 * n
    if k % 2 == 0:
        raise ParameterError(
            f"Galois element {k} is even: X -> X^k is only an "
            f"automorphism for k coprime to 2N (odd k)"
        )
    return _automorphism_tables(n, k)


@lru_cache(maxsize=128)
def _automorphism_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cached body of :func:`automorphism_tables` (``k`` reduced)."""
    idx = np.arange(n, dtype=np.int64)
    exp = (idx * k) % (2 * n)
    wrap = exp >= n  # X^e with e >= N folds to -X^(e-N)
    dest = np.where(wrap, exp - n, exp)
    coeff_src = np.empty(n, dtype=np.int64)
    coeff_src[dest] = idx  # invert the scatter into a gather
    coeff_neg = wrap[coeff_src]
    brv = bit_reverse_permutation(n)
    # Slot t evaluates at psi^(2*brv[t]+1); sigma_k(a) there equals a at
    # psi^((2*brv[t]+1)*k), which lives in slot brv[((e*k)-1)/2] (bit
    # reversal is an involution).
    src_exp = ((2 * brv + 1) * k) % (2 * n)
    ntt_perm = brv[(src_exp - 1) // 2]
    for arr in (coeff_src, coeff_neg, ntt_perm):
        arr.flags.writeable = False
    return coeff_src, coeff_neg, ntt_perm


class _UnsignedBackend:
    """Butterfly arithmetic over canonical uint64 residues ``[0, q)``, for
    the three reducers whose products land in ``[0, 2q)``: every product
    and every butterfly folds back to canonical, so stage outputs are
    always valid stage inputs.
    """

    def __init__(self, red) -> None:
        self.red = red
        self.q = red.q

    # -- domain conversion -------------------------------------------------
    def enter(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        if a.size and np.any(a >= self.q):
            raise _range_error(a, self.q)
        return a.copy()

    def exit(self, a: np.ndarray) -> np.ndarray:
        return a

    # -- modular ring ops --------------------------------------------------
    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        q = self.q
        s = x + y
        return np.where(s >= q, s - q, s)

    def sub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        q = self.q
        d = x + q - y
        return np.where(d >= q, d - q, d)

    def mul(self, x: np.ndarray, parts: tuple[np.ndarray, ...]) -> np.ndarray:
        return self.red.canonical(self.red.mul_prepared(x, parts))


class _SmrBackend:
    """Signed Montgomery (Alg. 2) backend.

    Coefficients live as signed representatives in (-q, q) in int64; every
    butterfly folds once so the range never widens.  Twiddles are stored in
    signed Montgomery form, making each twiddle multiply exactly Table 3's
    cheapest row: mulhi32 + mullo32 + one 32-bit subtract.
    """

    def __init__(self, red) -> None:
        self.red = red
        self.q = red.q

    def enter(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        bound = self.q.astype(np.uint64)
        if a.size and np.any(a >= bound):
            raise _range_error(a, bound)
        return a.astype(np.int64)

    def exit(self, a: np.ndarray) -> np.ndarray:
        return self.red.canonical(a)

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        q = self.q
        s = x + y
        s = np.where(s >= q, s - q, s)
        return np.where(s <= -q, s + q, s)

    def sub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        q = self.q
        d = x - y
        d = np.where(d >= q, d - q, d)
        return np.where(d <= -q, d + q, d)

    def mul(self, x: np.ndarray, parts: tuple[np.ndarray, ...]) -> np.ndarray:
        # |x| < q and |tw_mont| < q, so |x * tw| < q * 2^31: Alg. 2's domain.
        return self.red.mul_prepared(x, parts)


class NegacyclicNTT:
    """Per-prime negacyclic NTT with precomputed bit-reversed twiddles.

    Args:
        q: the limb prime (a :class:`Prime` or a raw int), q = 1 (mod 2N).
        n: ring degree N, a power of two.
        method: reducer backend; one of barrett / montgomery / shoup / smr.
        psi: optionally a specific primitive 2N-th root of unity to use
            (tests pin it for reproducibility); found via
            :func:`primitive_root_of_unity` when omitted.
    """

    def __init__(
        self,
        q: int | Prime,
        n: int,
        method: str = "smr",
        *,
        psi: int | None = None,
    ) -> None:
        q = int(q)
        if n < 2 or n & (n - 1):
            raise ParameterError(f"ring degree {n} is not a power of two >= 2")
        if (q - 1) % (2 * n):
            raise ParameterError(f"q={q} is not NTT-friendly for N={n}")
        self.q = q
        self.n = n
        self.log_n = n.bit_length() - 1
        self.method = method
        if psi is None:
            psi = primitive_root_of_unity(2 * n, q)
        elif pow(psi, n, q) != q - 1:
            raise ParameterError(f"psi={psi} is not a primitive {2*n}-th root")
        self.psi = psi
        red = make_reducer(method, q)
        self.backend = (_SmrBackend if red.contract.signed else _UnsignedBackend)(red)

        brv = bit_reverse_permutation(n)
        self._fwd = red.prepare(_power_table(psi, q, n)[brv])
        psi_inv = pow(psi, -1, q)
        self._inv = red.prepare(_power_table(psi_inv, q, n)[brv])
        self._n_inv = red.prepare(np.array([pow(n, -1, q)], dtype=np.uint64))

    # -- transforms --------------------------------------------------------
    def forward(self, a: np.ndarray) -> np.ndarray:
        """Coefficients (natural order) -> NTT values (bit-reversed order).

        Cooley-Tukey DIT: log2(N) stages of N/2 butterflies
        ``(u, v) -> (u + S*v, u - S*v)``, stage ``m`` reading the contiguous
        twiddle slice ``[m, 2m)`` of the bit-reversed psi table.
        """
        b = self.backend
        x = b.enter(a)
        if x.shape != (self.n,):
            raise ParameterError(f"expected shape ({self.n},), got {x.shape}")
        t = self.n
        m = 1
        while m < self.n:
            t >>= 1
            blk = x.reshape(m, 2 * t)
            u = blk[:, :t]
            v = b.mul(blk[:, t:], _tw_slice(self._fwd, m, 2 * m))
            hi = b.add(u, v)
            lo = b.sub(u, v)
            blk[:, :t] = hi
            blk[:, t:] = lo
            m <<= 1
        return b.exit(x)

    def inverse(self, a_hat: np.ndarray) -> np.ndarray:
        """NTT values (bit-reversed order) -> coefficients (natural order).

        Gentleman-Sande DIF: butterflies ``(u, v) -> (u + v, S*(u - v))``
        then the final ``n^-1`` scaling.
        """
        b = self.backend
        x = b.enter(a_hat)
        if x.shape != (self.n,):
            raise ParameterError(f"expected shape ({self.n},), got {x.shape}")
        t = 1
        m = self.n
        while m > 1:
            h = m >> 1
            blk = x.reshape(h, 2 * t)
            u = blk[:, :t]
            v = blk[:, t:]
            s = b.add(u, v)
            d = b.mul(b.sub(u, v), _tw_slice(self._inv, h, 2 * h))
            blk[:, :t] = s
            blk[:, t:] = d
            t <<= 1
            m = h
        x = b.mul(x, tuple(p[:1] for p in self._n_inv))
        return b.exit(x)

    # -- NTT-domain arithmetic ---------------------------------------------
    def prepare_operand(self, b_hat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The reducer-prepared form of an NTT-domain operand, for reuse.

        Shoup's companion is a full per-element division and the Montgomery
        family pays an extra ``to_form`` pass; preparing once and passing
        the handle to :meth:`pointwise_prepared` makes repeated products
        against the same operand (key switching multiplies every limb by
        the same key polynomial) pay that precompute exactly once.
        """
        if np.shape(b_hat) != (self.n,):
            raise ParameterError(
                f"expected a ({self.n},) vector, got {np.shape(b_hat)}"
            )
        return self.backend.red.prepare(b_hat)

    def pointwise_prepared(
        self, a_hat: np.ndarray, prepared: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Element-wise product against a :meth:`prepare_operand` handle."""
        if np.shape(a_hat) != (self.n,):
            raise ParameterError(
                f"expected a ({self.n},) vector, got {np.shape(a_hat)}"
            )
        b = self.backend
        return b.exit(b.mul(b.enter(a_hat), prepared))

    def pointwise(self, a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
        """Element-wise product of two NTT-domain vectors, canonical [0, q).

        Both inputs must come from :meth:`forward` (same bit-reversed
        ordering); the ordering is consistent so no permutation is needed.
        One-shot convenience over :meth:`prepare_operand` +
        :meth:`pointwise_prepared`; amortize the precompute through those
        when multiplying repeatedly by the same ``b_hat``.
        """
        return self.pointwise_prepared(a_hat, self.prepare_operand(b_hat))

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a * b mod (x^N + 1, q)`` via forward / pointwise / inverse."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))


@lru_cache(maxsize=4096)
def _power_table(base: int, q: int, n: int) -> np.ndarray:
    """[base^0, base^1, ..., base^(n-1)] mod q as uint64, cached.

    Shared root-table plumbing: the per-prime engines, the batched
    limb-matrix tables, and every extended-basis rebuild gather their
    bit-reversed twiddles out of this one cache, so reconstructing a
    context (tests, benchmarks, encoder/evaluator pairs) never recomputes
    a root chain it has already walked.  Returned read-only; callers
    gather through ``[brv]`` (which copies) before mutating layouts.
    """
    powers = np.empty(n, dtype=np.uint64)
    acc = 1
    for i in range(n):
        powers[i] = acc
        acc = acc * base % q
    powers.flags.writeable = False
    return powers


def _tw_slice(
    parts: tuple[np.ndarray, ...], lo: int, hi: int
) -> tuple[np.ndarray, ...]:
    """Stage slice [lo, hi) of a prepped twiddle table, as a column vector."""
    return tuple(p[lo:hi].reshape(-1, 1) for p in parts)
