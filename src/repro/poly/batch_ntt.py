"""Batched limb-matrix negacyclic NTT (the paper's limb-parallel execution).

The paper's whole pitch is that every limb of the 25-30 prime system runs
the *same* kernel simultaneously: one NTT stage is one GPU-wide pass over
the ``(num_limbs, N)`` limb matrix, not a Python loop over per-prime
engines.  :class:`BatchNTT` reproduces that shape on the CPU: the Table-3
reducers accept per-row modulus columns (``(L, 1)`` ``q``/``mu``/``m``
arrays broadcasting against ``(L, N)`` data), the bit-reversed twiddle
tables of all limbs are stacked into one ``(L, N)`` matrix, and each
Cooley-Tukey / Gentleman-Sande stage transforms every limb in a single
vectorized NumPy pass.

Per stage the limb matrix is viewed as ``(L, m, 2, t)`` blocks; the
stage's twiddle slice ``[m, 2m)`` of the stacked table broadcasts across
the ``t`` butterflies of each block, exactly mirroring the per-prime
:class:`~repro.poly.ntt.NegacyclicNTT` (which stays as the reference
implementation the tests cross-check against — both use the same per-limb
roots, so outputs bit-match).

The transform hot loop runs through hand-scheduled stage kernels rather
than the generic backend ops, because at ``(L, N)`` scale the functional
style drowns in temporary allocations, strided slivers and 64-bit scalar
multiplies:

* every intermediate lives in a preallocated scratch workspace (``out=``
  everywhere) and stages ping-pong between two buffers, so a whole
  transform allocates nothing;
* conditional folds use the branch-free trick ``min(s, s - q)`` (for
  ``s < q`` the unsigned subtraction wraps, so the minimum keeps ``s``)
  instead of ``np.where`` temporaries;
* once butterflies pair elements closer than :data:`_CHUNK` apart, the
  limb matrix is transposed chunk-wise into a ``(_CHUNK, L*N/_CHUNK)``
  layout — the four-step-NTT locality trick — so the tail stages stream
  over long contiguous rows instead of ``t``-element slivers (the
  per-stage twiddle layout for the transposed phase is precomputed once
  per table);
* the Shoup / Montgomery / SMR kernels keep the whole coefficient state
  in **canonical uint32**: residues are < q < 2^31 so sums < 2q never
  wrap, low-32-bit partial products become wrapping uint32 multiplies
  (SIMD-friendly, unlike 64-bit multiplies which the int datapath runs
  scalar), and only the one high-half product per butterfly runs in
  64-bit.  Barrett needs all four 64-bit partial products anyway, so it
  keeps a uint64 Harvey-style 2q-lazy kernel instead.

Bit-exactness: the Shoup / Montgomery / Barrett kernels compute the very
same intermediate integers as the reference engine (same butterfly
schedule, same reduction formulas).  The SMR kernel canonicalizes each
Alg. 2 output into [0, q) instead of carrying the reference's signed
(-q, q) representatives; intermediates stay congruent mod q with all of
Alg. 2's range preconditions intact, so the canonical outputs after the
exit pass are bit-identical to the reference's.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import hooks
from repro.analysis.sanitizer import assert_within, checked_mode
from repro.errors import ParameterError
from repro.poly.backends import make_ntt_impl, resolve_backend
from repro.poly.ntt import (
    _power_table,
    _range_error,
    automorphism_tables,
    bit_reverse_permutation,
    make_ntt_backend,
)
from repro.rns.primes import Prime, primitive_root_of_unity

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ISHIFT32 = np.int64(32)
_ISHIFT63 = np.int64(63)

#: chunk length for the transposed tail phase; butterflies within a chunk
#: pair elements < _CHUNK apart, so whole chunks stay independent.
_CHUNK = 128
#: ring degrees below this keep the plain layout — their chunk count is
#: too small for the transposed rows to beat the transpose cost.
_MIN_SPLIT_N = 256


class BatchNTT:
    """Negacyclic NTT over all limbs of an RNS basis at once.

    Args:
        primes: the limb primes (ints or :class:`Prime`), each = 1 (mod 2N).
        n: ring degree N, a power of two.
        method: reducer backend; one of barrett / montgomery / shoup / smr.
        psis: optionally one primitive 2N-th root of unity per limb (pass
            the per-prime engines' roots to guarantee bit-identical
            outputs); found via :func:`primitive_root_of_unity` when
            omitted — which picks the same root the per-prime engine picks,
            so the two paths agree either way.
        backend: execution tier for the hot transforms — ``"numpy"`` /
            ``"compiled"`` (:mod:`repro.poly.backends`).  ``None`` defers
            to ``REPRO_BACKEND``, then ``"numpy"``.  Both tiers are
            bit-identical; an unavailable compiled tier degrades back to
            the numpy kernels after one warning.
    """

    def __init__(
        self,
        primes: Sequence[Prime | int],
        n: int,
        method: str = "smr",
        *,
        psis: Sequence[int] | None = None,
        backend: str | None = None,
    ) -> None:
        primes = [int(q) for q in primes]
        if not primes:
            raise ParameterError("BatchNTT needs at least one limb prime")
        if n < 2 or n & (n - 1):
            raise ParameterError(f"ring degree {n} is not a power of two >= 2")
        for q in primes:
            if (q - 1) % (2 * n):
                raise ParameterError(f"q={q} is not NTT-friendly for N={n}")
        if psis is None:
            psis = [primitive_root_of_unity(2 * n, q) for q in primes]
        else:
            psis = [int(psi) for psi in psis]
            if len(psis) != len(primes):
                raise ParameterError(
                    f"{len(psis)} roots for {len(primes)} limb primes"
                )
            for psi, q in zip(psis, primes):
                if pow(psi, n, q) != q - 1:
                    raise ParameterError(
                        f"psi={psi} is not a primitive {2*n}-th root mod {q}"
                    )
        self.primes = primes
        self.psis = psis
        self.n = n
        self.log_n = n.bit_length() - 1
        self.method = method
        self.backend = make_ntt_backend(method, primes)
        #: dispatch tier name; the impl object itself is built lazily so
        #: engines that never transform (pure table donors) cost nothing
        self.backend_tier = resolve_backend(backend)
        self._impl = None
        self._impl_ready = False

        brv = bit_reverse_permutation(n)
        fwd = np.stack([_power_table(psi, q, n)[brv] for psi, q in zip(psis, primes)])
        inv = np.stack(
            [_power_table(pow(psi, -1, q), q, n)[brv] for psi, q in zip(psis, primes)]
        )
        self._fwd = self.backend.prepare_twiddles(fwd)
        self._inv = self.backend.prepare_twiddles(inv)
        n_inv = np.array([[pow(n, -1, q)] for q in primes], dtype=np.uint64)
        self._n_inv = self.backend.prepare_twiddles(n_inv)
        self._kernel = _KERNELS[method](primes, n, self.backend.red)
        self._kernel.set_tables(self._fwd, self._inv, self._n_inv)

    @property
    def num_limbs(self) -> int:
        return len(self.primes)

    @property
    def checked(self) -> bool:
        return self._kernel.checked

    def set_checked(self, flag: bool) -> None:
        """Toggle sanitizer-mode per-stage assertions on this engine.

        Kernels read ``REPRO_CHECKED`` at construction;
        :class:`~repro.poly.rns_poly.PolyContext` calls this to propagate
        an explicit ``checked=`` override onto shared/derived engines.
        """
        self._kernel.checked = bool(flag)

    def _transformer(self):
        """The lazily chosen transform kernels: the tier's, else numpy's.

        An unavailable compiled tier (no toolchain) resolves to the numpy
        stage kernels here, so callers never branch on tier.
        """
        if not self._impl_ready:
            self._impl_ready = True
            self._impl = make_ntt_impl(self, self.backend_tier)
        return self._kernel if self._impl is None else self._impl

    def take(self, num_limbs: int) -> BatchNTT:
        """A BatchNTT over the first ``num_limbs`` limbs, sharing tables.

        Twiddle tables are immutable, so a rescaled (child) context reuses
        its parent's prepared rows as views instead of recomputing power
        tables.
        """
        if not 1 <= num_limbs <= self.num_limbs:
            raise ParameterError(
                f"cannot take {num_limbs} of {self.num_limbs} limbs"
            )
        if num_limbs == self.num_limbs:
            return self
        return self._clone(
            self.primes[:num_limbs],
            self.psis[:num_limbs],
            tuple(p[:num_limbs] for p in self._fwd),
            tuple(p[:num_limbs] for p in self._inv),
            tuple(p[:num_limbs] for p in self._n_inv),
        )

    def extend(
        self,
        extra_primes: Sequence[Prime | int],
        *,
        psis: Sequence[int] | None = None,
    ) -> BatchNTT:
        """A BatchNTT over this basis followed by ``extra_primes``.

        The extended-basis engine key switching needs (Q then the
        auxiliary P primes): prepared twiddle rows for the existing limbs
        are *shared* with this engine, and only the new primes pay the
        power-table build — so the extended tables cost O(K·N) work for K
        new primes instead of O((L+K)·N).
        """
        extra = BatchNTT(
            extra_primes, self.n, self.method, psis=psis, backend="numpy"
        )
        overlap = set(self.primes) & set(extra.primes)
        if overlap:
            raise ParameterError(
                f"extension primes overlap the base basis: {sorted(overlap)}"
            )
        return self._clone(
            self.primes + extra.primes,
            self.psis + extra.psis,
            tuple(np.concatenate([a, b]) for a, b in zip(self._fwd, extra._fwd)),
            tuple(np.concatenate([a, b]) for a, b in zip(self._inv, extra._inv)),
            tuple(np.concatenate([a, b]) for a, b in zip(self._n_inv, extra._n_inv)),
        )

    def _clone(self, primes, psis, fwd, inv, n_inv) -> BatchNTT:
        """Assemble an engine from already-prepared tables (take/extend)."""
        clone = object.__new__(BatchNTT)
        clone.primes = list(primes)
        clone.psis = list(psis)
        clone.n = self.n
        clone.log_n = self.log_n
        clone.method = self.method
        clone.backend = make_ntt_backend(self.method, clone.primes)
        clone.backend_tier = self.backend_tier
        clone._impl = None
        clone._impl_ready = False
        clone._fwd = fwd
        clone._inv = inv
        clone._n_inv = n_inv
        clone._kernel = _KERNELS[self.method](clone.primes, self.n, clone.backend.red)
        clone._kernel.set_tables(clone._fwd, clone._inv, clone._n_inv)
        return clone

    def _check_shape(self, a, label: str) -> None:
        if np.shape(a) != (self.num_limbs, self.n):
            raise ParameterError(
                f"{label}: expected ({self.num_limbs}, {self.n}) limb "
                f"matrix, got {np.shape(a)}"
            )

    # -- transforms --------------------------------------------------------
    def forward(self, a: np.ndarray, *, out: np.ndarray | None = None):
        """(L, N) coefficients -> (L, N) NTT values, all limbs per stage.

        Identical butterfly schedule to the per-prime engine; each stage's
        Cooley-Tukey pass runs over the whole limb matrix at once.  With
        ``out`` (a uint64 (L, N) buffer) the result is written there
        instead of a fresh array — the fused key-switching pipeline keeps
        its transforms allocation-free this way.  ``out`` may alias ``a``
        (the input is copied into the workspace before any write).
        """
        self._check_shape(a, "forward")
        hooks.emit("batch_ntt.forward")
        return self._transformer().forward(a, out=out)

    def inverse(self, a_hat: np.ndarray, *, out: np.ndarray | None = None):
        """(L, N) NTT values -> (L, N) coefficients (Gentleman-Sande).

        ``out`` as in :meth:`forward`.
        """
        self._check_shape(a_hat, "inverse")
        hooks.emit("batch_ntt.inverse")
        return self._transformer().inverse(a_hat, out=out)

    # -- NTT-domain arithmetic ---------------------------------------------
    def prepare_operand(self, b_hat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Backend-prepared form of an (L, N) NTT-domain operand.

        Same contract as :meth:`NegacyclicNTT.prepare_operand`: Shoup's
        per-element companion division / the Montgomery family's
        ``to_form`` pass happen once here, and every
        :meth:`pointwise_prepared` against the handle skips them.
        """
        self._check_shape(b_hat, "prepare_operand")
        return self.backend.prepare_twiddles(np.asarray(b_hat))

    def pointwise_prepared(
        self, a_hat: np.ndarray, prepared: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Element-wise limb-matrix product against a prepared operand."""
        self._check_shape(a_hat, "pointwise")
        b = self.backend
        return b.exit(b.mul(b.enter(a_hat), prepared))

    def pointwise(self, a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
        """Element-wise product of two (L, N) NTT-domain matrices."""
        return self.pointwise_prepared(a_hat, self.prepare_operand(b_hat))

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a * b mod (x^N + 1)`` per limb, via forward/pointwise/inverse."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))

    # -- Galois automorphisms ----------------------------------------------
    def automorphism_coeff(
        self, a: np.ndarray, k: int, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Coefficient-domain ``sigma_k: X -> X^k`` on an (L, N) matrix.

        One signed index permutation per limb row — a gather through the
        cached per-``(N, k)`` tables (:func:`automorphism_tables`) plus a
        conditional negation of the wrapped columns; no transform, no
        multiplies.  The same column pattern applies to every limb row
        because ``sigma_k`` permutes *integer* coefficients: the sign
        flip commutes with reduction mod each ``q_i``.
        """
        self._check_shape(a, "automorphism")
        src, neg, _ = automorphism_tables(self.n, k)
        a = np.asarray(a, dtype=np.uint64)
        if out is None:
            out = np.empty_like(a)
        np.take(a, src, axis=1, out=out)
        q = np.array(self.primes, dtype=np.uint64).reshape(-1, 1)
        cols = out[:, neg]
        out[:, neg] = np.where(cols == 0, cols, q - cols)
        return out

    def automorphism_ntt(
        self, a_hat: np.ndarray, k: int, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """NTT-domain ``sigma_k`` on an (L, N) matrix: a pure permutation.

        Multiplication by ``k`` permutes the odd evaluation exponents mod
        ``2N`` among themselves, so the whole action is one slot gather
        per limb row — no sign corrections and no transform round trip
        (the hoisted-rotation fast path lives on this).
        """
        self._check_shape(a_hat, "automorphism")
        _, _, perm = automorphism_tables(self.n, k)
        a_hat = np.asarray(a_hat, dtype=np.uint64)
        if out is None:
            out = np.empty_like(a_hat)
        np.take(a_hat, perm, axis=1, out=out)
        return out


# ---------------------------------------------------------------------------
# Stage kernels.
#
# Shared conventions:
# * state lives in two persistent ping-pong buffers plus persistent
#   scratch rows, reshaped per stage to the (L, m, t) / (J, t, M) view;
# * plain-layout constants are (L, 1, 1) columns broadcasting against the
#   (L, m, t) stage views; transposed-phase constants are (M,) rows
#   (M = L*N/_CHUNK columns, limb-major) broadcasting against (J, t, M);
# * a multiplicand ``v`` handed to ``_mul`` is only read before the first
#   scratch write, so callers may pass a scratch view as ``v``.
# ---------------------------------------------------------------------------


class _Layout:
    """Per-layout constant bundle (plain limb-rows vs transposed columns)."""

    __slots__ = ("q", "q2", "q64", "q_inv_neg", "mu_hi", "mu_lo", "m")


class _KernelBase:
    """Stage scheduling, layouts and table management shared by kernels.

    Subclasses define ``state_dtype``, ``_consts`` (per-layout constants),
    ``_cast_parts`` (table dtypes), ``_mul`` (twiddle product to canonical
    or lazy boundary), ``_bfly`` (CT combine), ``_gs`` (GS combine),
    ``enter`` and ``exit``.
    """

    def __init__(self, primes: list[int], n: int, reducer) -> None:
        self.primes = primes
        self.n = n
        #: the batched Table-3 reducer whose precomputed constants
        #: (mu, -q^-1, signed m) the kernels reuse instead of re-deriving
        self.reducer = reducer
        self.chunks = n // _CHUNK if n >= _MIN_SPLIT_N else 0
        self.cols = len(primes) * self.chunks  # M, transposed-phase width
        q = np.array(primes, dtype=np.uint64)
        self.q_ucol = q.reshape(-1, 1)
        #: sanitizer mode: assert the statically certified per-stage bound
        #: (q-1 canonical, 2q-1 Barrett-lazy) after every butterfly stage
        self.checked = checked_mode()
        bound = q * np.uint64(self.lazy_factor) - np.uint64(1)
        self._bound_col = bound.reshape(-1, 1)
        self._bound_row = np.repeat(bound, self.chunks) if self.chunks else None
        self.cN = self._consts(lambda a: np.asarray(a).reshape(-1, 1, 1))
        self.cT = (
            self._consts(lambda a: np.repeat(np.asarray(a).reshape(-1),
                                             self.chunks))
            if self.chunks
            else None
        )
        self._space: tuple | None = None

    # -- tables ------------------------------------------------------------
    def set_tables(self, fwd, inv, n_inv) -> None:
        """Adopt backend-prepared twiddle tables, in kernel dtypes plus the
        precomputed transposed-phase layout."""
        self.fwd_n = self._cast_parts(fwd)
        self.inv_n = self._cast_parts(inv)
        self.n_inv = self._cast_parts(n_inv)
        self.fwd_t = self._stage_tables(self.fwd_n, inverse=False)
        self.inv_t = self._stage_tables(self.inv_n, inverse=True)

    def _stage_tables(self, parts, *, inverse: bool) -> list:
        """Per-stage twiddles rearranged for the transposed tail phase.

        In that phase data column ``l*chunks + c`` holds chunk ``c`` of
        limb ``l``, and stage block ``g = c*J + j`` needs table entry
        ``[l, m + g]`` — so the stage slice ``[m, 2m)`` lands as a
        ``(J, 1, M)`` array (precomputed once; the hot loop just indexes).
        """
        if not self.chunks:
            return []
        stages = []
        t = _CHUNK // 2
        while t >= 1:
            m = self.n // (2 * t)
            blocks_per_chunk = _CHUNK // (2 * t)
            stages.append(
                tuple(
                    np.ascontiguousarray(
                        p[:, m : 2 * m]
                        .reshape(len(self.primes), self.chunks, -1)
                        .transpose(2, 0, 1)
                        .reshape(blocks_per_chunk, 1, self.cols)
                    )
                    for p in parts
                )
            )
            t >>= 1
        if inverse:
            stages.reverse()  # GS consumes small-t stages first
        return stages

    def _assert_state(self, x: np.ndarray, transposed: bool, stage: str) -> None:
        """Checked mode: the ping buffer must respect the stage invariant
        the Level-1 certificate proved (per-limb rows in the plain layout,
        per-limb repeated columns in the transposed layout)."""
        bound = self._bound_row if transposed else self._bound_col
        assert_within(x, bound, kernel=f"{self.method_name} NTT", stage=stage)

    # -- buffers -----------------------------------------------------------
    def _workspace(self):
        if self._space is None:
            self._space = self._alloc_space()
        return self._space

    def _transpose_in(self, cur: np.ndarray, other: np.ndarray):
        """(L, N) -> (_CHUNK, M): row r holds element r of every chunk."""
        dst = other.reshape(_CHUNK, self.cols)
        np.copyto(dst, cur.reshape(self.cols, _CHUNK).T)
        return dst, cur.reshape(_CHUNK, self.cols)

    def _transpose_out(self, cur: np.ndarray, other: np.ndarray):
        """(_CHUNK, M) -> (L, N)."""
        length = len(self.primes)
        dst = other.reshape(self.cols, _CHUNK)
        np.copyto(dst, cur.T)
        return dst.reshape(length, self.n), cur.reshape(length, self.n)

    # -- transforms --------------------------------------------------------
    def forward(self, a: np.ndarray, *, out: np.ndarray | None = None):
        x, y = self.enter(a)
        length = len(self.primes)
        transposed = False
        stage_t = 0
        t = self.n
        m = 1
        while m < self.n:
            t >>= 1
            if self.chunks and not transposed and 2 * t <= _CHUNK:
                x, y = self._transpose_in(x, y)
                transposed = True
            if transposed:
                j = _CHUNK // (2 * t)
                shape = (j, t, self.cols)
                xb = x.reshape(j, 2, t, self.cols)
                yb = y.reshape(j, 2, t, self.cols)
                tw = self.fwd_t[stage_t]
                stage_t += 1
                c = self.cT
                u, v = xb[:, 0], xb[:, 1]
                yu, yv = yb[:, 0], yb[:, 1]
            else:
                shape = (length, m, t)
                xb = x.reshape(length, m, 2, t)
                yb = y.reshape(length, m, 2, t)
                tw = tuple(p[:, m : 2 * m, None] for p in self.fwd_n)
                c = self.cN
                u, v = xb[:, :, 0, :], xb[:, :, 1, :]
                yu, yv = yb[:, :, 0, :], yb[:, :, 1, :]
            self._mul(v, tw, c, shape, yv)
            self._bfly(u, yu, yv, c, shape)
            x, y = y, x
            if self.checked:
                self._assert_state(x, transposed, f"forward stage m={m}")
            m <<= 1
        if transposed:
            x, y = self._transpose_out(x, y)
        return self.exit(x, y, out)

    def inverse(self, a_hat: np.ndarray, *, out: np.ndarray | None = None):
        x, y = self.enter(a_hat)
        length = len(self.primes)
        transposed = False
        stage_t = 0
        if self.chunks:
            x, y = self._transpose_in(x, y)
            transposed = True
        t = 1
        m = self.n
        while m > 1:
            h = m >> 1
            if transposed and 2 * t > _CHUNK:
                x, y = self._transpose_out(x, y)
                transposed = False
            if transposed:
                j = _CHUNK // (2 * t)
                shape = (j, t, self.cols)
                xb = x.reshape(j, 2, t, self.cols)
                yb = y.reshape(j, 2, t, self.cols)
                tw = self.inv_t[stage_t]
                stage_t += 1
                c = self.cT
                u, v = xb[:, 0], xb[:, 1]
                yu, yv = yb[:, 0], yb[:, 1]
            else:
                shape = (length, h, t)
                xb = x.reshape(length, h, 2, t)
                yb = y.reshape(length, h, 2, t)
                tw = tuple(p[:, h : 2 * h, None] for p in self.inv_n)
                c = self.cN
                u, v = xb[:, :, 0, :], xb[:, :, 1, :]
                yu, yv = yb[:, :, 0, :], yb[:, :, 1, :]
            self._gs(u, v, tw, c, shape, yu, yv)
            x, y = y, x
            if self.checked:
                self._assert_state(x, transposed, f"inverse stage m={m}")
            t <<= 1
            m = h
        if transposed:
            x, y = self._transpose_out(x, y)
        # Final n^-1 scale, chunked through the half-size scratch rows.
        half = self.n // 2
        tw = tuple(p[:, :, None] for p in self.n_inv)
        for lo in (0, half):
            v = x[:, lo : lo + half].reshape(length, 1, half)
            dst = y[:, lo : lo + half].reshape(length, 1, half)
            self._mul(v, tw, self.cN, (length, 1, half), dst)
        if self.checked:
            self._assert_state(y, False, "n^-1 scale")
        return self.exit(y, x, out)


class _Canon32Kernel(_KernelBase):
    """Canonical-uint32 state shared by the Shoup / Montgomery / SMR
    kernels: every stage value sits in [0, q), q < 2^31, so sums < 2q
    never wrap uint32 and every fold is one branch-free ``min``."""

    lazy_factor = 1  # stage invariant [0, q): canonical state

    def _alloc_space(self):
        shape = (len(self.primes), self.n)
        half = (len(self.primes), self.n // 2)
        return (
            np.empty(shape, dtype=np.uint32),
            np.empty(shape, dtype=np.uint32),
            np.empty(half, dtype=self.wide_dtype),
            np.empty(half, dtype=self.wide_dtype),
            np.empty(half, dtype=np.uint32),
            np.empty(half, dtype=np.uint32),
            np.empty(half, dtype=self.low_dtype),
        )

    def enter(self, a: np.ndarray):
        a = np.asarray(a, dtype=np.uint64)
        if a.size and np.any(a >= self.q_ucol):
            raise _range_error(a, self.q_ucol)
        x, y = self._workspace()[:2]
        np.copyto(x, a, casting="unsafe")
        return x, y

    def exit(
        self,
        x: np.ndarray,
        _scratch: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if out is None:
            return x.astype(np.uint64)
        np.copyto(out, x, casting="unsafe")  # canonical uint32 -> uint64
        return out

    def _bfly(self, u, yu, yv, c, shape):
        """(u, tt=yv) -> (u + tt, u + q - tt) mod q, canonical, uint32."""
        _, _, _, _, c32, d32, _ = self._workspace()
        c1 = c32.reshape(shape)
        d1 = d32.reshape(shape)
        np.add(u, yv, out=c1)
        np.subtract(c1, c.q, out=d1)
        np.minimum(c1, d1, out=yu)
        np.add(u, c.q, out=c1)
        np.subtract(c1, yv, out=c1)
        np.subtract(c1, c.q, out=d1)
        np.minimum(c1, d1, out=yv)

    def _gs(self, u, v, tw, c, shape, yu, yv):
        """(u, v) -> (u + v, (u - v) * w) mod q, canonical, uint32."""
        _, _, _, _, c32, d32, _ = self._workspace()
        c1 = c32.reshape(shape)
        d1 = d32.reshape(shape)
        np.add(u, v, out=c1)
        np.subtract(c1, c.q, out=d1)
        np.minimum(c1, d1, out=yu)
        np.add(u, c.q, out=c1)
        np.subtract(c1, v, out=c1)
        np.subtract(c1, c.q, out=d1)
        np.minimum(c1, d1, out=c1)
        self._mul(c1, tw, c, shape, yv)


class _ShoupKernel(_Canon32Kernel):
    """Shoup butterflies: one 64-bit high product per twiddle multiply;
    the cross terms run as wrapping uint32 multiplies."""

    wide_dtype = np.uint64
    low_dtype = np.uint32
    method_name = "shoup"

    def _consts(self, shape) -> _Layout:
        c = _Layout()
        c.q = shape(np.array(self.primes, dtype=np.uint32))
        return c

    def _cast_parts(self, parts):
        w, w_shoup = parts
        return (w.astype(np.uint32), w_shoup)  # companion stays uint64

    def _mul(self, v, tw, c, shape, out):
        w32, ws64 = tw
        _, _, b64f, _, c32, d32, _ = self._workspace()
        b64 = b64f.reshape(shape)
        c1 = c32.reshape(shape)
        d1 = d32.reshape(shape)
        np.copyto(b64, v)  # widen v once for the high product
        np.multiply(b64, ws64, out=b64)
        np.right_shift(b64, _SHIFT32, out=b64)  # hi = mulhi32(v, w')
        np.copyto(d1, b64, casting="unsafe")  # hi < 2^31
        np.multiply(d1, c.q, out=d1)  # hi * q   (low 32 bits)
        np.multiply(v, w32, out=c1)  # v * w     (low 32 bits)
        np.subtract(c1, d1, out=c1)  # r = (v*w - hi*q) mod 2^32, in [0, 2q)
        np.subtract(c1, c.q, out=d1)
        np.minimum(c1, d1, out=out)  # canonical [0, q)


class _MontgomeryKernel(_Canon32Kernel):
    """Montgomery butterflies: the product and the m*q correction need
    full 64-bit; the mullo32 by -q^-1 wraps in uint32."""

    wide_dtype = np.uint64
    low_dtype = np.uint32
    method_name = "montgomery"

    def _consts(self, shape) -> _Layout:
        c = _Layout()
        c.q = shape(np.array(self.primes, dtype=np.uint32))
        c.q64 = shape(np.array(self.primes, dtype=np.uint64))
        c.q_inv_neg = shape(self.reducer.q_inv_neg.reshape(-1).astype(np.uint32))
        return c

    def _cast_parts(self, parts):
        return (parts[0],)  # Montgomery-form twiddles, uint64

    def _mul(self, v, tw, c, shape, out):
        _, _, b64f, c64f, _, d32, l32f = self._workspace()
        b64 = b64f.reshape(shape)
        c64 = c64f.reshape(shape)
        low = l32f.reshape(shape)
        d1 = d32.reshape(shape)
        np.copyto(b64, v)
        np.multiply(b64, tw[0], out=b64)  # p = v * (w * 2^32 mod q)
        np.copyto(low, b64, casting="unsafe")  # p mod 2^32
        np.multiply(low, c.q_inv_neg, out=low)  # m = mullo32(p, -q^-1)
        np.copyto(c64, low)
        np.multiply(c64, c.q64, out=c64)  # m * q, full 64 bits
        np.add(b64, c64, out=b64)
        np.right_shift(b64, _SHIFT32, out=b64)  # t = (p + m*q) >> 32 < 2q
        np.copyto(d1, b64, casting="unsafe")
        np.subtract(d1, c.q, out=out)
        np.minimum(d1, out, out=out)  # canonical [0, q)


class _SmrKernel(_Canon32Kernel):
    """SMR (Alg. 2) butterflies over canonical residues.

    The reference engine carries signed (-q, q) representatives; here each
    Alg. 2 output is folded straight into [0, q) (one arithmetic-shift
    sign mask), which keeps every intermediate congruent and inside
    Alg. 2's |x| < 2^31 domain while letting the butterfly combines run
    in uint32 like the other kernels.
    """

    wide_dtype = np.int64
    low_dtype = np.int32
    method_name = "smr"

    def _consts(self, shape) -> _Layout:
        c = _Layout()
        c.q = shape(np.array(self.primes, dtype=np.uint32))
        c.q64 = shape(np.array(self.primes, dtype=np.int64))
        c.m = shape(self.reducer.m.reshape(-1).astype(np.int32))
        return c

    def _cast_parts(self, parts):
        return (parts[0],)  # signed-Montgomery-form twiddles, int64

    def _mul(self, v, tw, c, shape, out):
        _, _, b64f, c64f, _, _, l32f = self._workspace()
        b64 = b64f.reshape(shape)
        c64 = c64f.reshape(shape)
        low = l32f.reshape(shape)
        np.copyto(b64, v)  # canonical residue, 0 <= v < q < 2^31
        np.multiply(b64, tw[0], out=b64)  # p = v * tw, |p| < q * 2^31
        np.right_shift(b64, _ISHIFT32, out=c64)  # x_hi (arithmetic shift)
        np.copyto(low, b64, casting="unsafe")  # signed low 32 of p
        np.multiply(low, c.m, out=low)  # z = signed mullo32(x_lo, m)
        np.copyto(b64, low)  # sign-extend z
        np.multiply(b64, c.q64, out=b64)
        np.right_shift(b64, _ISHIFT32, out=b64)  # signed mulhi32(z, q)
        np.subtract(c64, b64, out=c64)  # t = x_hi - z, in (-q, q)
        # Canonicalize: t += q when negative (branch-free sign mask).
        np.right_shift(c64, _ISHIFT63, out=b64)
        np.bitwise_and(b64, c.q64, out=b64)
        np.add(c64, b64, out=c64)
        np.copyto(out, c64, casting="unsafe")


class _BarrettKernel(_KernelBase):
    """Harvey-style 2q-lazy uint64 stages for the Barrett backend.

    Barrett's mu-chain needs all four 64-bit partial products, so there is
    no uint32 shortcut; instead stage values ride in [0, 2q) with exactly
    one fold per butterfly output and the exit pass folds to canonical.
    The intermediate integers match the reference's mulmod outputs before
    its strict fold, so canonical outputs are bit-identical.
    """

    lazy_factor = 2  # stage invariant [0, 2q): Harvey-lazy state
    method_name = "barrett"

    def _consts(self, shape) -> _Layout:
        c = _Layout()
        c.q = shape(np.array(self.primes, dtype=np.uint64))
        c.q2 = shape(np.array(self.primes, dtype=np.uint64) * np.uint64(2))
        mu = np.asarray(self.reducer.mu, dtype=np.uint64).reshape(-1)
        c.mu_hi = shape(mu >> _SHIFT32)
        c.mu_lo = shape(mu & _U32)
        return c

    def _cast_parts(self, parts):
        return (parts[0],)

    def _alloc_space(self):
        shape = (len(self.primes), self.n)
        half = (len(self.primes), self.n // 2)
        return (
            np.empty(shape, dtype=np.uint64),
            np.empty(shape, dtype=np.uint64),
            [np.empty(half, dtype=np.uint64) for _ in range(4)],
        )

    def enter(self, a: np.ndarray):
        a = np.asarray(a, dtype=np.uint64)
        if a.size and np.any(a >= self.q_ucol):
            raise _range_error(a, self.q_ucol)
        x, y = self._workspace()[:2]
        np.copyto(x, a)
        return x, y

    def exit(
        self,
        x: np.ndarray,
        scratch: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """[0, 2q) -> canonical [0, q) via the wraparound min-trick."""
        np.subtract(x, self.q_ucol, out=scratch)
        if out is None:
            return np.minimum(x, scratch)
        np.minimum(x, scratch, out=out)
        return out

    def _mul(self, v, tw, c, shape, out):
        b1, b2, b3, b4 = (s.reshape(shape) for s in self._workspace()[2])
        np.multiply(v, tw[0], out=b2)  # x = v * w (exact: < 2q^2 < 2^63)
        np.right_shift(b2, _SHIFT32, out=b1)  # x_hi (v consumed)
        np.bitwise_and(b2, _U32, out=b3)  # x_lo
        np.multiply(b3, c.mu_hi, out=b4)  # mid = x_lo * mu_hi
        np.multiply(b3, c.mu_lo, out=b3)
        np.right_shift(b3, _SHIFT32, out=b3)
        np.add(b4, b3, out=b4)  # + (x_lo * mu_lo) >> 32
        np.multiply(b1, c.mu_lo, out=b3)
        np.add(b4, b3, out=b4)  # + x_hi * mu_lo
        np.right_shift(b4, _SHIFT32, out=b4)
        np.multiply(b1, c.mu_hi, out=b3)
        np.add(b3, b4, out=b3)  # q_hat = x_hi * mu_hi + (mid >> 32)
        np.multiply(b3, c.q, out=b3)
        np.subtract(b2, b3, out=b2)  # r = x - q_hat * q, in [0, 3q)
        np.subtract(b2, c.q2, out=b3)
        np.minimum(b2, b3, out=out)  # fold once into [0, 2q)

    def _bfly(self, u, yu, yv, c, shape):
        """(u, tt=yv) -> (u + tt, u + 2q - tt), folded once into [0, 2q)."""
        b1, b2 = (s.reshape(shape) for s in self._workspace()[2][:2])
        np.add(u, yv, out=b1)
        np.subtract(b1, c.q2, out=b2)
        np.minimum(b1, b2, out=yu)
        np.add(u, c.q2, out=b1)
        np.subtract(b1, yv, out=b1)
        np.subtract(b1, c.q2, out=b2)
        np.minimum(b1, b2, out=yv)

    def _gs(self, u, v, tw, c, shape, yu, yv):
        b1, b2 = (s.reshape(shape) for s in self._workspace()[2][:2])
        np.add(u, v, out=b1)
        np.subtract(b1, c.q2, out=b2)
        np.minimum(b1, b2, out=yu)
        np.add(u, c.q2, out=b1)
        np.subtract(b1, v, out=b1)
        np.subtract(b1, c.q2, out=b2)
        np.minimum(b1, b2, out=b1)
        self._mul(b1, tw, c, shape, yv)


_KERNELS = {
    "barrett": _BarrettKernel,
    "montgomery": _MontgomeryKernel,
    "shoup": _ShoupKernel,
    "smr": _SmrKernel,
}
