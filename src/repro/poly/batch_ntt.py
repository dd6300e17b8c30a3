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

The engine owns one batched reducer (:attr:`BatchNTT.reducer`), which
decides the residue formats: its ``prepare`` builds the twiddle tables and
prepared operands, and its ``mul_prepared`` and ``canonical`` run the
numpy pointwise product.  Each stage runs the family's butterfly
definition from :mod:`repro.rns.reduction` — the same Table-3 multiply
and Cooley-Tukey / Gentleman-Sande bodies the range certificate
interprets — through the numpy primitive set, on persistent registers
rather than the reducer's functional API, because at ``(L, N)`` scale the
functional style drowns in temporary allocations, strided slivers and
64-bit scalar multiplies:

* every register is a preallocated workspace array (in-place ufuncs
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
* the Shoup / Montgomery / SMR stage state is **canonical uint32**
  (:data:`~repro.rns.reduction.STAGE_KINDS` fixes every register's
  type): residues are < q < 2^31 so sums < 2q never wrap, low-32-bit
  partial products are wrapping uint32 multiplies (SIMD-friendly,
  unlike 64-bit multiplies which the int datapath runs scalar), and
  only the wide products run in 64-bit.  Barrett needs all four 64-bit
  partial products anyway, so its state is a uint64 Harvey-style
  2q-lazy one instead.

Bit-exactness: the kernels compute the very same intermediate integers as
the reference engine, which runs the same multiplies through the reducer
classes (same butterfly schedule).  The SMR kernel canonicalizes
each Alg. 2 output into [0, q) with its sign fold instead of carrying the
reference's signed (-q, q) representatives; intermediates stay congruent
mod q with all of Alg. 2's range preconditions intact, so the canonical
outputs after the exit pass are bit-identical to the reference's.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro import hooks
from repro.analysis.sanitizer import assert_within, checked_mode
from repro.errors import ParameterError
from repro.poly.backends import compiled_library, resolve_backend
from repro.poly.ntt import (
    _power_table,
    _range_error,
    automorphism_tables,
    bit_reverse_permutation,
)
from repro.rns.primes import Prime, primitive_root_of_unity
from repro.rns.reduction import (
    NUMPY,
    STAGE_KINDS,
    ct_butterfly,
    gs_butterfly,
    make_reducer,
    mod_neg,
)

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
        method: Table-3 reducer; one of barrett / montgomery / shoup / smr.
        psis: optionally one primitive 2N-th root of unity per limb (pass
            the per-prime engines' roots to guarantee bit-identical
            outputs); found via :func:`primitive_root_of_unity` when
            omitted — which picks the same root the per-prime engine picks,
            so the two paths agree either way.
        checked: sanitizer override (see :attr:`checked`); ``None``
            defers to ``REPRO_CHECKED``.  ``take``/``extend`` clones
            inherit it.
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
        checked: bool | None = None,
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
        #: the batched Table-3 reducer: per-limb constants, prepared
        #: operand forms and the canonical fold
        self.reducer = make_reducer(method, primes)
        #: dispatch tier name; the implementation itself is built on
        #: first use, so engines that never transform (pure table donors)
        #: cost nothing
        self.backend_tier = resolve_backend(backend)

        brv = bit_reverse_permutation(n)
        fwd = np.stack([_power_table(psi, q, n)[brv] for psi, q in zip(psis, primes)])
        inv = np.stack(
            [_power_table(pow(psi, -1, q), q, n)[brv] for psi, q in zip(psis, primes)]
        )
        self._fwd = self.reducer.prepare(fwd)
        self._inv = self.reducer.prepare(inv)
        n_inv = np.array([[pow(n, -1, q)] for q in primes], dtype=np.uint64)
        self._n_inv = self.reducer.prepare(n_inv)
        self._kernel = _StageKernel(
            primes, n, self.reducer, checked_mode(checked),
            (self._fwd, self._inv, self._n_inv),
        )

    @property
    def num_limbs(self) -> int:
        return len(self.primes)

    @property
    def checked(self) -> bool:
        return self._kernel.checked

    @cached_property
    def _impl(self):
        """The transforms and the pointwise product, chosen once on first
        use: :class:`~repro.poly.backends.compiled.CompiledNtt` on the
        compiled tier when the library loads (checked too: the C stages
        scan the same bounds), else the numpy stage kernel."""
        lib = compiled_library(self.backend_tier)
        if lib is None:
            return self._kernel
        from repro.poly.backends.compiled import CompiledNtt

        return CompiledNtt(self, lib)

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
        clone.reducer = make_reducer(self.method, clone.primes)
        clone.backend_tier = self.backend_tier
        clone._fwd = fwd
        clone._inv = inv
        clone._n_inv = n_inv
        clone._kernel = _StageKernel(
            clone.primes, self.n, clone.reducer, self.checked, (fwd, inv, n_inv)
        )
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
        return self._impl.forward(a, out=out)

    def inverse(self, a_hat: np.ndarray, *, out: np.ndarray | None = None):
        """(L, N) NTT values -> (L, N) coefficients (Gentleman-Sande).

        ``out`` as in :meth:`forward`.
        """
        self._check_shape(a_hat, "inverse")
        hooks.emit("batch_ntt.inverse")
        return self._impl.inverse(a_hat, out=out)

    # -- NTT-domain arithmetic ---------------------------------------------
    def prepare_operand(self, b_hat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The reducer's prepared form of an (L, N) NTT-domain operand.

        Same contract as :meth:`NegacyclicNTT.prepare_operand`: Shoup's
        per-element companion division / the Montgomery family's
        ``to_form`` pass happen once here, and every
        :meth:`pointwise_prepared` against the handle skips them.
        """
        self._check_shape(b_hat, "prepare_operand")
        return self.reducer.prepare(np.asarray(b_hat))

    def pointwise_prepared(
        self, a_hat: np.ndarray, prepared: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """Element-wise limb-matrix product against a prepared operand.

        ``a_hat`` must be canonical.  The numpy tier folds the reducer's
        product to canonical; the compiled tier runs it as one lazy
        product-accumulate term and its fold (the key-switch MAC
        kernels).  Both return the canonical product residues.
        """
        self._check_shape(a_hat, "pointwise")
        return self._impl.pointwise(self._kernel.check_range(a_hat), prepared)

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
        cached per-``(N, k)`` tables (:func:`automorphism_tables`) plus
        the limb-wise negation (:func:`~repro.rns.reduction.mod_neg`) of
        the wrapped columns; no transform, no multiplies.  The same
        column pattern applies to every limb row because ``sigma_k``
        permutes *integer* coefficients: the sign flip commutes with
        reduction mod each ``q_i``.
        """
        self._check_shape(a, "automorphism")
        src, neg, _ = automorphism_tables(self.n, k)
        a = np.asarray(a, dtype=np.uint64)
        if out is None:
            out = np.empty_like(a)
        np.take(a, src, axis=1, out=out)
        cols = out[:, neg]
        mod_neg(NUMPY, cols, cols, self._kernel.q_ucol, np.empty_like(cols))
        out[:, neg] = cols
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
# State lives in two persistent ping-pong buffers plus persistent scratch
# registers, reshaped per stage to the (L, m, t) / (J, t, M) view; plain-
# layout constants are (L, 1, 1) columns broadcasting against the
# (L, m, t) stage views, transposed-phase constants (M,) rows (M = L*N /
# _CHUNK columns, limb-major) broadcasting against (J, t, M).  Each stage
# runs the family's butterfly definition from repro.rns.reduction.
# ---------------------------------------------------------------------------


class _StageKernel:
    """Stage scheduling, layouts, tables and workspaces of one family.

    The family's :class:`~repro.rns.reduction.StageKind` fixes the state
    and scratch register types and the twiddle product; the batched
    reducer supplies the per-limb constants.  The engine's prepared
    tables are cast and rearranged into the kernel's layouts on the
    first numpy transform: an engine whose implementation is C reads
    only the bound column, :meth:`check_range` and :attr:`q_ucol`.
    """

    def __init__(
        self, primes: list[int], n: int, reducer, checked: bool, tables: tuple
    ) -> None:
        self.primes = primes
        self.n = n
        self.reducer = reducer
        self.method_name = reducer.contract.name
        self.kind = STAGE_KINDS[self.method_name]
        self.chunks = n // _CHUNK if n >= _MIN_SPLIT_N else 0
        self.cols = len(primes) * self.chunks  # M, transposed-phase width
        q = np.array(primes, dtype=np.uint64)
        self.q_ucol = q.reshape(-1, 1)
        #: sanitizer mode: assert the statically certified per-stage bound
        #: (q-1 canonical, 2q-1 Barrett-lazy) after every butterfly stage
        self.checked = checked
        bound = q * np.uint64(self.kind.lazy) - np.uint64(1)
        self._bound_col = bound.reshape(-1, 1)
        self._bound_row = np.repeat(bound, self.chunks) if self.chunks else None
        consts = reducer.stage_constants()
        self.cN = tuple(c.reshape(-1, 1, 1) for c in consts)
        self.cT = (
            tuple(np.repeat(c.reshape(-1), self.chunks) for c in consts)
            if self.chunks
            else None
        )
        #: the engine's prepared (forward, inverse, n^-1) tables
        self._tables = tables
        self._space: tuple | None = None
        self._views: dict = {}

    # -- tables: the prepared parts in kernel dtypes, and the transposed
    # tail phase's per-stage layout, each built on first use -----------------
    @cached_property
    def fwd_n(self) -> tuple:
        return self._cast_parts(self._tables[0])

    @cached_property
    def inv_n(self) -> tuple:
        return self._cast_parts(self._tables[1])

    @cached_property
    def n_inv(self) -> tuple:
        return self._cast_parts(self._tables[2])

    @cached_property
    def fwd_t(self) -> list:
        return self._stage_tables(self.fwd_n, inverse=False)

    @cached_property
    def inv_t(self) -> list:
        return self._stage_tables(self.inv_n, inverse=True)

    def _cast_parts(self, parts):
        return tuple(
            np.asarray(p).astype(part.dtype, copy=False)
            for p, part in zip(parts, self.reducer.contract.prepared)
        )

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
        """Two full-size state buffers, then the half-size scratch
        registers of the family's stage kind."""
        if self._space is None:
            full = (len(self.primes), self.n)
            half = (len(self.primes), self.n // 2)
            self._space = (
                np.empty(full, self.kind.state),
                np.empty(full, self.kind.state),
                *(np.empty(half, dt) for dt in self.kind.scratch),
            )
        return self._space

    def _registers(self, shape) -> tuple:
        """The scratch registers viewed in one stage's shape (cached)."""
        regs = self._views.get(shape)
        if regs is None:
            regs = tuple(r.reshape(shape) for r in self._workspace()[2:])
            self._views[shape] = regs
        return regs

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

    def check_range(self, a: np.ndarray) -> np.ndarray:
        """``a`` as uint64, refused unless every row is canonical."""
        a = np.asarray(a, dtype=np.uint64)
        if a.size and np.any(a >= self.q_ucol):
            raise _range_error(a, self.q_ucol)
        return a

    def pointwise(self, a: np.ndarray, prepared: tuple) -> np.ndarray:
        """Canonical product of range-checked ``a`` and a prepared operand."""
        return self.reducer.canonical(self.reducer.mul_prepared(a, prepared))

    def enter(self, a: np.ndarray):
        a = self.check_range(a)
        x, y = self._workspace()[:2]
        np.copyto(x, a, casting="unsafe")
        return x, y

    def exit(
        self,
        x: np.ndarray,
        scratch: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """State -> canonical uint64: a widening copy, or Barrett's one
        fold from [0, 2q)."""
        if out is None:
            out = np.empty(x.shape, np.uint64)
        if self.kind.lazy == 1:
            np.copyto(out, x)
        else:
            NUMPY.fold(out, x, self.q_ucol, scratch)
        return out

    # -- transforms --------------------------------------------------------
    def forward(self, a: np.ndarray, *, out: np.ndarray | None = None):
        x, y = self.enter(a)
        length = len(self.primes)
        twiddle = self.kind.twiddle
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
            ct_butterfly(NUMPY, twiddle, yu, yv, u, v, tw, c, self._registers(shape))
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
        twiddle = self.kind.twiddle
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
            gs_butterfly(NUMPY, twiddle, yu, yv, u, v, tw, c, self._registers(shape))
            x, y = y, x
            if self.checked:
                self._assert_state(x, transposed, f"inverse stage m={m}")
            t <<= 1
            m = h
        if transposed:
            x, y = self._transpose_out(x, y)
        # Final n^-1 scale, chunked through the half-size scratch rows.
        half = self.n // 2
        shape = (length, 1, half)
        tw = tuple(p[:, :, None] for p in self.n_inv)
        for lo in (0, half):
            v = x[:, lo : lo + half].reshape(shape)
            dst = y[:, lo : lo + half].reshape(shape)
            twiddle(NUMPY, dst, v, tw, self.cN, self._registers(shape))
        if self.checked:
            self._assert_state(y, False, "n^-1 scale")
        return self.exit(y, x, out)
