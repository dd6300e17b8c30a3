"""RNS polynomial arithmetic over the 25-30 prime system (§3.2, §4).

An :class:`RnsPolynomial` is one ring element of ``Z_Q[x]/(x^N + 1)`` stored
limb-wise: a ``(num_limbs, N)`` uint64 array whose row ``i`` holds the
coefficients mod limb prime ``q_i``.  All arithmetic is limb-parallel, which
is exactly how the paper's GPU pipeline executes it — each limb maps to an
independent slice of thread blocks.

A :class:`PolyContext` pins the limb basis (ordered primes from a
:class:`~repro.rns.primes.PrimePool`), the ring degree, and the reduction
method.  Hot paths — ``to_ntt`` / ``to_coeff`` / ``pointwise_multiply`` /
``multiply`` / ``exact_rescale`` — run through the context's
:class:`~repro.poly.batch_ntt.BatchNTT`, which transforms the whole limb
matrix per stage instead of looping Python over per-prime engines (the
per-limb :class:`~repro.poly.ntt.NegacyclicNTT` engines stay the
reference implementation tests cross-check against).  Rescaling
(:meth:`RnsPolynomial.exact_rescale`) drops the last limb with the
inverse-CRT correction (its per-limb inverse table cached on the context),
following the level schedule a :class:`~repro.rns.cycle.RescalingCycle`
prescribes, and :meth:`RnsPolynomial.multiply_accumulate` fuses the §4.2
key-switching inner product through a
:class:`~repro.poly.lazy.LazyAccumulator`.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro import hooks
from repro.analysis.sanitizer import assert_within
from repro.errors import LayoutError, LevelError, ParameterError
from repro.poly.batch_ntt import BatchNTT
from repro.poly.lazy import LazyAccumulator
from repro.rns.crt import CrtReconstructor
from repro.rns.primes import Prime, PrimePool
from repro.rns.reduction import (
    NUMPY,
    mod_add,
    mod_neg,
    mod_sub,
    rescale_constants,
    rescale_limb,
)

COEFF = "coeff"
NTT = "ntt"

#: odd 64-bit mixing constant (golden-ratio) for the fingerprint fold
_FP_MIX = np.uint64(0x9E3779B97F4A7C15)


def data_fingerprint(arr: np.ndarray) -> int:
    """Position-mixed xor checksum of an array's raw 64-bit words.

    One vectorized pass: each word is xored with its (1-based) position
    and multiplied by an odd 64-bit constant before the xor fold, so a
    single bit flip, a swapped pair, or a torn write all change the
    digest.  This targets the *silent-corruption* class (faulty memory,
    stale caches written behind :meth:`LimbState.invalidate`'s back,
    injected bit flips) — it is not a cryptographic hash and offers no
    adversarial collision resistance.

    Works on any array whose itemsize divides into 64-bit words
    (uint64 limbs, float64, complex128 payloads).
    """
    a = np.ascontiguousarray(arr).reshape(-1)
    w = a if a.dtype == np.uint64 else a.view(np.uint64)
    with np.errstate(over="ignore"):
        idx = np.arange(1, w.size + 1, dtype=np.uint64)
        folded = np.bitwise_xor.reduce((w ^ idx) * _FP_MIX)
        return int(folded ^ np.uint64(w.size))


class LimbState:
    """Explicit domain / level / scale state for one ring element.

    One explicit object holds the domain, level and scale and the two
    derived-data caches (the reducer-prepared operand and the coeff/NTT
    transform *twin*); :class:`RnsPolynomial` and the scheme layer's
    :class:`~repro.scheme.ciphertext.Ciphertext` both carry it, and
    :meth:`invalidate` is the *single* path that drops every cache
    derived from the limb values.

    Attributes:
        domain: ``"coeff"`` or ``"ntt"`` — how the limb matrix is to be
            interpreted.
        level: number of live limbs.  Derived from the owning context at
            construction (``RnsPolynomial`` always sets it to
            ``ctx.num_limbs``; a rescale *constructs* the lower level
            rather than decrementing in place); stored explicitly so the
            scheme layer's ``Ciphertext`` carries the same state shape
            and can refuse operations on mismatched levels.
        scale: the CKKS scaling factor Delta carried by the element.
            Passive metadata at the polynomial layer (linear ops keep it,
            products multiply it, rescaling divides it by the dropped
            prime); the scheme layer enforces its semantics.
        prepared: cached reducer-prepared operand tuple (or ``None``).
        twin: the cached transform twin polynomial (or ``None``); the
            link is bidirectional, ``twin.state.twin`` points back
            (weakly from the NTT side).
    """

    __slots__ = ("domain", "level", "scale", "prepared", "_twin")

    def __init__(self, domain: str, level: int, scale: float = 1.0) -> None:
        if domain not in (COEFF, NTT):
            raise LayoutError(f"unknown domain {domain!r}")
        if level < 1:
            raise LevelError(f"level must be >= 1, got {level}")
        self.domain = domain
        self.level = int(level)
        self.scale = float(scale)
        self.prepared: tuple[np.ndarray, ...] | None = None
        self._twin = None  # the twin, or a weakref to it (NTT side)

    @property
    def twin(self):
        """The cached transform twin :class:`RnsPolynomial`, or ``None``.

        The one accessor for both directions of a pair joined by
        :meth:`link`: the coefficient side holds its NTT twin strongly,
        the NTT side points back through a weakref, so a pair is never a
        reference cycle and reference counting alone frees it.  The NTT
        side therefore loses its coefficient twin once nothing else holds
        that element.
        """
        link = self._twin
        return link() if isinstance(link, weakref.ref) else link

    @staticmethod
    def link(coeff, ntt) -> None:
        """Cache two :class:`RnsPolynomial` as each other's transform
        twin: strongly from the coefficient side, weakly back."""
        coeff.state._twin = ntt
        ntt.state._twin = weakref.ref(coeff)

    def invalidate(self) -> None:
        """The one invalidation path: drop caches derived from limb values.

        The prepared handle is derived data; the twin link is
        bidirectional, so the twin's back-pointer is severed too — the
        twin's own limbs stay valid, it just no longer mirrors this
        element.  Code that writes into ``limbs`` (the fault injector's
        bit flip) must call it after the write.
        """
        self.prepared = None
        twin = self.twin
        self._twin = None
        if twin is not None:
            twin.state._twin = None


class PolyContext:
    """Limb basis + ring degree + reduction method for RNS polynomials.

    Contexts are value-compared by ``(ring_degree, moduli, method)``: two
    polynomials interoperate iff their contexts agree.  ``drop_last()``
    returns (and caches) the child context one rescale level down.
    """

    def __init__(
        self,
        ring_degree: int,
        primes: Sequence[Prime | int],
        method: str = "smr",
        *,
        checked: bool | None = None,
        backend: str | None = None,
        _batch: BatchNTT | None = None,
    ) -> None:
        if not primes:
            raise ParameterError("a PolyContext needs at least one limb prime")
        self.ring_degree = ring_degree
        self.primes = [int(p) for p in primes]
        if len(set(self.primes)) != len(self.primes):
            raise ParameterError("limb primes must be pairwise distinct")
        self.method = method
        if _batch is None:
            _batch = BatchNTT(
                self.primes, ring_degree, method, checked=checked, backend=backend
            )
        elif (
            _batch.primes != self.primes
            or _batch.n != ring_degree
            or _batch.method != method
        ):
            raise ParameterError("batch engine does not match limb primes")
        # Internal reuse hook (drop_last, extend, base_of_extension):
        # twiddle tables are immutable, so a derived context shares the
        # donor's engine, and with it the donor's tier and checked mode.
        self.batch_ntt = _batch
        #: execution tier for this context's hot kernels
        #: (:mod:`repro.poly.backends`)
        self.backend = _batch.backend_tier
        #: sanitizer mode (REPRO_CHECKED=1 or an explicit override): real
        #: kernels assert the statically certified bounds at runtime, and
        #: the Level-1 certificate is validated eagerly below
        self.checked = _batch.checked
        #: column vector of limb moduli, broadcasts against (L, N) limb data
        self.moduli = np.array(self.primes, dtype=np.uint64).reshape(-1, 1)
        self._certificate = None
        self._dropped: PolyContext | None = None
        #: base context this one was built from via :meth:`extend` (if any)
        self._ext_parent: PolyContext | None = None
        self._extended: dict[tuple[int, ...], PolyContext] = {}
        self._bases: dict[int, PolyContext] = {}
        self._basis_kernels: dict[tuple, object] = {}
        self._switchers: dict[tuple, object] = {}
        if self.checked:
            # Checked execution only asserts bounds the analyzer actually
            # proved; an unprovable family fails loudly up front instead.
            self.range_certificate().raise_if_failed()

    def range_certificate(self):
        """The Level-1 :class:`~repro.analysis.ranges.KernelCertificate`
        for this parameter family, computed once and cached.

        The ahead-of-time replacement for runtime worst-case tracking:
        one interval pass proves (or refutes) uint32/uint64 non-overflow
        and the 2q-lazy invariant for every stage kernel, the rescale
        chain and the lazy-accumulation headroom of this ``(N, primes,
        method)`` family.
        """
        if self._certificate is None:
            from repro.analysis.ranges import certify_kernels

            self._certificate = certify_kernels(
                self.ring_degree, self.primes, self.method
            )
        return self._certificate

    @classmethod
    def from_pool(
        cls,
        pool: PrimePool,
        *,
        num_terminal: int,
        num_main: int,
        method: str = "smr",
        checked: bool | None = None,
        backend: str | None = None,
    ) -> PolyContext:
        """Context over a level's live limbs: terminals first, then mains."""
        return cls(
            pool.ring_degree,
            pool.limb_primes(num_terminal, num_main),
            method,
            checked=checked,
            backend=backend,
        )

    @property
    def num_limbs(self) -> int:
        return len(self.primes)

    @cached_property
    def modulus(self) -> int:
        """The full composite modulus Q = prod q_i (a Python int)."""
        prod = 1
        for q in self.primes:
            prod *= q
        return prod

    @cached_property
    def crt(self) -> CrtReconstructor:
        """The exact, vectorized CRT reconstruction over this basis,
        built once (:mod:`repro.rns.crt`)."""
        return CrtReconstructor(self.primes, checked=self.checked)

    def drop_last(self) -> PolyContext:
        """The context one rescale down (last limb removed), cached."""
        if self.num_limbs < 2:
            raise LevelError("cannot drop the last remaining limb")
        if self._dropped is None:
            self._dropped = PolyContext(
                self.ring_degree,
                self.primes[:-1],
                self.method,
                _batch=self.batch_ntt.take(self.num_limbs - 1),
            )
        return self._dropped

    def extend(self, aux_primes: Sequence[Prime | int]) -> PolyContext:
        """The extended context ``Q ∪ P`` for key switching, cached.

        The extended basis appends the auxiliary (P-part) primes after
        the live limbs; its batched NTT shares this context's prepared
        twiddle rows (``BatchNTT.extend``), so only the new primes pay a
        table build.  The result remembers this context as its extension
        base, which is how ``mod_down`` finds its way home.
        """
        key = tuple(int(p) for p in aux_primes)
        if not key:
            raise ParameterError("extension needs at least one aux prime")
        ext = self._extended.get(key)
        if ext is None:
            ext = PolyContext(
                self.ring_degree,
                self.primes + list(key),
                self.method,
                _batch=self.batch_ntt.extend(key),
            )
            ext._ext_parent = self
            self._extended[key] = ext
        return ext

    def base_of_extension(self, num_aux: int) -> PolyContext:
        """The context this one extends by ``num_aux`` auxiliary limbs.

        Returns the original base context when this one came from
        :meth:`extend` (sharing its caches); otherwise builds — and
        caches — a prefix context over ``primes[:-num_aux]`` whose
        batched engine shares this context's tables.
        """
        if not 1 <= num_aux < self.num_limbs:
            raise LevelError(
                f"cannot strip {num_aux} aux limbs from a "
                f"{self.num_limbs}-limb context"
            )
        parent = self._ext_parent
        if parent is not None and parent.num_limbs == self.num_limbs - num_aux:
            return parent
        base = self._bases.get(num_aux)
        if base is None:
            base = PolyContext(
                self.ring_degree,
                self.primes[: -num_aux],
                self.method,
                _batch=self.batch_ntt.take(self.num_limbs - num_aux),
            )
            self._bases[num_aux] = base
        return base

    def mod_up_kernel(self, aux_primes: Sequence[Prime | int]):
        """The cached whole-basis :class:`~repro.poly.basis_conv.ModUp`."""
        from repro.poly.basis_conv import ModUp

        ext = self.extend(aux_primes)
        key = ("up", tuple(ext.primes))
        kern = self._basis_kernels.get(key)
        if kern is None:
            kern = ModUp(
                ext.primes, 0, self.num_limbs, self.ring_degree,
                checked=self.checked, backend=self.backend,
            )
            self._basis_kernels[key] = kern
        return kern

    def mod_down_kernel(self, num_aux: int):
        """The cached :class:`~repro.poly.basis_conv.ModDown` for this
        extended context's last ``num_aux`` limbs."""
        from repro.poly.basis_conv import ModDown

        base = self.base_of_extension(num_aux)
        key = ("down", num_aux)
        kern = self._basis_kernels.get(key)
        if kern is None:
            kern = ModDown(
                base.primes, self.primes[-num_aux:], self.ring_degree,
                checked=self.checked, backend=self.backend,
            )
            self._basis_kernels[key] = kern
        return kern

    def key_switcher(self, aux_primes: Sequence[Prime | int], dnum: int):
        """The cached fused key-switching pipeline for ``(P, dnum)``."""
        from repro.poly.basis_conv import KeySwitcher

        key = (tuple(int(p) for p in aux_primes), int(dnum))
        switcher = self._switchers.get(key)
        if switcher is None:
            switcher = KeySwitcher(self, key[0], key[1])
            self._switchers[key] = switcher
        return switcher

    @cached_property
    def _rescale_scratch(self) -> tuple[np.ndarray, ...]:
        """Persistent (L-1, N) registers — three words and a wide one — so
        ``exact_rescale`` runs its whole chain without temporaries."""
        shape = (self.num_limbs - 1, self.ring_degree)
        return (*(np.empty(shape, np.uint32) for _ in range(3)),
                np.empty(shape, np.uint64))

    @cached_property
    def rescale_consts(self) -> tuple[np.ndarray, ...]:
        """Cached ``(L-1, 1)`` word columns for ``exact_rescale``.

        Four per-surviving-limb tables — ``inv = q_last^-1 mod q_i`` with
        its Shoup companion ``floor(inv * 2^32 / q_i)``, the 32-bit Barrett
        constant ``floor(2^32 / q_i)`` (the Shoup companion of one), and
        the fold correction ``(q_i - q_last) mod q_i`` — so the per-call
        path is pure division-free NumPy.
        """
        if self.num_limbs < 2:
            raise LevelError("rescale constants need at least two limbs")
        consts = rescale_constants(self.primes[-1], self.primes[:-1])
        return tuple(np.array(c, dtype=np.uint32).reshape(-1, 1) for c in consts)

    def mismatch_reason(self, other: PolyContext) -> str | None:
        """The first field on which two contexts differ, named — or ``None``.

        Distinguishes a *level* mismatch (one limb basis is a prefix of
        the other, i.e. the operands sit at different points of the same
        rescaling chain) from a genuine *basis* mismatch (different
        primes at some row), from ring-degree and reduction-method
        mismatches — so "incompatible contexts" errors say which field
        to fix.
        """
        if self.ring_degree != other.ring_degree:
            return (
                f"ring degree mismatch: N={self.ring_degree} vs "
                f"N={other.ring_degree}"
            )
        if self.method != other.method:
            return (
                f"reduction method mismatch: {self.method!r} vs "
                f"{other.method!r}"
            )
        if self.primes != other.primes:
            m = min(len(self.primes), len(other.primes))
            if self.primes[:m] == other.primes[:m]:
                return (
                    f"level mismatch: {len(self.primes)} vs "
                    f"{len(other.primes)} live limbs of the same basis "
                    "chain (rescale the higher-level operand down)"
                )
            i = next(
                i
                for i, (p, q) in enumerate(zip(self.primes, other.primes))
                if p != q
            )
            return (
                f"limb basis mismatch at row {i}: prime "
                f"{self.primes[i]} vs {other.primes[i]}"
            )
        return None

    def compatible(self, other: PolyContext) -> bool:
        return self.mismatch_reason(other) is None

    # -- constructors ------------------------------------------------------
    def zeros(self) -> RnsPolynomial:
        shape = (self.num_limbs, self.ring_degree)
        return RnsPolynomial(self, np.zeros(shape, dtype=np.uint64), COEFF)

    def random(self, rng: np.random.Generator) -> RnsPolynomial:
        """Uniform element of R_Q, sampled limb-wise (for tests/benchmarks)."""
        limbs = np.stack(
            [rng.integers(0, q, self.ring_degree, dtype=np.uint64) for q in self.primes]
        )
        return RnsPolynomial(self, limbs, COEFF)

    def from_int_coeffs(self, coeffs: Sequence[int]) -> RnsPolynomial:
        """CRT-decompose integer coefficients into limb residues."""
        if len(coeffs) != self.ring_degree:
            raise LayoutError(
                f"expected {self.ring_degree} coefficients, got {len(coeffs)}"
            )
        limbs = np.empty((self.num_limbs, self.ring_degree), dtype=np.uint64)
        for i, q in enumerate(self.primes):
            limbs[i] = np.array([int(c) % q for c in coeffs], dtype=np.uint64)
        return RnsPolynomial(self, limbs, COEFF)


class RnsPolynomial:
    """One element of R_Q = Z_Q[x]/(x^N + 1) in limb-sliced RNS layout.

    ``limbs[i, j]`` is coefficient ``j`` mod ``ctx.primes[i]`` — in the
    coefficient domain when ``domain == "coeff"``, or NTT values (in the
    engine's bit-reversed ordering) when ``domain == "ntt"``.

    Limbs are treated as immutable once constructed (every operation
    returns a new polynomial); this is what lets an NTT-domain operand
    cache its reducer-prepared form for repeated pointwise products and
    lets ``to_ntt``/``to_coeff`` cache each other's result (the *twin*):
    transforming the same polynomial twice costs one transform.  A write
    into ``limbs`` must be followed by :meth:`LimbState.invalidate`;
    without it, stale prepared/twin handles serve wrong answers.  The
    limb-wise ring ops run the shared definitions of
    :mod:`repro.rns.reduction` (``mod_add`` / ``mod_sub`` / ``mod_neg``)
    into fresh limb matrices.

    Domain, level, scale and the cache handles all live in one explicit
    :class:`LimbState` (``self.state``) shared structurally with the
    scheme layer's ``Ciphertext``; ``domain`` stays readable as a
    property.
    """

    __slots__ = ("ctx", "limbs", "state", "__weakref__")

    def __init__(
        self,
        ctx: PolyContext,
        limbs: np.ndarray,
        domain: str = COEFF,
        *,
        scale: float = 1.0,
    ) -> None:
        if limbs.shape != (ctx.num_limbs, ctx.ring_degree):
            raise LayoutError(
                f"limb array {limbs.shape} != "
                f"({ctx.num_limbs}, {ctx.ring_degree})"
            )
        self.ctx = ctx
        self.limbs = limbs.astype(np.uint64, copy=False)
        self.state = LimbState(domain, ctx.num_limbs, scale)

    @property
    def domain(self) -> str:
        return self.state.domain

    @property
    def level(self) -> int:
        return self.state.level

    @property
    def scale(self) -> float:
        return self.state.scale

    @property
    def num_limbs(self) -> int:
        return self.ctx.num_limbs

    def fingerprint(self) -> int:
        """Cheap per-limb checksum of the limb matrix (plus domain/level).

        One vectorized :func:`data_fingerprint` pass over the ``(L, N)``
        words, mixed with the interpretation state — the same limbs in
        the other domain fingerprint differently.  Used by the serving
        layer's fault injector and circuit breaker to detect silent
        corruption: a write into ``limbs`` leaves the cached prepared/twin
        handles stale — such a write must call
        :meth:`LimbState.invalidate`, and a fingerprint mismatch is how
        the one that didn't gets caught.
        """
        tag = np.uint64(self.state.level * 2 + (1 if self.domain == NTT else 0))
        with np.errstate(over="ignore"):
            return int((np.uint64(data_fingerprint(self.limbs)) ^ tag) * _FP_MIX)

    def _check(self, other: RnsPolynomial) -> None:
        reason = self.ctx.mismatch_reason(other.ctx)
        if reason is not None:
            raise ParameterError(
                f"operands come from incompatible contexts: {reason}"
            )
        if self.domain != other.domain:
            raise LayoutError(
                f"domain mismatch: {self.domain} vs {other.domain}"
            )

    # -- limb-wise linear ops (valid in either domain) ---------------------
    def _limbwise(self, op, *operands: np.ndarray) -> RnsPolynomial:
        """Run one limb-wise ring op of :mod:`repro.rns.reduction` into a
        fresh limb matrix, against the context's modulus column."""
        out = np.empty_like(self.limbs)
        op(NUMPY, out, *operands, self.ctx.moduli, np.empty_like(out))
        return RnsPolynomial(self.ctx, out, self.domain, scale=self.state.scale)

    def add(self, other: RnsPolynomial) -> RnsPolynomial:
        """Limb-wise modular addition (one fold, no division)."""
        self._check(other)
        return self._limbwise(mod_add, self.limbs, other.limbs)

    def sub(self, other: RnsPolynomial) -> RnsPolynomial:
        self._check(other)
        return self._limbwise(mod_sub, self.limbs, other.limbs)

    def negate(self) -> RnsPolynomial:
        return self._limbwise(mod_neg, self.limbs)

    def __add__(self, other: RnsPolynomial) -> RnsPolynomial:
        return self.add(other)

    def __sub__(self, other: RnsPolynomial) -> RnsPolynomial:
        return self.sub(other)

    def __neg__(self) -> RnsPolynomial:
        return self.negate()

    # -- domain switches ---------------------------------------------------
    def to_ntt(self) -> RnsPolynomial:
        """All limbs through the batched forward NTT in one stage-wise pass.

        The result is cached as this polynomial's *twin* (and vice
        versa), so repeated transforms of the same polynomial — the §4.2
        shape where one operand meets many partners — pay the transform,
        its bit-reversal-ordered twiddle gathers included, exactly once.
        """
        if self.domain == NTT:
            return self
        twin = self.state.twin
        if twin is None:
            out = self.ctx.batch_ntt.forward(self.limbs)
            twin = RnsPolynomial(self.ctx, out, NTT, scale=self.state.scale)
            LimbState.link(self, twin)
        return twin

    def to_coeff(self) -> RnsPolynomial:
        """Inverse of :meth:`to_ntt`, with the same twin caching."""
        if self.domain == COEFF:
            return self
        twin = self.state.twin
        if twin is None:
            out = self.ctx.batch_ntt.inverse(self.limbs)
            twin = RnsPolynomial(self.ctx, out, COEFF, scale=self.state.scale)
            LimbState.link(twin, self)
        return twin

    # -- Galois automorphisms ----------------------------------------------
    def automorphism(self, k: int) -> RnsPolynomial:
        """The Galois automorphism ``sigma_k: X -> X^k`` (``k`` odd).

        Domain-preserving and transform-free in *both* domains: a signed
        index permutation of the coefficient columns, or a pure slot
        permutation of the NTT values, through the per-``(N, k)`` tables
        cached by :func:`repro.poly.ntt.automorphism_tables`.  Level and
        scale carry over unchanged (an automorphism permutes the
        plaintext slots, it does not rescale them).
        """
        batch = self.ctx.batch_ntt
        if self.domain == NTT:
            out = batch.automorphism_ntt(self.limbs, k)
        else:
            out = batch.automorphism_coeff(self.limbs, k)
        return RnsPolynomial(self.ctx, out, self.domain, scale=self.state.scale)

    # -- multiplication ----------------------------------------------------
    def prepared_operand(self) -> tuple[np.ndarray, ...]:
        """This polynomial's reducer-prepared form, computed once.

        Shoup's companion is a per-element division and the Montgomery
        family pays a ``to_form`` pass; the handle is cached on the
        instance so every product against the same operand (the §4.2
        key-switching shape) reuses it.
        """
        if self.domain != NTT:
            raise LayoutError("prepared operands require the NTT domain")
        if self.state.prepared is None:
            self.state.prepared = self.ctx.batch_ntt.prepare_operand(self.limbs)
        return self.state.prepared

    def pointwise_multiply(self, other: RnsPolynomial) -> RnsPolynomial:
        """Element-wise NTT-domain product; both operands must be in NTT."""
        self._check(other)
        if self.domain != NTT:
            raise LayoutError("pointwise multiply requires NTT-domain inputs")
        out = self.ctx.batch_ntt.pointwise_prepared(
            self.limbs, other.prepared_operand()
        )
        return RnsPolynomial(
            self.ctx, out, NTT, scale=self.state.scale * other.state.scale
        )

    def multiply(self, other: RnsPolynomial) -> RnsPolynomial:
        """Negacyclic polynomial product via NTT-domain convolution.

        Coefficient-domain operands are transformed in, multiplied
        pointwise, and transformed back; NTT-domain operands stay in NTT
        (the caller chose that layout deliberately, e.g. to amortize the
        forward transforms across several products).  The operands keep
        their transform twins (repeat products against them are cheap);
        the *result* is built directly in the coefficient domain so a
        chain of products does not pin an extra NTT-domain copy of every
        intermediate.
        """
        self._check(other)
        if self.domain == NTT:
            return self.pointwise_multiply(other)
        prod = self.to_ntt().pointwise_multiply(other.to_ntt())
        out = self.ctx.batch_ntt.inverse(prod.limbs)
        return RnsPolynomial(
            self.ctx, out, COEFF, scale=self.state.scale * other.state.scale
        )

    def __mul__(self, other: RnsPolynomial) -> RnsPolynomial:
        return self.multiply(other)

    @staticmethod
    def multiply_accumulate(
        a_polys: Sequence[RnsPolynomial],
        b_polys: Sequence[RnsPolynomial],
        *,
        acc: LazyAccumulator | None = None,
    ) -> RnsPolynomial:
        """Fused inner product ``sum_i a_i * b_i`` in the NTT domain (§4.2).

        The key-switching shape: every output value is a dot product of
        NTT-domain operands.  Each ``b_i`` is consumed through its cached
        :meth:`prepared_operand`, every product lands in one
        :class:`~repro.poly.lazy.LazyAccumulator` spanning the whole
        ``(L, N)`` limb matrix, and a single fold at the end replaces the
        per-term folds a naive multiply-then-add chain would pay (~2^32
        terms of headroom with every reducer).

        ``acc`` lets a compiled caller hand in a persistent
        :class:`LazyAccumulator` (reset and reused here) so the per-call
        ``(L, N)`` accumulator allocation disappears; it must match this
        context's reducer and full limb shape, or
        :class:`~repro.errors.ParameterError` is raised before any kernel
        runs.  An accumulator built here takes the context's tier and
        ``checked`` flag.
        """
        a_polys = list(a_polys)
        b_polys = list(b_polys)
        if not a_polys or len(a_polys) != len(b_polys):
            raise ParameterError(
                "multiply_accumulate needs equally many a and b "
                f"polynomials (>= 1), got {len(a_polys)} and {len(b_polys)}"
            )
        ctx = a_polys[0].ctx
        for poly in (*a_polys, *b_polys):
            if not ctx.compatible(poly.ctx):
                raise ParameterError(
                    "multiply_accumulate operands come from incompatible "
                    "contexts"
                )
            if poly.domain != NTT:
                raise LayoutError(
                    "multiply_accumulate requires NTT-domain operands"
                )
        batch = ctx.batch_ntt
        shape = (ctx.num_limbs, ctx.ring_degree)
        if acc is not None and (
            acc.acc.shape != shape
            or type(acc.reducer) is not type(batch.reducer)
            or list(acc.reducer.q_ints) != ctx.primes
        ):
            raise ParameterError(
                f"multiply_accumulate accumulator ({type(acc.reducer).__name__}"
                f" over {len(acc.reducer.q_ints)} moduli, shape "
                f"{acc.acc.shape}) does not match this context's "
                f"{ctx.method} reducer over its {shape} limb matrix"
            )
        hooks.emit("rns_poly.mac")
        if acc is None:
            acc = LazyAccumulator(
                batch.reducer,
                shape,
                checked=ctx.checked,
                backend=ctx.backend,
            )
        else:
            acc.reset()
        for a, b in zip(a_polys, b_polys):
            acc.accumulate_product(a.limbs, b.prepared_operand())
        # Scale follows the product convention (pointwise_multiply /
        # multiply): terms of one inner product share a common scale, so
        # the first pair's product scale is the sum's.
        return RnsPolynomial(
            ctx,
            acc.fold(),
            NTT,
            scale=a_polys[0].state.scale * b_polys[0].state.scale,
        )

    # -- rescaling ---------------------------------------------------------
    def exact_rescale(self) -> RnsPolynomial:
        """Divide by the last limb prime exactly, dropping that limb (§3.2).

        Computes ``(c - [c]_{q_L}) / q_L`` limb-wise, where ``[c]_{q_L}`` is
        the *centered* remainder: the inverse-CRT correction subtracts the
        last limb's lift from every remaining limb, then multiplies by
        ``q_L^-1 mod q_i``.  The centered lift keeps the implicit rounding
        error at most ``q_L / 2``, i.e. the result is the nearest integer
        polynomial to ``c / q_L`` (what CKKS rescaling needs for < 0.5 ulp
        of scale noise).

        Requires the coefficient domain: the correction mixes coefficients
        of one limb into all others, which has no pointwise NTT analogue.
        """
        if self.domain != COEFF:
            raise LayoutError("exact_rescale requires the coefficient domain")
        if self.num_limbs < 2:
            raise LevelError("cannot rescale a single-limb polynomial")
        hooks.emit("rns_poly.rescale")
        child = self.ctx.drop_last()
        q_last = self.ctx.primes[-1]
        last = self.limbs[-1].astype(np.int64)
        # Centered lift of the dropped limb: (-q_L/2, q_L/2].
        centered = np.where(last > q_last // 2, last - q_last, last)
        q = self.ctx.moduli[:-1]  # (L-1, 1), broadcasts over every limb row
        inv, inv_shoup, mu32, corr = self.ctx.rescale_consts
        s, t, d, h = self.ctx._rescale_scratch
        # lift = q_L - centered is a positive word (< 2 q_L) congruent to
        # -[c]_{q_L} + q_L; the shared chain reduces it per row, undoes the
        # shift, adds the limb and scales by q_L^-1.
        lift = (q_last - centered).astype(np.uint32)[None, :]
        out = np.empty(s.shape, np.uint64)
        NUMPY.lo(d, self.limbs[:-1])  # the surviving limbs, as words
        rescale_limb(
            NUMPY, out, lift, d, q.astype(np.uint32), np.uint32(1),
            mu32, corr, inv, inv_shoup, h, s, t, d,
        )
        if self.ctx.checked:
            assert_within(
                out, q - np.uint64(1),
                kernel="exact_rescale", stage="output",
            )
        return RnsPolynomial(child, out, COEFF, scale=self.state.scale / q_last)

    # -- basis conversion / key switching (§4.3) ---------------------------
    def mod_up(self, aux_primes: Sequence[Prime | int]) -> RnsPolynomial:
        """Extend this element onto the basis ``Q ∪ P`` (ModUp).

        Fast basis extension of the canonical representative: the
        original limbs are copied and the auxiliary rows are filled by
        the cached :class:`~repro.poly.basis_conv.BasisConverter` —
        output row ``p_j`` is exactly ``X mod p_j`` for ``X in [0, Q)``.
        Requires the coefficient domain (CRT mixing has no pointwise
        NTT analogue).
        """
        if self.domain != COEFF:
            raise LayoutError("mod_up requires the coefficient domain")
        ext = self.ctx.extend(aux_primes)
        kern = self.ctx.mod_up_kernel(aux_primes)
        out = np.empty((ext.num_limbs, ext.ring_degree), np.uint64)
        kern.apply(self.limbs, out)
        return RnsPolynomial(ext, out, COEFF)

    def mod_down(self, num_aux: int) -> RnsPolynomial:
        """Divide by the auxiliary modulus ``P`` exactly, dropping its limbs.

        Treats the last ``num_aux`` limb rows as the P-part and computes
        ``floor(X / P)`` on the base basis (the key-switching rescale;
        see :class:`~repro.poly.basis_conv.ModDown`).  Requires the
        coefficient domain.
        """
        if self.domain != COEFF:
            raise LayoutError("mod_down requires the coefficient domain")
        base = self.ctx.base_of_extension(num_aux)
        kern = self.ctx.mod_down_kernel(num_aux)
        out = np.empty((base.num_limbs, base.ring_degree), np.uint64)
        kern.apply(self.limbs, out)
        return RnsPolynomial(base, out, COEFF)

    def key_switch(self, ksk) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Hybrid key switching: the fused ModUp → NTT → MAC → ModDown
        pipeline (§4.2/§4.3), returning the coefficient-domain
        ``(c0, c1)`` pair.

        Each limb digit is ModUp-extended onto ``Q ∪ P``, transformed
        once, multiplied against the key pair through one batched
        :class:`~repro.poly.lazy.LazyAccumulator` per half, and the
        folded sums are inverse-transformed and ModDown-rescaled back to
        ``Q`` (see :class:`~repro.poly.basis_conv.KeySwitcher`).
        """
        return self.ctx.key_switcher(ksk.aux_primes, ksk.dnum).run(self, ksk)

    # -- CRT reconstruction ------------------------------------------------
    def to_int_coeffs(self, *, centered: bool = True) -> list[int]:
        """CRT-reconstruct coefficients as Python ints mod Q.

        With ``centered`` the representatives lie in ``(-Q/2, Q/2]``,
        matching the signed plaintext convention; otherwise ``[0, Q)``.
        Built from the context's mixed-radix magnitude words
        (:attr:`PolyContext.crt`), the ones :meth:`to_float_coeffs` rounds.
        """
        if self.domain != COEFF:
            raise LayoutError("CRT reconstruction requires coefficient domain")
        return self.ctx.crt.to_ints(self.limbs, centered=centered)

    def to_float_coeffs(self) -> np.ndarray:
        """The centered coefficients as float64, each exactly
        ``float(c)`` of the centered integer ``c`` — the decoders' input."""
        if self.domain != COEFF:
            raise LayoutError("CRT reconstruction requires coefficient domain")
        return self.ctx.crt.to_float(self.limbs)
