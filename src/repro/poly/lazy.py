"""Lazy-reduction accumulation (§4.2 of the paper).

Inner-product-shaped kernels (basis conversion, key switching) sum many
modular products per output coefficient.  Folding every partial sum back
into canonical range wastes instructions; the paper instead lets partial
sums ride in a wide accumulator and folds once at the end.  SMR makes this
especially cheap because its output range (-q, q) is symmetric and its
input precondition (|x| < q * 2^31, Alg. 2) leaves headroom to defer work
into.

Two deferral strategies, both wrapped by :class:`LazyAccumulator`:

* ``reduced`` — each product is reduced first (into (-q, q) for SMR,
  [0, 2q) for the unsigned reducers) and the *folds* are deferred: partial
  sums accumulate raw in 64-bit.  Headroom is ~2^32 terms; works with every
  Table-3 reducer.
* ``raw`` (SMR only) — the *reductions themselves* are deferred: raw 64-bit
  products accumulate unreduced and one final SMR reduce folds the whole
  sum.  Alg. 2's precondition caps this at ``floor(2^31 / q)`` products
  — ~64 for a Pr~25 terminal prime but only ~2 for a Pr~30 main prime,
  which is why the paper's kernels interleave partial folds.

The accumulator carries an explicit worst-case bound tracker: every
``accumulate`` asserts the new bound still fits the strategy's domain and
raises :class:`~repro.errors.AccumulatorOverflowError` before any wraparound
can corrupt a result silently.

On the compiled tier (:mod:`repro.poly.backends`) the ``reduced``
product-accumulate and the fold of an ``(L, N)`` limb matrix run as one
C call each, for all four reducers.  The tracker still runs here, in
Python, before the kernel writes; the kernels form each term exactly as
the numpy reducers do, so the per-term charges, the accumulator state
and the folded residues are the same on both tiers.  Checked mode and
the ``raw`` strategy stay on numpy.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitizer import assert_fold_sound, checked_mode
from repro.errors import AccumulatorOverflowError, ParameterError
from repro.poly.backends import make_lazy_impl, resolve_backend
from repro.rns.reduction import SignedMontgomeryReducer, align_rows

_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1


class LazyAccumulator:
    """Accumulate modular products, deferring folds (or reductions).

    Args:
        reducer: a Table-3 reducer; ``raw`` strategy requires
            :class:`~repro.rns.reduction.SignedMontgomeryReducer`.
            Batched reducers (per-limb ``(L, 1)`` modulus columns) work
            too: the bound tracker then uses the worst-case limb (largest
            ``q`` for per-term magnitude, smallest for the raw-strategy
            domain) and the fold reduces each row by its own modulus.
        shape: shape of the accumulated vector.
        strategy: ``"reduced"`` or ``"raw"`` (see module docstring).
        checked: sanitizer override (see :attr:`checked`).
        backend: dispatch tier for the product-accumulate and the fold
            (same precedence as :class:`~repro.poly.batch_ntt.BatchNTT`'s
            ``backend``).

    Montgomery-family reducers carry an implicit ``2^-32`` factor per
    multiply; callers follow the NTT convention of pre-scaling one operand
    into Montgomery form so accumulated values are plain residues.
    """

    def __init__(
        self,
        reducer,
        shape: tuple[int, ...] | int,
        *,
        strategy: str = "reduced",
        checked: bool | None = None,
        backend: str | None = None,
    ) -> None:
        if strategy not in ("reduced", "raw"):
            raise ParameterError(f"unknown lazy strategy {strategy!r}")
        self.signed = isinstance(reducer, SignedMontgomeryReducer)
        if strategy == "raw" and not self.signed:
            raise ParameterError(
                "raw accumulation needs SMR: only Alg. 2 tolerates "
                "unreduced 64-bit partial sums at its input"
            )
        self.reducer = reducer
        self.strategy = strategy
        #: sanitizer mode: cross-check the tracked bound against the real
        #: data at every fold (REPRO_CHECKED=1, or an explicit override)
        self.checked = checked_mode(checked)
        self.backend_tier = resolve_backend(backend)
        self._impl = None
        self._impl_ready = False
        qs = [int(v) for v in np.ravel(np.asarray(reducer.q))]
        #: worst-case limb modulus — per-term bound charges use it
        self.q = max(qs)
        dtype = np.int64 if self.signed else np.uint64
        self.acc = np.zeros(shape, dtype=dtype)
        #: worst-case |accumulator| given everything accumulated so far
        self.bound = 0
        self.terms = 0
        if strategy == "raw":
            # One final reduce must satisfy Alg. 2 for every limb row:
            # row i allows ~q_i*2^31 / (q_i-1)^2 terms, decreasing in q_i,
            # so the largest limb is the binding row — tracking its limit
            # with its per-term magnitude is sound for all smaller rows.
            self.limit = self.q * 2**31 - 1
            self._per_term = (self.q - 1) ** 2
        elif self.signed:
            self.limit = _INT64_MAX
            self._per_term = self.q - 1  # SMR products land in (-q, q)
        else:
            self.limit = _UINT64_MAX
            self._per_term = 2 * self.q - 1  # unsigned reducers: [0, 2q)

    @property
    def headroom(self) -> int:
        """How many more worst-case terms fit before overflow."""
        return (self.limit - self.bound) // self._per_term

    def _charge(self, amount: int, what: str) -> None:
        if self.bound + amount > self.limit:
            from repro.analysis.ranges import safe_headroom

            detail = ""
            if self.acc.size:
                mag = (
                    np.abs(self.acc, dtype=np.int64)
                    if self.signed
                    else self.acc
                )
                idx = np.unravel_index(int(np.argmax(mag)), self.acc.shape)
                limb = idx[0] if self.acc.ndim > 1 else 0
                detail = (
                    f"; largest live magnitude |{int(self.acc[idx])}| sits "
                    f"at limb {limb}, coefficient {idx[-1]}"
                )
            raise AccumulatorOverflowError(
                f"{what} would push the lazy bound to "
                f"{self.bound + amount} > {self.limit} "
                f"({self.terms} terms accumulated, strategy "
                f"{self.strategy!r}, q={self.q}); statically safe headroom "
                f"at the current bound is "
                f"{safe_headroom(self.limit, self.bound, self._per_term)} "
                f"more worst-case term(s){detail}; fold first"
            )
        self.bound += amount

    def _tier_impl(self):
        """The lazily built compiled impl, or ``None`` for numpy."""
        if not self._impl_ready:
            self._impl_ready = True
            self._impl = make_lazy_impl(self, self.backend_tier)
        return self._impl

    def accumulate_product(
        self,
        a: np.ndarray,
        b: np.ndarray | int,
        *,
        b_shoup: np.ndarray | int | None = None,
        perm: np.ndarray | None = None,
    ) -> LazyAccumulator:
        """Add ``a * b`` (one modular product per lane) to the accumulator.

        Operands must be valid reducer inputs (canonical or one-fold-lazy
        residues).  ``reduced`` reduces now and defers the fold; ``raw``
        defers the reduction itself.  With a Shoup reducer, pass
        ``b_shoup = reducer.precompute(b)`` once and reuse it across terms
        (Shoup's whole premise); it is computed on the fly when omitted.
        ``perm``, when given, gathers ``a`` along its last axis first
        (``a[..., perm]``, the hoisted key switch's slot permutation); the
        compiled tier fuses that gather into the product.

        The term is fully formed (including any on-the-fly Shoup
        precompute, which can raise) *before* the bound is charged, and
        nothing is written until the charge succeeds, so a failed call
        leaves both the tracker and the accumulator untouched.
        """
        shoup = not hasattr(self.reducer, "mulmod")
        if shoup:  # Shoup multiplies by constants only; needs the companion
            if not isinstance(b, np.ndarray):
                b = int(b)
            if b_shoup is None:
                b_shoup = self.reducer.precompute(b)
        impl = self._tier_impl()
        run = None if impl is None else impl.product(a, b, b_shoup, perm)
        if run is None:
            a = np.asarray(a) if perm is None else np.take(a, perm, axis=-1)
            if self.strategy == "raw":
                term = a.astype(np.int64) * (
                    b.astype(np.int64)
                    if isinstance(b, np.ndarray)
                    else np.int64(b)
                )
            elif shoup:
                term = self.reducer.mulmod_const(a, b, b_shoup)
            else:
                term = self.reducer.mulmod(a, b)
        self._charge(self._per_term, "accumulating a product")
        if run is None:
            self.acc += term.astype(self.acc.dtype, copy=False)
        else:
            run()
        self.terms += 1
        return self

    def accumulate_value(self, v: np.ndarray, max_abs: int) -> LazyAccumulator:
        """Add pre-reduced values with caller-declared worst-case |v|.

        Raises:
            ParameterError: if ``v`` carries negative values while the
                accumulator is unsigned — ``astype(uint64)`` would wrap
                them into huge positive residues and corrupt the sum with
                no error, so the sign is validated against the strategy
                before anything is charged or added.
        """
        if self.strategy == "raw":
            raise ParameterError(
                "raw accumulators take products only; reduce-then-add "
                "values belong to the 'reduced' strategy"
            )
        v = np.asarray(v)
        if (
            not self.signed
            and v.size
            and v.dtype.kind != "u"
            and int(v.min()) < 0
        ):
            raise ParameterError(
                f"negative value {int(v.min())} cannot enter an unsigned "
                "accumulator: the uint64 cast would wrap it silently; use "
                "an SMR (signed) accumulator or fold the sign into a "
                "canonical residue first"
            )
        self._charge(max_abs, "accumulating a value")
        self.acc += v.astype(self.acc.dtype, copy=False)
        self.terms += 1
        return self

    def fold(self) -> np.ndarray:
        """Collapse the deferred sum into canonical residues [0, q).

        ``raw`` performs the single deferred SMR reduction (Alg. 2) first;
        both strategies then take the exact centered remainder — on
        hardware this terminal fold is a short Barrett chain, priced
        separately by the cost model, executed once per output instead of
        once per term.
        """
        impl = self._tier_impl()
        if impl is not None:
            out = impl.fold(np.empty(self.acc.shape, np.uint64))
            if out is not None:
                return out
        if self.checked:
            assert_fold_sound(
                self.acc, self.bound,
                kernel="LazyAccumulator.fold", signed=self.signed,
            )
        acc = self.acc
        if self.strategy == "raw":
            acc = self.reducer.reduce(acc)  # one Alg. 2 pass, into (-q, q)
        # Per-row moduli for batched reducers; plain scalar otherwise.
        if self.signed:
            q = align_rows(np.asarray(self.reducer.q, np.int64), acc.ndim)
            # int64 floor-mod folds negatives straight into [0, q).
            return (acc % q).astype(np.uint64)
        q = align_rows(np.asarray(self.reducer.q, np.uint64), acc.ndim)
        return acc % q

    def fold_into(self, out: np.ndarray) -> np.ndarray:
        """Destructive :meth:`fold` writing canonical residues into ``out``.

        The fused pipelines (basis conversion, key switching) fold into
        persistent scratch so the hot path allocates nothing.  The numpy
        tier's terminal remainder runs *in place on the accumulator*, so
        the accumulator state is consumed: call :meth:`reset` before
        accumulating again.  ``out`` must be a uint64 array of the
        accumulator's shape.

        Raises:
            ParameterError: if ``out`` overlaps the accumulator storage.
                The in-place remainder would read half-folded values
                through the alias and corrupt the result silently — the
                evaluator's relinearize-then-rescale chains fold into
                per-kernel scratch, and this guard is what keeps a
                mis-shared scratch buffer from slipping through.
        """
        if out.shape != self.acc.shape or out.dtype != np.uint64:
            raise ParameterError(
                f"fold_into needs a uint64 {self.acc.shape} buffer, got "
                f"{out.dtype} {out.shape}"
            )
        if np.shares_memory(out, self.acc):
            raise ParameterError(
                "fold_into output aliases the accumulator scratch: the "
                "terminal remainder runs in place on the accumulator "
                "before the copy-out, so an aliased buffer would read "
                "partially-folded state; pass a distinct buffer"
            )
        impl = self._tier_impl()
        if impl is not None and impl.fold(out) is not None:
            return out
        if self.checked:
            assert_fold_sound(
                self.acc, self.bound,
                kernel="LazyAccumulator.fold_into", signed=self.signed,
            )
        acc = self.acc
        if self.strategy == "raw":
            acc = self.reducer.reduce(acc)  # one Alg. 2 pass, into (-q, q)
            np.copyto(self.acc, acc)
            acc = self.acc
        q = align_rows(np.asarray(self.reducer.q, dtype=acc.dtype), acc.ndim)
        np.remainder(acc, q, out=acc)  # floor-mod: canonical even if signed
        np.copyto(out, acc, casting="unsafe")
        return out

    def reset(self) -> None:
        self.acc[...] = 0
        self.bound = 0
        self.terms = 0
