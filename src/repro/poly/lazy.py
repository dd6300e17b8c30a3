"""Lazy-reduction accumulation (§4.2 of the paper).

Inner-product-shaped kernels (basis conversion, key switching) sum many
modular products per output coefficient.  Folding every partial sum back
into canonical range wastes instructions; the paper instead lets partial
sums ride in a wide accumulator and folds once at the end.
:class:`LazyAccumulator` reduces each product first (into (-q, q) for
SMR, [0, 2q) for the unsigned reducers) and defers the *folds*: partial
sums accumulate unfolded in the reducer's 64-bit carrier, ~2^32 terms
of headroom with every Table-3 reducer.  How many terms fit is the
reducer contract's rule
(:meth:`~repro.rns.reduction.ReducerContract.lazy_bounds`), the one the
kernel certificate and the plan checker read too.

The accumulator carries an explicit worst-case bound tracker: every
``accumulate`` asserts the new bound still fits the carrier and raises
:class:`~repro.errors.AccumulatorOverflowError` before any wraparound
can corrupt a result silently.

On the compiled tier (:mod:`repro.poly.backends`) the product-accumulate
and the fold of an ``(L, N)`` limb matrix run as one C call each, for
all four reducers.  The tracker still runs here, in Python, before the
kernel writes; the kernels form each term exactly as the numpy reducers
do, so the per-term charges, the accumulator state and the folded
residues are the same on both tiers.  A checked accumulator runs numpy.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from repro.analysis.sanitizer import assert_fold_sound, checked_mode
from repro.errors import AccumulatorOverflowError, ParameterError
from repro.poly.backends import compiled_library, resolve_backend
from repro.rns.reduction import align_rows


class _NumpyLazy:
    """The numpy product-accumulate and fold over one accumulator's store,
    with :class:`~repro.poly.backends.compiled.CompiledLazy`'s interface."""

    def __init__(self, acc: LazyAccumulator) -> None:
        self.store = acc.acc
        self.reducer = acc.reducer
        self.q = align_rows(acc.reducer.q, acc.acc.ndim)  # the carrier's dtype

    def product(self, a, parts, perm):
        """Form the term now; return the deferred add into the store."""
        a = np.asarray(a) if perm is None else np.take(a, perm, axis=-1)
        term = self.reducer.mul_prepared(a, parts).astype(self.store.dtype, copy=False)
        return partial(np.add, self.store, term, out=self.store)

    def fold(self, out: np.ndarray) -> np.ndarray:
        return np.remainder(self.store, self.q, out=out, casting="unsafe")


class LazyAccumulator:
    """Accumulate reduced modular products, deferring the folds.

    Args:
        reducer: a Table-3 reducer.  Batched reducers (per-limb ``(L, 1)``
            modulus columns) work too: the bound tracker then charges
            the largest limb's per-term bound, and the fold reduces each
            row by its own modulus.
        shape: shape of the accumulated vector.
        checked: sanitizer override (see :attr:`checked`).
        backend: dispatch tier for the product-accumulate and the fold
            (same precedence as :class:`~repro.poly.batch_ntt.BatchNTT`'s
            ``backend``).

    Products take the operand form the reducer's ``prepare`` builds: the
    Montgomery family's form cancels the ``2^-32`` factor of each
    multiply, so accumulated values are plain residues.
    """

    def __init__(
        self,
        reducer,
        shape: tuple[int, ...] | int,
        *,
        checked: bool | None = None,
        backend: str | None = None,
    ) -> None:
        self.reducer = reducer
        self.signed = reducer.contract.signed
        #: sanitizer mode: cross-check the tracked bound against the real
        #: data at every fold (REPRO_CHECKED=1, or an explicit override)
        self.checked = checked_mode(checked)
        self.backend_tier = resolve_backend(backend)
        #: worst-case limb modulus — per-term bound charges use it
        self.q = max(reducer.q_ints)
        self.acc = np.zeros(shape, dtype=reducer.contract.carrier)
        #: worst-case |accumulator| given everything accumulated so far
        self.bound = 0
        self.terms = 0
        self.limit, self._per_term = reducer.contract.lazy_bounds(self.q)

    @property
    def headroom(self) -> int:
        """How many more worst-case terms fit before overflow."""
        return self.reducer.contract.lazy_headroom(self.q, self.bound)

    def _charge(self, amount: int, what: str) -> None:
        if self.bound + amount > self.limit:
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
                f"({self.terms} terms accumulated, q={self.q}); statically "
                f"safe headroom at the current bound is {self.headroom} "
                f"more worst-case term(s){detail}; fold first"
            )
        self.bound += amount

    @cached_property
    def _impl(self):
        """The product-accumulate and fold, chosen once on first use:
        :class:`~repro.poly.backends.compiled.CompiledLazy` for an
        unchecked ``(L, N)`` limb matrix with one modulus per row on the
        compiled tier, when the library loads; else numpy."""
        red = self.reducer
        fits = self.acc.ndim == 2 and red.batched and len(red.q_ints) == len(self.acc)
        lib = compiled_library(self.backend_tier) if fits and not self.checked else None
        if lib is None:
            return _NumpyLazy(self)
        from repro.poly.backends.compiled import CompiledLazy

        return CompiledLazy(self, lib)

    def accumulate_product(
        self,
        a: np.ndarray,
        parts: tuple,
        *,
        perm: np.ndarray | None = None,
    ) -> LazyAccumulator:
        """Add ``a`` times a prepared operand (one modular product per lane).

        ``parts`` is the reducer's operand tuple — ``reducer.prepare(b)``,
        built once and reused across terms (Shoup's whole premise): ``(b,)``,
        or Shoup's ``(b, b')``.  ``a`` must be a valid reducer input
        (canonical or one-fold-lazy residues); the product is reduced now
        and its fold deferred.  ``perm``, when given, gathers ``a`` along
        its last axis first (``a[..., perm]``, the hoisted key switch's
        slot permutation); the compiled tier fuses that gather into the
        product.

        The term is fully formed *before* the bound is charged, and
        nothing is written until the charge succeeds, so a failed call
        leaves both the tracker and the accumulator untouched.
        """
        run = self._impl.product(a, parts, perm)
        self._charge(self._per_term, "accumulating a product")
        run()
        self.terms += 1
        return self

    def accumulate_value(self, v: np.ndarray, max_abs: int) -> LazyAccumulator:
        """Add pre-reduced values with caller-declared worst-case |v|.

        Raises:
            ParameterError: if ``v`` carries negative values while the
                accumulator is unsigned — ``astype(uint64)`` would wrap
                them into huge positive residues and corrupt the sum with
                no error, so the sign is validated against the carrier
                before anything is charged or added.
        """
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
        """:meth:`fold_into` a fresh uint64 array."""
        return self.fold_into(np.empty(self.acc.shape, np.uint64))

    def fold_into(self, out: np.ndarray) -> np.ndarray:
        """Collapse the deferred sum into canonical residues [0, q) in ``out``.

        The exact floor remainder (canonical even from SMR's signed
        carrier), per row for batched reducers — on hardware this
        terminal fold is a short Barrett chain, executed once per output
        instead of once per term.  The accumulator is left intact.  The
        fused pipelines (basis conversion, key switching) fold into
        persistent scratch this way.  ``out`` must be a uint64 array of
        the accumulator's shape.

        Raises:
            ParameterError: if ``out`` overlaps the accumulator storage.
                The fold would overwrite the deferred sum it reads and
                leave the accumulator corrupt — the evaluator's
                relinearize-then-rescale chains fold into per-kernel
                scratch, and this guard is what keeps a mis-shared
                scratch buffer from slipping through.
        """
        if out.shape != self.acc.shape or out.dtype != np.uint64:
            raise ParameterError(
                f"fold_into needs a uint64 {self.acc.shape} buffer, got "
                f"{out.dtype} {out.shape}"
            )
        if np.shares_memory(out, self.acc):
            raise ParameterError(
                "fold_into output aliases the accumulator scratch: the "
                "fold would overwrite the deferred sum it reads and leave "
                "the accumulator corrupt; pass a distinct buffer"
            )
        if self.checked:
            assert_fold_sound(
                self.acc, self.bound,
                kernel="LazyAccumulator.fold_into", signed=self.signed,
            )
        return self._impl.fold(out)

    def reset(self) -> None:
        self.acc[...] = 0
        self.bound = 0
        self.terms = 0
