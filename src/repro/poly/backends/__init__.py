"""Backend dispatch layer: numpy / compiled tiers.

Every bench cell bottoms out in the batched NTT stage kernels, the
lazy product-accumulate and fold of the key-switch inner product, and
the basis-conversion passes (the ``(L_out, L_in, N)`` CRT tensor pass
and ModDown's combine).  This package routes those hot paths behind a
*bit-exact* dispatch seam with two tiers:

``numpy``
    The existing :class:`~repro.poly.batch_ntt.BatchNTT` stage kernels,
    :class:`~repro.poly.lazy.LazyAccumulator` reducer chains and
    :class:`~repro.poly.basis_conv.BasisConverter` Shoup chains,
    unchanged — the always-available reference tier the compiled tier
    must bit-match.

``compiled``
    ctypes-loaded C implementations of the four Table-3 butterfly
    families (one call per transform, every stage on 32-bit vector
    lanes), the lazy product-accumulate (one kernel per reducer, with
    the hoisted slot gather fused into the operand load) and its fold,
    the CRT tensor pass and ModDown's combine
    (:mod:`repro.poly.backends.compiled`), built lazily for the host ISA
    (``cc -O3 -march=native``, retried once with ``-O3``) and cached by
    a digest of the source, the flags and the host's ISA features.  When
    no toolchain is present the tier degrades to numpy with a single
    :class:`BackendFallbackWarning` per process — never an error, never
    a per-call warning.

Tier selection follows the same precedence discipline as ``checked``
(:func:`repro.analysis.sanitizer.checked_mode`): an explicit
constructor argument wins, else the ``REPRO_BACKEND`` environment
variable, else ``numpy``.  Dispatch is *transparent*:
``RnsPolynomial`` / ``BasisConverter`` / ``KeySwitcher`` /
``CircuitPlan`` never branch on tier — they hand their context's tier
and ``checked`` flag to the kernels they build — and the sanitizer
(``REPRO_CHECKED=1``) plus the PR 7 certified stage bounds apply
identically to both tiers (the compiled NTT kernels re-check the
per-stage invariant in C and surface violations as
:class:`~repro.errors.SanitizerError`; the accumulator, converter and
combine decline to the instrumented numpy path).

Bit-exactness is the acceptance bar, not an aspiration: both tiers'
NTT outputs are *canonical exact* transforms over the same bit-reversed
twiddle tables, the converter outputs are the exact CRT residues
``X mod p_j``, and the accumulator kernels replay the numpy reducers'
wrapping arithmetic term for term, so equality with the numpy tier is
guaranteed by construction and asserted — across the full parity grid —
in ``tests/test_backends.py`` and before every timed bench cell.
"""

from __future__ import annotations

import os

from repro.errors import ParameterError

__all__ = [
    "BACKEND_TIERS",
    "BackendFallbackWarning",
    "make_convert_impl",
    "make_lazy_impl",
    "make_ntt_impl",
    "resolve_backend",
]

#: the dispatch tiers, reference tier first
BACKEND_TIERS = ("numpy", "compiled")


class BackendFallbackWarning(RuntimeWarning):
    """A requested backend tier degraded to the numpy reference tier.

    Emitted at most once per process per cause (e.g. ``compiled``
    requested with no C toolchain on PATH) — degraded dispatch is loud
    exactly once, then silent, so a hot loop is never spammed.
    """


def resolve_backend(override: str | None = None) -> str:
    """Resolve the backend tier with the ``checked_mode`` precedence.

    An explicit ``override`` (constructor argument) wins; otherwise the
    ``REPRO_BACKEND`` environment variable; otherwise ``"numpy"``.  An
    unknown tier name raises :class:`~repro.errors.ParameterError`
    loudly rather than silently running the reference tier.
    """
    if override is None:
        name = os.environ.get("REPRO_BACKEND", "").strip().lower() or "numpy"
    else:
        name = str(override).strip().lower()
    if name not in BACKEND_TIERS:
        raise ParameterError(
            f"unknown backend tier {name!r}; expected one of "
            f"{', '.join(BACKEND_TIERS)}"
        )
    return name


def make_ntt_impl(engine, tier: str):
    """Build the tier implementation for one ``BatchNTT``, or ``None``.

    ``None`` means "use the numpy kernels" — either because the numpy
    tier was selected or because the compiled tier is unavailable
    (which will already have warned once).  The returned impl object
    exposes ``forward(a, out)`` / ``inverse(a_hat, out)``, which always
    return the result array.
    """
    if tier != "compiled":
        return None
    from repro.poly.backends.compiled import make_compiled_ntt

    return make_compiled_ntt(engine)


def make_convert_impl(converter, tier: str):
    """Tier implementation for one ``BasisConverter``, or ``None``.

    The impl exposes ``scale_core(x, out)``,
    ``convert_core(x_hat, v_row, out)`` and ModDown's
    ``combine_core(x_base, conv, w, w_sh, out)``, each returning ``None``
    to decline a call (checked mode, non-contiguous input) so the numpy
    path runs it instead.  The exact v-correction term always runs in
    Python (its guard needs big ints); the tier takes over the scale
    step, the ``(L_out, L_in, N)`` tensor pass + fold and the combine.
    """
    if tier != "compiled":
        return None
    from repro.poly.backends.compiled import make_compiled_convert

    return make_compiled_convert(converter)


def make_lazy_impl(acc, tier: str):
    """Tier implementation for one ``LazyAccumulator``, or ``None``.

    The impl exposes ``product(a, parts, perm)`` — ``parts`` the
    reducer's prepared operand tuple; the validated product-accumulate as
    a ready call, run only after the accumulator has charged its bound
    tracker — and ``fold(out)``.  Each returns
    ``None`` to decline a call (checked mode, operands that are
    non-contiguous or do not match), and numpy runs it instead.
    """
    if tier != "compiled":
        return None
    from repro.poly.backends.compiled import make_compiled_lazy

    return make_compiled_lazy(acc)
