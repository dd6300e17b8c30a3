"""Backend dispatch layer: numpy / compiled tiers.

ROADMAP item 3: every bench cell bottoms out in the batched NTT stage
kernels and the ``(L_out, L_in, N)`` CRT tensor pass.  This package
routes those two hot paths behind a *bit-exact* dispatch seam with two
tiers:

``numpy``
    The existing :class:`~repro.poly.batch_ntt.BatchNTT` stage kernels
    and :class:`~repro.poly.basis_conv.BasisConverter` Shoup chains,
    unchanged — the always-available reference tier the compiled tier
    must bit-match.

``compiled``
    ctypes-loaded C implementations of the four Table-3 butterfly
    stage-kernel families and the CRT tensor pass
    (:mod:`repro.poly.backends.compiled`), built lazily with ``cc -O3``
    and cached by source hash.  When no toolchain is present the tier
    degrades to numpy with a single :class:`BackendFallbackWarning` per
    process — never an error, never a per-call warning.

Tier selection follows the same precedence discipline as ``checked``
(:func:`repro.analysis.sanitizer.checked_mode`): an explicit
constructor argument wins, else the ``REPRO_BACKEND`` environment
variable, else ``numpy``.  Dispatch is *transparent*:
``RnsPolynomial`` / ``BasisConverter`` / ``KeySwitcher`` /
``CircuitPlan`` never branch on tier, and the sanitizer
(``REPRO_CHECKED=1``) plus the PR 7 certified stage bounds apply
identically to both tiers (the compiled kernels re-check the per-stage
invariant in C and surface violations as
:class:`~repro.errors.SanitizerError`).

Bit-exactness is the acceptance bar, not an aspiration: both tiers'
NTT outputs are *canonical exact* transforms over the same bit-reversed
twiddle tables and the converter outputs are the exact CRT residues
``X mod p_j``, so equality with the numpy tier is guaranteed by
construction and asserted — across the full parity grid — in
``tests/test_backends.py`` and before every timed bench cell.
"""

from __future__ import annotations

import os

from repro.errors import ParameterError

__all__ = [
    "BACKEND_TIERS",
    "BackendFallbackWarning",
    "make_convert_impl",
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

    The impl exposes ``scale_core(x, out)`` and
    ``convert_core(x_hat, v_row, out)``, each returning ``None`` to
    decline a call (checked mode, non-contiguous input) so the numpy
    path runs it instead.  The exact v-correction term always runs in
    Python (its guard needs big ints); the tier takes over the scale
    step and the ``(L_out, L_in, N)`` tensor pass + fold.
    """
    if tier != "compiled":
        return None
    from repro.poly.backends.compiled import make_compiled_convert

    return make_compiled_convert(converter)
