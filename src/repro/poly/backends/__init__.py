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
and ``checked`` flag to the kernels they build.

Each kernel object (``BatchNTT``, ``BasisConverter`` with ModDown's
combine, ``LazyAccumulator``) fixes its implementation once, on first
use: the C kernels when its tier is ``compiled`` and
:func:`compiled_library` loads, else numpy.  Construction stays lazy,
so an engine that never transforms builds nothing.  No call falls back
per call: the compiled entry points take every operand the numpy
kernels take (copying strided, broadcast or overlapping operands into
contiguous words first) and raise where numpy raises.  The sanitizer
(``REPRO_CHECKED=1``) plus the PR 7 certified stage bounds apply
identically to both tiers: the compiled NTT kernels re-check the
per-stage invariant in C and surface violations as
:class:`~repro.errors.SanitizerError`, while a checked accumulator,
converter or combine is built on numpy, so the accumulator's
fold-soundness instrumentation runs.

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
    "compiled_library",
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


def compiled_library(tier: str):
    """The C kernel library for a kernel object on ``tier``; ``None`` (run
    numpy) on the numpy tier, or when the library cannot be built here
    (which :func:`~repro.poly.backends.compiled.get_lib` warns once)."""
    if tier != "compiled":
        return None
    from repro.poly.backends.compiled import get_lib

    return get_lib()
