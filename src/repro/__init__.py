"""Bit-faithful reproduction of the paper's RNS-CKKS arithmetic stack.

Subpackages: :mod:`repro.rns` (primes, reducers, rescaling cycles),
:mod:`repro.poly` (negacyclic NTT, RNS polynomials, lazy reduction,
Table-3 kernel prices), :mod:`repro.scheme` (RLWE keys, ciphertexts, the
homomorphic evaluator and the circuit compiler, whose plans price
themselves), :mod:`repro.analysis` (the
static overflow / noise-budget analyzer and sanitizer-checked
execution), :mod:`repro.serving` (the fault-tolerant multi-tenant
batch-serving layer) and :mod:`repro.ml` (encrypted ML inference end to
end).  See README.md for the architecture map.

The stable public surface is this ``__all__``: build a
:class:`CkksContext` and go through it (``cc.encrypt`` / ``cc.matvec`` /
``cc.poly_eval`` / ``cc.compile`` / ``cc.model``); serve compiled plans
with :class:`CkksServer`; check plans with :func:`check_plan`.
Everything underscore-prefixed is internal.
"""

from repro.errors import CheddarError, ModelPlanError

__all__ = [
    "CheddarError",
    "CkksContext",
    "CkksServer",
    "FaultInjector",
    "ModelPlanError",
    "Plan",
    "ServingConfig",
    "certify_kernels",
    "check_plan",
    "checked_mode",
    "ml",
]
__version__ = "0.1.0"

#: analyzer entry points re-exported lazily (numpy-heavy, cycle-prone)
_ANALYSIS = {"certify_kernels", "check_plan", "checked_mode"}

#: serving entry points, equally lazy (asyncio + the whole scheme stack)
_SERVING = {"CkksServer", "FaultInjector", "ServingConfig"}


def __getattr__(name):
    # CkksContext pulls in numpy and the whole scheme stack; load it on
    # first touch so `import repro` stays import-cycle-free and cheap.
    if name == "CkksContext":
        from repro.context import CkksContext

        return CkksContext
    if name == "Plan":
        # what cc.compile returns; its type lives in a private module
        from repro.scheme import CircuitPlan

        return CircuitPlan
    if name == "ml":
        import repro.ml as ml

        return ml
    if name in _ANALYSIS:
        import repro.analysis as analysis

        return getattr(analysis, name)
    if name in _SERVING:
        import repro.serving as serving

        return getattr(serving, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
