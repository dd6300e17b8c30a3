"""Static overflow & noise-budget analysis for the kernel stack.

Two abstract-interpretation levels plus a runtime sanitizer:

* **Level 1 — kernel range analysis** (:mod:`repro.analysis.ranges`):
  exact-interval dataflow over the reducer algebra and the batched NTT
  stage kernels, producing an ahead-of-time
  :class:`~repro.analysis.ranges.KernelCertificate` (cached on
  :class:`~repro.poly.rns_poly.PolyContext` via ``range_certificate()``)
  that proves uint32/uint64 non-overflow and the 2q-lazy invariant for a
  parameter family — or pinpoints the first violating op — and records
  the lazy-accumulation headroom by the reducer contract's rule
  (:meth:`~repro.rns.reduction.ReducerContract.lazy_bounds`), the one
  :class:`~repro.poly.lazy.LazyAccumulator` and the plan checker read.
* **Level 2 — plan checking** (:mod:`repro.analysis.plan_check`):
  a static pass over traced :class:`~repro.scheme._circuit.CircuitPlan`
  DAGs propagating level/scale/noise-budget lattices per node; flags
  budget exhaustion and scale overflow as errors, and scale drift, dead
  Galois hoists, redundant NTT round trips and level-wasting rescale
  placement as warnings — before anything executes.
* **Sanitizer mode** (:mod:`repro.analysis.sanitizer`):
  ``REPRO_CHECKED=1`` / ``PolyContext(checked=True)`` instruments the
  real kernels to assert the statically derived per-stage bounds at
  runtime, UBSan-style.

``check_plan`` / ``PlanReport`` are exported lazily because the plan
checker imports the scheme layer, which itself imports this package's
sanitizer — the eager names below only depend on numpy and the errors
module.
"""

from __future__ import annotations

from repro.analysis.intervals import Diagnostic, Interval, Obligation
from repro.analysis.ranges import KernelCertificate, certify_kernels
from repro.analysis.sanitizer import checked_mode

__all__ = [
    "Diagnostic",
    "Interval",
    "KernelCertificate",
    "Obligation",
    "PlanReport",
    "certify_kernels",
    "check_plan",
    "checked_mode",
]


def __getattr__(name: str):
    if name in ("check_plan", "PlanReport"):
        from repro.analysis import plan_check

        return getattr(plan_check, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
