"""Polynomial layer: negacyclic NTT + RNS polynomials over the prime system.

Layering (bottom up): :mod:`repro.rns` supplies limb primes, reducers and
rescaling cycles; this package turns them into ring arithmetic —
:class:`NegacyclicNTT` per limb (the reference path), :class:`BatchNTT`
across the whole ``(num_limbs, N)`` limb matrix (the limb-parallel hot
path), :class:`RnsPolynomial` across limbs, :class:`LazyAccumulator` for
§4.2 deferred folds, and :class:`CostModel`, the Table-3 int32 kernel
prices a compiled plan's ``cost()`` sums.
"""

from repro.poly.basis_conv import (
    BasisConverter,
    KeySwitchKey,
    ModDown,
    ModUp,
)
from repro.poly.batch_ntt import BatchNTT
from repro.poly.cost import (
    MODADD_INSTRS,
    RAW64_INSTRS,
    CostModel,
    OpCost,
)
from repro.poly.lazy import LazyAccumulator
from repro.poly.ntt import (
    NegacyclicNTT,
    automorphism_tables,
    bit_reverse_permutation,
)
from repro.poly.rns_poly import (
    COEFF,
    NTT,
    LimbState,
    PolyContext,
    RnsPolynomial,
)

__all__ = [
    "COEFF",
    "NTT",
    "MODADD_INSTRS",
    "RAW64_INSTRS",
    "BasisConverter",
    "BatchNTT",
    "CostModel",
    "KeySwitchKey",
    "LazyAccumulator",
    "LimbState",
    "ModDown",
    "ModUp",
    "NegacyclicNTT",
    "OpCost",
    "PolyContext",
    "RnsPolynomial",
    "automorphism_tables",
    "bit_reverse_permutation",
]
