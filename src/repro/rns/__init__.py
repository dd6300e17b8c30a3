"""RNS layer: NTT-friendly primes, Table-3 reducers, rescaling cycles and
the exact CRT reconstruction."""

from repro.rns.crt import CrtReconstructor
from repro.rns.cycle import (
    CycleMove,
    RescalingCycle,
    enumerate_moves,
    find_rescaling_cycle,
)
from repro.rns.primes import (
    Prime,
    PrimePool,
    digit_ranges,
    is_prime,
    ntt_friendly_primes,
    primitive_root_of_unity,
)
from repro.rns.reduction import (
    REDUCTION_COSTS,
    BarrettReducer,
    MontgomeryReducer,
    ReductionCost,
    ShoupReducer,
    SignedMontgomeryReducer,
    make_reducer,
)

__all__ = [
    "REDUCTION_COSTS",
    "BarrettReducer",
    "CrtReconstructor",
    "CycleMove",
    "MontgomeryReducer",
    "Prime",
    "PrimePool",
    "ReductionCost",
    "RescalingCycle",
    "ShoupReducer",
    "SignedMontgomeryReducer",
    "digit_ranges",
    "enumerate_moves",
    "find_rescaling_cycle",
    "is_prime",
    "make_reducer",
    "ntt_friendly_primes",
    "primitive_root_of_unity",
]
