"""Scheme layer: RLWE ciphertexts, SIMD encoding, and the evaluator.

Built on :mod:`repro.poly`: keys ride the hybrid key-switching pipeline,
rotations ride the Galois index-permutation kernels and the hoisted
(shared-ModUp) schedule, rescaling rides ``exact_rescale`` — and
:class:`SchemeCostModel` prices each composite op as a sum of the
already-priced Table-3 kernels.  Each homomorphic op is defined once,
in the op table :mod:`repro.scheme.ops`, which the :class:`Evaluator`,
the circuit compiler and the static analyzer all read.
:class:`CanonicalEncoder` packs complex slot vectors through the
canonical embedding (rotations become cyclic slot shifts), and
:class:`ReferenceEvaluator` is the exact big-int/CRT plaintext-side
oracle — now with direct slot semantics — the end-to-end tests compare
against.
"""

from repro.scheme._circuit import CircuitPlan, TracedCiphertext
from repro.scheme._linalg import bsgs_split
from repro.scheme.ciphertext import Ciphertext, Plaintext
from repro.scheme.cost import SchemeCostModel
from repro.scheme.encoder import CanonicalEncoder, special_fft, special_ifft
from repro.scheme.evaluator import Evaluator
from repro.scheme.keys import (
    DEFAULT_SIGMA,
    KeyGenerator,
    PublicKey,
    SecretKey,
    conjugation_element,
    galois_element,
    lift_signed,
    sample_error,
    sample_ternary,
)
from repro.scheme.reference import ReferenceEvaluator

__all__ = [
    "DEFAULT_SIGMA",
    "CanonicalEncoder",
    "Ciphertext",
    "CircuitPlan",
    "Evaluator",
    "KeyGenerator",
    "Plaintext",
    "PublicKey",
    "ReferenceEvaluator",
    "SchemeCostModel",
    "SecretKey",
    "TracedCiphertext",
    "bsgs_split",
    "conjugation_element",
    "galois_element",
    "lift_signed",
    "sample_error",
    "sample_ternary",
    "special_fft",
    "special_ifft",
]
