"""The op table: each homomorphic op defined once.

Every consumer of an op's semantics reads the same entry of :data:`OPS`:

* the eager :class:`~repro.scheme.evaluator.Evaluator` runs an entry's
  ``check`` and then ``apply``;
* :class:`~repro.scheme._circuit.CircuitTracer` runs the same ``check``
  and records the ``scale`` and ``ctx`` rules instead of computing;
* the circuit planner reads the four flags, and the
  :class:`~repro.scheme._circuit.CircuitPlan` executor runs ``apply``
  with the key switchers, accumulators, hoist tensors and encodings it
  captured at compile time;
* :func:`repro.analysis.check_plan` replays ``validate``, ``scale`` and
  ``noise`` and the flags over a step list without running it.

Because the executor and the analyzer evaluate the very functions the
eager path evaluates, compiled limbs, scales and noise floats are
bit-identical to eager by construction.

An entry (an :class:`Op`) holds:

* ``validate`` — operand soundness on ciphertext metadata alone (level,
  context, scale), so it runs on real, traced and abstract operands;
  ``check`` adds the switching-key lookup through the evaluator;
* ``compute`` — the arithmetic on the component polynomials;
* ``scale`` / ``noise`` / ``ctx`` — the transfer rules.  Noise is the
  heuristic ``log2 |noise|`` estimate of :attr:`Ciphertext.noise_bits`,
  good for budgeting and test assertions, nothing cryptographic;
* the flags ``ntt_operand``, ``keeps_ntt``, ``absorbs_rescale`` and
  ``raises_scale``.

Operands follow one convention throughout: ``cts`` is the sequence of
ciphertext operands (anything carrying ``level`` / ``scale`` / ``ctx``
and, for the noise rules, ``noise_bits``), ``arg`` the op's other
argument — a :class:`Plaintext` (``add_plain``, ``multiply_plain``), one
per term (``mac``), the Galois element (``galois``) or ``None`` — and
``key`` the switching key the op consumes, or ``None``.
"""

from __future__ import annotations

import math

from repro.errors import KeyError_, LevelError, ParameterError, ScaleMismatchError
from repro.poly.ntt import automorphism_tables
from repro.poly.rns_poly import COEFF, RnsPolynomial
from repro.scheme.ciphertext import Ciphertext

#: relative slack within which two operand scales still count as equal
SCALE_RTOL = 1e-9


def combine_bits(a: float, b: float) -> float:
    """``log2(2^a + 2^b)`` without leaving log space."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


class NoiseModel:
    """The ring-wide constants the noise rules read.

    ``fresh_bits`` is a fresh encryption's noise ``|v*e + e0 + e1*s|``
    with ternary ``v``, ``s``: a ``sigma * sqrt(2N)`` spread, padded 8x
    for the tail.
    """

    def __init__(self, ring_degree: int, sigma: float) -> None:
        self.ring_degree = int(ring_degree)
        self.sigma = float(sigma)
        self.half_n = 0.5 * math.log2(self.ring_degree)
        self.fresh_bits = math.log2(
            8.0 * self.sigma * math.sqrt(2.0 * self.ring_degree)
        )

    def key_switch_bits(self, ksk) -> float:
        """Key-switching noise: the ``sum_d x_d e_d / P`` spread."""
        return math.log2(self.sigma * ksk.dnum * self.ring_degree)


# -- operand checks ------------------------------------------------------------
def scales_match(sa: float, sb: float) -> bool:
    return math.isclose(sa, sb, rel_tol=SCALE_RTOL)


def check_scales(sa: float, sb: float, op: str) -> None:
    if not scales_match(sa, sb):
        raise ScaleMismatchError(
            f"{op}: scale mismatch: 2^{math.log2(sa):.3f} vs "
            f"2^{math.log2(sb):.3f}; rescale/re-encode to a common scale first"
        )


def check_context(ctx, other, op: str) -> None:
    reason = ctx.mismatch_reason(other)
    if reason is not None:
        raise ParameterError(f"{op}: {reason}")


def check_pair(a, b, op: str) -> None:
    if a.level != b.level:
        raise LevelError(
            f"{op}: level mismatch: {a.level} vs {b.level} live limbs "
            "(rescale the higher-level operand down first)"
        )
    check_context(a.ctx, b.ctx, op)


def check_key_level(ksk, primes, level: int, op: str) -> None:
    if tuple(ksk.base_primes) != tuple(primes):
        raise KeyError_(
            f"{op}: key was generated for a {len(ksk.base_primes)}-limb "
            f"basis but the ciphertext sits at level {level}; key switching "
            "below the keygen level needs a key_source "
            "(Evaluator.from_keygen wires one)"
        )


def materialize(ct: Ciphertext) -> Ciphertext:
    """Coefficient-domain view of a (possibly NTT-domain) ciphertext."""
    if ct.domain == COEFF:
        return ct
    return Ciphertext(
        ct.c0.to_coeff(), ct.c1.to_coeff(), scale=ct.scale, noise_bits=ct.noise_bits
    )


# -- the entries ---------------------------------------------------------------
class Op:
    """One op-table entry; subclasses override what differs."""

    name = ""
    #: accepts an NTT-domain operand without forcing an inverse transform
    ntt_operand = False
    #: its result may stay in the NTT domain for NTT-accepting consumers
    keeps_ntt = False
    #: a following single-consumer rescale can fuse into its step (it
    #: materializes coefficient-domain components anyway)
    absorbs_rescale = False
    #: multiplies the scale, so a rescale after it is earned
    raises_scale = False
    #: the result does not depend on the operand order
    commutative = False

    def validate(self, cts, arg) -> None:
        """Raise if the operands cannot be combined soundly."""

    def check(self, ev, cts, arg):
        """:meth:`validate`, then the switching key ``ev`` holds for the op."""
        self.validate(cts, arg)
        return None

    def ctx(self, cts):
        return cts[0].ctx

    def scale(self, cts, arg) -> float:
        return cts[0].scale

    def noise(self, cts, arg, key, model: NoiseModel) -> float:
        return cts[0].noise_bits

    def compute(self, cts, arg, key, **res):
        """The result's ``(c0, c1)``; ``res`` carries captured resources."""
        raise NotImplementedError

    def apply(self, cts, arg, key, model: NoiseModel, **res) -> Ciphertext:
        c0, c1 = self.compute(cts, arg, key, **res)
        return Ciphertext(
            c0,
            c1,
            scale=self.scale(cts, arg),
            noise_bits=self.noise(cts, arg, key, model),
        )


class _Linear(Op):
    ntt_operand = True
    keeps_ntt = True

    def validate(self, cts, arg) -> None:
        a, b = cts
        check_pair(a, b, self.name)
        check_scales(a.scale, b.scale, self.name)

    def noise(self, cts, arg, key, model) -> float:
        return combine_bits(cts[0].noise_bits, cts[1].noise_bits)


class Add(_Linear):
    name = "add"

    def compute(self, cts, arg, key):
        a, b = cts
        return a.c0.add(b.c0), a.c1.add(b.c1)


class Sub(_Linear):
    name = "sub"

    def compute(self, cts, arg, key):
        a, b = cts
        return a.c0.sub(b.c0), a.c1.sub(b.c1)


class Negate(Op):
    name = "negate"
    ntt_operand = True
    keeps_ntt = True

    def compute(self, cts, arg, key):
        (ct,) = cts
        return ct.c0.negate(), ct.c1.negate()


class AddPlain(Op):
    name = "add_plain"

    def validate(self, cts, pt) -> None:
        (ct,) = cts
        check_scales(ct.scale, pt.scale, self.name)
        check_context(ct.ctx, pt.ctx, self.name)

    def compute(self, cts, pt, key):
        (ct,) = cts
        return ct.c0.to_coeff().add(pt.poly.to_coeff()), ct.c1.to_coeff()


class MultiplyPlain(Op):
    """Scale-multiplying plaintext product of both components."""

    name = "multiply_plain"
    ntt_operand = True
    keeps_ntt = True
    absorbs_rescale = True
    raises_scale = True

    def validate(self, cts, pt) -> None:
        check_context(cts[0].ctx, pt.ctx, self.name)

    def scale(self, cts, pt) -> float:
        return cts[0].scale * pt.scale

    def noise(self, cts, pt, key, model) -> float:
        return cts[0].noise_bits + math.log2(pt.scale) + model.half_n

    def compute(self, cts, pt, key, p_ntt=None):
        (ct,) = cts
        if p_ntt is None:
            p_ntt = pt.poly.to_ntt()
        return (
            ct.c0.to_ntt().pointwise_multiply(p_ntt),
            ct.c1.to_ntt().pointwise_multiply(p_ntt),
        )


class Mac(Op):
    """``sum_i pt_i * ct_i`` as one fused NTT-domain MAC per component.

    Exactly the multiply_plain-then-add chain it replaces: the NTT is
    linear over each limb's ring and the lazy accumulator folds to the
    same canonical residues.  The planner forms it from the trace; eager
    BSGS matvec calls it for each giant step's inner sum.
    """

    name = "mac"
    ntt_operand = True
    keeps_ntt = True
    absorbs_rescale = True
    raises_scale = True

    def scale(self, cts, pts) -> float:
        return cts[0].scale * pts[0].scale

    def noise(self, cts, pts, key, model) -> float:
        noise = None
        for ct, pt in zip(cts, pts):
            bits = MULTIPLY_PLAIN.noise((ct,), pt, None, model)
            noise = bits if noise is None else combine_bits(noise, bits)
        return noise

    def compute(self, cts, pts, key, p_ntts=None, acc=None):
        if p_ntts is None:
            p_ntts = [pt.poly.to_ntt() for pt in pts]
        c0 = RnsPolynomial.multiply_accumulate(
            [ct.c0.to_ntt() for ct in cts], p_ntts, acc=acc
        )
        c1 = RnsPolynomial.multiply_accumulate(
            [ct.c1.to_ntt() for ct in cts], p_ntts, acc=acc
        )
        return c0, c1


class Multiply(Op):
    """HMult fused with relinearization.

    Tensor the two pairs in the NTT domain (four forward transforms, the
    cross terms through one fused multiply-accumulate), then switch the
    degree-2 component back to the ``(1, s)`` basis through the
    relinearization key's switcher.
    """

    name = "multiply"
    ntt_operand = True
    absorbs_rescale = True
    raises_scale = True
    # the tensor components and the noise estimate are symmetric in the
    # operands, so a*b and b*a may share one traced node
    commutative = True

    def validate(self, cts, arg) -> None:
        check_pair(cts[0], cts[1], self.name)

    def check(self, ev, cts, arg):
        self.validate(cts, arg)
        return ev._relin_for(cts[0], self.name)

    def scale(self, cts, arg) -> float:
        return cts[0].scale * cts[1].scale

    def noise(self, cts, arg, relin, model) -> float:
        a, b = cts
        return combine_bits(
            combine_bits(
                a.noise_bits + math.log2(b.scale),
                b.noise_bits + math.log2(a.scale),
            )
            + model.half_n,
            model.key_switch_bits(relin),
        )

    def compute(self, cts, arg, relin, switcher=None, acc=None):
        a, b = cts
        if switcher is None:
            switcher = a.ctx.key_switcher(relin.aux_primes, relin.dnum)
        a0, a1 = a.c0.to_ntt(), a.c1.to_ntt()
        b0, b1 = b.c0.to_ntt(), b.c1.to_ntt()
        t0 = a0.pointwise_multiply(b0)
        t1 = RnsPolynomial.multiply_accumulate([a0, a1], [b1, b0], acc=acc)
        t2 = a1.pointwise_multiply(b1)
        d0, d1 = switcher.run(t2, relin)
        return t0.to_coeff().add(d0), t1.to_coeff().add(d1)


class Galois(Op):
    """``sigma_k`` of the ciphertext, switched back under ``s``.

    Runs the hoisted schedule even for one element: ModUp + extended
    forward NTT of every digit (``switcher.hoist``), then the automorphism
    as a pure NTT-domain slot permutation of the hoisted digits, then
    MAC / fold / ModDown.  Passing a shared ``hoisted`` tensor is
    Halevi–Shoup hoisting, bit-identical to hoisting per element.
    """

    name = "galois"
    absorbs_rescale = True

    def check(self, ev, cts, k):
        return ev._galois_for(k, cts[0], "apply_galois")

    def noise(self, cts, k, ksk, model) -> float:
        return combine_bits(cts[0].noise_bits, model.key_switch_bits(ksk))

    def compute(self, cts, k, ksk, switcher=None, hoisted=None, perm=None):
        (ct,) = cts
        if switcher is None:
            switcher = ct.ctx.key_switcher(ksk.aux_primes, ksk.dnum)
        if hoisted is None:
            hoisted = switcher.hoist(ct.c1)
        if perm is None:
            perm = automorphism_tables(ct.ctx.ring_degree, k)[2]
        d0, d1 = switcher.run_hoisted(hoisted, ksk, perm=perm)
        return ct.c0.to_coeff().automorphism(k).add(d0), d1


class Rescale(Op):
    """Drop the last limb from both components, dividing the scale."""

    name = "rescale"

    def validate(self, cts, arg) -> None:
        level = cts[0].level
        if level < 2:
            raise LevelError(
                f"cannot rescale a level-{level} ciphertext: "
                "no limb left to drop"
            )

    def ctx(self, cts):
        return cts[0].ctx.drop_last()

    def scale(self, cts, arg) -> float:
        return cts[0].scale / cts[0].ctx.primes[-1]

    def noise(self, cts, arg, key, model) -> float:
        q_last = cts[0].ctx.primes[-1]
        # exact rounding adds up to 1/2 per coefficient: a noise floor
        return max(cts[0].noise_bits - math.log2(q_last), model.half_n + 1.0)

    def compute(self, cts, arg, key):
        (ct,) = cts
        return ct.c0.to_coeff().exact_rescale(), ct.c1.to_coeff().exact_rescale()


ADD = Add()
SUB = Sub()
NEGATE = Negate()
ADD_PLAIN = AddPlain()
MULTIPLY_PLAIN = MultiplyPlain()
MAC = Mac()
MULTIPLY = Multiply()
GALOIS = Galois()
RESCALE = Rescale()

#: the table: op name (= trace-node op = plan-step kind) -> entry
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        ADD, SUB, NEGATE, ADD_PLAIN, MULTIPLY_PLAIN, MAC, MULTIPLY, GALOIS, RESCALE
    )
}
