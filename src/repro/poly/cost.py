"""Instruction-count pricing for polynomial kernels (Table 3, §4).

The paper prices every kernel in equivalent int32 instructions, because the
GPU's 32-bit integer datapath is the scarce resource CKKS arithmetic fights
over.  This module rolls the per-modmul costs of
:data:`repro.rns.reduction.REDUCTION_COSTS` up into per-operation counts for
the polynomial layer: one NTT butterfly is one modular multiply plus two
modular additions, an N-point NTT is ``(N/2) * log2(N)`` butterflies, and so
on up through basis conversion, the two halves of the hybrid key switch and
rescale.  :meth:`repro.scheme._circuit.CircuitPlan.cost` sums these entries
over a compiled plan's steps; that sum is the one priced output.

The counts are *nominal* arithmetic instruction counts: memory traffic is
not priced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.rns.primes import digit_ranges
from repro.rns.reduction import REDUCTION_COSTS

#: int32 instructions per modular addition: one 32-bit add, then a
#: compare-and-conditional-subtract (set-predicate + subtract-with-select
#: fuse to one instruction on the modeled datapath).
MODADD_INSTRS = 2

#: int32 instructions per *raw* 64-bit add (no reduction attached): two,
#: through the 32-bit datapath.  §4.2's lazy accumulation trades per-term
#: modadds for these.
RAW64_INSTRS = 2


@dataclass(frozen=True)
class OpCost:
    """Arithmetic cost of one polynomial-layer operation.

    Attributes:
        method: reduction method pricing the modmuls.
        modmuls: modular multiplications performed.
        modadds: modular additions/subtractions performed.
        raw_adds64: unreduced 64-bit adds (§4.2 deferred folds); priced
            at :data:`RAW64_INSTRS` each.
    """

    method: str
    modmuls: int
    modadds: int
    raw_adds64: int = 0
    #: pre-priced int32 instructions from sub-kernels running under a
    #: *different* reduction method than ``method`` — the basis-conversion
    #: layer always executes Shoup chains, so a composite like key
    #: switching under an SMR NTT backend carries its conversion cost
    #: here, already multiplied out.
    extra_int32: int = 0

    @property
    def int32_instrs(self) -> int:
        """Total equivalent int32 instructions (Table 3 pricing)."""
        per_mul = REDUCTION_COSTS[self.method].total_instrs
        return (
            self.modmuls * per_mul
            + self.modadds * MODADD_INSTRS
            + self.raw_adds64 * RAW64_INSTRS
            + self.extra_int32
        )

    def scaled(self, factor: int) -> OpCost:
        return OpCost(
            self.method,
            self.modmuls * factor,
            self.modadds * factor,
            self.raw_adds64 * factor,
            self.extra_int32 * factor,
        )


def _merge(a: OpCost, b: OpCost) -> OpCost:
    """Field-wise sum of two same-method costs."""
    if a.method != b.method:
        raise ParameterError(
            f"cannot merge {a.method!r} and {b.method!r} costs field-wise"
        )
    return OpCost(
        a.method,
        a.modmuls + b.modmuls,
        a.modadds + b.modadds,
        a.raw_adds64 + b.raw_adds64,
        a.extra_int32 + b.extra_int32,
    )


class CostModel:
    """Table-3-style instruction counts for one (N, num_limbs, method).

    Each kernel entry returns an :class:`OpCost` for one call at this
    level.
    """

    def __init__(self, ring_degree: int, num_limbs: int, method: str) -> None:
        if method not in REDUCTION_COSTS:
            raise ParameterError(f"unknown reduction method {method!r}")
        if ring_degree < 2 or ring_degree & (ring_degree - 1):
            raise ParameterError(
                f"ring degree {ring_degree} is not a power of two"
            )
        self.n = ring_degree
        self.log_n = ring_degree.bit_length() - 1
        self.num_limbs = num_limbs
        self.method = method

    # -- single-limb building blocks ---------------------------------------
    @property
    def butterflies_per_ntt(self) -> int:
        return (self.n // 2) * self.log_n

    def ntt(self) -> OpCost:
        """One forward NTT on one limb: (N/2)·log2(N) butterflies.

        Each butterfly spends one twiddle modmul and two modadds.
        """
        return OpCost(
            self.method,
            modmuls=self.butterflies_per_ntt,
            modadds=2 * self.butterflies_per_ntt,
        )

    def intt(self) -> OpCost:
        """Inverse NTT: forward's butterflies plus the N-point n^-1 scale."""
        base = self.ntt()
        return OpCost(self.method, modmuls=base.modmuls + self.n, modadds=base.modadds)

    def pointwise(self) -> OpCost:
        """N element-wise modmuls on one limb.

        Shoup pays an on-the-fly companion precompute per element (charged
        as one extra modmul-equivalent each) because pointwise operands are
        data, not constants — Table 3's "many constants" drawback.
        """
        shoup_extra = self.n if self.method == "shoup" else 0
        return OpCost(self.method, modmuls=self.n + shoup_extra, modadds=0)

    # -- full RNS operations -----------------------------------------------
    def add(self) -> OpCost:
        return OpCost(self.method, modmuls=0, modadds=self.n * self.num_limbs)

    def multiply_accumulate(self, terms: int) -> OpCost:
        """Fused inner product of ``terms`` NTT-domain pairs (§4.2).

        The key-switching shape: ``N * num_limbs`` lanes, each summing
        ``terms`` modular products.  Each term pays one modmul but every
        fold is deferred — partial sums ride as raw 64-bit adds, and one
        terminal fold per lane (priced as one modmul-equivalent short
        Barrett chain) replaces the per-term modadd a naive
        multiply-then-add chain would pay.
        """
        if terms < 1:
            raise ParameterError(
                f"multiply_accumulate needs at least one term, got {terms}"
            )
        lanes = self.n * self.num_limbs
        return OpCost(
            self.method,
            modmuls=(terms + 1) * lanes,  # products + terminal fold per lane
            modadds=0,
            raw_adds64=terms * lanes,
        )

    # -- basis conversion / key switching (§4.3) ---------------------------
    def basis_convert(self, l_in: int, l_out: int) -> OpCost:
        """Fast basis extension of ``l_in`` source onto ``l_out`` target limbs.

        Always priced under Shoup (``method="shoup"``): the production
        :class:`~repro.poly.basis_conv.BasisConverter` runs canonical
        uint64 Shoup chains whatever NTT backend the context uses.  Per
        coefficient: ``l_in`` scale modmuls, the ``l_out × l_in`` CRT
        matrix modmuls with their folds deferred as raw 64-bit adds, one
        v-correction modmul + add per output limb, and one terminal fold
        per output lane (priced as one modmul-equivalent short Barrett
        chain, the :meth:`multiply_accumulate` convention).  The float64
        v-term itself runs on the FP datapath and is free in this int32
        model.
        """
        if l_in < 1 or l_out < 1:
            raise ParameterError(
                f"basis_convert needs l_in, l_out >= 1, got {l_in}, {l_out}"
            )
        n = self.n
        return OpCost(
            "shoup",
            modmuls=n * (l_in + l_in * l_out + l_out + l_out),
            modadds=0,
            raw_adds64=n * (l_in * l_out + l_out),
        )

    def mod_up(self, num_aux: int, *, dnum: int = 1) -> OpCost:
        """ModUp: every digit extended onto the ``L + num_aux`` basis.

        Digit ``d`` (``s_d`` limbs) converts onto the ``L + K - s_d``
        complement rows; the digit rows themselves are copies (free in
        the arithmetic model).  Priced under Shoup like
        :meth:`basis_convert`.
        """
        ext = self.num_limbs + num_aux
        total = OpCost("shoup", 0, 0)
        # The same partition the executor uses (one source of truth).
        for lo, hi in digit_ranges(self.num_limbs, dnum):
            total = _merge(total, self.basis_convert(hi - lo, ext - (hi - lo)))
        return total

    def mod_down(self, num_aux: int) -> OpCost:
        """ModDown of an ``L + num_aux``-limb element back onto ``L``.

        One ``num_aux -> L`` conversion plus, per surviving lane, one
        fold-subtract and one ``P^-1`` Shoup modmul.
        """
        if num_aux < 1:
            raise ParameterError(f"mod_down needs num_aux >= 1, got {num_aux}")
        conv = self.basis_convert(num_aux, self.num_limbs)
        lanes = self.n * self.num_limbs
        return OpCost(
            "shoup",
            modmuls=conv.modmuls + lanes,
            modadds=conv.modadds + lanes,
            raw_adds64=conv.raw_adds64,
        )

    # -- the hybrid key switch (§4.2/§4.3), split at the hoisting boundary --
    # Method-priced parts run on the context's NTT backend; the ModUp /
    # ModDown conversions always run Shoup chains and ride along
    # pre-priced in ``extra_int32``.
    def ks_shared(self, num_aux: int, *, dnum: int = 1) -> OpCost:
        """ModUp of every digit + ``dnum`` extended-basis forward NTTs.

        Input-only work: a hoisted group of rotations pays it once.
        """
        ext = self.num_limbs + num_aux
        fwd = self.ntt()
        return OpCost(
            self.method,
            modmuls=dnum * ext * fwd.modmuls,
            modadds=dnum * ext * fwd.modadds,
            extra_int32=self.mod_up(num_aux, dnum=dnum).int32_instrs,
        )

    def ks_finish(self, num_aux: int, *, dnum: int = 1) -> OpCost:
        """Two-half MAC + terminal folds + two extended inverse NTTs +
        two ModDowns.

        Per-output work: every key switch pays it.  The MAC is the
        :meth:`multiply_accumulate` shape over the ``L + num_aux`` rows,
        ``dnum`` terms, once per half.
        """
        ext = self.num_limbs + num_aux
        inv = self.intt()
        lanes = self.n * ext
        return OpCost(
            self.method,
            modmuls=2 * (dnum + 1) * lanes + 2 * ext * inv.modmuls,
            modadds=2 * ext * inv.modadds,
            raw_adds64=2 * dnum * lanes,
            extra_int32=2 * self.mod_down(num_aux).int32_instrs,
        )

    def automorphism(self, domain: str = "coeff") -> OpCost:
        """Galois ``sigma_k`` on all limbs: cached index-permutation passes.

        The coefficient-domain action pays one conditional negation per
        lane for the wrapped columns (priced as a modadd); the
        NTT-domain action is a *pure* slot permutation — zero arithmetic
        on the int32 datapath (only memory traffic, which this model
        does not price).  Either way there are no modmuls.
        """
        if domain not in ("coeff", "ntt"):
            raise ParameterError(f"unknown domain {domain!r}")
        modadds = self.n * self.num_limbs if domain == "coeff" else 0
        return OpCost(self.method, modmuls=0, modadds=modadds)

    def rescale(self) -> OpCost:
        """Exact rescale: per surviving limb, N subtracts and N modmuls."""
        limbs = self.num_limbs - 1
        if limbs < 1:
            raise ParameterError("rescale needs at least two limbs")
        return OpCost(self.method, modmuls=self.n * limbs, modadds=self.n * limbs)
