"""Instruction-count pricing for polynomial kernels (Table 3, §4).

The paper prices every kernel in equivalent int32 instructions, because the
GPU's 32-bit integer datapath is the scarce resource CKKS arithmetic fights
over.  This module rolls the per-modmul costs of
:data:`repro.rns.reduction.REDUCTION_COSTS` up into per-operation counts for
the polynomial layer: one NTT butterfly is one modular multiply plus two
modular additions, an N-point NTT is ``(N/2) * log2(N)`` butterflies, and so
on up through full RNS polynomial multiply and rescale.

The counts are *nominal* arithmetic instruction counts — memory traffic and
the per-constant precomputation Shoup needs (its ``extra_consts = -1``
sentinel in Table 3) are tracked separately as ``twiddle_consts`` so the
memory-bound analysis of later PRs can price them differently.
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

#: int32 instructions per *raw* 64-bit operation (a mulwide or a 64-bit
#: add with no reduction attached): two, through the 32-bit datapath.
#: §4.2's lazy accumulation trades modmuls/modadds for these.
RAW64_INSTRS = 2


@dataclass(frozen=True)
class OpCost:
    """Arithmetic cost of one polynomial-layer operation.

    Attributes:
        name: operation label (e.g. ``"ntt"``, ``"rescale"``).
        method: reduction method pricing the modmuls.
        modmuls: modular multiplications performed.
        modadds: modular additions/subtractions performed.
        twiddle_consts: precomputed per-prime table entries the op reads
            (twiddles, Shoup companions, inverse factors).
        raw_muls64: unreduced 64-bit multiplies (deferred-reduction §4.2
            accumulation); priced at :data:`RAW64_INSTRS` each.
        raw_adds64: unreduced 64-bit adds (deferred folds); same pricing.
    """

    name: str
    method: str
    modmuls: int
    modadds: int
    twiddle_consts: int = 0
    raw_muls64: int = 0
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
            + (self.raw_muls64 + self.raw_adds64) * RAW64_INSTRS
            + self.extra_int32
        )

    def scaled(self, factor: int, name: str | None = None) -> OpCost:
        return OpCost(
            name or self.name,
            self.method,
            self.modmuls * factor,
            self.modadds * factor,
            self.twiddle_consts * factor,
            self.raw_muls64 * factor,
            self.raw_adds64 * factor,
            self.extra_int32 * factor,
        )


def _merge(a: OpCost, b: OpCost) -> OpCost:
    """Field-wise sum of two same-method costs, keeping ``a``'s name."""
    if a.method != b.method:
        raise ParameterError(
            f"cannot merge {a.method!r} and {b.method!r} costs field-wise"
        )
    return OpCost(
        a.name,
        a.method,
        a.modmuls + b.modmuls,
        a.modadds + b.modadds,
        a.twiddle_consts + b.twiddle_consts,
        a.raw_muls64 + b.raw_muls64,
        a.raw_adds64 + b.raw_adds64,
        a.extra_int32 + b.extra_int32,
    )


class CostModel:
    """Table-3-style instruction counts for one (N, num_limbs, method).

    Each method returns an :class:`OpCost`; :meth:`table` renders the whole
    operation set the way Table 3 renders reducers — one row per op with
    its modmul/modadd/int32 totals.
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

        Each butterfly spends one twiddle modmul and two modadds; the
        twiddle table holds N entries (2N for Shoup with companions).
        """
        shoup = 2 if self.method == "shoup" else 1
        return OpCost(
            "ntt",
            self.method,
            modmuls=self.butterflies_per_ntt,
            modadds=2 * self.butterflies_per_ntt,
            twiddle_consts=self.n * shoup,
        )

    def intt(self) -> OpCost:
        """Inverse NTT: forward's butterflies plus the N-point n^-1 scale.

        The n^-1 factor is one more stored constant — two under Shoup,
        which precomputes a companion for it just like any other twiddle.
        """
        base = self.ntt()
        shoup = 2 if self.method == "shoup" else 1
        return OpCost(
            "intt",
            self.method,
            modmuls=base.modmuls + self.n,
            modadds=base.modadds,
            twiddle_consts=base.twiddle_consts + shoup,
        )

    def pointwise(self) -> OpCost:
        """N element-wise modmuls on one limb.

        Shoup pays an on-the-fly companion precompute per element (charged
        as one extra modmul-equivalent each) because pointwise operands are
        data, not constants — Table 3's "many constants" drawback.
        """
        shoup_extra = self.n if self.method == "shoup" else 0
        return OpCost(
            "pointwise", self.method, modmuls=self.n + shoup_extra, modadds=0
        )

    # -- full RNS operations -----------------------------------------------
    def add(self) -> OpCost:
        return OpCost(
            "add", self.method, modmuls=0, modadds=self.n * self.num_limbs
        )

    def poly_multiply(self) -> OpCost:
        """Full RNS negacyclic multiply: per limb, 2 NTT + pointwise + iNTT.

        Each limb prime carries its own twiddle tables, so the constant
        traffic scales with limbs exactly like the arithmetic does.
        """
        fwd, pw, inv = self.ntt(), self.pointwise(), self.intt()
        return OpCost(
            "poly_multiply",
            self.method,
            modmuls=(2 * fwd.modmuls + pw.modmuls + inv.modmuls)
            * self.num_limbs,
            modadds=(2 * fwd.modadds + pw.modadds + inv.modadds)
            * self.num_limbs,
            twiddle_consts=(fwd.twiddle_consts + inv.twiddle_consts)
            * self.num_limbs,
        )

    def multiply_accumulate(
        self, terms: int, *, strategy: str = "reduced"
    ) -> OpCost:
        """Fused inner product of ``terms`` NTT-domain pairs (§4.2).

        The key-switching shape: ``N * num_limbs`` lanes, each summing
        ``terms`` modular products.  ``reduced`` pays one modmul per term
        but defers every fold — partial sums ride as raw 64-bit adds, and
        one terminal fold per lane (priced as one modmul-equivalent short
        Barrett chain) replaces the per-term modadd a naive
        multiply-then-add chain would pay.  ``raw`` (SMR only) defers the
        reductions too: each term is a bare 64-bit multiply and add, and a
        single Alg. 2 reduce per lane folds the whole sum.
        """
        if terms < 1:
            raise ParameterError(
                f"multiply_accumulate needs at least one term, got {terms}"
            )
        lanes = self.n * self.num_limbs
        if strategy == "raw":
            if self.method != "smr":
                raise ParameterError(
                    "raw accumulation needs SMR (§4.2): only Alg. 2 "
                    "tolerates unreduced 64-bit partial sums at its input"
                )
            return OpCost(
                "multiply_accumulate",
                self.method,
                modmuls=lanes,  # the one deferred reduce + fold per lane
                modadds=0,
                raw_muls64=terms * lanes,
                raw_adds64=terms * lanes,
            )
        if strategy != "reduced":
            raise ParameterError(f"unknown lazy strategy {strategy!r}")
        return OpCost(
            "multiply_accumulate",
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
            "basis_convert",
            "shoup",
            modmuls=n * (l_in + l_in * l_out + l_out + l_out),
            modadds=0,
            twiddle_consts=2 * l_in + 2 * l_in * l_out + 2 * l_out,
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
        total = OpCost("mod_up", "shoup", 0, 0)
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
            "mod_down",
            "shoup",
            modmuls=conv.modmuls + lanes,
            modadds=conv.modadds + lanes,
            twiddle_consts=conv.twiddle_consts + 2 * self.num_limbs,
            raw_adds64=conv.raw_adds64,
        )

    def key_switch(self, num_aux: int, *, dnum: int = 1) -> OpCost:
        """The fused hybrid key switch (§4.2/§4.3), both halves.

        Method-priced parts (the context's NTT backend): ``dnum``
        forward NTTs over the extended basis, the two-half MAC through
        the lazy accumulator, and the two extended inverses of the
        folded halves.  The conversion sub-kernels (ModUp / ModDown)
        always run Shoup chains and ride along pre-priced in
        ``extra_int32``.
        """
        ext = self.num_limbs + num_aux
        fwd = self.ntt()
        inv = self.intt()
        lanes = self.n * ext
        # dnum extended-basis forward transforms.
        modmuls = dnum * ext * fwd.modmuls
        modadds = dnum * ext * fwd.modadds
        consts = ext * (fwd.twiddle_consts + inv.twiddle_consts)
        # MAC: per half, one modmul per term per lane, deferred folds as
        # raw 64-bit adds, one terminal fold per lane.
        modmuls += 2 * (dnum + 1) * lanes
        raw_adds = 2 * dnum * lanes
        # Two extended inverse transforms, one per folded half.
        modmuls += 2 * ext * inv.modmuls
        modadds += 2 * ext * inv.modadds
        conversions = [self.mod_down(num_aux), self.mod_down(num_aux)]
        conversions.append(self.mod_up(num_aux, dnum=dnum))
        # mod_down was counted twice (one per half); mod_up covers all
        # digits already.
        extra = sum(c.int32_instrs for c in conversions)
        consts += sum(c.twiddle_consts for c in conversions[1:])
        return OpCost(
            "key_switch",
            self.method,
            modmuls=modmuls,
            modadds=modadds,
            twiddle_consts=consts,
            raw_adds64=raw_adds,
            extra_int32=extra,
        )

    def automorphism(self, domain: str = "coeff") -> OpCost:
        """Galois ``sigma_k`` on all limbs: cached index-permutation passes.

        The coefficient-domain action pays one conditional negation per
        lane for the wrapped columns (priced as a modadd); the
        NTT-domain action is a *pure* slot permutation — zero arithmetic
        on the int32 datapath (only memory traffic, which this model
        does not price).  Either way there are no modmuls and no table
        constants: the per-``(N, k)`` index tables are integer metadata,
        not modular constants.
        """
        if domain not in ("coeff", "ntt"):
            raise ParameterError(f"unknown domain {domain!r}")
        modadds = self.n * self.num_limbs if domain == "coeff" else 0
        return OpCost("automorphism", self.method, modmuls=0, modadds=modadds)

    def rescale(self) -> OpCost:
        """Exact rescale: per surviving limb, N subtracts and N modmuls."""
        limbs = self.num_limbs - 1
        if limbs < 1:
            raise ParameterError("rescale needs at least two limbs")
        return OpCost(
            "rescale",
            self.method,
            modmuls=self.n * limbs,
            modadds=self.n * limbs,
            twiddle_consts=limbs,  # q_last^-1 mod q_i per limb
        )

    # -- reporting ---------------------------------------------------------
    def operations(self) -> list[OpCost]:
        """Representative op set for :meth:`table` (one aux limb, one
        digit for the key-switching rows)."""
        return [
            self.ntt(),
            self.intt(),
            self.pointwise(),
            self.add(),
            self.poly_multiply(),
            self.multiply_accumulate(2),
            self.rescale(),
            self.basis_convert(self.num_limbs, self.num_limbs),
            self.mod_up(1),
            self.mod_down(1),
            self.key_switch(1),
        ]

    def table(self) -> str:
        """Render per-operation instruction counts, Table-3 style."""
        header = (
            f"N={self.n}, limbs={self.num_limbs}, method={self.method} "
            f"(modmul = {REDUCTION_COSTS[self.method].total_instrs} int32 "
            f"instrs, range {REDUCTION_COSTS[self.method].output_range})"
        )
        rows = [header, f"{'op':<20}{'modmul':>10}{'modadd':>10}"
                f"{'raw64':>10}{'consts':>8}{'int32':>12}"]
        for op in self.operations():
            rows.append(
                f"{op.name:<20}{op.modmuls:>10}{op.modadds:>10}"
                f"{op.raw_muls64 + op.raw_adds64:>10}"
                f"{op.twiddle_consts:>8}{op.int32_instrs:>12}"
            )
        return "\n".join(rows)


def compare_methods(ring_degree: int, num_limbs: int) -> dict[str, int]:
    """int32 instructions for a full RNS multiply under each Table-3 method."""
    return {
        method: CostModel(ring_degree, num_limbs, method)
        .poly_multiply()
        .int32_instrs
        for method in REDUCTION_COSTS
    }
