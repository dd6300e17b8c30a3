"""Level-1 kernel range analysis: interval dataflow over the reducer algebra.

For a parameter family ``(primes, N, backend)`` this pass symbolically
propagates worst-case coefficient ranges through the batched NTT stage
kernels (:mod:`repro.poly.batch_ntt`), the reducer primitives
(``mullo32`` / ``mulhi32`` / ``mulmod`` / ``mulmod_cross``), the
branch-free ``min(s, s - q)`` folds and the ``exact_rescale`` constant
chain, records the lazy-accumulation headroom a fresh
:class:`~repro.poly.lazy.LazyAccumulator` admits (the reducer contract's
:meth:`~repro.rns.reduction.ReducerContract.lazy_bounds` rule, the one
the accumulator enforces) — and either *proves* uint32/uint64
non-overflow plus the 2q-lazy invariant, or reports the first violating
op with the offending range.  :func:`certify_kernels` is the entry
point; :meth:`~repro.poly.rns_poly.PolyContext.range_certificate`
caches its result per context.

The proof structure is induction on a per-limb *stage invariant* rather
than fixpoint iteration: the analyzer establishes the entry base case
(inputs are range-checked canonical residues), then shows one
Cooley-Tukey stage body and one Gentleman-Sande stage body each map the
invariant to itself using the limb's *exact* precomputed constants
(Barrett's ``mu`` halves, Shoup companions, Montgomery ``-q^-1``).  The
transposed tail phase reuses the same per-limb constants as repeated
rows (:class:`~repro.poly.batch_ntt._KernelBase` builds ``cT`` via
``np.repeat``), so per-limb soundness covers both layouts.  Reducer
output ranges that interval arithmetic alone cannot reproduce (Barrett's
``[0, 3q)`` residual, Alg. 2's ``(-q, q)``) enter as named *axioms*
whose preconditions the analyzer discharges exactly — they are the
:data:`~repro.rns.reduction.REDUCER_CONTRACTS`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.intervals import (
    UINT32_MAX,
    UINT64_MAX,
    Diagnostic,
    Interval,
    Obligation,
    lazy_fold,
)
from repro.errors import ParameterError, StaticAnalysisError
from repro.rns.reduction import REDUCER_CONTRACTS


class _Prover:
    """Collects named proof obligations; a failed check becomes an error."""

    def __init__(self, where: str) -> None:
        self.where = where
        self.obligations: list[Obligation] = []
        self.diagnostics: list[Diagnostic] = []

    def check(self, name: str, cond: bool, detail: str = "") -> bool:
        ok = bool(cond)
        self.obligations.append(Obligation(f"{self.where}: {name}", ok, detail))
        if not ok:
            self.diagnostics.append(
                Diagnostic("error", name, self.where, detail)
            )
        return ok

    def fold(self, name: str, x: Interval, sub: int, carrier_hi: int) -> Interval:
        """Abstract ``min(s, s - sub)`` with its soundness obligation: the
        pre-fold value is non-negative and fits the carrier (the unsigned
        wrap-select is then exact for any such input).  Whether the folded
        range actually reaches its target is a separate, explicit
        ``within`` obligation at each use site — ``exact_rescale``'s
        32-bit Barrett residual legitimately needs two folds."""
        self.check(
            f"{name}-fits-carrier",
            0 <= x.lo and x.hi <= carrier_hi,
            f"pre-fold value in {x}, carrier max {carrier_hi}",
        )
        return lazy_fold(x, sub)


# -- per-backend stage-kernel transfer functions ----------------------------
#
# Each function takes one limb modulus q and a prover, walks the kernel's
# _mul / _bfly / _gs op sequences on intervals, discharges every carrier
# and axiom obligation, and returns the inclusive per-limb stage-state
# bound it proved invariant (q - 1 canonical, 2q - 1 Barrett-lazy).


def _shoup_mul(q: int, p: _Prover, v: Interval) -> Interval:
    w = Interval(0, q - 1)  # canonical twiddles; precompute() enforced w < q
    w_sh = Interval(0, ((q - 1) << 32) // q)  # exact companion maximum
    prod = v * w_sh
    p.check("mul-v*w'-fits-uint64", prod.fits("uint64"), f"v*w' in {prod}")
    hi = prod >> 32
    p.check("mul-hi-fits-uint32", hi.fits("uint32"), f"mulhi32 in {hi}")
    # Shoup's lemma: a < 2^32 and w in [0, q) => (a*w - hi*q) mod 2^32
    # lands in [0, 2q); the wrapping uint32 subtraction is exact mod 2^32.
    p.check(
        "mul-lemma-precondition",
        v.hi <= UINT32_MAX and w.hi <= q - 1,
        f"a in {v}, w in {w}",
    )
    r = Interval(0, 2 * q - 2)
    return p.fold("mul", r, q, UINT32_MAX)


def _montgomery_mul(q: int, p: _Prover, v: Interval) -> Interval:
    tw = Interval(0, q - 1)  # Montgomery-form twiddles, strict-reduced
    prod = v * tw
    p.check("mul-product-fits-uint64", prod.fits("uint64"), f"v*tw in {prod}")
    m = Interval(0, UINT32_MAX)  # mullo32 wraps by construction
    mq = m * Interval.point(q)
    total = prod + mq
    p.check(
        "mul-p-plus-mq-fits-uint64",
        total.fits("uint64"),
        f"p + m*q in {total}",
    )
    # No axiom needed: the exact interval already bounds t below 2q.
    t = total >> 32
    p.check("mul-t-below-2q", t.hi <= 2 * q - 1, f"t in {t}")
    p.check("mul-t-fits-uint32", t.fits("uint32"), f"t in {t}")
    return p.fold("mul", t, q, UINT32_MAX)


def _smr_mul(q: int, p: _Prover, v: Interval) -> Interval:
    tw = Interval(-(q - 1), q - 1)  # signed Montgomery-form twiddles
    prod = v * tw
    p.check("mul-product-fits-int64", prod.fits("int64"), f"v*tw in {prod}")
    # Alg. 2's precondition |x| < q * 2^31, discharged exactly.
    p.check(
        "mul-alg2-precondition",
        prod.abs_max() <= q * 2**31 - 1,
        f"|v*tw| <= {prod.abs_max()} vs q*2^31 = {q * 2**31}",
    )
    z = Interval(-(2**31), 2**31 - 1)  # signed mullo32 wraps by construction
    zq = z * Interval.point(q)
    p.check("mul-z*q-fits-int64", zq.fits("int64"), f"z*q in {zq}")
    # Alg. 2's axiom: t = x_hi - mulhi32(z, q) lands in (-q, q).
    t = Interval(-(q - 1), q - 1)
    folded = t + Interval(0, q)  # branch-free sign mask adds q when t < 0
    canon = Interval(0, q - 1)
    p.check(
        "mul-canonicalized",
        canon.hi <= UINT32_MAX and t.lo + q >= 0 and t.hi <= q - 1,
        f"t in {t} folds into {canon}",
    )
    del folded
    return canon


def _barrett_mul(q: int, p: _Prover, v: Interval) -> Interval:
    tw = Interval(0, q - 1)
    x = v * tw
    p.check("mul-product-fits-uint64", x.fits("uint64"), f"v*tw in {x}")
    mu = (1 << 64) // q  # the limb's exact Barrett constant
    mu_hi, mu_lo = mu >> 32, mu & UINT32_MAX
    x_hi = x >> 32
    x_lo = Interval(0, min(x.hi, UINT32_MAX))
    t1 = x_lo * Interval.point(mu_hi)
    p.check("mul-xlo*muhi-fits-uint64", t1.fits("uint64"), f"in {t1}")
    t2 = x_lo * Interval.point(mu_lo)
    p.check("mul-xlo*mulo-fits-uint64", t2.fits("uint64"), f"in {t2}")
    t3 = x_hi * Interval.point(mu_lo)
    p.check("mul-xhi*mulo-fits-uint64", t3.fits("uint64"), f"in {t3}")
    mid = t1 + (t2 >> 32) + t3
    p.check("mul-mid-fits-uint64", mid.fits("uint64"), f"mid in {mid}")
    t4 = x_hi * Interval.point(mu_hi)
    q_hat = t4 + (mid >> 32)
    p.check("mul-qhat-fits-uint64", q_hat.fits("uint64"), f"q_hat in {q_hat}")
    qq = q_hat * Interval.point(q)
    p.check("mul-qhat*q-fits-uint64", qq.fits("uint64"), f"q_hat*q in {qq}")
    # Barrett's axiom (REDUCER_CONTRACTS["barrett"]): for any x < 2^64 the
    # residual r = x - q_hat*q of this exact half-word chain lies in
    # [0, 3q).  Precondition x < 2^64 was discharged above.
    r = Interval(0, 3 * q - 1)
    return p.fold("mul", r, 2 * q, UINT64_MAX)


def _canon32_stage(q: int, p: _Prover, mul) -> int:
    state = Interval(0, q - 1)  # entry base case: range-checked canonical
    p.check("state-fits-uint32", state.fits("uint32"), f"state in {state}")
    # CT butterfly: (u, t) -> (u + t, u + q - t), both folded once.
    t = mul(q, p, state)
    p.check("ct-twiddle-product-canonical", t.within(0, q - 1), f"t in {t}")
    yu = p.fold("ct-sum", state + t, q, UINT32_MAX)
    yv = p.fold("ct-diff", state + Interval.point(q) - t, q, UINT32_MAX)
    new_state = yu.union(yv)
    p.check(
        "ct-invariant-preserved",
        new_state.within(0, q - 1),
        f"stage output in {new_state}",
    )
    # GS butterfly: (u, v) -> (u + v, (u - v) * w), folds then a multiply.
    gu = p.fold("gs-sum", state + state, q, UINT32_MAX)
    diff = p.fold("gs-diff", state + Interval.point(q) - state, q, UINT32_MAX)
    gv = mul(q, p, diff)
    gs_state = gu.union(gv)
    p.check(
        "gs-invariant-preserved",
        gs_state.within(0, q - 1),
        f"stage output in {gs_state}",
    )
    # Final n^-1 scale is one more _mul over invariant state: covered by
    # the CT twiddle-product obligation above.  Exit is a plain copy.
    return q - 1


def _barrett_stage(q: int, p: _Prover) -> int:
    inv = 2 * q - 1  # the 2q-lazy Harvey invariant, inclusive
    state = Interval(0, inv)
    p.check(
        "enter-below-invariant",
        Interval(0, q - 1).within(0, inv),
        "entry residues are canonical",
    )
    t = _barrett_mul(q, p, state)
    p.check("ct-twiddle-product-lazy", t.within(0, inv), f"t in {t}")
    yu = p.fold("ct-sum", state + t, 2 * q, UINT64_MAX)
    yv = p.fold("ct-diff", state + Interval.point(2 * q) - t, 2 * q, UINT64_MAX)
    new_state = yu.union(yv)
    p.check(
        "ct-invariant-preserved",
        new_state.within(0, inv),
        f"stage output in {new_state}",
    )
    gu = p.fold("gs-sum", state + state, 2 * q, UINT64_MAX)
    diff = p.fold(
        "gs-diff", state + Interval.point(2 * q) - state, 2 * q, UINT64_MAX
    )
    gv = _barrett_mul(q, p, diff)
    gs_state = gu.union(gv)
    p.check(
        "gs-invariant-preserved",
        gs_state.within(0, inv),
        f"stage output in {gs_state}",
    )
    # Exit folds [0, 2q) -> [0, q) with one subtract of q.
    exit_out = p.fold("exit", state, q, UINT64_MAX)
    p.check("exit-canonical", exit_out.within(0, q - 1), f"exit in {exit_out}")
    return inv


def _analyze_limb(method: str, q: int, p: _Prover) -> int:
    p.check("modulus-within-31-bits", 2 < q < 2**31, f"q = {q}")
    if method == "barrett":
        return _barrett_stage(q, p)
    mul = {
        "shoup": _shoup_mul,
        "montgomery": _montgomery_mul,
        "smr": _smr_mul,
    }[method]
    return _canon32_stage(q, p, mul)


def _analyze_rescale_limb(q: int, q_last: int, p: _Prover) -> None:
    """The ``exact_rescale`` constant chain for one surviving limb."""
    # Centered lift of the dropped limb: (-(q_last - q_last//2 - 1), q_last//2].
    centered = Interval(q_last // 2 - q_last + 1, q_last // 2)
    t0 = Interval.point(q_last) - centered
    p.check("lift-fits-uint32", t0.fits("uint32"), f"q_last - centered in {t0}")
    mu32 = (1 << 32) // q  # the limb's exact 32-bit Barrett constant
    prod = t0 * Interval.point(mu32)
    p.check("lift*mu32-fits-uint64", prod.fits("uint64"), f"in {prod}")
    hi_q = (prod >> 32) * Interval.point(q)
    p.check("hi*q-fits-uint64", hi_q.fits("uint64"), f"in {hi_q}")
    # 32-bit Barrett axiom: for t0 < 2^32 the residual lies in [0, 3q).
    r = Interval(0, 3 * q - 1)
    r = p.fold("barrett32-first", r, q, UINT64_MAX)
    r = p.fold("barrett32-second", r, q, UINT64_MAX)
    p.check("barrett32-canonical", r.within(0, q - 1), f"in {r}")
    # + corr (= -q_last mod q), one fold; + the surviving limb, one fold.
    r = p.fold("corr-sum", r + Interval(0, q - 1), q, UINT64_MAX)
    r = p.fold("limb-sum", r + Interval(0, q - 1), q, UINT64_MAX)
    p.check("diff-canonical", r.within(0, q - 1), f"in {r}")
    # Shoup multiply by the cached q_last^-1 (a constant < q).
    out = _shoup_mul(q, p, r)
    p.check("rescale-output-canonical", out.within(0, q - 1), f"in {out}")


@dataclass(frozen=True)
class KernelCertificate:
    """Ahead-of-time non-overflow certificate for one parameter family.

    ``stage_bounds[i]`` is the proved inclusive per-stage state bound of
    limb ``i`` in the batched NTT (``q_i - 1`` for the canonical-uint32
    kernels, ``2*q_i - 1`` for Barrett's 2q-lazy kernel) — the very
    bounds checked-mode execution asserts at runtime.  ``obligations``
    lists every discharged (or failed) proof step; ``diagnostics`` holds
    the failures, first violating op first.
    """

    ring_degree: int
    primes: tuple[int, ...]
    method: str
    stage_bounds: tuple[int, ...]
    reduced_headroom: int
    obligations: tuple[Obligation, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def raise_if_failed(self) -> KernelCertificate:
        if self.diagnostics:
            first = self.diagnostics[0]
            raise StaticAnalysisError(
                f"range analysis failed for method={self.method!r} "
                f"N={self.ring_degree} L={len(self.primes)}: {first}"
                + (
                    f" (+{len(self.diagnostics) - 1} more)"
                    if len(self.diagnostics) > 1
                    else ""
                )
            )
        return self

    def describe(self) -> str:
        status = "proved" if self.ok else "FAILED"
        lines = [
            f"{self.method} N={self.ring_degree} L={len(self.primes)}: "
            f"{status} ({sum(o.proved for o in self.obligations)}/"
            f"{len(self.obligations)} obligations)",
            f"  stage bounds: {list(self.stage_bounds)}",
            f"  lazy-accumulation headroom: {self.reduced_headroom} terms",
        ]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)


def certify_kernels(
    ring_degree: int, primes, method: str
) -> KernelCertificate:
    """Prove (or refute) non-overflow for one ``(N, primes, backend)``.

    Walks every limb through the backend's stage-kernel op sequence on
    exact intervals, the ``exact_rescale`` chain for every surviving
    limb, and the lazy-accumulation headroom bounds.  Never raises on an
    unprovable family — the failures come back as the certificate's
    ``diagnostics`` (``raise_if_failed`` converts them).
    """
    qs = [int(q) for q in primes]
    if method not in REDUCER_CONTRACTS:
        raise ParameterError(f"unknown reduction method {method!r}")
    if not qs:
        raise ParameterError("range analysis needs at least one limb prime")
    obligations: list[Obligation] = []
    diagnostics: list[Diagnostic] = []
    stage_bounds: list[int] = []
    for i, q in enumerate(qs):
        p = _Prover(f"{method} NTT limb {i} (q={q})")
        stage_bounds.append(_analyze_limb(method, q, p))
        obligations.extend(p.obligations)
        diagnostics.extend(p.diagnostics)
    if len(qs) >= 2:
        q_last = qs[-1]
        for i, q in enumerate(qs[:-1]):
            p = _Prover(f"exact_rescale limb {i} (q={q}, q_last={q_last})")
            _analyze_rescale_limb(q, q_last, p)
            obligations.extend(p.obligations)
            diagnostics.extend(p.diagnostics)
    # Lazy-accumulation headroom (§4.2): how many worst-case terms a fresh
    # accumulator admits before AccumulatorOverflowError must fire.
    q_max = max(qs)
    reduced_headroom = REDUCER_CONTRACTS[method].lazy_headroom(q_max)
    p = _Prover(f"{method} lazy accumulation (q_max={q_max})")
    p.check(
        "reduced-headroom-exceeds-2^32",
        reduced_headroom >= 2**32,
        f"{reduced_headroom} worst-case terms fit a fresh accumulator",
    )
    obligations.extend(p.obligations)
    diagnostics.extend(p.diagnostics)
    return KernelCertificate(
        ring_degree=int(ring_degree),
        primes=tuple(qs),
        method=method,
        stage_bounds=tuple(stage_bounds),
        reduced_headroom=reduced_headroom,
        obligations=tuple(obligations),
        diagnostics=tuple(diagnostics),
    )
