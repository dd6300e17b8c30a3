"""Level-1 kernel range analysis: the reducer definitions, run on intervals.

For a parameter family ``(primes, N, backend)`` this pass interprets the
very functions the numpy kernels execute — the Table-3 multiplies, the
Cooley-Tukey and Gentleman-Sande butterfly bodies of the family's stage
kind and ``exact_rescale``'s constant chain, all in
:mod:`repro.rns.reduction` — with an interval primitive set in place of
numpy's, records the lazy-accumulation headroom a fresh
:class:`~repro.poly.lazy.LazyAccumulator` admits (the reducer contract's
:meth:`~repro.rns.reduction.ReducerContract.lazy_bounds` rule, the one
the accumulator enforces) — and either *proves* that every register stays
inside its type plus the stage invariant, or reports the first violating
step (definition, primitive and register) with the offending range.
:func:`certify_kernels` is the entry point;
:meth:`~repro.poly.rns_poly.PolyContext.range_certificate` caches its
result per context.

The proof structure is induction on a per-limb *stage invariant* rather
than fixpoint iteration: the analyzer establishes the entry base case
(inputs are range-checked canonical residues), then shows one
Cooley-Tukey stage body and one Gentleman-Sande stage body each map the
invariant to itself using the limb's *exact* constants (the reducer's
``stage_constants``: Barrett's ``mu`` halves, Montgomery's ``-q^-1``,
SMR's ``m``).  The transposed tail phase reuses the same per-limb
constants as repeated rows, so per-limb soundness covers both layouts.
Reducer output ranges that interval arithmetic alone cannot reproduce
(Barrett's ``[0, 3q)`` residual, Shoup's wrapped difference, Alg. 2's
``(-q, q)``) enter where each definition names its *axiom*; the
interpreter discharges the axiom's precondition
(:attr:`~repro.rns.reduction.ReducerContract.admits`) exactly first.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.analysis.intervals import (
    CARRIERS,
    Diagnostic,
    Interval,
    Obligation,
    lazy_fold,
)
from repro.errors import ParameterError, StaticAnalysisError
from repro.rns.reduction import (
    REDUCER_CONTRACTS,
    STAGE_KINDS,
    ct_butterfly,
    gs_butterfly,
    make_reducer,
    rescale_constants,
    rescale_limb,
)


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


class Reg:
    """An interval register: its type (a numpy dtype name) and its range."""

    __slots__ = ("kind", "val")

    def __init__(self, kind: str, lo: int | None = None, hi: int | None = None):
        self.kind = kind
        full = Interval(*CARRIERS[kind])
        self.val = full if lo is None else Interval(lo, lo if hi is None else hi)

    @property
    def lo(self) -> int:
        return self.val.lo

    @property
    def hi(self) -> int:
        return self.val.hi


def _word_range(signed: bool) -> tuple[int, int]:
    return (-(2**31), 2**31 - 1) if signed else (0, 2**32 - 1)


class IntervalOps:
    """The interval primitive set of :mod:`repro.rns.reduction`.

    Each primitive writes its destination's exact range.  A step that must
    not wrap (a wide product, a high word, an add, a fold's input) records
    an obligation named after the definition, the primitive and the
    destination register; the wrapping steps (``mullo``, ``lo``, ``sub``)
    widen to the whole type instead, until an axiom narrows it.
    """

    def __init__(self, prover: _Prover) -> None:
        self.p = prover

    @staticmethod
    def _site(op: str, d: Reg) -> str:
        frame = sys._getframe(2)  # the definition that ran the primitive
        name = next((k for k, v in frame.f_locals.items() if v is d), "?")
        return f"{frame.f_code.co_name}: {op} -> {name}"

    def _write(self, site: str, d: Reg, val: Interval, wraps=False) -> None:
        lo, hi = CARRIERS[d.kind]
        fits = val.within(lo, hi)
        if not wraps:
            self.p.check(f"{site} fits {d.kind}", fits, f"value in {val}")
        d.val = val if fits else Interval(lo, hi)

    def _words(self, site: str, d: Reg, *ops: Reg) -> None:
        lo, hi = _word_range(d.kind.startswith("int"))
        self.p.check(
            f"{site} reads words",
            all(o.val.within(lo, hi) for o in ops),
            ", ".join(str(o.val) for o in ops),
        )

    def mulwide(self, d, a, b):
        site = self._site("mulwide", d)
        self._words(site, d, a, b)
        self._write(site, d, a.val * b.val)

    def mullo(self, d, a, b):
        self._write(self._site("mullo", d), d, a.val * b.val, wraps=True)

    def mulhi(self, d, a, b):
        site = self._site("mulhi", d)
        self._words(site, d, a, b)
        self._write(site, d, (a.val * b.val) >> 32)

    def hi(self, d, x):
        self._write(self._site("hi", d), d, x.val >> 32)

    def lo(self, d, x):
        lo, hi = _word_range(d.kind == "int32")
        val = x.val if x.val.within(lo, hi) else Interval(lo, hi)
        self._write(self._site("lo", d), d, val, wraps=True)

    def add(self, d, a, b):
        self._write(self._site("add", d), d, a.val + b.val)

    def sub(self, d, a, b):
        self._write(self._site("sub", d), d, a.val - b.val, wraps=True)

    def fold(self, d, s, m, t):
        site = self._site("fold", d)
        ok = self.p.check(
            f"{site} input unsigned",
            s.kind.startswith("uint") and s.lo >= 0,
            f"{s.kind} in {s.val}",
        )
        self._write(site, d, lazy_fold(s.val, m.lo) if ok else s.val)

    def sign_fold(self, d, s, q, t):
        site = self._site("sign_fold", d)
        self.p.check(
            f"{site} input in [-q, q)", s.lo >= -q.lo and s.hi < q.lo,
            f"{s.val} vs q = {q.lo}",
        )
        parts = []
        if s.lo < 0:
            parts.append(Interval(s.lo + q.lo, min(s.hi, -1) + q.lo))
        if s.hi >= 0:
            parts.append(Interval(max(s.lo, 0), s.hi))
        val = parts[0] if len(parts) == 1 else parts[0].union(parts[1])
        self._write(site, d, val)

    def axiom(self, d, contract, q, v, w):
        site = self._site(f"{contract.name} axiom", d)
        self.p.check(
            f"{site} precondition", contract.admits(q.lo, v, w),
            f"{contract.name} operands: v in {v.val}, w in {w.val}",
        )
        lo, hi = contract.axiom_range(q.lo)
        if d.val.lo <= hi and lo <= d.val.hi:
            d.val = Interval(max(lo, d.val.lo), min(hi, d.val.hi))
        else:
            d.val = Interval(lo, hi)


def _point(c) -> Reg:
    """A constant register from a 0-d array of the reducer's constants."""
    return Reg(str(c.dtype), int(c))


def _tables(method: str, q: int) -> tuple[Reg, ...]:
    """The twiddle tables' registers: the parts of the reducer's prepared
    operand over canonical constants (``ReducerContract.prepared``)."""
    return tuple(
        Reg(part.dtype, *part.span(q))
        for part in REDUCER_CONTRACTS[method].prepared
    )


def _analyze_limb(method: str, q: int, p: _Prover) -> int:
    kind = STAGE_KINDS[method]
    inv = kind.lazy * q - 1  # the stage invariant, inclusive
    if not p.check("modulus-within-31-bits", 2 < q < 2**31, f"q = {q}"):
        return inv
    ops = IntervalOps(p)
    k = tuple(_point(c) for c in make_reducer(method, q).stage_constants())
    tw = _tables(method, q)
    for name, body in (("ct", ct_butterfly), ("gs", gs_butterfly)):
        yu, yv = Reg(kind.state), Reg(kind.state)
        u, v = Reg(kind.state, 0, inv), Reg(kind.state, 0, inv)
        scratch = tuple(Reg(t) for t in kind.scratch)
        body(ops, kind.twiddle, yu, yv, u, v, tw, k, scratch)
        out = yu.val.union(yv.val)
        p.check(f"{name}-invariant-preserved", out.within(0, inv), f"stage output in {out}")
    # The final n^-1 scale is one more twiddle product over invariant
    # state, covered above.  Exit copies canonical state, or folds
    # Barrett's [0, 2q) once.
    if kind.lazy > 1:
        out = Reg("uint64")
        ops.fold(out, Reg(kind.state, 0, inv), Reg("uint64", q), Reg(kind.state))
        p.check("exit-canonical", out.val.within(0, q - 1), f"exit in {out.val}")
    return inv


def _interpret_rescale_limb(q: int, q_last: int, p: _Prover) -> None:
    """``exact_rescale``'s chain for one surviving limb."""
    # lift = q_last - centered, the centered lift in (-q_last/2, q_last/2].
    lift = Interval(q_last - q_last // 2, 2 * q_last - q_last // 2 - 1)
    p.check("lift-fits-uint32", lift.fits("uint32"), f"lift in {lift}")
    inv, inv_sh, mu32, corr = (c[0] for c in rescale_constants(q_last, [q]))
    out = Reg("uint64")
    rescale_limb(
        IntervalOps(p), out, Reg("uint32", lift.lo, lift.hi),
        Reg("uint32", 0, q - 1), Reg("uint32", q), Reg("uint32", 1),
        Reg("uint32", mu32), Reg("uint32", corr), Reg("uint32", inv),
        Reg("uint32", inv_sh), Reg("uint64"), *(Reg("uint32") for _ in range(3)),
    )
    p.check("rescale-output-canonical", out.val.within(0, q - 1), f"in {out.val}")


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

    Runs every limb through the backend's butterfly definitions on exact
    intervals, the ``exact_rescale`` chain for every surviving limb, and
    the lazy-accumulation headroom bounds.  Never raises on an
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
            _interpret_rescale_limb(q, q_last, p)
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
