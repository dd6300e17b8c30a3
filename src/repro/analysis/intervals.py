"""Exact integer interval domain for the kernel range analyzer.

The abstract domain is the classic closed-interval lattice over exact
Python integers: every abstract value is an inclusive ``[lo, hi]`` pair,
and every transfer function (add, sub, mul, shift) is exact — no widening
is ever needed because the analyzed kernels are loop-free per stage and
the stage loop is discharged by induction on a stage invariant, not by
fixpoint iteration.  Exactness matters: Barrett's ``mu`` constants sit
within a few ulps of carrier boundaries, and a conservative power-of-two
approximation would fail to prove real kernels safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Carrier ranges the fit-checks prove values stay inside, by register
#: type (a numpy dtype name).
CARRIERS = {
    "uint32": (0, 2**32 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "uint64": (0, 2**64 - 1),
    "int64": (-(2**63), 2**63 - 1),
}


@dataclass(frozen=True)
class Interval:
    """Inclusive integer interval ``[lo, hi]`` with exact transfer ops."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v: int) -> Interval:
        return Interval(v, v)

    def __add__(self, other: Interval | int) -> Interval:
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: Interval | int) -> Interval:
        other = _coerce(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: Interval | int) -> Interval:
        other = _coerce(other)
        corners = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(corners), max(corners))

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __rshift__(self, bits: int) -> Interval:
        # Python's >> is an arithmetic (floor) shift on negative ints,
        # matching int64 behaviour; monotone, so endpoints suffice.
        return Interval(self.lo >> bits, self.hi >> bits)

    def union(self, other: Interval) -> Interval:
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi

    def fits(self, carrier: str) -> bool:
        """Does every value of the interval fit the named carrier type?"""
        lo, hi = CARRIERS[carrier]
        return self.within(lo, hi)

    def __str__(self) -> str:  # compact diagnostics: [0, 2^35.1]
        return f"[{self.lo}, {self.hi}]"


def _coerce(v: Interval | int) -> Interval:
    return v if isinstance(v, Interval) else Interval.point(v)


def lazy_fold(x: Interval, q: int) -> Interval:
    """Abstract branch-free fold ``min(s, s - q)`` (unsigned wrap select).

    Sound only when the input is non-negative and strictly below ``q +
    2^32`` for a uint32 carrier (or ``q + 2^64`` for uint64) — callers
    prove the carrier fit separately; here the fold just needs ``x.hi <
    2q`` to land in ``[0, q)`` and ``x.hi < 3q`` to land in ``[0, 2q)``
    etc.  Returns the folded interval ``[0, max(q - 1, x.hi - q)]`` when
    a single conditional subtract can apply, widened to the input's own
    bound when the input may already be below ``q``.
    """
    if x.lo < 0:
        raise ValueError(f"lazy fold needs a non-negative input, got {x}")
    if x.hi < q:  # fold is the identity
        return x
    return Interval(0, max(q - 1, x.hi - q))


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding: an unproved obligation or a code smell.

    ``severity`` is ``"error"`` (the invariant is violated or cannot be
    proved — executing would risk silent corruption) or ``"warning"``
    (legal but wasteful or suspicious).  ``code`` is a stable
    machine-matchable slug; ``where`` names the op / node / limb the
    finding anchors to; ``detail`` is the human-readable explanation
    with the offending ranges.
    """

    severity: str
    code: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} @ {self.where}: {self.detail}"


@dataclass
class Obligation:
    """A named proof obligation and whether it was discharged."""

    name: str
    proved: bool
    detail: str = field(default="")

    def __str__(self) -> str:
        mark = "proved" if self.proved else "FAILED"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{mark}: {self.name}{tail}"
