"""Table-3 reducer validation: exact products and output-range claims.

Every reducer is checked against ``(a * b) % q`` on randomized 31-bit
inputs, *and* against the output range Table 3 claims for it — the range
claims are what the lazy-reduction bounds of §4.2 are built on, so they
are asserted directly rather than assumed.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.rns.primes import ntt_friendly_primes
from repro.rns.reduction import (
    REDUCER_CONTRACTS,
    REDUCTION_COSTS,
    ShoupReducer,
    make_reducer,
)

# Fixed NTT-friendly moduli spanning the datapath: a Pr~25 terminal-sized
# prime, a Pr~30 main-sized prime, and one just under 2^31.
MODULI = [33554467, 1073741969, 2147483489]
SIZE = 4096


def _random_operands(q: int, rng: np.random.Generator):
    a = rng.integers(0, q, SIZE, dtype=np.uint64)
    b = rng.integers(0, q, SIZE, dtype=np.uint64)
    # Force boundary values into the stream: 0, 1, q-1.
    a[:3] = (0, 1, q - 1)
    b[:3] = (q - 1, q - 1, q - 1)
    return a, b


@pytest.fixture(params=MODULI, ids=lambda q: f"q={q}")
def q(request) -> int:
    return request.param


def test_moduli_are_prime():
    from repro.rns.primes import is_prime

    assert all(is_prime(q) for q in MODULI)


def test_barrett_exact_and_range(q, rng):
    red = make_reducer("barrett", q)
    a, b = _random_operands(q, rng)
    r = red.mulmod(a, b)
    assert int(r.max()) < 2 * q, "Table 3: Barrett output range [0, 2q)"
    expect = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(red.canonical(r), expect.astype(np.uint64))


def test_montgomery_exact_and_range(q, rng):
    red = make_reducer("montgomery", q)
    a, b = _random_operands(q, rng)
    lazy = red.mulmod(red.to_form(a), b)  # cancels the 2^-32 factor
    assert int(lazy.max()) < 2 * q, "Table 3: Montgomery output range [0, 2q)"
    expect = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(red.canonical(lazy), expect.astype(np.uint64))


def test_montgomery_form_round_trip(q, rng):
    red = make_reducer("montgomery", q)
    a = rng.integers(0, q, SIZE, dtype=np.uint64)
    assert np.array_equal(red.from_form(red.to_form(a)), a)


def test_shoup_exact_and_range(q, rng):
    red = make_reducer("shoup", q)
    a = rng.integers(0, q, SIZE, dtype=np.uint64)
    for w in (0, 1, 17, q // 2, q - 1):
        w_shoup = red.precompute(w)
        r = red.mulmod_const(a, w, w_shoup)
        assert int(r.max()) < 2 * q, "Table 3: Shoup output range [0, 2q)"
        expect = (a.astype(object) * w) % q
        assert np.array_equal(red.canonical(r), expect.astype(np.uint64))


def test_shoup_vectorized_constants(q, rng):
    red = make_reducer("shoup", q)
    a = rng.integers(0, q, SIZE, dtype=np.uint64)
    w = rng.integers(0, q, SIZE, dtype=np.uint64)
    r = red.canonical(red.mulmod_const(a, w, red.precompute(w)))
    expect = (a.astype(object) * w.astype(object)) % q
    assert np.array_equal(r, expect.astype(np.uint64))


def test_shoup_rejects_constant_ge_q(q):
    red: ShoupReducer = make_reducer("shoup", q)
    for bad in (q, q + 1, 2 * q):
        with pytest.raises(ParameterError):
            red.precompute(bad)
    with pytest.raises(ParameterError):
        red.precompute(-1)
    with pytest.raises(ParameterError):
        red.precompute(np.array([0, 5, q], dtype=np.int64))


def test_smr_exact_and_range(q, rng):
    red = make_reducer("smr", q)
    a, b = _random_operands(q, rng)
    # Montgomery-form second operand cancels Alg. 2's 2^-32 factor.
    r = red.mulmod(a.astype(np.int64), red.to_form(b))
    assert int(r.max()) < q and int(r.min()) > -q, (
        "Table 3: SMR output range (-q, q)"
    )
    expect = (a.astype(object) * b.astype(object)) % q
    assert np.array_equal(red.canonical(r), expect.astype(np.uint64))


def test_smr_signed_representatives(q, rng):
    red = make_reducer("smr", q)
    a = rng.integers(0, q, SIZE, dtype=np.uint64)
    signed = a.astype(np.int64)
    centered = np.where(signed > q // 2, signed - q, signed)
    assert int(centered.max()) <= q // 2
    assert int(centered.min()) > -q // 2 - 1
    assert np.array_equal(red.canonical(centered), a)


def test_smr_form_round_trip(q, rng):
    red = make_reducer("smr", q)
    a = rng.integers(0, q, SIZE, dtype=np.uint64)
    assert np.array_equal(red.from_form(red.to_form(a)), a)


def test_reducers_from_generated_primes(rng):
    """All four methods agree on freshly generated NTT-friendly primes."""
    for prime in ntt_friendly_primes(29, 2, 32):
        q = prime.value
        a = rng.integers(0, q, 512, dtype=np.uint64)
        b = rng.integers(0, q, 512, dtype=np.uint64)
        expect = ((a.astype(object) * b.astype(object)) % q).astype(np.uint64)
        barrett = make_reducer("barrett", q)
        mont = make_reducer("montgomery", q)
        shoup = make_reducer("shoup", q)
        smr = make_reducer("smr", q)
        assert np.array_equal(barrett.canonical(barrett.mulmod(a, b)), expect)
        assert np.array_equal(
            mont.canonical(mont.mulmod(mont.to_form(a), b)), expect
        )
        assert np.array_equal(
            shoup.canonical(shoup.mulmod_const(a, b, shoup.precompute(b))),
            expect,
        )
        assert np.array_equal(
            smr.canonical(smr.mulmod(a.astype(np.int64), smr.to_form(b))),
            expect,
        )
        # The prepared-operand path every caller takes, at the edges.
        for w in (0, 1, q - 1):
            expect = ((a.astype(object) * w) % q).astype(np.uint64)
            for red in (barrett, mont, shoup, smr):
                got = red.canonical(red.mul_prepared(a, red.prepare(w)))
                assert np.array_equal(got, expect), (red.contract.name, w)
        # Its parts have the format the contract declares: the count, and
        # each part's values inside its range, which its type holds.
        ws = np.concatenate([[0, 1, q - 1], b]).astype(np.uint64)
        for red in (barrett, mont, shoup, smr):
            parts = red.prepare(ws)
            assert len(parts) == len(red.contract.prepared)
            for part, spec in zip(parts, red.contract.prepared):
                lo, hi = spec.span(q)
                info = np.iinfo(spec.dtype)
                assert info.min <= lo and hi <= info.max
                assert part.dtype.itemsize == 8
                assert lo <= int(part.min()) and int(part.max()) <= hi


def test_cost_table_claims():
    """Table 3's shape: SMR is the cheapest row; ranges are as published."""
    total = {m: c.total_instrs for m, c in REDUCTION_COSTS.items()}
    assert total["smr"] == min(total.values())
    smr = REDUCER_CONTRACTS["smr"]
    assert (smr.output_lo_q, smr.output_hi_q) == (-1, 1)  # (-q, q)
    for method in ("barrett", "montgomery", "shoup"):
        contract = REDUCER_CONTRACTS[method]
        assert not contract.signed  # the unsigned carrier's floor is 0
        assert (contract.output_lo_q, contract.output_hi_q) == (-1, 2)


def test_make_reducer_rejects_unknown():
    with pytest.raises(ParameterError):
        make_reducer("lookup-table", 97)


# -- batched (per-row modulus column) mode ---------------------------------


def _batched_operands(rng):
    a = np.stack([rng.integers(0, q, SIZE, dtype=np.uint64) for q in MODULI])
    b = np.stack([rng.integers(0, q, SIZE, dtype=np.uint64) for q in MODULI])
    expect = np.stack(
        [
            ((a[i].astype(object) * b[i].astype(object)) % q).astype(np.uint64)
            for i, q in enumerate(MODULI)
        ]
    )
    return a, b, expect


@pytest.mark.parametrize("method", ("barrett", "montgomery", "shoup", "smr"))
def test_batched_reducers_match_per_row_scalars(method, rng):
    """(L, 1) modulus columns must reproduce L scalar reducers row by row."""
    a, b, expect = _batched_operands(rng)
    red = make_reducer(method, MODULI)
    assert red.batched and red.q_ints == MODULI
    if method == "barrett":
        got = red.canonical(red.mulmod(a, b))
    elif method == "montgomery":
        got = red.canonical(red.mulmod(red.to_form(a), b))
    elif method == "shoup":
        got = red.canonical(red.mulmod_const(a, b, red.precompute(b)))
    else:
        got = red.canonical(red.mulmod(a.astype(np.int64), red.to_form(b)))
    assert np.array_equal(got, expect)


def test_batched_reducers_broadcast_3d_stage_views(rng):
    """NTT stages view (L, N) as (L, m, t): constants must align per row."""
    a, b, expect = _batched_operands(rng)
    shape3 = (len(MODULI), 64, SIZE // 64)
    red = make_reducer("barrett", MODULI)
    got = red.canonical(red.mulmod(a.reshape(shape3), b.reshape(shape3)))
    assert np.array_equal(got.reshape(a.shape), expect)
    smr = make_reducer("smr", MODULI)
    got = smr.canonical(
        smr.mulmod(
            a.reshape(shape3).astype(np.int64),
            smr.to_form(b).reshape(shape3),
        )
    )
    assert np.array_equal(got.reshape(a.shape), expect)


def test_batched_shoup_range_checks_per_row(rng):
    red = make_reducer("shoup", MODULI)
    # The smallest modulus binds: a constant valid for row 2 must be
    # rejected when it lands on row 0.
    bad = np.full((len(MODULI), 1), MODULI[0], dtype=np.uint64)
    with pytest.raises(ParameterError):
        red.precompute(bad)
    with pytest.raises(ParameterError):
        red.precompute(np.full((len(MODULI), 1), -1, dtype=np.int64))
    # Scalar constants broadcast down every row.
    w = MODULI[0] - 1
    comp = red.precompute(w)
    assert comp.shape == (len(MODULI), 1)
    a = np.stack([rng.integers(0, q, SIZE, dtype=np.uint64) for q in MODULI])
    got = red.canonical(red.mulmod_const(a, w, comp))
    expect = np.stack(
        [
            ((a[i].astype(object) * w) % q).astype(np.uint64)
            for i, q in enumerate(MODULI)
        ]
    )
    assert np.array_equal(got, expect)


def test_batched_moduli_validation():
    with pytest.raises(ParameterError):
        make_reducer("barrett", [])
    with pytest.raises(ParameterError):
        make_reducer("barrett", [MODULI[0], 2**31 + 1])
    with pytest.raises(ParameterError):
        make_reducer("montgomery", [MODULI[0], 10])  # even modulus
    # (L, 1) columns are accepted as moduli specs too.
    col = np.array(MODULI, dtype=np.uint64).reshape(-1, 1)
    assert make_reducer("smr", col).q_ints == MODULI


# -- Table 3 counted from the definitions ----------------------------------


class _Reg:
    def __init__(self, kind: str) -> None:
        self.kind = kind


def _width(reg: _Reg) -> int:
    """An add or subtract costs 1 on a word register, 2 on a wide one."""
    return 1 if reg.kind.endswith("32") else 2


class _Counter:
    """Counts a definition's instructions with ReductionCost's weights.

    ``mulwide`` costs 2, ``mulhi`` and ``mullo`` 1; an add, a subtract or
    a fold's subtract costs 1 at word width and 2 at 64 bits (a fold's
    select and the sign fold's mask are not adds); ``hi``/``lo`` are
    register moves and cost nothing.  The operand product — the multiply
    of the definition's own operands ``v`` and ``w`` — is kept apart,
    because Table 3 prices the reduction only.
    """

    def __init__(self, v, w) -> None:
        self.operands = {id(v), id(w)}
        self.muls = self.adds = self.product = 0

    def _mul(self, cost, a, b):
        if {id(a), id(b)} == self.operands:
            self.product += cost
        else:
            self.muls += cost

    def mulwide(self, d, a, b):
        self._mul(2, a, b)

    def mullo(self, d, a, b):
        self._mul(1, a, b)

    def mulhi(self, d, a, b):
        self._mul(1, a, b)

    def hi(self, d, x):
        pass

    lo = hi

    def add(self, d, a, b):
        self.adds += _width(d)

    sub = add

    def fold(self, d, s, m, t):
        self.adds += _width(s)

    sign_fold = fold

    def axiom(self, d, contract, q, v, w):
        pass


def _count(method: str) -> _Counter:
    """Run ``method``'s multiply on counting registers of the reducer
    API's types."""
    from repro.rns import reduction as r

    u32, u64, i32, i64 = (_Reg(k) for k in ("uint32", "uint64", "int32", "int64"))
    if method == "barrett":
        v, w = _Reg("uint64"), _Reg("uint64")
        c = _Counter(v, w)
        r.barrett_mul(c, _Reg("uint64"), v, w, u64, u64, u64, u64,
                      _Reg("uint64"), _Reg("uint64"), _Reg("uint64"),
                      _Reg("uint64"), _Reg("uint64"))
    elif method == "montgomery":
        v, w = _Reg("uint64"), _Reg("uint64")
        c = _Counter(v, w)
        r.montgomery_mul(c, _Reg("uint32"), v, w, u64, u32, _Reg("uint64"),
                         _Reg("uint32"), _Reg("uint64"))
    elif method == "shoup":
        v, w = _Reg("uint32"), _Reg("uint32")
        c = _Counter(v, w)
        r.shoup_mul(c, _Reg("uint32"), v, w, u64, u32, _Reg("uint64"),
                    _Reg("uint32"))
    else:
        v, w = _Reg("int64"), _Reg("int64")
        c = _Counter(v, w)
        r.smr_mul(c, _Reg("int64"), v, w, i64, i32, _Reg("int64"),
                  _Reg("int32"), _Reg("int64"))
    return c


#: (mul, add) counted from each definition, operand product excluded,
#: and the operand product's own cost
COUNTED = {
    "barrett": ((9, 10), 2),
    "montgomery": ((3, 2), 2),
    "shoup": ((2, 1), 1),
    "smr": ((2, 2), 2),
}
#: families whose counted row differs from the paper's Table 3 row, with
#: the paper's numbers.  Barrett's 64x64 high product runs as four
#: half-word products plus three 64-bit adds here; SMR's final subtract
#: x_hi - mulhi32(z, q) runs on 64-bit lanes.
PAPER_DIFFERS = {"barrett": (4, 2), "smr": (2, 1)}


@pytest.mark.parametrize("method", sorted(COUNTED))
def test_definitions_count_against_table3(method):
    c = _count(method)
    counted, product = COUNTED[method]
    assert ((c.muls, c.adds), c.product) == (counted, product)
    cost = REDUCTION_COSTS[method]
    paper = (cost.mul_instrs, cost.add_instrs)
    assert paper == PAPER_DIFFERS.get(method, counted)
