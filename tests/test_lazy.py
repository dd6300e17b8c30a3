"""Lazy-reduction accumulation (§4.2): exactness and range discipline.

The bound tracker is the safety property: it must refuse the accumulation
*before* any 64-bit wraparound.
"""

import numpy as np
import pytest

from repro.errors import AccumulatorOverflowError, ParameterError
from repro.poly.lazy import LazyAccumulator
from repro.rns.reduction import make_reducer

Q_TERMINAL = 33554467  # ~2^25 terminal prime
Q_MAIN = 1073741969  # ~2^30 main prime
LANES = 64


def _dot_reference(av, bv, q):
    expect = np.zeros(av.shape[1], dtype=object)
    for a, b in zip(av, bv):
        expect = (expect + a.astype(object) * b.astype(object)) % q
    return expect.astype(np.uint64)


def test_smr_lazy_dot_is_exact(rng):
    q = Q_TERMINAL
    red = make_reducer("smr", q)
    k = 32
    av = rng.integers(0, q, (k, LANES), dtype=np.uint64)
    bv = rng.integers(0, q, (k, LANES), dtype=np.uint64)
    acc = LazyAccumulator(red, LANES)
    for a, b in zip(av, bv):
        # Montgomery-form operand cancels Alg. 2's 2^-32, as in the NTT.
        acc.accumulate_product(a.astype(np.int64), red.prepare(b))
    assert acc.terms == k
    assert np.array_equal(acc.fold(), _dot_reference(av, bv, q))


def test_unsigned_lazy_dot_is_exact(rng):
    q = Q_MAIN
    red = make_reducer("barrett", q)
    k = 16
    av = rng.integers(0, q, (k, LANES), dtype=np.uint64)
    bv = rng.integers(0, q, (k, LANES), dtype=np.uint64)
    acc = LazyAccumulator(red, LANES)
    for a, b in zip(av, bv):
        acc.accumulate_product(a, red.prepare(b))
    assert np.array_equal(acc.fold(), _dot_reference(av, bv, q))


def test_shoup_lazy_uses_precomputed_companions(rng):
    q = Q_MAIN
    red = make_reducer("shoup", q)
    a = rng.integers(0, q, LANES, dtype=np.uint64)
    acc = LazyAccumulator(red, LANES)
    w = red.prepare(12345)
    acc.accumulate_product(a, w)
    acc.accumulate_product(a, red.prepare(q - 1))
    # The prepared pair is the constant and its precomputed companion,
    # amortized across terms.
    assert int(w[1]) == int(red.precompute(12345))
    acc.accumulate_product(a, w)
    expect = (a.astype(object) * (2 * 12345 + q - 1)) % q
    assert np.array_equal(acc.fold(), expect.astype(np.uint64))


def test_overflow_raises_before_wraparound(rng):
    q = Q_MAIN
    red = make_reducer("smr", q)
    a = rng.integers(0, q, 4, dtype=np.uint64).astype(np.int64)
    b = red.prepare(rng.integers(0, q, 4, dtype=np.uint64))
    acc = LazyAccumulator(red, 4)
    # Preload the tracked bound to three worst-case terms below the int64
    # carrier's limit, as if ~2^33 products had already been summed.
    acc.bound = acc.limit - 3 * (q - 1)
    assert acc.headroom == 3
    for _ in range(acc.headroom):
        acc.accumulate_product(a, b)
    assert acc.headroom == 0
    # one more worst-case term could wrap the int64 carrier
    assert acc.bound + (q - 1) > np.iinfo(acc.acc.dtype).max
    snapshot_bound, snapshot_acc = acc.bound, acc.acc.copy()
    with pytest.raises(AccumulatorOverflowError):
        acc.accumulate_product(a, b)
    assert acc.bound == snapshot_bound, "failed accumulation must not charge"
    assert np.array_equal(acc.acc, snapshot_acc)
    assert acc.terms == 3
    # The tracker refused while the live sum is still far from a wrap, so
    # after the refusal the accumulator still folds correctly.
    expect = (
        a.astype(object) * red.from_form(b[0]).astype(object)
    ) * acc.terms % q
    assert np.array_equal(acc.fold(), expect.astype(np.uint64))


def test_accumulate_value_and_reset(rng):
    q = Q_TERMINAL
    red = make_reducer("smr", q)
    acc = LazyAccumulator(red, 4)
    v = np.array([1, 2, 3, 4], dtype=np.int64)
    acc.accumulate_value(v, max_abs=4)
    acc.accumulate_value(-v, max_abs=4)
    assert np.array_equal(acc.fold(), np.zeros(4, dtype=np.uint64))
    acc.reset()
    assert acc.terms == 0 and acc.bound == 0
    assert np.array_equal(acc.fold(), np.zeros(4, dtype=np.uint64))


def test_negative_value_into_unsigned_accumulator_raises(rng):
    """astype(uint64) on a negative would wrap silently; must refuse."""
    red = make_reducer("barrett", Q_MAIN)
    acc = LazyAccumulator(red, 4)
    v = np.array([1, -2, 3, 4], dtype=np.int64)
    bound_before = acc.bound
    with pytest.raises(ParameterError):
        acc.accumulate_value(v, max_abs=4)
    # The refusal must not charge the bound tracker or touch the sum.
    assert acc.bound == bound_before and acc.terms == 0
    assert np.array_equal(acc.fold(), np.zeros(4, dtype=np.uint64))
    # Non-negative signed input is fine; unsigned input is fine.
    acc.accumulate_value(np.abs(v), max_abs=4)
    acc.accumulate_value(np.abs(v).astype(np.uint64), max_abs=4)
    assert np.array_equal(acc.fold(), 2 * np.abs(v).astype(np.uint64))
    # Signed accumulators keep accepting negatives (that is their point).
    signed = LazyAccumulator(make_reducer("smr", Q_MAIN), 4)
    signed.accumulate_value(v, max_abs=4)
    assert np.array_equal(signed.fold(), (v % Q_MAIN).astype(np.uint64))


def test_shoup_accumulation_casts_to_acc_dtype(rng):
    red = make_reducer("shoup", Q_MAIN)
    acc = LazyAccumulator(red, LANES)
    a = rng.integers(0, Q_MAIN, LANES, dtype=np.uint64)
    acc.accumulate_product(a, red.prepare(7))
    assert acc.acc.dtype == np.uint64


def test_batched_reducer_accumulator(rng):
    """One LazyAccumulator spanning an (L, N) limb matrix (§4.2 batched)."""
    qs = [Q_TERMINAL, Q_MAIN]
    red = make_reducer("barrett", qs)
    k = 8
    av = [
        np.stack([rng.integers(0, q, LANES, dtype=np.uint64) for q in qs])
        for _ in range(k)
    ]
    bv = [
        np.stack([rng.integers(0, q, LANES, dtype=np.uint64) for q in qs])
        for _ in range(k)
    ]
    acc = LazyAccumulator(red, (len(qs), LANES))
    for a, b in zip(av, bv):
        acc.accumulate_product(a, red.prepare(b))
    got = acc.fold()
    for i, q in enumerate(qs):
        expect = _dot_reference(
            np.stack([a[i] for a in av]), np.stack([b[i] for b in bv]), q
        )
        assert np.array_equal(got[i], expect)
    # Worst-case bound tracking follows the largest limb.
    assert acc.q == max(qs)


# -- fold_into: scratch-buffered terminal fold (PR 3) -----------------------
def test_fold_into_matches_fold(rng):
    smr = make_reducer("smr", Q_TERMINAL)
    lanes = rng.integers(0, Q_TERMINAL, 8, dtype=np.uint64).astype(np.int64)
    build = lambda: (  # noqa: E731
        LazyAccumulator(smr, 8)
        .accumulate_product(lanes, (np.int64(12345),))
    )
    expect = build().fold()
    out = np.empty(8, np.uint64)
    got = build().fold_into(out)
    assert got is out
    assert np.array_equal(out, expect)


def test_fold_into_unsigned_and_validation(rng):
    red = make_reducer("barrett", Q_TERMINAL)
    values = rng.integers(0, Q_TERMINAL, 8, dtype=np.uint64)
    acc = LazyAccumulator(red, 8).accumulate_value(values, Q_TERMINAL - 1)
    expect = acc.fold()
    acc2 = LazyAccumulator(red, 8).accumulate_value(values, Q_TERMINAL - 1)
    out = np.empty(8, np.uint64)
    assert np.array_equal(acc2.fold_into(out), expect)
    with pytest.raises(ParameterError, match="buffer"):
        acc2.fold_into(np.empty(7, np.uint64))  # wrong shape
    with pytest.raises(ParameterError, match="buffer"):
        acc2.fold_into(np.empty(8, np.int64))  # wrong dtype


def test_fold_into_leaves_accumulator_intact(rng):
    """fold_into reads the deferred sum without writing it: the
    accumulator folds again to the same residues, and reset clears it."""
    red = make_reducer("barrett", Q_TERMINAL)
    acc = LazyAccumulator(red, 4)
    acc.accumulate_value(np.full(4, Q_TERMINAL + 7, np.uint64), Q_TERMINAL + 7)
    before = acc.acc.copy()
    out = np.empty(4, np.uint64)
    acc.fold_into(out)
    assert np.array_equal(acc.acc, before)
    assert np.array_equal(out, np.full(4, 7, np.uint64))
    assert np.array_equal(acc.fold(), out)
    acc.reset()
    assert acc.terms == 0 and acc.bound == 0
    assert np.all(acc.acc == 0)


def test_fold_into_rejects_aliased_scratch(rng):
    """Regression (scratch-reuse audit): folding into a buffer that
    aliases the accumulator would overwrite the deferred sum it reads —
    the guard refuses both full and partial overlap."""
    red = make_reducer("barrett", Q_TERMINAL)
    acc = LazyAccumulator(red, 8)
    acc.accumulate_value(rng.integers(0, Q_TERMINAL, 8, np.uint64),
                         Q_TERMINAL - 1)
    with pytest.raises(ParameterError, match="alias"):
        acc.fold_into(acc.acc)
    with pytest.raises(ParameterError, match="alias"):
        acc.fold_into(acc.acc[:])  # a view counts too
    # A distinct buffer still works after the refused calls.
    out = np.empty(8, np.uint64)
    acc.fold_into(out)


def test_relinearize_then_rescale_chain_shares_no_scratch(rng):
    """The evaluator's relinearize-then-rescale double-use: running the
    fused key switch and an exact_rescale back to back (twice) must give
    the same bits as fresh single-use pipelines — a shared or aliased
    scratch buffer between the two kernels would corrupt round two."""
    from repro.poly.basis_conv import KeySwitchKey
    from repro.poly.rns_poly import PolyContext
    from repro.rns.primes import ntt_friendly_primes

    n = 64
    t = ntt_friendly_primes(25, 1, n, kind="terminal")
    m = ntt_friendly_primes(30, 3, n, exclude={p.value for p in t})
    primes = [p.value for p in t + m]
    aux = [
        p.value
        for p in ntt_friendly_primes(30, 3, n, kind="aux",
                                     exclude=set(primes))
    ]
    ctx = PolyContext(n, primes, "smr")
    ksk = KeySwitchKey.random(ctx, aux, 2, rng)
    a = ctx.random(rng)

    def chain():
        c0, c1 = a.key_switch(ksk)
        return c0.exact_rescale(), c1.exact_rescale()

    first = chain()
    second = chain()  # same persistent switcher/rescale scratch, reused
    for f, s in zip(first, second):
        assert np.array_equal(f.limbs, s.limbs)
    # And interleaving another key switch between the rescales changes
    # nothing either (the rescale result must not live in KS scratch).
    c0, c1 = a.key_switch(ksk)
    r0 = c0.exact_rescale()
    _ = a.key_switch(ksk)
    assert np.array_equal(r0.limbs, first[0].limbs)
