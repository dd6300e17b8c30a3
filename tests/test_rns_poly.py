"""RnsPolynomial validation against exact CRT big-integer references.

Every limb-wise operation is cross-checked by reconstructing operands and
results to Python integers mod Q = prod q_i — slow but exact, which is the
point: the (num_limbs, N) limb layout must be *algebraically invisible*.
"""

import numpy as np
import pytest

from conftest import negacyclic_schoolbook
from repro.errors import LayoutError, LevelError, ParameterError
from repro.poly.ntt import NegacyclicNTT
from repro.poly.rns_poly import COEFF, NTT, PolyContext
from repro.rns.primes import PrimePool, ntt_friendly_primes

N = 16  # tiny ring keeps the exact big-int references fast


@pytest.fixture(scope="module")
def ctx():
    small = PrimePool.generate(N, num_main=2, num_terminal=1, num_aux=0)
    return PolyContext.from_pool(small, num_terminal=1, num_main=2)


def test_context_properties(ctx):
    assert ctx.num_limbs == 3
    assert ctx.modulus == ctx.primes[0] * ctx.primes[1] * ctx.primes[2]
    assert ctx.moduli.shape == (3, 1)


def test_int_coeffs_round_trip(ctx):
    coeffs = list(range(-N // 2, N // 2))
    poly = ctx.from_int_coeffs(coeffs)
    assert poly.to_int_coeffs(centered=True) == coeffs
    uncentered = poly.to_int_coeffs(centered=False)
    assert uncentered == [c % ctx.modulus for c in coeffs]


def test_add_sub_negate_match_crt(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    ai = a.to_int_coeffs(centered=False)
    bi = b.to_int_coeffs(centered=False)
    big_q = ctx.modulus
    assert (a + b).to_int_coeffs(centered=False) == [
        (x + y) % big_q for x, y in zip(ai, bi)
    ]
    assert (a - b).to_int_coeffs(centered=False) == [
        (x - y) % big_q for x, y in zip(ai, bi)
    ]
    assert (-a).to_int_coeffs(centered=False) == [(-x) % big_q for x in ai]
    assert (a - a).to_int_coeffs(centered=False) == [0] * N


def test_multiply_matches_schoolbook_per_limb(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    prod = a * b
    assert prod.domain == COEFF
    for i, q in enumerate(ctx.primes):
        expect = negacyclic_schoolbook(a.limbs[i], b.limbs[i], q)
        assert np.array_equal(prod.limbs[i], expect)


def test_multiply_matches_crt_reference(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    ai = a.to_int_coeffs(centered=False)
    bi = b.to_int_coeffs(centered=False)
    big_q = ctx.modulus
    ref = [0] * N
    for i in range(N):
        for j in range(N):
            sign = 1 if i + j < N else -1
            ref[(i + j) % N] = (ref[(i + j) % N] + sign * ai[i] * bi[j]) % big_q
    assert (a * b).to_int_coeffs(centered=False) == ref


def test_ntt_domain_round_trip_and_pointwise(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    a_hat = a.to_ntt()
    assert a_hat.domain == NTT
    assert np.array_equal(a_hat.to_coeff().limbs, a.limbs)
    # NTT-domain multiply stays in NTT; equals coeff-domain multiply.
    prod_hat = a_hat.multiply(b.to_ntt())
    assert prod_hat.domain == NTT
    assert np.array_equal(prod_hat.to_coeff().limbs, (a * b).limbs)


def test_exact_rescale_is_rounded_division(ctx, rng):
    a = ctx.random(rng)
    q_last = ctx.primes[-1]
    rescaled = a.exact_rescale()
    assert rescaled.num_limbs == ctx.num_limbs - 1
    assert rescaled.ctx is ctx.drop_last()
    got = rescaled.to_int_coeffs(centered=True)
    for x, y in zip(a.to_int_coeffs(centered=True), got):
        r = x % q_last
        if r > q_last // 2:
            r -= q_last  # centered remainder, (-q_L/2, q_L/2]
        assert (x - r) // q_last == y


def test_rescale_error_is_at_most_half(ctx, rng):
    """|rescaled - x / q_L| <= 1/2: the 'exact' in exact rescaling."""
    a = ctx.random(rng)
    q_last = ctx.primes[-1]
    got = a.exact_rescale().to_int_coeffs(centered=True)
    for x, y in zip(a.to_int_coeffs(centered=True), got):
        # |y - x/q_L| <= 1/2, checked in exact integer arithmetic.
        assert 2 * abs(y * q_last - x) <= q_last


def test_domain_and_context_errors(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    with pytest.raises(LayoutError):
        a.pointwise_multiply(b)  # coeff-domain operands
    with pytest.raises(LayoutError):
        a.to_ntt().exact_rescale()
    with pytest.raises(LayoutError):
        a.to_ntt().to_int_coeffs()
    with pytest.raises(LayoutError):
        a.to_ntt().add(b)  # mixed domains
    other = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    with pytest.raises(ParameterError):
        a.add(other.random(rng))  # same primes, different method
    single = PolyContext(ctx.ring_degree, ctx.primes[:1])
    with pytest.raises(LevelError):
        single.random(rng).exact_rescale()
    with pytest.raises(LevelError):
        single.drop_last()


def test_context_validation():
    with pytest.raises(ParameterError):
        PolyContext(N, [])
    with pytest.raises(ParameterError):
        PolyContext(N, [97, 97])
    ctx2 = PolyContext(N, [ntt_friendly_primes(30, 1, N)[0]])
    with pytest.raises(LayoutError):
        ctx2.from_int_coeffs([1, 2, 3])  # wrong length


def test_shoup_backend_context_multiplies(ctx, rng):
    """The acceptance bar calls out SMR and Shoup: rerun multiply on Shoup."""
    shoup_ctx = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    a, b = shoup_ctx.random(rng), shoup_ctx.random(rng)
    prod = a * b
    for i, q in enumerate(shoup_ctx.primes):
        expect = negacyclic_schoolbook(a.limbs[i], b.limbs[i], q)
        assert np.array_equal(prod.limbs[i], expect)


def test_drop_last_is_cached(ctx):
    assert ctx.drop_last() is ctx.drop_last()
    assert ctx.drop_last().primes == ctx.primes[:-1]
    # Twiddle tables are immutable: the child's batched engine is the
    # parent's sliced (same roots), not a rebuild.
    assert ctx.drop_last().batch_ntt.psis == ctx.batch_ntt.psis[:-1]


# -- batched pipeline vs per-prime reference engines -----------------------


@pytest.mark.parametrize("method", ("barrett", "montgomery", "shoup", "smr"))
def test_transforms_bit_match_reference_engines(ctx, method, rng):
    """to_ntt / to_coeff / pointwise_multiply run batched but must equal a
    Python loop over the per-prime reference engines, bit for bit."""
    mctx = PolyContext(ctx.ring_degree, ctx.primes, method)
    # Per-prime engines pinned to the batched engine's roots.
    ntts = [
        NegacyclicNTT(q, mctx.ring_degree, method, psi=psi)
        for q, psi in zip(mctx.primes, mctx.batch_ntt.psis)
    ]
    a, b = mctx.random(rng), mctx.random(rng)
    ref_fwd = np.stack([ntt.forward(a.limbs[i]) for i, ntt in enumerate(ntts)])
    a_hat = a.to_ntt()
    assert np.array_equal(a_hat.limbs, ref_fwd)
    assert np.array_equal(a_hat.to_coeff().limbs, a.limbs)
    b_hat = b.to_ntt()
    ref_pw = np.stack(
        [
            ntt.pointwise(a_hat.limbs[i], b_hat.limbs[i])
            for i, ntt in enumerate(ntts)
        ]
    )
    assert np.array_equal(a_hat.pointwise_multiply(b_hat).limbs, ref_pw)


def test_rescale_unchanged_after_caching(ctx, rng):
    """The cached-constant, division-free rescale must reproduce the
    original per-limb pow()-per-call loop exactly."""
    for _ in range(10):
        a = ctx.random(rng)
        q_last = ctx.primes[-1]
        last = a.limbs[-1].astype(np.int64)
        centered = np.where(last > q_last // 2, last - q_last, last)
        ref = np.empty((ctx.num_limbs - 1, ctx.ring_degree), np.uint64)
        for i, q in enumerate(ctx.primes[:-1]):
            r = centered % q
            diff = a.limbs[i] + np.uint64(q) - r.astype(np.uint64)
            diff = np.where(diff >= q, diff - np.uint64(q), diff)
            inv = pow(q_last, -1, q)
            ref[i] = diff * np.uint64(inv) % np.uint64(q)
        assert np.array_equal(a.exact_rescale().limbs, ref)


def test_rescale_consts_cached_on_context(ctx):
    consts = ctx.rescale_consts
    assert consts is ctx.rescale_consts  # cached_property
    inv, inv_shoup, mu32, corr = consts
    q_last = ctx.primes[-1]
    for i, q in enumerate(ctx.primes[:-1]):
        assert int(inv[i, 0]) == pow(q_last, -1, q)
        assert int(inv_shoup[i, 0]) == (pow(q_last, -1, q) << 32) // q
        assert int(mu32[i, 0]) == (1 << 32) // q
        assert int(corr[i, 0]) == (-q_last) % q


def test_prepared_operand_is_cached_and_requires_ntt(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    with pytest.raises(LayoutError):
        b.prepared_operand()  # coefficient domain
    b_hat = b.to_ntt()
    handle = b_hat.prepared_operand()
    assert b_hat.prepared_operand() is handle  # paid once, reused
    # pointwise_multiply goes through the same cached handle.
    a_hat = a.to_ntt()
    first = a_hat.pointwise_multiply(b_hat)
    assert b_hat.prepared_operand() is handle
    assert np.array_equal(a_hat.pointwise_multiply(b_hat).limbs, first.limbs)


# -- multiply_accumulate (§4.2 key-switching shape) ------------------------


@pytest.mark.parametrize("method", ("barrett", "montgomery", "shoup", "smr"))
def test_multiply_accumulate_matches_naive_chain(ctx, method, rng):
    from repro.poly.rns_poly import RnsPolynomial

    mctx = PolyContext(ctx.ring_degree, ctx.primes, method)
    k = 6
    a = [mctx.random(rng).to_ntt() for _ in range(k)]
    b = [mctx.random(rng).to_ntt() for _ in range(k)]
    ref = a[0].pointwise_multiply(b[0])
    for i in range(1, k):
        ref = ref + a[i].pointwise_multiply(b[i])
    got = RnsPolynomial.multiply_accumulate(a, b)
    assert got.domain == NTT
    assert np.array_equal(got.limbs, ref.limbs)


def test_multiply_accumulate_raw_strategy(rng):
    """SMR's deferred-reduction strategy on terminal-sized limbs."""
    from repro.poly.rns_poly import RnsPolynomial
    from repro.rns.primes import ntt_friendly_primes as gen

    primes = [p.value for p in gen(25, 3, N)]
    sctx = PolyContext(N, primes, "smr")
    k = 8
    a = [sctx.random(rng).to_ntt() for _ in range(k)]
    b = [sctx.random(rng).to_ntt() for _ in range(k)]
    ref = a[0].pointwise_multiply(b[0])
    for i in range(1, k):
        ref = ref + a[i].pointwise_multiply(b[i])
    got = RnsPolynomial.multiply_accumulate(a, b, strategy="raw")
    assert np.array_equal(got.limbs, ref.limbs)


def test_multiply_accumulate_validation(ctx, rng):
    from repro.poly.rns_poly import RnsPolynomial

    a, b = ctx.random(rng).to_ntt(), ctx.random(rng).to_ntt()
    with pytest.raises(ParameterError):
        RnsPolynomial.multiply_accumulate([], [])
    with pytest.raises(ParameterError):
        RnsPolynomial.multiply_accumulate([a], [b, b])
    with pytest.raises(LayoutError):
        RnsPolynomial.multiply_accumulate([a], [ctx.random(rng)])  # coeff
    other = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    with pytest.raises(ParameterError):
        RnsPolynomial.multiply_accumulate([a], [other.random(rng).to_ntt()])


# -- transform twin caching (PR 3 satellite) --------------------------------
def test_to_ntt_caches_twin(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    assert a.to_ntt() is a_hat  # second transform is the cached twin
    assert a_hat.to_coeff() is a  # and the link is bidirectional
    assert np.array_equal(a_hat.limbs, ctx.batch_ntt.forward(a.limbs))


def test_to_coeff_caches_twin(ctx, rng):
    from repro.poly.rns_poly import RnsPolynomial

    a_hat = RnsPolynomial(ctx, ctx.batch_ntt.forward(ctx.random(rng).limbs),
                          NTT)
    a = a_hat.to_coeff()
    assert a_hat.to_coeff() is a
    assert a.to_ntt() is a_hat


def test_same_domain_transform_is_identity(ctx, rng):
    a = ctx.random(rng)
    assert a.to_coeff() is a
    a_hat = a.to_ntt()
    assert a_hat.to_ntt() is a_hat


# -- in-place mutation must invalidate caches (PR 3 satellite) --------------
def test_inplace_ops_match_functional(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    expect_add = a.add(b)
    mut = ctx.zeros().add_(a).add_(b)
    assert np.array_equal(mut.limbs, expect_add.limbs)
    expect_sub = a.sub(b)
    mut = ctx.zeros().add_(a).sub_(b)
    assert np.array_equal(mut.limbs, expect_sub.limbs)
    expect_neg = a.negate()
    mut = ctx.zeros().add_(a).negate_()
    assert np.array_equal(mut.limbs, expect_neg.limbs)


def test_inplace_mutation_drops_prepared_handle(ctx, rng):
    """Regression: a stale prepared operand must not survive mutation.

    Before the fix, mutating the limb matrix in place left the cached
    backend-prepared handle serving the *old* values to every subsequent
    pointwise product.
    """
    a_hat = ctx.random(rng).to_ntt()
    b_hat = ctx.random(rng).to_ntt()
    _ = a_hat.pointwise_multiply(b_hat)  # fills b_hat._prepared
    assert b_hat._prepared is not None
    b_hat.negate_()
    assert b_hat._prepared is None
    got = a_hat.pointwise_multiply(b_hat)
    from repro.poly.rns_poly import RnsPolynomial

    fresh = RnsPolynomial(ctx, b_hat.limbs.copy(), NTT)
    assert np.array_equal(got.limbs, a_hat.pointwise_multiply(fresh).limbs)


def test_inplace_mutation_severs_twin_link(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    a.add_(ctx.random(rng))
    # Neither side may keep serving the stale transform.
    assert a._twin is None and a_hat._twin is None
    new_hat = a.to_ntt()
    assert new_hat is not a_hat
    assert np.array_equal(new_hat.limbs, ctx.batch_ntt.forward(a.limbs))


def test_inplace_on_twin_invalidates_both_sides(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    a_hat.negate_()  # mutate the cached twin, not the original
    assert a._twin is None
    assert np.array_equal(a.to_ntt().limbs, ctx.batch_ntt.forward(a.limbs))


def test_multiply_result_carries_no_twin(ctx, rng):
    """Regression: a product chain must not pin an NTT-domain copy of
    every intermediate through the twin link (memory, ref cycles)."""
    a, b = ctx.random(rng), ctx.random(rng)
    prod = a * b
    assert prod._twin is None
    # The operands keep their twins — repeat products stay cheap.
    assert a._twin is not None and b._twin is not None
    assert np.array_equal(
        prod.limbs,
        ctx.batch_ntt.inverse(a.to_ntt().pointwise_multiply(b.to_ntt()).limbs),
    )


# -- explicit LimbState (PR 4 tentpole) -------------------------------------
def test_limbstate_carries_domain_level_scale(ctx, rng):
    from repro.poly.rns_poly import LimbState

    a = ctx.random(rng)
    assert a.state.domain == COEFF and a.domain == COEFF
    assert a.state.level == ctx.num_limbs and a.level == ctx.num_limbs
    assert a.state.scale == 1.0 and a.scale == 1.0
    with pytest.raises(LayoutError):
        LimbState("frequency", 3)
    with pytest.raises(LevelError):
        LimbState(COEFF, 0)


def test_scale_propagates_through_ops(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    a.state.scale = 2.0**20
    b.state.scale = 2.0**21
    assert (a + b).scale == a.scale  # linear ops keep the left scale
    assert (a - b).scale == a.scale
    assert (-a).scale == a.scale
    assert a.to_ntt().scale == a.scale  # transforms preserve it
    assert (a * b).scale == 2.0**41  # products multiply it
    from repro.poly.rns_poly import RnsPolynomial

    mac = RnsPolynomial.multiply_accumulate(
        [a.to_ntt(), a.to_ntt()], [b.to_ntt(), b.to_ntt()]
    )
    assert mac.scale == 2.0**41  # fused inner products too
    q_last = ctx.primes[-1]
    res = a.exact_rescale()
    assert res.scale == a.scale / q_last  # rescale divides by q_last
    assert res.level == a.level - 1


def test_invalidate_is_the_single_cache_drop_path(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    handle = a_hat.prepared_operand()
    assert a_hat.state.prepared is handle
    assert a.state.twin is a_hat and a_hat.state.twin is a
    a_hat.state.invalidate()
    assert a_hat.state.prepared is None
    assert a_hat.state.twin is None and a.state.twin is None


def test_mismatch_reason_is_none_for_compatible(ctx):
    assert ctx.mismatch_reason(ctx) is None
    clone = PolyContext(ctx.ring_degree, ctx.primes, ctx.method)
    assert ctx.mismatch_reason(clone) is None
    assert ctx.compatible(clone)


def test_check_error_names_the_field(ctx, rng):
    a = ctx.random(rng)
    lower = ctx.drop_last().random(rng)
    with pytest.raises(ParameterError, match="level mismatch"):
        a.add(lower)
    other = PolyContext(ctx.ring_degree, ctx.primes, "barrett")
    with pytest.raises(ParameterError, match="reduction method mismatch"):
        a.add(other.random(rng))


def test_automorphism_round_trips_through_crt(ctx, rng):
    """sigma_k on the limb matrix equals sigma_k on the big integers."""
    a = ctx.random(rng)
    k = 5
    got = a.automorphism(k).to_int_coeffs(centered=True)
    src = a.to_int_coeffs(centered=True)
    n = ctx.ring_degree
    big_q = ctx.modulus
    expect = [0] * n
    for i in range(n):
        e = (i * k) % (2 * n)
        v = src[i]
        if e >= n:
            expect[e - n] = -v
        else:
            expect[e] = v
    half = big_q // 2
    expect = [((c + half) % big_q) - half for c in expect]
    assert got == expect
