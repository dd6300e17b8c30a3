"""Basis conversion + fused key switching vs exact big-int CRT references.

Every kernel here has a bit-exactness contract, not an approximation
contract: conversion rows must equal ``X mod p_j`` of the canonical
big-int reconstruction, ModDown must equal the big-int floor division,
and the fused key-switch pipeline must equal the step-by-step composed
reference — for every Table-3 backend and both input domains.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import crt_oracle
from repro.errors import (
    LayoutError,
    LevelError,
    ParameterError,
)
from repro.poly.basis_conv import (
    BasisConverter,
    KeySwitchKey,
    ModDown,
    ModUp,
)
from repro.poly.batch_ntt import BatchNTT
from repro.poly.rns_poly import COEFF, NTT, PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool, digit_ranges
from repro.rns.reduction import ShoupReducer

N = 64
METHODS = ("barrett", "montgomery", "shoup", "smr")


@pytest.fixture(scope="module")
def ks_pool() -> PrimePool:
    """A pool with enough aux primes for key-switching tests."""
    return PrimePool.generate(N, num_main=5, num_terminal=2, num_aux=4)


@pytest.fixture(scope="module")
def base_primes(ks_pool) -> list[int]:
    return [p.value for p in ks_pool.limb_primes(2, 3)]


@pytest.fixture(scope="module")
def aux_primes(ks_pool) -> list[int]:
    return [p.value for p in ks_pool.aux]


@pytest.fixture()
def ctx(base_primes) -> PolyContext:
    return PolyContext(N, base_primes, "smr")


def residues(values: list[int], primes: list[int]) -> np.ndarray:
    return np.array([[v % p for v in values] for p in primes], np.uint64)


# ---------------------------------------------------------------------------
# BasisConverter
# ---------------------------------------------------------------------------


class TestBasisConverter:
    def test_matches_bigint_reference(self, base_primes, aux_primes, rng):
        conv = BasisConverter(base_primes, aux_primes, N)
        x = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in base_primes])
        got = conv.convert(x)
        expect = residues(crt_oracle(base_primes, x, centered=False), aux_primes)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize(
        "columns",
        [pytest.param([(0, d)], id=str(d)) for d in (0, 1, -1, 12345)]
        + [
            pytest.param(
                [(0, 0), (0, 1), (0, 0), (1, 0), (1, 1), (0, 0), (0, -1)],
                id="zero-columns-mixed",
            )
        ],
    )
    def test_boundary_representatives_exact(self, base_primes, aux_primes, columns):
        """X near 0 and near Q exercises the exact-v guard: the float
        correction alone cannot decide these, the half-compare of their
        digits must.  Columns repeat ``(h, d) -> h * floor(Q/2) + d mod
        Q``; the last case puts all-zero columns, whose float sum is
        exactly 0 and needs no guard, among 0, 1, Q/2, Q/2 + 1 and Q - 1."""
        conv = BasisConverter(base_primes, aux_primes, N)
        half = conv.modulus // 2
        values = [(h * half + d) % conv.modulus for h, d in columns]
        values = (values * N)[:N]
        got = conv.convert(residues(values, base_primes))
        assert np.array_equal(got, residues(values, aux_primes))

    def test_scale_step_is_inverse_crt_weights(self, base_primes, rng):
        conv = BasisConverter(base_primes, base_primes[:1], N)
        x = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in base_primes])
        got = conv.scale(x)
        for i, q in enumerate(base_primes):
            w = pow(conv.modulus // q, -1, q)
            assert np.array_equal(got[i], x[i] * np.uint64(w) % np.uint64(q))

    def test_single_source_limb(self, base_primes, aux_primes, rng):
        q = base_primes[0]
        conv = BasisConverter([q], aux_primes, N)
        x = rng.integers(0, q, (1, N), dtype=np.uint64)
        got = conv.convert(x)
        expect = residues([int(v) for v in x[0]], aux_primes)
        assert np.array_equal(got, expect)

    def test_convert_into_caller_buffer(self, base_primes, aux_primes, rng):
        conv = BasisConverter(base_primes, aux_primes, N)
        x = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in base_primes])
        out = np.empty((len(aux_primes), N), np.uint64)
        got = conv.convert(x, out=out)
        assert got is out
        assert np.array_equal(out, conv.convert(x))

    def test_rejects_out_of_range_input(self, base_primes, aux_primes):
        conv = BasisConverter(base_primes, aux_primes, N)
        x = np.zeros((len(base_primes), N), np.uint64)
        x[0, 3] = base_primes[0]  # == q, out of canonical range
        with pytest.raises(ParameterError, match="out of range"):
            conv.convert(x)

    def test_rejects_bad_shapes_and_bases(self, base_primes, aux_primes):
        with pytest.raises(ParameterError, match="non-empty"):
            BasisConverter([], aux_primes, N)
        with pytest.raises(ParameterError, match="distinct"):
            BasisConverter([base_primes[0]] * 2, aux_primes, N)
        conv = BasisConverter(base_primes, aux_primes, N)
        with pytest.raises(LayoutError, match="source limbs"):
            conv.convert(np.zeros((1, N), np.uint64))


class TestMulmodCross:
    def test_matches_per_pair_mulmod_const(self, base_primes, aux_primes, rng):
        red = ShoupReducer(aux_primes)
        x = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in base_primes])
        w = np.stack(
            [rng.integers(0, p, len(base_primes), dtype=np.uint64) for p in aux_primes]
        )
        w_sh = np.stack([(w[j] * (1 << 32)) // p for j, p in enumerate(aux_primes)])
        got = red.mulmod_cross(x, w, w_sh)
        for j, p in enumerate(aux_primes):
            single = ShoupReducer(p)
            for i in range(len(base_primes)):
                expect = single.mulmod_const(
                    x[i], int(w[j, i]), single.precompute(int(w[j, i]))
                )
                assert np.array_equal(got[j, i], expect)

    def test_requires_batched_reducer_and_matching_shapes(self, base_primes):
        with pytest.raises(ParameterError, match="batched"):
            ShoupReducer(base_primes[0]).mulmod_cross(
                np.zeros((2, N), np.uint64),
                np.zeros((1, 2), np.uint64),
                np.zeros((1, 2), np.uint64),
            )
        red = ShoupReducer(base_primes)
        with pytest.raises(ParameterError, match="cross product"):
            red.mulmod_cross(
                np.zeros((2, N), np.uint64),
                np.zeros((2, 3), np.uint64),
                np.zeros((2, 3), np.uint64),
            )


# ---------------------------------------------------------------------------
# ModUp / ModDown
# ---------------------------------------------------------------------------


class TestModUpDown:
    def test_mod_up_extends_exactly(self, ctx, aux_primes, rng):
        a = ctx.random(rng)
        up = a.mod_up(aux_primes)
        lift = crt_oracle(ctx.primes, a.limbs, centered=False)
        assert np.array_equal(up.limbs, residues(lift, up.ctx.primes))
        assert up.ctx.primes == ctx.primes + aux_primes

    def test_digit_mod_up_assembles_rows(self, ctx, aux_primes, rng):
        ext = ctx.primes + aux_primes
        lo, hi = 1, 3
        up = ModUp(ext, lo, hi, N)
        digit = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in ext[lo:hi]])
        out = np.empty((len(ext), N), np.uint64)
        up.apply(digit, out)
        lift = crt_oracle(ext[lo:hi], digit, centered=False)
        expect = residues(lift, ext)
        expect[lo:hi] = digit  # digit rows are verbatim copies
        assert np.array_equal(out, expect)

    def test_mod_up_requires_coeff_domain(self, ctx, aux_primes, rng):
        with pytest.raises(LayoutError, match="coefficient domain"):
            ctx.random(rng).to_ntt().mod_up(aux_primes)

    def test_mod_up_rejects_degenerate_digit(self, base_primes):
        with pytest.raises(ParameterError, match="whole extended basis"):
            ModUp(base_primes, 0, len(base_primes), N)
        with pytest.raises(ParameterError, match="digit rows"):
            ModUp(base_primes, 2, 2, N)

    def test_mod_down_is_bigint_floor_division(self, ctx, aux_primes, rng):
        a = ctx.random(rng)
        up = a.mod_up(aux_primes)
        # Perturb the extension so the P-part is non-trivial (a general
        # element of the extended basis, not an exact multiple pattern).
        noise = up.ctx.random(rng)
        mixed = up.add(noise)
        down = mixed.mod_down(len(aux_primes))
        p_mod = 1
        for p in aux_primes:
            p_mod *= p
        lift = crt_oracle(mixed.ctx.primes, mixed.limbs, centered=False)
        expect = residues([x // p_mod for x in lift], ctx.primes)
        assert np.array_equal(down.limbs, expect)
        assert down.ctx is ctx  # found its way back to the base context

    def test_mod_down_round_trip_recovers(self, ctx, aux_primes, rng):
        a = ctx.random(rng)
        up = a.mod_up(aux_primes)
        lift = crt_oracle(ctx.primes, a.limbs, centered=False)
        p_mod = 1
        for p in aux_primes:
            p_mod *= p
        # (X * P) / P == X exactly: scale by P inside the extended basis.
        scaled = residues([x * p_mod for x in lift], up.ctx.primes)
        down = RnsPolynomial(up.ctx, scaled, COEFF).mod_down(len(aux_primes))
        assert np.array_equal(down.limbs, a.limbs)

    def test_mod_down_requires_coeff_and_valid_count(self, ctx, aux_primes,
                                                     rng):
        up = ctx.random(rng).mod_up(aux_primes)
        with pytest.raises(LayoutError, match="coefficient domain"):
            up.to_ntt().mod_down(len(aux_primes))
        with pytest.raises(LevelError, match="strip"):
            up.mod_down(up.ctx.num_limbs)

    def test_mod_down_shape_validation(self, base_primes, aux_primes):
        md = ModDown(base_primes, aux_primes, N)
        with pytest.raises(LayoutError, match="extended"):
            md.apply(
                np.zeros((2, N), np.uint64),
                np.zeros((len(base_primes), N), np.uint64),
            )


# ---------------------------------------------------------------------------
# Context extension plumbing
# ---------------------------------------------------------------------------


class TestContextExtension:
    def test_extend_is_cached_and_shares_tables(self, ctx, aux_primes):
        ext = ctx.extend(aux_primes)
        assert ctx.extend(aux_primes) is ext
        assert ext.primes == ctx.primes + aux_primes
        # Prepared twiddle rows of the shared limbs are the same arrays.
        base_part = ctx.batch_ntt._fwd[0]
        ext_part = ext.batch_ntt._fwd[0]
        assert np.array_equal(ext_part[: ctx.num_limbs], base_part)

    def test_base_of_extension_returns_original(self, ctx, aux_primes):
        ext = ctx.extend(aux_primes)
        assert ext.base_of_extension(len(aux_primes)) is ctx

    def test_base_of_extension_builds_prefix_for_foreign_ctx(
        self, base_primes, aux_primes
    ):
        ctx = PolyContext(N, base_primes + aux_primes, "smr")
        base = ctx.base_of_extension(len(aux_primes))
        assert base.primes == base_primes
        assert ctx.base_of_extension(len(aux_primes)) is base  # cached

    def test_extend_rejects_empty_and_overlap(self, ctx):
        with pytest.raises(ParameterError, match="at least one"):
            ctx.extend([])
        with pytest.raises(ParameterError, match="overlap"):
            ctx.extend([ctx.primes[0]])


# ---------------------------------------------------------------------------
# Fused key switching
# ---------------------------------------------------------------------------


def composed_reference(ctx, ksk, poly):
    """Step-by-step key switch through big-int digit extension and the
    library's own (independently verified) multiply / ModDown pieces."""
    ext = ksk.ext_ctx
    acc = [None, None]
    for d, (lo, hi) in enumerate(digit_ranges(ctx.num_limbs, ksk.dnum)):
        lift = crt_oracle(ctx.primes[lo:hi], poly.limbs[lo:hi], centered=False)
        ext_poly = RnsPolynomial(ext, residues(lift, ext.primes), COEFF)
        a_hat = ext_poly.to_ntt()
        for half in range(2):
            term = a_hat.pointwise_multiply(ksk.pairs[d][half])
            acc[half] = term if acc[half] is None else acc[half].add(term)
    return tuple(c.to_coeff().mod_down(ksk.num_aux) for c in acc)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dnum", [1, 2, 5])
def test_key_switch_matches_composed_reference(
    base_primes, aux_primes, method, dnum, rng
):
    ctx = PolyContext(N, base_primes, method)
    a = ctx.random(rng)
    ksk = KeySwitchKey.random(ctx, aux_primes, dnum, rng)
    c0, c1 = a.key_switch(ksk)
    r0, r1 = composed_reference(ctx, ksk, a)
    assert np.array_equal(c0.limbs, r0.limbs)
    assert np.array_equal(c1.limbs, r1.limbs)
    assert c0.domain == COEFF and c0.ctx is ctx


def test_key_switch_accepts_ntt_input(ctx, aux_primes, rng):
    a = ctx.random(rng)
    ksk = KeySwitchKey.random(ctx, aux_primes, 2, rng)
    c0, _ = a.key_switch(ksk)
    # A *fresh* NTT-domain polynomial (no coefficient twin cached).
    a_hat = RnsPolynomial(ctx, ctx.batch_ntt.forward(a.limbs), NTT)
    k0, _ = a_hat.key_switch(ksk)
    assert np.array_equal(k0.limbs, c0.limbs)


class TestKeySwitchPlan:
    """Zero redundant round trips: the transforms one key switch makes,
    counted by wrapping ``BatchNTT.forward`` / ``inverse``."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = Counter()

        def counting(name):
            orig = getattr(BatchNTT, name)

            def wrapper(self, x, *, out=None):
                calls[name, len(x)] += 1
                return orig(self, x, out=out)

            return wrapper

        for name in ("forward", "inverse"):
            monkeypatch.setattr(BatchNTT, name, counting(name))

        def count(poly, ksk):
            calls.clear()
            poly.key_switch(ksk)
            return Counter(calls)

        return count

    def test_coeff_to_coeff_transform_counts(
        self, ctx, aux_primes, rng, transforms
    ):
        dnum = 2
        ksk = KeySwitchKey.random(ctx, aux_primes, dnum, rng)
        num_ext = ctx.num_limbs + len(aux_primes)
        assert transforms(ctx.random(rng), ksk) == Counter(
            {("forward", num_ext): dnum, ("inverse", num_ext): 2}
        )

    def test_cached_twin_makes_input_inverse_free(
        self, ctx, aux_primes, rng, transforms
    ):
        ksk = KeySwitchKey.random(ctx, aux_primes, 2, rng)
        a = ctx.random(rng)
        coeff = transforms(a, ksk)
        twinned = a.to_ntt()  # caches the coefficient twin
        fresh = RnsPolynomial(ctx, ctx.batch_ntt.forward(a.limbs), NTT)
        assert transforms(twinned, ksk) == coeff
        input_inverse = Counter({("inverse", ctx.num_limbs): 1})
        assert transforms(fresh, ksk) == coeff + input_inverse


class TestKeySwitchKeyValidation:
    def test_key_pairs_must_be_ntt_domain(self, ctx, aux_primes, rng):
        ext = ctx.extend(aux_primes)
        pair = (ext.random(rng), ext.random(rng))  # coeff domain
        with pytest.raises(LayoutError, match="NTT-domain"):
            KeySwitchKey(ext, len(aux_primes), [pair])

    def test_key_context_must_match(self, ctx, base_primes, aux_primes, rng):
        ext = ctx.extend(aux_primes)
        other = PolyContext(N, base_primes, "smr")
        pair = (other.random(rng).to_ntt(), other.random(rng).to_ntt())
        with pytest.raises(ParameterError, match="extended basis"):
            KeySwitchKey(ext, len(aux_primes), [pair])

    def test_switcher_rejects_mismatched_key(self, ctx, aux_primes, rng):
        ksk = KeySwitchKey.random(ctx, aux_primes, 2, rng)
        other = KeySwitchKey.random(ctx, aux_primes[:2], 2, rng)
        switcher = ctx.key_switcher(aux_primes, 2)
        with pytest.raises(ParameterError, match="does not match"):
            switcher.run(ctx.random(rng), other)

    def test_switcher_is_cached(self, ctx, aux_primes):
        assert ctx.key_switcher(aux_primes, 2) is ctx.key_switcher(aux_primes, 2)
        assert ctx.key_switcher(aux_primes, 1) is not ctx.key_switcher(aux_primes, 2)


# -- hoisting (PR 4): shared ModUp across key switches ----------------------
class TestHoisting:
    def test_run_hoisted_bit_matches_key_switch(self, ctx, aux_primes, rng):
        ksk = KeySwitchKey.random(ctx, aux_primes, 2, rng)
        sw = ctx.key_switcher(aux_primes, 2)
        a = ctx.random(rng)
        c0, c1 = a.key_switch(ksk)
        h0, h1 = sw.run_hoisted(sw.hoist(a), ksk)
        assert np.array_equal(c0.limbs, h0.limbs)
        assert np.array_equal(c1.limbs, h1.limbs)

    def test_hoist_tensor_reuse_across_keys(self, ctx, aux_primes, rng):
        """One hoist serves many keys: per-key results equal per-key
        hoists (nothing in run_hoisted mutates the tensor)."""
        sw = ctx.key_switcher(aux_primes, 2)
        a = ctx.random(rng)
        hoisted = sw.hoist(a)
        snapshot = hoisted.copy()
        keys = [KeySwitchKey.random(ctx, aux_primes, 2, rng) for _ in range(3)]
        shared = [sw.run_hoisted(hoisted, k) for k in keys]
        assert np.array_equal(hoisted, snapshot)
        for k, (s0, s1) in zip(keys, shared):
            f0, f1 = sw.run_hoisted(sw.hoist(a), k)
            assert np.array_equal(s0.limbs, f0.limbs)
            assert np.array_equal(s1.limbs, f1.limbs)

    def test_run_hoisted_with_permutation(self, ctx, aux_primes, rng):
        """A Galois slot permutation of the hoisted digits equals
        hoisting the *integer* automorphism of each digit."""
        from repro.poly.ntt import automorphism_tables

        k = 5
        n = ctx.ring_degree
        perm = automorphism_tables(n, k)[2]
        ksk = KeySwitchKey.random(ctx, aux_primes, 2, rng)
        sw = ctx.key_switcher(aux_primes, 2)
        a = ctx.random(rng)
        hoisted = sw.hoist(a)
        permuted = np.stack([digit[:, perm] for digit in hoisted])
        p0, p1 = sw.run_hoisted(hoisted, ksk, perm=perm)
        q0, q1 = sw.run_hoisted(permuted, ksk)
        assert np.array_equal(p0.limbs, q0.limbs)
        assert np.array_equal(p1.limbs, q1.limbs)

    def test_run_hoisted_validation(self, ctx, aux_primes, rng):
        ksk = KeySwitchKey.random(ctx, aux_primes, 2, rng)
        sw = ctx.key_switcher(aux_primes, 2)
        a = ctx.random(rng)
        hoisted = sw.hoist(a)
        with pytest.raises(LayoutError, match="hoisted digit tensor"):
            sw.run_hoisted(hoisted[:1], ksk)
        wrong = KeySwitchKey.random(ctx, aux_primes, 3, rng)
        with pytest.raises(ParameterError, match="configuration"):
            sw.run_hoisted(hoisted, wrong)
        other = PolyContext(ctx.ring_degree, ctx.primes, "barrett")
        with pytest.raises(ParameterError, match="context"):
            sw.hoist(other.random(rng))
