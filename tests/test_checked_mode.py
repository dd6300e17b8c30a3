"""Sanitizer-checked execution: flag plumbing, bit-identity, and trips.

Checked mode (``REPRO_CHECKED=1`` / ``PolyContext(checked=True)``)
asserts the Level-1 analyzer's statically derived per-stage bounds
inside the real kernels at runtime.  Three properties matter:

* the flag reaches every kernel a context constructs (NTT engines,
  accumulators, converters) without call-site changes;
* instrumented execution is bit-identical to plain execution — the
  asserts observe, they never transform;
* a genuine invariant violation trips a :class:`SanitizerError` naming
  the kernel, stage and offending coefficient, and an over-full lazy
  accumulator reports its statically safe headroom before any wrap.
"""

import numpy as np
import pytest

from repro.analysis import checked_mode
from repro.analysis.sanitizer import assert_fold_sound, assert_within
from repro.errors import AccumulatorOverflowError, SanitizerError
from repro.poly.lazy import LazyAccumulator
from repro.poly.rns_poly import PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool
from repro.rns.reduction import SignedMontgomeryReducer, make_reducer

N = 64


@pytest.fixture(scope="module")
def pool() -> PrimePool:
    return PrimePool.generate(N, num_main=3, num_terminal=1, num_aux=2)


class TestFlagResolution:
    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKED", "1")
        assert checked_mode(False) is False
        monkeypatch.delenv("REPRO_CHECKED")
        assert checked_mode(True) is True

    @pytest.mark.parametrize("value", ["", "0", "false", "OFF", "no"])
    def test_falsy_env_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECKED", value)
        assert checked_mode() is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy_env_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECKED", value)
        assert checked_mode() is True

    def test_env_reaches_constructors(self, monkeypatch, pool):
        monkeypatch.setenv("REPRO_CHECKED", "1")
        ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=2)
        assert ctx.checked
        assert ctx.batch_ntt.checked
        acc = LazyAccumulator(make_reducer("smr", ctx.primes), (3, N))
        assert acc.checked


class TestContextPropagation:
    def test_checked_propagates_to_children(self, pool):
        ctx = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, checked=True
        )
        assert ctx.checked and ctx.batch_ntt.checked
        child = ctx.drop_last()
        assert child.checked and child.batch_ntt.checked

    def test_certificate_is_cached_and_validated(self, pool):
        ctx = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, checked=True
        )
        cert = ctx.range_certificate()
        assert cert is ctx.range_certificate()  # computed once
        assert cert.ok  # checked construction validated it eagerly
        assert cert.stage_bounds == tuple(q - 1 for q in ctx.primes)

    @pytest.mark.parametrize("method", ("barrett", "smr"))
    def test_checked_execution_is_bit_identical(self, pool, method):
        plain = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, method=method, checked=False
        )
        checked = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, method=method, checked=True
        )
        r = np.random.default_rng(0xC0DE)
        limbs = np.stack(
            [r.integers(0, q, N, dtype=np.uint64) for q in plain.primes]
        )
        a = RnsPolynomial(plain, limbs.copy())
        b = RnsPolynomial(checked, limbs.copy())
        assert np.array_equal(
            plain.batch_ntt.forward(limbs.copy()),
            checked.batch_ntt.forward(limbs.copy()),
        )
        assert np.array_equal(
            a.multiply(a).limbs, b.multiply(b).limbs
        )
        assert np.array_equal(
            a.multiply(a).exact_rescale().limbs,
            b.multiply(b).exact_rescale().limbs,
        )

    @pytest.mark.parametrize("explicit,env", [(True, None), (False, "1")])
    def test_compiled_plan_accumulators_follow_context(
        self, monkeypatch, explicit, env
    ):
        """A compiled plan's MAC accumulators take the context's explicit
        ``checked`` (and tier), not the ``REPRO_CHECKED`` default — an
        explicitly checked context must never run unchecked kernels."""
        from repro import CkksContext

        if env is None:
            monkeypatch.delenv("REPRO_CHECKED", raising=False)
        else:
            monkeypatch.setenv("REPRO_CHECKED", env)
        cc = CkksContext(
            ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=5,
            checked=explicit,
        )
        assert cc.checked is explicit
        plan = cc.compile(lambda p, x: p.rescale(p.multiply(x, x)))
        assert plan._accs
        for acc in plan._accs.values():
            assert acc.checked is explicit
            assert acc.backend_tier == cc.backend


class TestSanitizerTrips:
    def test_assert_within_names_the_violation(self):
        values = np.array([[1, 2], [3, 99]], dtype=np.uint64)
        with pytest.raises(SanitizerError) as e:
            assert_within(
                values, np.uint64(50), kernel="barrett NTT", stage="stage 2"
            )
        msg = str(e.value)
        assert "barrett NTT" in msg and "stage 2" in msg
        assert "99" in msg and "row 1" in msg
        # In-bounds data passes silently.
        assert_within(values, np.uint64(99), kernel="k", stage="s") is None

    def test_assert_fold_sound_trip(self):
        acc = np.array([[5, 2**40]], dtype=np.uint64)
        with pytest.raises(SanitizerError, match="unsound"):
            assert_fold_sound(
                acc, 2**39, kernel="LazyAccumulator.fold", signed=False
            )
        assert_fold_sound(acc, 2**40, kernel="k", signed=False)

    def test_corrupted_accumulator_trips_on_fold(self, pool):
        # The bound tracker says one product was charged; the data says
        # something much larger got in.  Checked fold must catch the
        # disagreement instead of silently folding garbage.
        qs = [p.value for p in pool.limb_primes(1, 2)]
        acc = LazyAccumulator(
            SignedMontgomeryReducer(qs), (len(qs), N), checked=True
        )
        r = np.random.default_rng(7)
        a = np.stack([r.integers(0, q, N, dtype=np.uint64) for q in qs])
        acc.accumulate_product(a, (a,))
        acc.acc[0, 0] = np.int64(2**62)  # corrupt behind the tracker
        with pytest.raises(SanitizerError, match="static bound tracking"):
            acc.fold()

    def test_ntt_entry_contract_precedes_stage_asserts(self, pool):
        # Out-of-range inputs never reach a butterfly: the kernel's own
        # entry range check refuses them (the analyzer's base case).
        from repro.errors import ParameterError

        ctx = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, method="barrett", checked=True
        )
        bad = np.full(
            (ctx.num_limbs, N), 4 * max(ctx.primes), dtype=np.uint64
        )
        with pytest.raises(ParameterError, match="out of range"):
            ctx.batch_ntt.forward(bad)

    def test_stage_asserts_run_inside_the_transform(self, pool):
        # The reducers are range-correct by construction, so a genuine
        # mid-transform violation cannot be provoked from outside; to
        # prove the per-stage asserts actually execute in the hot loop,
        # tighten the certified bound below what honest butterflies
        # produce and watch the first stage trip.
        ctx = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, method="barrett", checked=True
        )
        kernel = ctx.batch_ntt._kernel
        kernel._bound_col = np.full_like(kernel._bound_col, 2)
        r = np.random.default_rng(3)
        a = np.stack(
            [r.integers(0, q, N, dtype=np.uint64) for q in ctx.primes]
        )
        with pytest.raises(SanitizerError, match="forward stage"):
            ctx.batch_ntt.forward(a)


class TestOverflowHeadroomMessage:
    def test_overflow_reports_safe_headroom(self, pool):
        # The overflow error must carry the statically computed safe
        # headroom and the offending magnitude/limb.
        qs = [p.value for p in pool.limb_primes(1, 2)]
        acc = LazyAccumulator(SignedMontgomeryReducer(qs), (len(qs), N))
        r = np.random.default_rng(11)
        a = np.stack([r.integers(0, q, N, dtype=np.uint64) for q in qs])
        acc.accumulate_product(a, (a,))
        # The tracked bound sits two worst-case terms below the limit.
        acc.bound = acc.limit - 2 * (max(qs) - 1)
        with pytest.raises(AccumulatorOverflowError) as e:
            for _ in range(acc.headroom + 1):
                acc.accumulate_product(a, (a,))
        assert acc.terms == 3 and acc.headroom == 0
        msg = str(e.value)
        assert "statically safe headroom at the current bound is 0" in msg
        assert "fold first" in msg
        i, k = np.unravel_index(
            int(np.argmax(np.abs(acc.acc))), acc.acc.shape
        )
        assert f"limb {i}, coefficient {k}" in msg  # the offending lane

    def test_negative_value_into_unsigned_is_refused_up_front(self, pool):
        from repro.errors import ParameterError

        q = pool.limb_primes(1, 2)[0].value
        acc = LazyAccumulator(make_reducer("barrett", [q]), (1, N))
        with pytest.raises(ParameterError, match="wrap it silently"):
            acc.accumulate_value(np.full((1, N), -3, dtype=np.int64), 3)
