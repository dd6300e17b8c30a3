"""Backend dispatch: precedence, cross-tier bit-identity, degradation.

The PR 9 contract has three load-bearing claims, each tested here:

* tier selection follows constructor arg > ``REPRO_BACKEND`` > numpy,
  children inherit their parent's tier, and unknown names fail loudly;
* the compiled tier, when available, is bit-identical to the numpy
  reference on the full parity grid (four reducers x N in {1024, 4096}
  x L in {4, 12}: NTT round-trip, multiply, ModUp, ModDown, hybrid key
  switch);
* degradation is graceful and loud exactly once — a missing toolchain
  warns a single :class:`BackendFallbackWarning` (not per call) and
  runs on numpy.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ParameterError, SanitizerError
from repro.poly.backends import (
    BACKEND_TIERS,
    BackendFallbackWarning,
    resolve_backend,
)
from repro.poly.backends import compiled
from repro.poly.basis_conv import KeySwitchKey
from repro.poly.rns_poly import PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool


def _available_tiers() -> list[str]:
    tiers = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendFallbackWarning)
        if compiled.get_lib() is not None:
            tiers.append("compiled")
    return tiers


TIERS = _available_tiers()


# -- precedence and plumbing ----------------------------------------------
class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "numpy"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_backend(None) == "compiled"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_backend("numpy") == "numpy"

    @pytest.mark.parametrize("bad", ["cuda", "looped", "", "sharded"])
    def test_unknown_tier_rejected(self, bad):
        with pytest.raises(ParameterError, match="backend"):
            resolve_backend(bad)

    def test_tier_names_normalize(self):
        assert resolve_backend(" COMPILED ") == "compiled"

    def test_env_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ParameterError, match="backend"):
            resolve_backend(None)

    def test_tier_names_are_closed(self):
        assert set(BACKEND_TIERS) == {"numpy", "compiled"}

    def test_context_override_beats_env(self, pool64, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        ctx = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=2, backend="numpy"
        )
        assert ctx.backend == "numpy"
        assert ctx.batch_ntt.backend_tier == "numpy"

    def test_children_inherit_tier(self, pool64, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ctx = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=3, backend="compiled"
        )
        assert ctx.drop_last().backend == "compiled"
        aux = [p.value for p in pool64.aux]
        assert ctx.extend(aux).backend == "compiled"

    def test_serving_config_validates_tier(self):
        from repro.serving.scheduler import ServingConfig

        with pytest.raises(ParameterError, match="backend"):
            ServingConfig(backend="bogus")

    def test_serving_config_mismatch_rejected(self):
        from repro.context import CkksContext
        from repro.serving.scheduler import CkksServer, ServingConfig

        cc = CkksContext(
            ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=0,
            backend="numpy",
        )
        with pytest.raises(ValueError, match="backend"):
            CkksServer(cc, config=ServingConfig(backend="compiled"))


# -- cross-tier parity grid -----------------------------------------------
_GRID = [(1024, 4), (1024, 12), (4096, 4), (4096, 12)]
_METHODS = ("barrett", "montgomery", "shoup", "smr")


@pytest.fixture(scope="module")
def parity_pools():
    cache = {}

    def get(n, num_limbs):
        if (n, num_limbs) not in cache:
            cache[(n, num_limbs)] = PrimePool.generate(
                n,
                main_bits=30,
                terminal_bits=25,
                num_main=num_limbs - 1,
                num_terminal=1,
                num_aux=4,
            )
        return cache[(n, num_limbs)]

    return get


@pytest.mark.skipif(not TIERS, reason="no non-numpy tier available")
@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("n,num_limbs", _GRID)
def test_tier_parity(parity_pools, method, n, num_limbs):
    """Every available tier bit-matches numpy on every kernel family."""
    pool = parity_pools(n, num_limbs)
    dnum = 2 if num_limbs <= 6 else 3
    aux = [int(p) for p in pool.extension_basis(1, num_limbs - 1, dnum=dnum)]

    def build(tier):
        rng = np.random.default_rng(0xBACE)
        ctx = PolyContext.from_pool(
            pool,
            num_terminal=1,
            num_main=num_limbs - 1,
            method=method,
            backend=tier,
        )
        a = ctx.random(rng)
        b = ctx.random(rng)
        ksk = KeySwitchKey.random(ctx, aux, dnum, rng)
        return ctx, a, b, ksk

    ctx_n, a_n, b_n, ksk_n = build("numpy")
    hat_n = ctx_n.batch_ntt.forward(a_n.limbs)
    round_n = ctx_n.batch_ntt.inverse(hat_n)
    mul_n = RnsPolynomial(ctx_n, a_n.limbs).multiply(
        RnsPolynomial(ctx_n, b_n.limbs)
    )
    up_n = a_n.mod_up(aux)
    down_n = up_n.mod_down(len(aux))
    ks_n = a_n.key_switch(ksk_n)

    for tier in TIERS:
        ctx_t, a_t, b_t, ksk_t = build(tier)
        assert np.array_equal(a_n.limbs, a_t.limbs)
        hat_t = ctx_t.batch_ntt.forward(a_t.limbs)
        assert np.array_equal(hat_n, hat_t), f"{tier} forward diverges"
        assert np.array_equal(round_n, ctx_t.batch_ntt.inverse(hat_t)), (
            f"{tier} inverse diverges"
        )
        mul_t = RnsPolynomial(ctx_t, a_t.limbs).multiply(
            RnsPolynomial(ctx_t, b_t.limbs)
        )
        assert np.array_equal(mul_n.limbs, mul_t.limbs), (
            f"{tier} multiply diverges"
        )
        up_t = a_t.mod_up(aux)
        assert np.array_equal(up_n.limbs, up_t.limbs), (
            f"{tier} mod_up diverges"
        )
        assert np.array_equal(
            down_n.limbs, up_t.mod_down(len(aux)).limbs
        ), f"{tier} mod_down diverges"
        ks_t = a_t.key_switch(ksk_t)
        for half_n, half_t in zip(ks_n, ks_t):
            assert np.array_equal(half_n.limbs, half_t.limbs), (
                f"{tier} key_switch diverges"
            )


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
def test_compiled_checked_mode_trips_like_numpy(pool64):
    """The C kernels assert the same live certified bound column the
    numpy kernels do — tightening it below honest butterfly output must
    trip a SanitizerError from inside the compiled transform."""
    ctx = PolyContext.from_pool(
        pool64, num_terminal=1, num_main=2, method="shoup", checked=True,
        backend="compiled",
    )
    kernel = ctx.batch_ntt._kernel
    kernel._bound_col = np.full_like(kernel._bound_col, 2)
    rng = np.random.default_rng(3)
    a = np.stack(
        [rng.integers(0, q, 64, dtype=np.uint64) for q in ctx.primes]
    )
    with pytest.raises(SanitizerError, match="forward stage"):
        ctx.batch_ntt.forward(a)


# -- graceful degradation -------------------------------------------------
class TestCompiledDegradation:
    def test_no_toolchain_warns_once_and_runs_numpy(
        self, pool64, rng, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        compiled._reset()
        try:
            ref_ctx = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, backend="numpy"
            )
            ctx = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, backend="compiled"
            )
            a = ctx.random(rng)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = ctx.batch_ntt.forward(a.limbs)
                ctx.batch_ntt.forward(a.limbs)
                ctx.batch_ntt.inverse(got)
            fallbacks = [
                w for w in caught
                if issubclass(w.category, BackendFallbackWarning)
            ]
            assert len(fallbacks) == 1, (
                "degradation must warn exactly once, "
                f"got {len(fallbacks)}"
            )
            assert "compiled backend unavailable" in str(
                fallbacks[0].message
            )
            assert np.array_equal(
                got, ref_ctx.batch_ntt.forward(a.limbs)
            ), "fallback path must still be the numpy reference"
        finally:
            compiled._reset()
