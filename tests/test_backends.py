"""Backend dispatch: precedence, cross-tier bit-identity, degradation.

The PR 9 contract has three load-bearing claims, each tested here:

* tier selection follows constructor arg > ``REPRO_BACKEND`` > numpy,
  children inherit their parent's tier, and unknown names fail loudly;
* the compiled tier, when available, is bit-identical to the numpy
  reference on the full parity grid (four reducers x N in {1024, 4096}
  x L in {4, 12}: NTT round-trip, pointwise product, multiply, ModUp,
  ModDown and its combine step, hybrid key switch, hoisted key switch
  under two Galois permutations, and a reused multiply-accumulate
  accumulator — down to its unfolded state — with the C kernels shown
  to have run), and its transforms on every ring from N = 2 to 4096;
* checked mode reports a violation in a narrow (t < 16) stage exactly
  as the numpy kernels do;
* each kernel object fixes its implementation once: an unchecked
  compiled accumulator runs every call in C, whatever the operands'
  layout, while a checked accumulator or converter is built on numpy
  (the checked NTT stays in C and scans its stages there);
* the compiled accumulator keeps the numpy tier's guarantees: the bound
  tracker raises before the kernel writes, a wrong-length prepared
  operand or an out-of-range slot index raises on both tiers, and its C
  terms match numpy on operands at the edges of each reducer contract's
  precondition;
* the library is built for the host ISA, under a name that changes with
  the flags and the ISA fingerprint, and a compiler that rejects
  ``-march=native`` gets the portable retry without a warning;
* degradation is graceful and loud exactly once — a missing toolchain
  warns a single :class:`BackendFallbackWarning` (not per call) and
  runs on numpy.
"""

import itertools
import os
import shutil
import warnings

import numpy as np
import pytest

from repro.errors import AccumulatorOverflowError, ParameterError, SanitizerError
from repro.poly.backends import (
    BACKEND_TIERS,
    BackendFallbackWarning,
    resolve_backend,
)
from repro.poly.backends import compiled
from repro.poly.basis_conv import KeySwitchKey
from repro.poly.batch_ntt import BatchNTT
from repro.poly.lazy import LazyAccumulator
from repro.poly.ntt import automorphism_tables
from repro.poly.rns_poly import PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool, is_prime
from repro.rns.reduction import make_reducer


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


@pytest.fixture
def c_calls(monkeypatch):
    """Count the compiled accumulator / combine calls; each runs in C."""
    counts = {"product": 0, "fold": 0, "combine_core": 0}
    for cls, name in (
        (compiled.CompiledLazy, "product"),
        (compiled.CompiledLazy, "fold"),
        (compiled.CompiledConvert, "combine_core"),
    ):
        def wrapped(self, *args, _raw=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _raw(self, *args)

        monkeypatch.setattr(cls, name, wrapped)
    return counts


@pytest.mark.skipif(not TIERS, reason="no non-numpy tier available")
@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("n,num_limbs", _GRID)
def test_tier_parity(parity_pools, method, n, num_limbs, c_calls):
    """Every available tier bit-matches numpy on every kernel family."""
    pool = parity_pools(n, num_limbs)
    dnum = 2 if num_limbs <= 6 else 3
    aux = [int(p) for p in pool.extension_basis(1, num_limbs - 1, dnum=dnum)]
    galois = (5, 2 * n - 1)  # a rotation and the conjugation

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
        xs = [ctx.random(rng).to_ntt() for _ in range(3)]
        ys = [ctx.random(rng).to_ntt() for _ in range(3)]
        return ctx, a, b, ksk, xs, ys

    def mac_twice(ctx, tier, xs, ys):
        """Two 3-term inner products through one reused accumulator."""
        acc = LazyAccumulator(
            ctx.batch_ntt.reducer, (num_limbs, n),
            checked=ctx.checked, backend=tier,
        )
        first = RnsPolynomial.multiply_accumulate(xs, ys, acc=acc)
        second = RnsPolynomial.multiply_accumulate(ys[::-1], xs, acc=acc)
        return first.limbs, second.limbs, acc.acc.copy()

    def kernels(ctx, tier, a, b, ksk, xs, ys):
        sw = ctx.key_switcher(aux, dnum)
        hoisted = sw.hoist(a)
        rotated = [
            sw.run_hoisted(hoisted, ksk, perm=automorphism_tables(n, k)[2])
            for k in galois
        ]
        combined = sw.moddown.combine(
            a.limbs, b.limbs, np.empty((num_limbs, n), np.uint64)
        )
        pointwise = ctx.batch_ntt.pointwise_prepared(
            xs[0].limbs, ys[0].prepared_operand()
        )
        return {
            "multiply_accumulate": mac_twice(ctx, tier, xs, ys),
            "run_hoisted": [h.limbs for pair in rotated for h in pair],
            "ModDown.combine": [combined],
            "pointwise_prepared": [pointwise],
        }

    ctx_n, a_n, b_n, ksk_n, xs_n, ys_n = build("numpy")
    hat_n = ctx_n.batch_ntt.forward(a_n.limbs)
    round_n = ctx_n.batch_ntt.inverse(hat_n)
    mul_n = RnsPolynomial(ctx_n, a_n.limbs).multiply(
        RnsPolynomial(ctx_n, b_n.limbs)
    )
    up_n = a_n.mod_up(aux)
    down_n = up_n.mod_down(len(aux))
    ks_n = a_n.key_switch(ksk_n)
    more_n = kernels(ctx_n, "numpy", a_n, b_n, ksk_n, xs_n, ys_n)
    assert not any(c_calls.values()), "the numpy tier ran a C kernel"

    for tier in TIERS:
        ctx_t, a_t, b_t, ksk_t, xs_t, ys_t = build(tier)
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
        more_t = kernels(ctx_t, tier, a_t, b_t, ksk_t, xs_t, ys_t)
        for name, arrays in more_n.items():
            for ref, got in zip(arrays, more_t[name], strict=True):
                assert np.array_equal(ref, got), f"{tier} {name} diverges"
        if tier == "compiled" and not ctx_t.checked:
            # products: key switch, two hoisted switches, MACs, pointwise
            assert c_calls["product"] >= 2 * 3 * dnum + 6 + 1
            assert c_calls["fold"] >= 2 * 3 + 2 + 1
            assert c_calls["combine_core"] >= 2 * 3 + 1


def _compiled_acc(pool64, method, checked):
    ctx = PolyContext.from_pool(
        pool64, num_terminal=1, num_main=2, method=method, backend="compiled"
    )
    rng = np.random.default_rng(0xACC)
    a = ctx.random(rng).to_ntt().limbs
    parts = ctx.random(rng).to_ntt().prepared_operand()
    acc = LazyAccumulator(
        ctx.batch_ntt.reducer, a.shape, checked=checked, backend="compiled"
    )
    return acc, (a, parts)


#: per family: operand edges its contract's precondition admits — the
#: multiplicand ``a`` (canonical, one-fold lazy, or the widest word the
#: reduction still accepts) and the other operand ``b`` (canonical, or
#: SMR's signed form), with the Montgomery factor R the product carries
_EDGES = {
    "barrett": (lambda q: (0, 1, q - 1, 2 * q - 1), lambda q: (0, 1, q - 1), 1),
    "montgomery": (lambda q: (0, 1, q - 1, 2 * q - 1), lambda q: (0, 1, q - 1),
                   1 << 32),
    "shoup": (lambda q: (0, 1, q - 1, 2 * q - 1, 2**32 - 1),
              lambda q: (0, 1, q - 1), 1),
    "smr": (lambda q: (0, 1, q - 1, 2**31 - 1),
            lambda q: (-(q - 1), -1, 0, 1, q - 1), 1 << 32),
}


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_lazy_terms_at_precondition_edges(pool64, method, c_calls):
    """The C lazy terms match numpy on every operand pair at the edges of
    the reducer contract's precondition (random residues miss them): the
    unfolded accumulators are equal, and the folds are ``a*b*R^-1 mod q``
    by big-int arithmetic."""
    primes = [p.value for p in pool64.limb_primes(2, 4)]
    a_edges, b_edges, r = _EDGES[method]
    cols = [
        list(itertools.product(a_edges(q), b_edges(q))) for q in primes
    ]
    n = len(cols[0])
    a = np.array([[x for x, _ in row] for row in cols], dtype=np.uint64)
    b = np.array([[y for _, y in row] for row in cols], dtype=np.int64)
    if method != "smr":
        b = b.astype(np.uint64)
    red = make_reducer(method, primes)
    # the raw operand, whose R factor the big-int check divides out;
    # Shoup's prepared pair adds the companions
    parts = red.prepare(b) if method == "shoup" else (b,)
    runs = {}
    for tier in ("numpy", "compiled"):
        acc = LazyAccumulator(red, (len(primes), n), checked=False, backend=tier)
        for _ in range(3):
            acc.accumulate_product(a, parts)
        runs[tier] = (acc.acc.copy(), acc.fold())
    assert c_calls["product"] == 3 and c_calls["fold"] == 1
    assert np.array_equal(runs["numpy"][0], runs["compiled"][0])
    for i, q in enumerate(primes):
        r_inv = pow(r, -1, q)
        expect = [3 * x * y * r_inv % q for x, y in cols[i]]
        for tier in runs:
            assert runs[tier][1][i].tolist() == expect, (tier, q)


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_compiled_overflow_raises_before_kernel_writes(pool64, method):
    """The tracker charges in Python before the C product runs: an
    overflowing term raises and leaves the accumulator untouched."""
    acc, ops = _compiled_acc(pool64, method, checked=False)
    assert isinstance(acc._impl, compiled.CompiledLazy)
    acc.accumulate_product(*ops)
    before = acc.acc.copy()
    assert before.any()
    acc.bound = acc.limit - acc._per_term + 1  # one more term overflows
    with pytest.raises(AccumulatorOverflowError, match="fold first"):
        acc.accumulate_product(*ops)
    assert np.array_equal(acc.acc, before)
    assert acc.terms == 1


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_compiled_checked_accumulator_declines_to_numpy(pool64, method):
    """A checked accumulator and converter on the compiled tier are built
    on numpy, so the numpy fold's soundness assert still sees a tampered
    bound; unchecked, the C fold runs and the tampering goes unnoticed.
    A checked context's NTT stays in C (its stage scans run there)."""
    aux = [p.value for p in pool64.aux]
    for checked in (True, False):
        ctx = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=2, method=method,
            checked=checked, backend="compiled",
        )
        assert isinstance(ctx.batch_ntt._impl, compiled.CompiledNtt)
        for conv in (
            ctx.mod_up_kernel(aux).converter,
            ctx.extend(aux).mod_down_kernel(len(aux)).converter,
        ):
            assert isinstance(conv._impl, compiled.CompiledConvert) != checked
        acc, ops = _compiled_acc(pool64, method, checked)
        assert isinstance(acc._impl, compiled.CompiledLazy) != checked
        acc.accumulate_product(*ops)
        acc.bound = 0  # tamper behind the tracker
        out = np.empty(acc.acc.shape, np.uint64)
        if checked:
            with pytest.raises(SanitizerError, match="static bound tracking"):
                acc.fold()
            with pytest.raises(SanitizerError, match="static bound tracking"):
                acc.fold_into(out)
        else:
            assert np.array_equal(acc.fold(), acc.fold_into(out))


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_compiled_product_takes_any_operand_layout(pool64, method, c_calls):
    """Every product and fold of an unchecked compiled accumulator runs in
    C, whatever its operands look like: a strided (Fortran-ordered)
    operand under a slot permutation, an operand that is the accumulator
    itself, narrower words with negative slot indices, a broadcast row
    and a strided fold target.  State and fold match numpy."""
    ctx = PolyContext.from_pool(
        pool64, num_terminal=1, num_main=2, method=method, backend="numpy"
    )
    rng = np.random.default_rng(0x57D)
    a = np.asfortranarray(ctx.random(rng).to_ntt().limbs)
    parts = ctx.random(rng).to_ntt().prepared_operand()
    n = ctx.ring_degree
    perm = automorphism_tables(n, 5)[2]
    runs = {}
    for tier in ("numpy", "compiled"):
        acc = LazyAccumulator(
            ctx.batch_ntt.reducer, a.shape, checked=False, backend=tier
        )
        acc.accumulate_product(a, parts, perm=perm)
        acc.accumulate_product(acc.acc, parts, perm=perm)
        acc.accumulate_product(a.astype(np.uint32), parts, perm=perm - n)
        acc.accumulate_product(a[:1], parts)
        out = np.empty(a.shape[::-1], np.uint64).T
        runs[tier] = (acc.acc.copy(), acc.fold_into(out).copy())
    assert c_calls["product"] == 4 and c_calls["fold"] == 1
    assert np.array_equal(runs["numpy"][0], runs["compiled"][0])
    assert np.array_equal(runs["numpy"][1], runs["compiled"][1])


@pytest.mark.parametrize("method", _METHODS)
def test_malformed_product_raises_on_every_tier(pool64, method):
    """A prepared tuple of the wrong length for the family, or a slot
    index outside ``[-N, N)``, raises on every tier before the tracker
    charges or anything is written."""
    ctx = PolyContext.from_pool(
        pool64, num_terminal=1, num_main=2, method=method, backend="numpy"
    )
    rng = np.random.default_rng(0x7A6)
    a = ctx.random(rng).to_ntt().limbs
    parts = ctx.random(rng).to_ntt().prepared_operand()
    for tier in ("numpy", *TIERS):
        acc = LazyAccumulator(
            ctx.batch_ntt.reducer, a.shape, checked=False, backend=tier
        )
        batch = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=2, method=method, backend=tier
        ).batch_ntt
        for wrong in (parts[:1] * 3, parts[1:] if len(parts) > 1 else ()):
            with pytest.raises(ParameterError, match="prepared operand"):
                acc.accumulate_product(a, wrong)
            with pytest.raises(ParameterError, match="prepared operand"):
                batch.pointwise_prepared(a, wrong)
        for bad in (a.shape[1], -a.shape[1] - 1):
            perm = np.arange(a.shape[1])
            perm[3] = bad
            with pytest.raises(IndexError, match="out of bounds"):
                acc.accumulate_product(a, parts, perm=perm)
        assert acc.terms == 0 and acc.bound == 0 and not acc.acc.any()


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


def _sweep_primes() -> list[int]:
    """Three limbs, each 1 mod 8192 so every ring up to N = 4096 takes
    them: the largest below 2^31 (Barrett's lazy 2q state then crosses
    2^31), the largest below 2^30 and the largest below 2^25."""
    primes = []
    for bits in (31, 30, 25):
        q = ((1 << bits) - 1) // 8192 * 8192 + 1
        while not is_prime(q):
            q -= 8192
        primes.append(q)
    return primes


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_transform_parity_sweep(method):
    """Every power-of-two ring from N = 2 to 4096, both directions, out
    aliasing the input too: the compiled transforms — every narrow
    stage included — bit-match numpy."""
    primes = _sweep_primes()
    rng = np.random.default_rng(0x5EEB)
    for log_n in range(1, 13):
        n = 1 << log_n
        ref = BatchNTT(primes, n, method, backend="numpy")
        got = BatchNTT(primes, n, method, backend="compiled")
        assert isinstance(got._impl, compiled.CompiledNtt)
        a = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
        hat = ref.forward(a)
        assert np.array_equal(hat, got.forward(a)), f"N={n} forward"
        assert np.array_equal(ref.inverse(a), got.inverse(a)), f"N={n} inverse"
        x = a.copy()
        got.inverse(got.forward(x, out=x), out=x)
        assert np.array_equal(x, a), f"N={n} in-place round trip"


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_compiled_engines_build_no_numpy_stage_tables(method):
    """The numpy stage kernel casts and transposes its twiddle tables on
    its first transform.  Compiled engines, their ``take`` clones and
    ``extend`` clones transform in C without them; a numpy engine builds
    them, and both bit-match."""
    primes = _sweep_primes()
    n = 1024
    tables = {"fwd_n", "inv_n", "n_inv", "fwd_t", "inv_t"}
    rng = np.random.default_rng(0x7AB)
    a = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    ref = BatchNTT(primes, n, method, backend="numpy")
    got = BatchNTT(primes, n, method, backend="compiled")
    extended = BatchNTT(primes[:1], n, method, backend="compiled").extend(primes[1:])
    for eng, want in ((got, ref), (got.take(2), ref.take(2)), (extended, ref)):
        rows = a[: eng.num_limbs]
        assert np.array_equal(eng.forward(rows), want.forward(rows))
        assert np.array_equal(eng.inverse(rows), want.inverse(rows))
        assert isinstance(eng._impl, compiled.CompiledNtt)
        assert not tables & set(vars(eng._kernel))
    assert tables <= set(vars(ref._kernel))


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
def test_checked_violation_in_narrow_stage(pool64, method):
    """A first violation inside a t < 16 stage is reported with the same
    value, stage, limb and index on both tiers.  With the bound column
    tightened to 1, a unit at coefficient 8 of N = 64 keeps every value
    in {0, 1} until stage m=4 (t=8) multiplies it by a twiddle; the
    inverse trips in its first stage, t=1."""
    messages = {}
    for tier in ("numpy", "compiled"):
        ctx = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=2, method=method, checked=True,
            backend=tier,
        )
        kernel = ctx.batch_ntt._kernel
        kernel._bound_col = np.ones_like(kernel._bound_col)
        unit = np.zeros((ctx.num_limbs, 64), np.uint64)
        unit[:, 8] = 1
        with pytest.raises(SanitizerError, match="forward stage m=4 ") as fwd:
            ctx.batch_ntt.forward(unit)
        rng = np.random.default_rng(5)
        a = np.stack([rng.integers(2, q, 64, dtype=np.uint64) for q in ctx.primes])
        with pytest.raises(SanitizerError, match="inverse stage m=64 ") as inv:
            ctx.batch_ntt.inverse(a)
        messages[tier] = (str(fwd.value), str(inv.value))
    assert messages["compiled"] == messages["numpy"]


# -- build ------------------------------------------------------------------
class TestCompiledBuild:
    def test_artifact_name_tracks_flags_and_isa(self, monkeypatch):
        monkeypatch.setattr(compiled, "_isa_fingerprint", lambda: "sse2 avx2")
        name = compiled._artifact_name(compiled.NATIVE_FLAGS)
        assert name == compiled._artifact_name(compiled.NATIVE_FLAGS)
        assert name != compiled._artifact_name(compiled.PORTABLE_FLAGS)
        monkeypatch.setattr(
            compiled, "_isa_fingerprint", lambda: "sse2 avx2 avx512f"
        )
        assert name != compiled._artifact_name(compiled.NATIVE_FLAGS)

    @pytest.mark.skipif(
        "compiled" not in TIERS or os.name != "posix",
        reason="needs a C toolchain and a POSIX shell",
    )
    def test_compiler_rejecting_native_gets_portable_retry(
        self, pool64, rng, monkeypatch, tmp_path
    ):
        real_cc = shutil.which(compiled._compiler())
        wrapper = tmp_path / "cc-no-native"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  if [ "$arg" = "-march=native" ]; then\n'
            '    echo "unsupported option $arg" >&2; exit 1\n'
            "  fi\n"
            "done\n"
            f'exec "{real_cc}" "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        compiled._reset()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", BackendFallbackWarning)
                assert compiled.get_lib() is not None
            assert not compiled.built_for_host()
            a = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, backend="numpy"
            ).random(rng)
            for method in _METHODS:
                hats = [
                    PolyContext.from_pool(
                        pool64, num_terminal=1, num_main=2, method=method,
                        backend=tier,
                    ).batch_ntt.forward(a.limbs)
                    for tier in ("numpy", "compiled")
                ]
                assert np.array_equal(*hats), f"{method} portable build"
        finally:
            compiled._reset()


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
