"""BatchNTT validation: the batched limb-matrix path must bit-match the
per-prime reference engines (acceptance bar of the batching PR).

Every method x ring-degree cell cross-checks forward / inverse /
pointwise / negacyclic multiply on randomized (L, N) inputs against a
Python loop over :class:`NegacyclicNTT` engines sharing the same roots.
Ring degrees straddle the transposed-tail-phase threshold so both the
plain and the four-step-layout stage kernels are exercised.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.poly.batch_ntt import _MIN_SPLIT_N, BatchNTT
from repro.poly.ntt import NegacyclicNTT
from repro.rns.primes import ntt_friendly_primes

METHODS = ("barrett", "montgomery", "shoup", "smr")
# Small N keeps the plain layout; large N crosses into the transposed
# tail phase (see batch_ntt._MIN_SPLIT_N).
RING_DEGREES = (16, 64, 256, 512)


def _basis(n: int) -> list[int]:
    terminal = ntt_friendly_primes(25, 1, n, kind="terminal")
    taken = {p.value for p in terminal}
    main = ntt_friendly_primes(30, 3, n, exclude=taken)
    return [p.value for p in terminal + main]


@pytest.fixture(scope="module", params=RING_DEGREES, ids=lambda n: f"N={n}")
def setup(request):
    n = request.param
    primes = _basis(n)
    engines = {
        m: [NegacyclicNTT(q, n, m) for q in primes] for m in METHODS
    }
    batches = {
        m: BatchNTT(primes, n, m, psis=[e.psi for e in engines[m]])
        for m in METHODS
    }
    return n, primes, engines, batches


def _random_limbs(primes, n, rng):
    return np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])


@pytest.mark.parametrize("method", METHODS)
def test_forward_inverse_bit_match_reference(setup, method, rng):
    n, primes, engines, batches = setup
    batch, engs = batches[method], engines[method]
    a = _random_limbs(primes, n, rng)
    ref = np.stack([e.forward(a[i]) for i, e in enumerate(engs)])
    got = batch.forward(a)
    assert got.dtype == np.uint64
    assert np.array_equal(got, ref), "forward must bit-match the reference"
    assert np.array_equal(batch.inverse(got), a), "round trip must be exact"
    ref_inv = np.stack([e.inverse(ref[i]) for i, e in enumerate(engs)])
    assert np.array_equal(batch.inverse(ref), ref_inv)


@pytest.mark.parametrize("method", METHODS)
def test_pointwise_and_multiply_bit_match_reference(setup, method, rng):
    n, primes, engines, batches = setup
    batch, engs = batches[method], engines[method]
    a = _random_limbs(primes, n, rng)
    b = _random_limbs(primes, n, rng)
    a_hat, b_hat = batch.forward(a), batch.forward(b)
    ref_pw = np.stack([e.pointwise(a_hat[i], b_hat[i]) for i, e in enumerate(engs)])
    assert np.array_equal(batch.pointwise(a_hat, b_hat), ref_pw)
    ref_mul = np.stack([e.negacyclic_multiply(a[i], b[i]) for i, e in enumerate(engs)])
    assert np.array_equal(batch.negacyclic_multiply(a, b), ref_mul)


@pytest.mark.parametrize("method", METHODS)
def test_prepared_operand_path_matches_oneshot(setup, method, rng):
    n, primes, engines, batches = setup
    batch = batches[method]
    a_hat = batch.forward(_random_limbs(primes, n, rng))
    b_hat = batch.forward(_random_limbs(primes, n, rng))
    prepared = batch.prepare_operand(b_hat)
    expect = batch.pointwise(a_hat, b_hat)
    # Reusing the handle across products must give identical results.
    for _ in range(3):
        assert np.array_equal(batch.pointwise_prepared(a_hat, prepared), expect)


@pytest.mark.parametrize("method", METHODS)
def test_take_shares_tables_and_matches(setup, method, rng):
    n, primes, engines, batches = setup
    batch, engs = batches[method], engines[method]
    a = _random_limbs(primes, n, rng)
    sub = batch.take(2)
    assert sub.primes == primes[:2]
    ref = np.stack([engs[i].forward(a[i]) for i in range(2)])
    assert np.array_equal(sub.forward(a[:2]), ref)


def test_default_roots_match_per_prime_engines(rng):
    """Without explicit psis both paths pick the same root deterministically."""
    n = 64
    primes = _basis(n)
    batch = BatchNTT(primes, n, "smr")
    engines = [NegacyclicNTT(q, n, "smr") for q in primes]
    assert batch.psis == [e.psi for e in engines]
    a = _random_limbs(primes, n, rng)
    ref = np.stack([e.forward(a[i]) for i, e in enumerate(engines)])
    assert np.array_equal(batch.forward(a), ref)


def test_transposed_phase_threshold_covered():
    """The parametrized degrees must cover both layout regimes."""
    assert any(n < _MIN_SPLIT_N for n in RING_DEGREES)
    assert any(n >= _MIN_SPLIT_N for n in RING_DEGREES)


def test_shape_and_parameter_validation(rng):
    n = 16
    primes = _basis(n)
    batch = BatchNTT(primes, n, "smr")
    a = _random_limbs(primes, n, rng)
    with pytest.raises(ParameterError):
        batch.forward(a[:, : n // 2])  # wrong N
    with pytest.raises(ParameterError):
        batch.forward(a[:2])  # wrong L
    with pytest.raises(ParameterError):
        batch.pointwise(batch.forward(a), a[:2])
    with pytest.raises(ParameterError):
        BatchNTT([], n)
    with pytest.raises(ParameterError):
        BatchNTT(primes, 24)  # not a power of two
    with pytest.raises(ParameterError):
        BatchNTT([101], n)  # 101 != 1 mod 2N
    with pytest.raises(ParameterError):
        BatchNTT(primes, n, psis=[2] * len(primes))  # not primitive roots
    with pytest.raises(ParameterError):
        BatchNTT(primes, n, psis=[3])  # wrong count


def test_rejects_out_of_range_coefficients():
    n = 16
    primes = _basis(n)
    batch = BatchNTT(primes, n, "shoup")
    bad = np.zeros((len(primes), n), dtype=np.uint64)
    bad[0, 0] = primes[0]  # q itself is not canonical
    with pytest.raises(ParameterError):
        batch.forward(bad)


# -- prefixes + extended bases share tables ---------------------------------
def test_take_prefix_bit_matches_fresh_engine(rng):
    n = 64
    primes = _basis(n)
    batch = BatchNTT(primes, n, "shoup")
    prefix = batch.take(2)
    assert prefix.primes == primes[:2]
    fresh = BatchNTT(primes[:2], n, "shoup", psis=batch.psis[:2])
    x = _random_limbs(primes[:2], n, rng)
    assert np.array_equal(prefix.forward(x), fresh.forward(x))
    assert np.array_equal(prefix.inverse(x), fresh.inverse(x))
    # Prepared rows are views into the parent tables, not copies.
    assert prefix._fwd[0].base is batch._fwd[0]


def test_take_validation():
    n = 16
    batch = BatchNTT(_basis(n), n, "smr")
    assert batch.take(batch.num_limbs) is batch
    with pytest.raises(ParameterError):
        batch.take(0)
    with pytest.raises(ParameterError):
        batch.take(batch.num_limbs + 1)


@pytest.mark.parametrize("method", METHODS)
def test_extend_bit_matches_fresh_combined_engine(method, rng):
    n = 64
    primes = _basis(n)
    extra = [
        p.value
        for p in ntt_friendly_primes(
            29, 2, n, exclude=set(primes), kind="aux"
        )
    ]
    base = BatchNTT(primes, n, method)
    ext = base.extend(extra)
    fresh = BatchNTT(primes + extra, n, method, psis=ext.psis)
    x = _random_limbs(primes + extra, n, rng)
    assert np.array_equal(ext.forward(x), fresh.forward(x))
    assert np.array_equal(ext.inverse(x), fresh.inverse(x))
    # The shared rows reuse the base tables bit-for-bit.
    assert np.array_equal(ext._fwd[0][: len(primes)], base._fwd[0])


def test_extend_rejects_overlap():
    n = 16
    primes = _basis(n)
    batch = BatchNTT(primes, n, "smr")
    with pytest.raises(ParameterError, match="overlap"):
        batch.extend([primes[0]])


def test_transform_out_buffers(rng):
    n = 64
    primes = _basis(n)
    batch = BatchNTT(primes, n, "smr")
    x = _random_limbs(primes, n, rng)
    expect = batch.forward(x)
    out = np.empty_like(x)
    got = batch.forward(x, out=out)
    assert got is out and np.array_equal(out, expect)
    # out may alias the input (enter() copies before any write).
    buf = x.copy()
    batch.forward(buf, out=buf)
    assert np.array_equal(buf, expect)
    inv = np.empty_like(x)
    assert np.array_equal(batch.inverse(expect, out=inv), batch.inverse(expect))
