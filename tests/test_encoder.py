"""Canonical-embedding encoder tests: special FFT, orbit, precision.

The encoder's slot semantics are pinned three independent ways: the
special FFT pair must invert exactly (float tolerance), the embedding
must agree with the big-int reference evaluator's *direct* per-slot
evaluation at ``zeta^(5^j)`` (a different algorithm entirely), and the
Galois automorphism kernels from PR 4 must act on decoded slots as
``np.roll`` / ``np.conj`` — on plaintexts here, and end-to-end on
ciphertexts across all four reducer backends.  Round-trip precision is
asserted against the ``2^-(scale_bits - log2 N)`` quantization bound for
N in {1024, 4096}.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import crt_oracle
from repro.context import CkksContext
from repro.errors import LayoutError, ParameterError
from repro.poly.ntt import canonical_slot_tables, complex_root_powers
from repro.poly.rns_poly import PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool, ntt_friendly_primes
from repro.scheme import (
    CanonicalEncoder,
    Evaluator,
    KeyGenerator,
    Plaintext,
    ReferenceEvaluator,
    special_fft,
    special_ifft,
)

METHODS = ("barrett", "montgomery", "shoup", "smr")
SCALE = 2.0**40


def _slots(n: int, num: int | None = None, seed: int = 0xC0DE) -> np.ndarray:
    num = n // 2 if num is None else num
    r = np.random.default_rng(seed + n)
    return r.uniform(-1, 1, num) + 1j * r.uniform(-1, 1, num)


@lru_cache(maxsize=None)
def _ctx(n: int, method: str = "barrett", limbs: int = 3) -> PolyContext:
    primes = [p.value for p in ntt_friendly_primes(30, limbs, n)]
    return PolyContext(n, primes, method)


@lru_cache(maxsize=None)
def _setup(n: int, method: str):
    """(ctx, keygen, encoder) with rotation/conjugation keys, per config."""
    pool = PrimePool.generate(n, num_main=3, num_terminal=1, num_aux=4)
    ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=3, method=method)
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=2)]
    keygen = KeyGenerator(ctx, aux, 2, np.random.default_rng(0xFACE + n))
    return ctx, keygen, CanonicalEncoder(ctx)


# -- the transform itself --------------------------------------------------
def test_special_fft_inverts_exactly():
    n = 512
    r = np.random.default_rng(1)
    coeffs = r.normal(size=n)
    assert np.abs(special_ifft(special_fft(coeffs)) - coeffs).max() < 1e-10
    vals = r.normal(size=n) + 1j * r.normal(size=n)
    assert np.abs(special_fft(special_ifft(vals)) - vals).max() < 1e-10
    with pytest.raises(ParameterError):
        special_fft(np.zeros(48))


def test_slot_tables_enumerate_all_odd_residues():
    """Orbit of 5 plus its negation partitions the primitive roots."""
    n = 256
    slot_idx, conj_idx = canonical_slot_tables(n)
    assert len(set(slot_idx) | set(conj_idx)) == n
    assert not set(slot_idx) & set(conj_idx)
    roots = complex_root_powers(n)
    assert abs(roots[n] + 1.0) < 1e-12  # psi^N = -1: negacyclic root


def test_embed_matches_reference_direct_evaluation():
    """The special FFT against the reference's O(N) per-slot direct sum."""
    n = 256
    enc = CanonicalEncoder(_ctx(n))
    v = _slots(n)
    coeffs = enc.embed(v)
    ints = [int(round(c * SCALE)) for c in coeffs]
    ref = ReferenceEvaluator(n, coeff_bound_bits=60)
    direct = ref.slot_values(ints) / SCALE
    assert np.abs(direct - v).max() < 1e-9


def test_embed_matches_reference_spot_checks_at_4096():
    n = 4096
    enc = CanonicalEncoder(_ctx(n))
    v = _slots(n)
    coeffs = enc.embed(v)
    ints = [int(round(c * SCALE)) for c in coeffs]
    ref = ReferenceEvaluator(n, coeff_bound_bits=60)
    idx = [0, 1, 17, 512, n // 2 - 1]
    direct = ref.slot_values(ints, indices=idx) / SCALE
    assert np.abs(direct - v[idx]).max() < 1e-8


# -- round-trip precision (satellite bound) --------------------------------
@pytest.mark.parametrize("n", (1024, 4096))
def test_roundtrip_precision_bound(n):
    """encode→decode error stays under 2^-(scale_bits - log2 N).

    Each of the N coefficient roundings moves a slot value by at most
    1/(2*scale), so the worst case is (N/2)/scale — inside the bound.
    """
    enc = CanonicalEncoder(_ctx(n))
    scale_bits = 40
    v = _slots(n)
    pt = enc.encode(v, 2.0**scale_bits)
    err = np.abs(enc.decode(pt) - v).max()
    assert err < 2.0 ** -(scale_bits - math.log2(n))
    bits = enc.roundtrip_precision(v, 2.0**scale_bits)
    assert bits > scale_bits - math.log2(n)


def test_sparse_packing_replicates_and_averages():
    n = 1024
    enc = CanonicalEncoder(_ctx(n))
    for num in (1, 4, 32, n // 2):
        v = _slots(n, num)
        pt = enc.encode(v, SCALE, num_slots=num)
        assert pt.slots == num
        assert np.abs(enc.decode(pt) - v).max() < 2.0**-28
    # replication is visible at full width: every copy carries the data
    v = _slots(n, 8, seed=3)
    full = enc.decode(enc.encode(v, SCALE, num_slots=8), num_slots=n // 2)
    assert np.abs(full - np.tile(v, (n // 2) // 8)).max() < 2.0**-28


def test_big_scale_encode_uses_exact_path():
    """Scale stacks beyond int64 must lift exactly (BSGS poly_eval needs
    plaintexts at Delta^k)."""
    n = 64
    ctx = _ctx(n, limbs=5)
    enc = CanonicalEncoder(ctx)
    v = np.full(8, 1.5)
    pt = enc.encode(v, 2.0**80, num_slots=8)
    assert np.abs(enc.decode(pt) - v).max() < 2.0**-40


# -- slot-count validation (satellite fix) ---------------------------------
def test_slot_counts_must_divide_half_ring():
    n = 256
    ctx = _ctx(n)
    enc = CanonicalEncoder(ctx)
    for bad in (3, 5, 100, 0, -4, 256):
        with pytest.raises(ParameterError, match=f"slot count {bad}"):
            Plaintext.validate_slots(n, bad)
    with pytest.raises(ParameterError, match="slot count 3"):
        enc.encode(np.zeros(3), SCALE)
    with pytest.raises(ParameterError, match="slot count 6"):
        enc.encode(np.zeros(6), SCALE, num_slots=6)
    with pytest.raises(ParameterError, match="slot count 7"):
        Plaintext(ctx.zeros(), slots=7)
    # coefficient packing carries no slot count and stays unrestricted
    assert Plaintext(ctx.zeros()).slots is None


def test_encode_rejects_mismatched_and_oversized_input():
    enc = CanonicalEncoder(_ctx(256))
    with pytest.raises(LayoutError):
        enc.encode(np.zeros(8), SCALE, num_slots=16)
    with pytest.raises(ParameterError, match="exceeds Q/2"):
        enc.encode(np.full(128, 1.0), 2.0**120)
    with pytest.raises(ParameterError):
        enc.encode(np.zeros(128), -1.0)


# -- automorphisms act as slot rotations (vs the PR-4 kernels) -------------
def test_plaintext_automorphism_is_slot_roll():
    """sigma_{5^r} on RNS coefficients == np.roll on decoded slots, and
    sigma_{-1} == np.conj — the orbit ordering contract, checked through
    the cached automorphism index tables in both domains."""
    n = 256
    ctx = _ctx(n)
    enc = CanonicalEncoder(ctx)
    v = _slots(n)
    pt = enc.encode(v, SCALE)
    for r in (1, 2, 7, -3):
        k = pow(5, r % (n // 2), 2 * n)
        for domain_poly in (pt.poly, pt.poly.to_ntt()):
            rolled = domain_poly.automorphism(k)
            rolled.state.scale = SCALE
            got = enc.decode(Plaintext(rolled))
            assert np.abs(got - np.roll(v, -r)).max() < 2.0**-28, (r, k)
    conj = pt.poly.automorphism(2 * n - 1)
    conj.state.scale = SCALE
    got = enc.decode(Plaintext(conj))
    assert np.abs(got - np.conj(v)).max() < 2.0**-28


@pytest.mark.parametrize("method", METHODS)
def test_ciphertext_rotate_conjugate_match_roll_conj(method):
    """Satellite: rotate/conjugate on *ciphertexts* match numpy
    roll/conj on the decoded slots, across all four reducer backends."""
    n = 1024
    ctx, keygen, enc = _setup(n, method)
    ev = Evaluator.from_keygen(keygen, rotations=[1, 5], conjugate=True)
    v = _slots(n)
    ct = ev.encrypt(enc.encode(v, SCALE), keygen.public, np.random.default_rng(9))
    for r in (1, 5):
        got = enc.decode(ev.decrypt(ev.rotate(ct, r), keygen.secret))
        assert np.abs(got - np.roll(v, -r)).max() < 1e-4, r
    got = enc.decode(ev.decrypt(ev.conjugate(ct), keygen.secret))
    assert np.abs(got - np.conj(v)).max() < 1e-4


def test_sparse_rotation_wraps_mod_num_slots():
    n = 1024
    ctx, keygen, enc = _setup(n, "smr")
    ev = Evaluator.from_keygen(keygen, rotations=[3])
    num = 16
    v = _slots(n, num)
    ct = ev.encrypt(
        enc.encode(v, SCALE, num_slots=num),
        keygen.public,
        np.random.default_rng(11),
    )
    got = enc.decode(ev.decrypt(ev.rotate(ct, 3), keygen.secret), num_slots=num)
    assert np.abs(got - np.roll(v, -3)).max() < 1e-4


def test_decode_context_and_defaults():
    n = 256
    enc = CanonicalEncoder(_ctx(n))
    v = _slots(n, 8)
    pt = enc.encode(v, SCALE, num_slots=8)
    # decode defaults to the plaintext's recorded packing
    assert enc.decode(pt).shape == (8,)
    other = CanonicalEncoder(_ctx(512))
    with pytest.raises(ParameterError, match="ring degree"):
        other.decode(pt)


def test_decode_equals_big_int_floats_then_projection():
    """Decode is ``project(float(c) / scale)`` of the centered big-int
    coefficients, bit for bit, also at a scale stacked past 2^53."""
    n = 256
    ctx = _ctx(n, limbs=4)
    enc = CanonicalEncoder(ctx)
    for scale, num in ((SCALE, 8), (2.0**70, n // 2)):
        pt = enc.encode(_slots(n, num), scale, num_slots=num)
        ints = crt_oracle(ctx.primes, pt.poly.to_coeff().limbs)
        want = enc.project(np.array([float(c) for c in ints]) / scale, num)
        got = enc.decode(pt)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_decrypt_needs_no_python_int_reconstruction(monkeypatch):
    """``cc.decrypt`` decodes from the vectorized reconstruction alone."""
    cc = CkksContext(ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=3)
    v = np.array([0.25, -0.5, 0.75, 1.0])
    ct = cc.encrypt(v, num_slots=4)

    def refuse(self, *, centered=True):
        raise AssertionError("decrypt reached to_int_coeffs")

    monkeypatch.setattr(RnsPolynomial, "to_int_coeffs", refuse)
    assert np.abs(cc.decrypt(ct, num_slots=4) - v).max() < 1e-4
