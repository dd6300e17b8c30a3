"""Slot-wise workload layer tests: BSGS matvec and polynomial evaluation.

The fast paths must be *bit-identical* to their naive per-diagonal /
per-monomial compositions (the benchmark's acceptance bar, pinned here
at test scale), decode to the plaintext-side oracle within slot
precision, and run the schedule they claim (op counts pinned by
instrumenting the evaluator).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import KeyError_, ParameterError
from repro.poly.rns_poly import PolyContext
from repro.rns.primes import PrimePool
from repro.scheme import (
    CanonicalEncoder,
    Evaluator,
    KeyGenerator,
    ReferenceEvaluator,
    bsgs_split,
)
from repro.scheme._linalg import SlotLinalg

METHODS = ("barrett", "montgomery", "shoup", "smr")
SCALE = 2.0**30
DIM = 16


@lru_cache(maxsize=None)
def _pool(n: int) -> PrimePool:
    return PrimePool.generate(n, num_main=3, num_terminal=1, num_aux=4)


@lru_cache(maxsize=None)
def _setup(n: int, method: str):
    """(ctx, keygen, encoder, linalg-with-matvec-keys) per config."""
    pool = _pool(n)
    ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=3, method=method)
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=2)]
    keygen = KeyGenerator(ctx, aux, 2, np.random.default_rng(0xB5B5 + n))
    ev = Evaluator.from_keygen(keygen, rotations=SlotLinalg.matvec_rotations(DIM))
    enc = CanonicalEncoder(ctx)
    return ctx, keygen, enc, SlotLinalg(enc, ev)


def _data(n: int, dim: int = DIM, seed: int = 0xD1CE):
    r = np.random.default_rng(seed + n)
    z = r.uniform(-1, 1, dim) + 1j * r.uniform(-1, 1, dim)
    m = r.uniform(-1, 1, (dim, dim))
    return z, m


def _encrypt(lin, keygen, z, scale=SCALE, seed=5):
    pt = lin.encoder.encode(z, scale, num_slots=len(z))
    return lin.ev.encrypt(pt, keygen.public, np.random.default_rng(seed))


def test_bsgs_split_covers_and_balances():
    for count in (1, 2, 3, 15, 16, 17, 64, 100):
        bs, gs = bsgs_split(count)
        assert bs * gs >= count
        assert (bs - 1) * gs < count or bs == 1
    assert bsgs_split(16) == (4, 4)
    with pytest.raises(ParameterError):
        bsgs_split(0)


def test_matvec_rotations_names_the_key_set():
    assert SlotLinalg.matvec_rotations(16) == [1, 2, 3, 4, 8, 12]
    assert SlotLinalg.matvec_rotations(16, baby_steps=8) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert SlotLinalg.matvec_rotations(1) == []


@lru_cache(maxsize=None)
def _cc():
    from repro import CkksContext

    return CkksContext(
        ring_degree=256,
        num_main=3,
        num_aux=4,
        dnum=2,
        seed=1,
        rotations=CkksContext.matvec_rotations(DIM),
    )


#: every entry point that takes a baby_steps override
BABY_STEP_ENTRIES = {
    "bsgs_split": lambda cc, ct, m, bs: bsgs_split(DIM, baby_steps=bs),
    "matvec_rotations": lambda cc, ct, m, bs: cc.matvec_rotations(DIM, baby_steps=bs),
    "matvec": lambda cc, ct, m, bs: cc.matvec(ct, m, baby_steps=bs),
    "matvec_naive": lambda cc, ct, m, bs: SlotLinalg(
        cc.encoder, cc.evaluator
    ).matvec_naive(ct, m, baby_steps=bs),
    "compiled matvec": lambda cc, ct, m, bs: cc.compile(
        lambda p, x: p.matvec(x, m, baby_steps=bs)
    ),
    "poly_eval": lambda cc, ct, m, bs: cc.poly_eval(
        ct, [0.5, 1.0, 0.25], baby_steps=bs
    ),
    "compiled poly_eval": lambda cc, ct, m, bs: cc.compile(
        lambda p, x: p.poly_eval(x, [0.5, 1.0, 0.25], baby_steps=bs)
    ),
}


@pytest.mark.parametrize("baby_steps", (0, -1))
@pytest.mark.parametrize("entry", sorted(BABY_STEP_ENTRIES))
def test_baby_steps_below_one_rejected(entry, baby_steps):
    cc = _cc()
    z, m = _data(256)
    ct = cc.encrypt(z, num_slots=DIM)
    with pytest.raises(ParameterError, match="baby_steps must be >= 1"):
        BABY_STEP_ENTRIES[entry](cc, ct, m, baby_steps)


# -- matvec ----------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_matvec_bit_identical_to_naive_and_correct(method):
    """The acceptance-bar identity at test scale, all four backends."""
    n = 256
    ctx, keygen, enc, lin = _setup(n, method)
    z, m = _data(n)
    ct = _encrypt(lin, keygen, z)
    fast = lin.matvec(ct, m)
    naive = lin.matvec_naive(ct, m)
    assert np.array_equal(fast.c0.limbs, naive.c0.limbs)
    assert np.array_equal(fast.c1.limbs, naive.c1.limbs)
    assert fast.scale == naive.scale
    assert fast.noise_bits == pytest.approx(naive.noise_bits)
    out = lin.ev.rescale(fast)
    got = enc.decode(lin.ev.decrypt(out, keygen.secret), num_slots=DIM)
    ref = ReferenceEvaluator(n, coeff_bound_bits=40)
    assert np.abs(got - ref.matvec_slots(m, z)).max() < 1e-4


def test_matvec_complex_matrix_and_uneven_split():
    n = 256
    ctx, keygen, enc, lin = _setup(n, "smr")
    r = np.random.default_rng(2)
    z, _ = _data(n)
    m = r.uniform(-1, 1, (DIM, DIM)) + 1j * r.uniform(-1, 1, (DIM, DIM))
    ct = _encrypt(lin, keygen, z)
    # baby_steps=8 needs keys {1..7, 8}: generate on the fly
    ev = Evaluator.from_keygen(
        keygen, rotations=SlotLinalg.matvec_rotations(DIM, baby_steps=8)
    )
    lin8 = SlotLinalg(enc, ev)
    fast = lin8.matvec(ct, m, baby_steps=8)
    naive = lin8.matvec_naive(ct, m, baby_steps=8)
    assert np.array_equal(fast.c0.limbs, naive.c0.limbs)
    got = enc.decode(lin8.ev.decrypt(fast, keygen.secret), num_slots=DIM)
    assert np.abs(got - m @ z).max() < 1e-3


def test_matvec_identity_matrix_is_identity():
    n = 256
    ctx, keygen, enc, lin = _setup(n, "shoup")
    z, _ = _data(n)
    ct = _encrypt(lin, keygen, z)
    out = lin.matvec(ct, np.eye(DIM))
    got = enc.decode(lin.ev.decrypt(out, keygen.secret), num_slots=DIM)
    assert np.abs(got - z).max() < 1e-4


def test_matvec_validation_and_missing_keys():
    n = 256
    ctx, keygen, enc, lin = _setup(n, "smr")
    z, m = _data(n)
    ct = _encrypt(lin, keygen, z)
    with pytest.raises(ParameterError, match="square"):
        lin.matvec(ct, np.zeros((4, 8)))
    with pytest.raises(ParameterError, match="slot count 3"):
        lin.matvec(ct, np.zeros((3, 3)))
    bare = SlotLinalg(enc, Evaluator(ctx))
    with pytest.raises(KeyError_, match="no Galois key"):
        bare.matvec_naive(ct, m)
    other = PolyContext(ctx.ring_degree, ctx.primes, "barrett")
    with pytest.raises(ParameterError, match="method mismatch"):
        SlotLinalg(CanonicalEncoder(other), lin.ev)


# -- element-wise vector ops -----------------------------------------------
def test_multiply_and_add_vector():
    n = 256
    ctx, keygen, enc, lin = _setup(n, "montgomery")
    z, _ = _data(n)
    w = _data(n, seed=0xF00)[0].real
    ct = _encrypt(lin, keygen, z)
    prod = lin.multiply_vector(ct, w)
    assert prod.scale == SCALE * SCALE
    got = enc.decode(lin.ev.decrypt(prod, keygen.secret), num_slots=DIM)
    assert np.abs(got - z * w).max() < 1e-4
    summed = lin.add_vector(ct, w)
    got = enc.decode(lin.ev.decrypt(summed, keygen.secret), num_slots=DIM)
    assert np.abs(got - (z + w)).max() < 1e-5


# -- polynomial evaluation -------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_poly_eval_bit_identical_and_correct(method):
    n = 256
    ctx, keygen, enc, lin = _setup(n, method)
    z, _ = _data(n)
    scale = 2.0**24  # stack of 4 fits the 4-limb Q
    ct = _encrypt(lin, keygen, z, scale=scale)
    coeffs = [0.5, -1.0, 0.25, 0.125]
    fast = lin.poly_eval(ct, coeffs)
    naive = lin.poly_eval_naive(ct, coeffs)
    assert np.array_equal(fast.c0.limbs, naive.c0.limbs)
    assert np.array_equal(fast.c1.limbs, naive.c1.limbs)
    got = enc.decode(lin.ev.decrypt(fast, keygen.secret), num_slots=DIM)
    expect = sum(c * z**k for k, c in enumerate(coeffs))
    assert np.abs(got - expect).max() < 1e-3
    assert fast.level == ctx.num_limbs  # scale stacking: no level spent


def test_poly_eval_sparse_coefficients_and_tail_constant():
    """Zero coefficients are skipped identically on both paths, and a
    lone constant term folds in through add_plain at the end."""
    n = 256
    ctx, keygen, enc, lin = _setup(n, "smr")
    z, _ = _data(n)
    scale = 2.0**24
    ct = _encrypt(lin, keygen, z, scale=scale)
    coeffs = [2.0, 0.0, 0.0, -0.5]  # only x^0 and x^3
    fast = lin.poly_eval(ct, coeffs)
    naive = lin.poly_eval_naive(ct, coeffs)
    assert np.array_equal(fast.c0.limbs, naive.c0.limbs)
    got = enc.decode(lin.ev.decrypt(fast, keygen.secret), num_slots=DIM)
    assert np.abs(got - (2.0 - 0.5 * z**3)).max() < 1e-3
    # trailing zeros are stripped before the split
    same = lin.poly_eval(ct, coeffs + [0.0, 0.0])
    assert np.array_equal(same.c0.limbs, fast.c0.limbs)


def test_poly_eval_linear_and_errors():
    n = 256
    ctx, keygen, enc, lin = _setup(n, "smr")
    z, _ = _data(n)
    ct = _encrypt(lin, keygen, z, scale=2.0**24)
    lin_ct = lin.poly_eval(ct, [1.0, 3.0])
    got = enc.decode(lin.ev.decrypt(lin_ct, keygen.secret), num_slots=DIM)
    assert np.abs(got - (1.0 + 3.0 * z)).max() < 1e-3
    with pytest.raises(ParameterError, match="degree >= 1"):
        lin.poly_eval(ct, [4.0])
    with pytest.raises(ParameterError, match="degree >= 1"):
        lin.poly_eval(ct, [1.0, 0.0, 0.0])
    with pytest.raises(ParameterError, match="scale budget"):
        big = _encrypt(lin, keygen, z, scale=2.0**30)
        lin.poly_eval(big, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])


# -- schedules -------------------------------------------------------------
def test_poly_eval_op_counts():
    """(hmults, plaintext mults, ciphertext adds) of instrumented
    poly_eval / poly_eval_naive runs, including the bare-giant case
    (degree 6: the last block holds only c6, which rides
    multiply_plain(x^6, const), not an hmult)."""
    n = 256
    ctx, keygen, enc, lin = _setup(n, "smr")
    z, _ = _data(n)
    for deg, expect_fast, expect_naive in (
        (3, (2, 2, 1), (2, 2, 1)),
        (6, (4, 5, 4), (10, 5, 4)),  # the bare-giant shape
        (7, (5, 5, 4), (11, 5, 4)),
    ):
        ct = _encrypt(lin, keygen, z, scale=2.0**9)
        coeffs = [0.1 * (k + 1) for k in range(deg + 1)]
        counts = [0, 0, 0]
        ev = lin.ev
        originals = (ev.multiply, ev.multiply_plain, ev.add)

        def count(i, fn):
            def wrapped(*a, **kw):
                counts[i] += 1
                return fn(*a, **kw)

            return wrapped

        ev.multiply, ev.multiply_plain, ev.add = (
            count(i, f) for i, f in enumerate(originals)
        )
        try:
            lin.poly_eval(ct, coeffs)
            fast = tuple(counts)
            counts[:] = [0, 0, 0]
            lin.poly_eval_naive(ct, coeffs)
        finally:
            ev.multiply, ev.multiply_plain, ev.add = originals
        assert fast == expect_fast, deg
        assert tuple(counts) == expect_naive, deg
