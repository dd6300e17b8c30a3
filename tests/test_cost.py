"""Cost-model validation: butterfly counts and Table-3 consistency."""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.poly.cost import MODADD_INSTRS, RAW64_INSTRS, CostModel
from repro.rns.reduction import REDUCTION_COSTS
from repro.scheme.ops import OPS


def test_butterfly_count():
    model = CostModel(256, 3, "smr")
    assert model.butterflies_per_ntt == 128 * 8  # (N/2) * log2(N)
    ntt = model.ntt()
    assert ntt.modmuls == 1024
    assert ntt.modadds == 2048  # two modadds per butterfly


def test_int32_pricing_follows_table3():
    model = CostModel(64, 2, "smr")
    ntt = model.ntt()
    per_mul = REDUCTION_COSTS["smr"].total_instrs
    assert ntt.int32_instrs == ntt.modmuls * per_mul + (ntt.modadds * MODADD_INSTRS)


def test_intt_adds_scaling_column():
    model = CostModel(64, 2, "shoup")
    assert model.intt().modmuls == model.ntt().modmuls + 64
    assert model.intt().modadds == model.ntt().modadds


def test_shoup_pays_for_companions():
    """Table 3's 'many constants' drawback shows up in the model."""
    shoup = CostModel(64, 2, "shoup")
    smr = CostModel(64, 2, "smr")
    assert shoup.pointwise().modmuls > smr.pointwise().modmuls


def test_smr_is_cheapest_end_to_end():
    """Alg. 2's Table-3 win must survive aggregation to a whole circuit."""
    totals = {
        method: _plans(method)[0].cost().int32_instrs
        for method in REDUCTION_COSTS
    }
    assert totals["smr"] == min(totals.values())
    assert totals["smr"] < totals["barrett"]


def test_rescale_cost_counts_surviving_limbs():
    model = CostModel(64, 4, "smr")
    rescale = model.rescale()
    assert rescale.modmuls == 64 * 3
    assert rescale.modadds == 64 * 3
    with pytest.raises(ParameterError):
        CostModel(64, 1, "smr").rescale()


def test_validation():
    with pytest.raises(ParameterError):
        CostModel(60, 2, "smr")  # not a power of two
    with pytest.raises(ParameterError):
        CostModel(64, 2, "karatsuba")


def test_scaled_opcost():
    op = CostModel(64, 2, "smr").ntt()
    twice = op.scaled(2)
    assert twice.modmuls == 2 * op.modmuls
    assert twice.int32_instrs == 2 * op.int32_instrs


def test_multiply_accumulate_pricing():
    model = CostModel(64, 3, "smr")
    lanes = 64 * 3
    k = 8
    reduced = model.multiply_accumulate(k)
    assert reduced.modmuls == (k + 1) * lanes  # products + terminal fold
    assert reduced.raw_adds64 == k * lanes  # deferred folds ride raw adds
    per_mul = REDUCTION_COSTS["smr"].total_instrs
    assert reduced.int32_instrs == (
        reduced.modmuls * per_mul + k * lanes * RAW64_INSTRS
    )
    with pytest.raises(ParameterError):
        model.multiply_accumulate(0)
    # scaled() carries the raw 64-bit fields along.
    twice = reduced.scaled(2)
    assert twice.raw_adds64 == 2 * reduced.raw_adds64
    assert twice.int32_instrs == 2 * reduced.int32_instrs


# -- basis conversion / key switching pricing (PR 3) ------------------------
def test_basis_convert_formula():
    model = CostModel(64, 4, "smr")
    op = model.basis_convert(4, 3)
    n = 64
    # scale + matrix + v-term + terminal fold, all Shoup-priced.
    assert op.method == "shoup"
    assert op.modmuls == n * (4 + 4 * 3 + 3 + 3)
    assert op.raw_adds64 == n * (4 * 3 + 3)
    assert op.int32_instrs > 0
    with pytest.raises(ParameterError):
        model.basis_convert(0, 3)


def test_mod_up_sums_digit_conversions():
    model = CostModel(64, 4, "smr")
    whole = model.mod_up(2, dnum=1)
    split = model.mod_up(2, dnum=2)
    # One digit: a single 4 -> 2 conversion.
    assert whole.modmuls == model.basis_convert(4, 2).modmuls
    # Two digits of 2 limbs each, onto the 4-row complement.
    assert split.modmuls == 2 * model.basis_convert(2, 4).modmuls
    with pytest.raises(ParameterError):
        model.mod_up(2, dnum=5)


def test_mod_down_adds_combine_lanes():
    model = CostModel(64, 4, "smr")
    conv = model.basis_convert(2, 4)
    op = model.mod_down(2)
    lanes = 64 * 4
    assert op.modmuls == conv.modmuls + lanes
    assert op.modadds == conv.modadds + lanes
    with pytest.raises(ParameterError):
        model.mod_down(0)


def test_key_switch_composite_pricing():
    """The key switch prices as two halves split at the hoisting
    boundary: the input-side shared front and the per-output finish."""
    model = CostModel(256, 8, "smr")
    shared = model.ks_shared(3, dnum=2)
    finish = model.ks_finish(3, dnum=2)
    # ModUp / ModDown run Shoup chains: priced apart, carried as int32.
    assert shared.method == finish.method == "smr"
    assert shared.extra_int32 == model.mod_up(3, dnum=2).int32_instrs
    assert finish.extra_int32 == 2 * model.mod_down(3).int32_instrs
    # scaled() carries the pre-priced component along.
    assert finish.scaled(2).extra_int32 == 2 * finish.extra_int32
    assert finish.scaled(2).int32_instrs == 2 * finish.int32_instrs


# -- automorphism pricing ----------------------------------------------------
def test_automorphism_pricing():
    model = CostModel(256, 4, "smr")
    coeff = model.automorphism("coeff")
    ntt = model.automorphism("ntt")
    # Coeff domain: one conditional negation per lane; NTT domain: a
    # pure permutation — zero int32 arithmetic.
    assert coeff.modmuls == 0 and coeff.modadds == 256 * 4
    assert ntt.int32_instrs == 0
    with pytest.raises(ParameterError):
        model.automorphism("fourier")


# -- compiled plans price themselves -----------------------------------------
PLAN_COEFFS = (0.5, -1.0, 0.25, 0.125)

#: int32 instructions per run of the three plans of _plans: the
#: perfbench circuit at N=256 (16x16 matvec -> degree-3 poly -> rescale),
#: the mixed program, and a product carrying two fused rescales
PINNED_INT32 = {
    "barrett": (21_172_224, 3_423_744, 3_114_496),
    "montgomery": (19_274_752, 3_109_888, 2_831_872),
    "shoup": (15_553_536, 2_519_040, 2_303_488),
    "smr": (15_479_808, 2_482_176, 2_266_624),
}


@lru_cache(maxsize=None)
def _context(method: str):
    """N=256, L=12, K=5, dnum=3: the serve-mix shape, matvec keys."""
    from repro import CkksContext

    return CkksContext(
        ring_degree=256,
        num_main=11,
        num_aux=5,
        dnum=3,
        seed=1,
        method=method,
        rotations=CkksContext.matvec_rotations(16),
    )


@lru_cache(maxsize=None)
def _plans(method: str):
    """Three compiled plans that together hold every step kind."""
    cc = _context(method)
    matrix = np.random.default_rng(0).uniform(-1.0, 1.0, (16, 16)) / 8
    vector = np.linspace(-1.0, 1.0, 16)
    circuit = cc.compile(
        lambda p, x: p.rescale(p.poly_eval(p.matvec(x, matrix), PLAN_COEFFS))
    )

    def mixed(p, x):
        sq = p.rescale(p.multiply(x, x))
        lin = p.rescale(p.multiply_vector(x, vector))
        return p.negate(p.sub(sq, lin))

    def two_rescales(p, x):
        return p.rescale(p.rescale(p.multiply(p.multiply_vector(x, vector), x)))

    return circuit, cc.compile(mixed), cc.compile(two_rescales)


def test_pinned_plans_hold_every_step_kind():
    tags = [t for p in _plans("smr") for t in p.describe().split(" ; ")]
    heads = {t.split("->")[0] for t in tags}
    kinds = {h.split("~")[0].split("+")[0] for h in heads}
    assert kinds == set(OPS) | {"input", "hoist"}
    # both output domains of the plaintext products
    assert {"mac", "mac~ntt", "multiply_plain", "multiply_plain~ntt"} <= heads
    assert "multiply+rs2" in heads  # fused rescales, one level apart


@pytest.mark.parametrize("method", ("barrett", "montgomery", "shoup", "smr"))
def test_compiled_plan_pricing_is_pinned(method):
    got = tuple(p.cost().int32_instrs for p in _plans(method))
    assert got == PINNED_INT32[method]


def test_hoisted_rotation_amortizes_the_shared_front():
    """A hoist group pays the key switch's shared front once; each
    rotation of the group adds only a finish, the Galois passes and
    its add."""
    cc = _context("shoup")
    model = CostModel(256, 12, "shoup")

    def rotations(count: int) -> int:
        def build(p, x):
            rotated = p.rotate_hoisted(x, list(range(1, count + 1)))
            for k in range(1, count + 1):
                x = p.add(x, rotated[k])
            return x

        return cc.compile(build).cost().int32_instrs

    shared = model.ks_shared(5, dnum=3).int32_instrs
    per_rotation = (
        model.ks_finish(5, dnum=3).int32_instrs
        + model.automorphism("coeff").int32_instrs
        + 3 * model.add().int32_instrs  # the Galois step's add + one add step
    )
    for count in (1, 2, 3):
        assert rotations(count) == shared + count * per_rotation


def test_hmult_composite_exceeds_its_parts():
    """A multiply step prices the tensor plus the whole relinearization
    key switch; a fused rescale adds both components' rescale at the
    step's level."""
    cc = _context("smr")
    model = CostModel(256, 12, "smr")
    mult = cc.compile(lambda p, x: p.multiply(x, x))
    fused = cc.compile(lambda p, x: p.rescale(p.multiply(x, x)))
    assert "multiply+rs1" in fused.describe()
    key_switch = (
        model.ks_shared(5, dnum=3).int32_instrs
        + model.ks_finish(5, dnum=3).int32_instrs
    )
    assert mult.cost().int32_instrs > key_switch
    assert (
        fused.cost().int32_instrs - mult.cost().int32_instrs
        == 2 * model.rescale().int32_instrs
    )
