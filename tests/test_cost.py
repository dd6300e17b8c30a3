"""Cost-model validation: butterfly counts and Table-3 consistency."""

import pytest

from repro.errors import ParameterError
from repro.poly.cost import MODADD_INSTRS, CostModel, compare_methods
from repro.rns.reduction import REDUCTION_COSTS


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
    assert shoup.ntt().twiddle_consts == 2 * smr.ntt().twiddle_consts
    assert shoup.pointwise().modmuls > smr.pointwise().modmuls


def test_poly_multiply_scales_with_limbs():
    one = CostModel(64, 1, "smr").poly_multiply()
    four = CostModel(64, 4, "smr").poly_multiply()
    assert four.modmuls == 4 * one.modmuls
    assert four.modadds == 4 * one.modadds
    # Each limb prime owns its twiddle tables: consts scale with limbs too.
    assert four.twiddle_consts == 4 * one.twiddle_consts


def test_shoup_intt_charges_scaling_companion():
    """n^-1 needs its Shoup companion, like every other stored constant."""
    shoup = CostModel(64, 2, "shoup")
    smr = CostModel(64, 2, "smr")
    assert shoup.intt().twiddle_consts - shoup.ntt().twiddle_consts == 2
    assert smr.intt().twiddle_consts - smr.ntt().twiddle_consts == 1


def test_smr_is_cheapest_end_to_end():
    """Alg. 2's Table-3 win must survive aggregation to full multiplies."""
    totals = compare_methods(4096, 25)
    assert totals["smr"] == min(totals.values())
    assert totals["smr"] < totals["barrett"]


def test_rescale_cost_counts_surviving_limbs():
    model = CostModel(64, 4, "smr")
    rescale = model.rescale()
    assert rescale.modmuls == 64 * 3
    assert rescale.modadds == 64 * 3
    assert rescale.twiddle_consts == 3
    with pytest.raises(ParameterError):
        CostModel(64, 1, "smr").rescale()


def test_table_renders_every_operation():
    model = CostModel(64, 3, "smr")
    text = model.table()
    for op in ("ntt", "intt", "pointwise", "add", "poly_multiply", "rescale"):
        assert op in text
    assert "(-q, q)" in text  # SMR's Table-3 range in the header


def test_validation():
    with pytest.raises(ParameterError):
        CostModel(60, 2, "smr")  # not a power of two
    with pytest.raises(ParameterError):
        CostModel(64, 2, "karatsuba")


def test_context_exposes_cost_model(pool64):
    from repro.poly.rns_poly import PolyContext

    ctx = PolyContext.from_pool(pool64, num_terminal=1, num_main=2)
    model = ctx.cost_model
    assert model is ctx.cost_model  # cached
    assert model.num_limbs == 3
    assert model.method == "smr"
    assert model.poly_multiply().int32_instrs > 0


def test_scaled_opcost():
    op = CostModel(64, 2, "smr").ntt()
    twice = op.scaled(2, "double-ntt")
    assert twice.name == "double-ntt"
    assert twice.modmuls == 2 * op.modmuls
    assert twice.int32_instrs == 2 * op.int32_instrs


def test_multiply_accumulate_pricing():
    from repro.poly.cost import RAW64_INSTRS

    model = CostModel(64, 3, "smr")
    lanes = 64 * 3
    k = 8
    reduced = model.multiply_accumulate(k)
    assert reduced.modmuls == (k + 1) * lanes  # products + terminal fold
    assert reduced.raw_adds64 == k * lanes  # deferred folds ride raw adds
    raw = model.multiply_accumulate(k, strategy="raw")
    assert raw.modmuls == lanes  # one deferred reduce per lane
    assert raw.raw_muls64 == k * lanes and raw.raw_adds64 == k * lanes
    # §4.2's point: deferring the reductions beats reducing every term.
    assert raw.int32_instrs < reduced.int32_instrs
    per_mul = REDUCTION_COSTS["smr"].total_instrs
    assert reduced.int32_instrs == (
        reduced.modmuls * per_mul + k * lanes * RAW64_INSTRS
    )
    # raw needs SMR; bad inputs refused.
    with pytest.raises(ParameterError):
        CostModel(64, 3, "shoup").multiply_accumulate(2, strategy="raw")
    with pytest.raises(ParameterError):
        model.multiply_accumulate(0)
    with pytest.raises(ParameterError):
        model.multiply_accumulate(2, strategy="eager")
    # scaled() carries the raw 64-bit fields along.
    twice = raw.scaled(2)
    assert twice.raw_muls64 == 2 * raw.raw_muls64
    assert twice.int32_instrs == 2 * raw.int32_instrs
    # The rendered table includes the fused op.
    assert "multiply_accumulate" in model.table()


# -- basis conversion / key switching pricing (PR 3) ------------------------
def test_basis_convert_formula():
    model = CostModel(64, 4, "smr")
    op = model.basis_convert(4, 3)
    n = 64
    # scale + matrix + v-term + terminal fold, all Shoup-priced.
    assert op.method == "shoup"
    assert op.modmuls == n * (4 + 4 * 3 + 3 + 3)
    assert op.raw_adds64 == n * (4 * 3 + 3)
    assert op.twiddle_consts == 2 * 4 + 2 * 4 * 3 + 2 * 3
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
    model = CostModel(256, 8, "smr")
    coeff = model.key_switch(3, dnum=2)
    # Conversion sub-kernels ride along pre-priced (Shoup chains).
    assert coeff.extra_int32 > 0
    # scaled() carries the pre-priced component along.
    assert coeff.scaled(2).extra_int32 == 2 * coeff.extra_int32
    assert coeff.scaled(2).int32_instrs == 2 * coeff.int32_instrs


def test_table_renders_new_kernels():
    text = CostModel(64, 3, "smr").table()
    for op in ("basis_convert", "mod_up", "mod_down", "key_switch"):
        assert op in text


# -- automorphism + scheme-layer composite pricing (PR 4) -------------------
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


def test_scheme_ks_split_sums_to_key_switch():
    """ks_shared + ks_finish is an accounting split of key_switch,
    field for field — not a second cost model."""
    from repro.poly.cost import _merge
    from repro.scheme.cost import SchemeCostModel

    for method in ("barrett", "montgomery", "shoup", "smr"):
        sc = SchemeCostModel(256, 6, 3, 2, method)
        ks = sc.poly.key_switch(3, dnum=2)
        split = _merge(sc.ks_shared(), sc.ks_finish())
        for field in (
            "modmuls",
            "modadds",
            "twiddle_consts",
            "raw_muls64",
            "raw_adds64",
            "extra_int32",
        ):
            assert getattr(split, field) == getattr(ks, field), (
                method,
                field,
            )


def test_hoisted_rotation_amortizes_the_shared_front():
    from repro.scheme.cost import SchemeCostModel

    sc = SchemeCostModel(1024, 4, 2, 2, "shoup")
    rotate = sc.rotate().int32_instrs
    shared = sc.ks_shared().int32_instrs
    for count in (2, 4, 8):
        hoisted = sc.hoisted_rotate(count).int32_instrs
        assert hoisted < count * rotate
        # exactly (count - 1) shared fronts cheaper
        assert hoisted == count * rotate - (count - 1) * shared
    with pytest.raises(ParameterError):
        sc.hoisted_rotate(0)


def test_hmult_composite_exceeds_its_parts():
    from repro.scheme.cost import SchemeCostModel

    sc = SchemeCostModel(256, 4, 2, 2, "smr")
    hmult = sc.hmult()
    relin = sc.relinearize()
    assert hmult.int32_instrs > relin.int32_instrs
    assert relin.int32_instrs > sc.poly.key_switch(2, dnum=2).int32_instrs
    assert sc.rescale().modmuls == 2 * sc.poly.rescale().modmuls


def test_scheme_table_renders_composites():
    from repro.scheme.cost import SchemeCostModel

    text = SchemeCostModel(64, 3, 2, 2, "smr").table()
    for op in ("relinearize", "hmult", "rotate", "hoisted_rotate"):
        assert op in text
    with pytest.raises(ParameterError):
        SchemeCostModel(64, 3, 0, 2, "smr")
    with pytest.raises(ParameterError):
        SchemeCostModel(64, 3, 2, 9, "smr")
