"""The public-API contract: one entry point, canonical kwargs.

* :class:`repro.CkksContext` is the single public entry point — the
  curated ``repro.__all__`` resolves, and ``cc.matvec`` /
  ``cc.poly_eval`` / ``cc.compile`` / ``cc.model`` reproduce what the
  internals produce;
* construction kwargs are spelled one way everywhere (``scale_bits``,
  ``backend``, ``seed``, ``checked``); anything else is a ``TypeError``.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import CkksContext
from repro.errors import ParameterError
from repro.poly.backends import resolve_backend

CTX_KW = dict(ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=5)


@pytest.fixture(scope="module")
def cc() -> CkksContext:
    return CkksContext(rotations=(1, 2), **CTX_KW)


# -- curated surface ---------------------------------------------------------

def test_repro_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_context_stores_canonical_attributes(cc):
    assert cc.scale_bits == 30
    assert cc.scale == 2.0**30
    assert cc.main_bits == 30 and cc.terminal_bits == 25
    assert cc.backend == resolve_backend(None)
    assert cc.checked in (True, False)


def test_encrypt_defaults_to_context_scale(cc):
    ct = cc.encrypt([0.5, -0.25], num_slots=2)
    assert ct.scale == cc.scale
    vals = cc.decrypt(ct, num_slots=2)
    assert np.allclose(vals.real, [0.5, -0.25], atol=1e-6)


# -- cc.compile parity -------------------------------------------------------

def test_compile_matches_eager_workloads(cc):
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((4, 4))
    coeffs = [0.25, -0.5, 0.125]

    def build(p, x):
        return p.rescale(p.poly_eval(p.rescale(p.matvec(x, matrix)), coeffs))

    # N=64 has a short chain: a smaller working scale keeps the degree-2
    # scale stack inside the budget on both paths
    scale = 2.0**20
    plan = cc.compile(build, scale=scale)
    v = rng.standard_normal(4)
    got = cc.decrypt(
        plan.run(cc.encrypt(v, scale=scale, num_slots=4)), num_slots=4
    )

    ct = cc.encrypt(v, scale=scale, num_slots=4)
    ev = cc.evaluator
    eager = ev.rescale(
        cc.poly_eval(ev.rescale(cc.matvec(ct, matrix)), coeffs)
    )
    want = cc.decrypt(eager, num_slots=4)
    # the two runs encrypt independently, so they agree only up to the
    # (scale-relative) noise floor — ~2^-8 after rescaling down to 2^10
    assert np.allclose(got, want, atol=2e-2)
    slots = matrix @ v
    expect = 0.25 - 0.5 * slots + 0.125 * slots**2
    assert np.allclose(got.real, expect, atol=2e-2)


def test_compile_program_delegates_evaluator_ops(cc):
    plan = cc.compile(lambda p, x: p.rescale(p.multiply(x, x)))
    out = cc.decrypt(plan.run(cc.encrypt([0.5], num_slots=1)), num_slots=1)
    assert np.allclose(out.real, [0.25], atol=1e-6)


def test_model_factory_rejects_unknown_kind(cc):
    with pytest.raises(ParameterError, match="unknown model kind"):
        cc.model("svm", np.zeros((4, 2)), np.zeros(4))


# -- canonical kwargs --------------------------------------------------------

def test_unknown_kwarg_still_a_typeerror():
    with pytest.raises(TypeError, match="unexpected keyword"):
        CkksContext(frobnicate=1, **CTX_KW)


def test_silent_reexports_do_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from repro.scheme import CircuitPlan, TracedCiphertext, bsgs_split

        assert bsgs_split(8) == (3, 3)
        assert CircuitPlan is not None and TracedCiphertext is not None
    assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
