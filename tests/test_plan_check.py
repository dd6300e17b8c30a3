"""Level-2 plan checker tests: accept compiled plans, reject hand-built ones.

Two load-bearing properties:

1. **Completeness on real plans** — every plan the compiler produces
   from the suite's seeded random DAGs and the linalg entry points must
   come back error-free, and the checker's per-output (level, scale,
   noise) prediction must equal what ``plan.run`` tags onto the actual
   ciphertexts *float-for-float* (the checker replays the executor's
   own formulas, so any divergence is a checker bug).
2. **Soundness on bad plans** — statically-doomed circuits (noise
   budget exhaustion, drifted-scale adds, dead hoists, malformed step
   lists) are rejected with a diagnostic naming the offending step.
"""

import numpy as np
import pytest

import test_circuit as tc
from repro.analysis import check_plan
from repro.errors import StaticAnalysisError
from repro.scheme import Plaintext
from repro.scheme._circuit import CircuitTracer
from repro.scheme._circuit import _Step

N = 1024
METHOD = "smr"


def _codes(diags):
    return [d.code for d in diags]


def _dag_plan(seed, method=METHOD):
    ctx, _, ev = tc._setup(N, method)
    pts = tc._plaintexts(N, method)
    ops, (o1, o2) = tc._gen_ops(seed, ctx, len(pts))
    tracer = CircuitTracer(ev)
    traced = tc._interpret(
        tracer,
        ops,
        tracer.input("x", scale=tc.SCALE),
        tracer.input("y", scale=tc.SCALE),
        pts,
    )
    return tracer.compile({"a": traced[o1], "b": traced[o2]})


class _HandPlan:
    """Bare-bones plan stand-in: the checker only reads these attrs.

    The compiler can never emit the malformed step lists the soundness
    tests need (the tracer validates scales/levels at trace time), so
    they are assembled by hand against a real :class:`PolyContext`.
    """

    def __init__(self, ctx, steps, inputs, outputs, n_slots, sigma=3.2):
        self.ctx = ctx
        self._sigma = sigma
        self._steps = steps
        self._inputs = inputs  # [(name, slot, scale)]
        self._outputs = outputs  # {name: slot}
        self._n_slots = n_slots


class TestAcceptsCompiledPlans:
    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 7, 9])
    def test_random_dag_plans_are_error_free(self, seed):
        report = _dag_plan(seed).analyze()
        assert report.ok, report.describe()
        assert set(report.output_states) == {"a", "b"}

    @pytest.mark.parametrize("method", ["barrett", "montgomery", "shoup"])
    def test_other_backends_accepted(self, method):
        report = _dag_plan(2, method).analyze()
        assert report.ok, report.describe()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_state_prediction_is_float_exact(self, seed):
        plan = _dag_plan(seed)
        report = check_plan(plan)
        ct_x, ct_y = tc._fresh_inputs(N, METHOD, 0xEC0 + seed)
        got = plan.run(x=ct_x, y=ct_y)
        for name, st in report.output_states.items():
            ct = got[name]
            assert st.level == ct.level
            assert st.scale == ct.scale
            assert st.noise_bits == ct.noise_bits
            # modulus log2 is summed per limb here, multiplied there:
            # equal only to float rounding.
            assert st.budget_bits == pytest.approx(
                ct.noise_budget_bits, rel=1e-12
            )

    def test_hoisted_rotation_plan_accepted(self):
        ctx, _, ev = tc._setup(N, METHOD)
        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=tc.SCALE)
        ts = tracer.rotate_hoisted(x, [1, 2, 3])
        plan = tracer.compile(
            tracer.add(tracer.add(ts[1], ts[2]), ts[3])
        )
        report = plan.analyze()
        assert report.ok, report.describe()
        # The single shared hoist has three Galois consumers: silence.
        assert "dead-hoist" not in _codes(report.warnings)

    def test_describe_lists_outputs(self):
        report = _dag_plan(0).analyze()
        text = report.describe()
        assert "plan check:" in text
        assert "output 'a':" in text
        assert "output 'b':" in text


class TestRejectsDoomedPlans:
    def test_budget_exhaustion_names_the_node(self):
        # Three chained 2^30-scale plaintext multiplies push the noise
        # estimate past log2(Q_4) - 1 ~ 114 bits with no data in sight.
        ctx, _, ev = tc._setup(N, METHOD)
        r = np.random.default_rng(0xDEAD)
        pt = Plaintext.encode(
            ctx, r.uniform(-1, 1, ctx.ring_degree), 2.0**30
        )
        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=2.0**30)
        for _ in range(3):
            x = tracer.multiply_plain(x, pt)
        report = tracer.compile(x).analyze()
        assert not report.ok
        errs = [e for e in report.errors if e.code == "budget-exhausted"]
        # Frontier-limited: downstream steps of an exhausted value do
        # not re-report.
        assert len(errs) == 1
        assert "multiply_plain" in errs[0].where  # node provenance label
        assert "cannot decrypt" in errs[0].detail
        with pytest.raises(StaticAnalysisError, match="plan rejected"):
            report.raise_if_failed()

    def test_drifted_rescale_chain_feeds_a_mismatched_add(self):
        # Hand-built scale-drift shape: rescaling a 2^20-scale value by
        # a ~2^30 prime lands near 2^-10; adding it to a 2^20-scale
        # operand is the error the tracer would have refused to record.
        ctx, _, _ = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("input", dst=1, arg="y", scale=2.0**20, level=3),
            _Step("rescale", dst=2, srcs=(0,), level=4),
            _Step("add", dst=3, srcs=(2, 1), level=3, label="n3:add"),
        ]
        plan = _HandPlan(
            ctx,
            steps,
            inputs=[("x", 0, 2.0**20), ("y", 1, 2.0**20)],
            outputs={"out": 3},
            n_slots=4,
        )
        report = check_plan(plan)
        assert _codes(report.errors) == ["scale-mismatch"]
        assert "step 3" in report.errors[0].where
        assert "n3:add" in report.errors[0].where
        # The drifted rescale itself is flagged three ways over.
        warn = _codes(report.warnings)
        assert "scale-drift" in warn
        assert "scale-underflow" in warn
        assert "wasteful-rescale" in warn

    def test_key_level_mismatch_and_operand_levels(self):
        ctx, _, ev = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("input", dst=1, arg="y", scale=2.0**20, level=4),
            # Step claims level 3; the relin key covers the 4-limb basis.
            _Step(
                "multiply",
                dst=2,
                srcs=(0, 1),
                key=ev.relin_key,
                level=3,
            ),
        ]
        plan = _HandPlan(
            ctx,
            steps,
            inputs=[("x", 0, 2.0**20), ("y", 1, 2.0**20)],
            outputs={"out": 2},
            n_slots=3,
        )
        report = check_plan(plan)
        assert "level-mismatch" in _codes(report.errors)
        assert "key-level-mismatch" in _codes(report.errors)

    def test_mac_at_an_undefined_level_is_reported(self):
        ctx, _, _ = tc._setup(N, METHOD)
        pt = Plaintext.encode(ctx, np.zeros(ctx.ring_degree), 2.0**20)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("mac", dst=1, srcs=(0,), arg=(pt,), level=9),
        ]
        plan = _HandPlan(
            ctx, steps, [("x", 0, 2.0**20)], {"out": 1}, n_slots=2
        )
        report = check_plan(plan)
        assert _codes(report.errors) == ["level-mismatch"]
        assert "declares level 9" in report.errors[0].detail

    def test_dead_hoist_is_flagged(self):
        ctx, _, _ = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("hoist", dst=-1, srcs=(0,), level=4),
        ]
        plan = _HandPlan(
            ctx, steps, [("x", 0, 2.0**20)], {"out": 0}, n_slots=1
        )
        report = check_plan(plan)
        assert report.ok  # wasteful, not fatal
        assert "dead-hoist" in _codes(report.warnings)

    def test_undefined_register_is_invalid(self):
        ctx, _, _ = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("add", dst=1, srcs=(0, 5), level=4),
        ]
        plan = _HandPlan(
            ctx, steps, [("x", 0, 2.0**20)], {"out": 1}, n_slots=2
        )
        report = check_plan(plan)
        assert _codes(report.errors) == ["invalid-step"]
        assert "r5" in report.errors[0].detail
        assert report.output_states == {}  # the output never got a state

    def test_unknown_step_kind_is_invalid(self):
        ctx, _, _ = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("frobnicate", dst=1, srcs=(0,), level=4),
        ]
        plan = _HandPlan(
            ctx, steps, [("x", 0, 2.0**20)], {"out": 1}, n_slots=2
        )
        report = check_plan(plan)
        assert _codes(report.errors) == ["invalid-step"]
        assert "frobnicate" in report.errors[0].detail

    def test_rescale_at_the_basis_floor(self):
        ctx, _, _ = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=1),
            _Step("rescale", dst=1, srcs=(0,), level=1),
        ]
        plan = _HandPlan(
            ctx, steps, [("x", 0, 2.0**20)], {"out": 1}, n_slots=2
        )
        report = check_plan(plan)
        assert "level-mismatch" in _codes(report.errors)
        assert "no limb left to drop" in report.errors[0].detail


class TestLintWarnings:
    def test_wasteful_rescale_on_a_fresh_input(self):
        ctx, _, ev = tc._setup(N, METHOD)
        tracer = CircuitTracer(ev)
        plan = tracer.compile(
            tracer.rescale(tracer.input("x", scale=tc.SCALE))
        )
        report = plan.analyze()
        assert report.ok  # legal, just pointless
        assert "wasteful-rescale" in _codes(report.warnings)

    def test_drift_tolerance_is_tunable(self):
        ctx, _, ev = tc._setup(N, METHOD)
        tracer = CircuitTracer(ev)
        plan = tracer.compile(
            tracer.rescale(tracer.input("x", scale=tc.SCALE))
        )
        tight = plan.analyze(drift_warn_bits=1.0)
        loose = plan.analyze(drift_warn_bits=100.0)
        assert "scale-drift" in _codes(tight.warnings)
        assert "scale-drift" not in _codes(loose.warnings)

    def test_redundant_ntt_roundtrip_on_hand_scheduled_add(self):
        # The planner keeps adds in the NTT domain whenever every
        # consumer accepts it (persists_ntt); a hand schedule that does
        # not is flagged for paying a transform pair for nothing.
        ctx, _, _ = tc._setup(N, METHOD)
        steps = [
            _Step("input", dst=0, arg="x", scale=2.0**20, level=4),
            _Step("input", dst=1, arg="y", scale=2.0**20, level=4),
            _Step("add", dst=2, srcs=(0, 1), level=4, emit_ntt=False),
            _Step("negate", dst=3, srcs=(2,), level=4),
        ]
        plan = _HandPlan(
            ctx,
            steps,
            [("x", 0, 2.0**20), ("y", 1, 2.0**20)],
            {"out": 3},
            n_slots=4,
        )
        report = check_plan(plan)
        assert report.ok
        assert "redundant-ntt-roundtrip" in _codes(report.warnings)
        # The compiler's own schedule of the same circuit is silent.
        tracer = CircuitTracer(tc._setup(N, METHOD)[2])
        x = tracer.input("x", scale=tc.SCALE)
        y = tracer.input("y", scale=tc.SCALE)
        compiled = tracer.compile(tracer.negate(tracer.add(x, y)))
        assert "redundant-ntt-roundtrip" not in _codes(
            compiled.analyze().warnings
        )
