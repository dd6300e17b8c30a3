"""Circuit compiler tests: trace -> plan -> execute.

The load-bearing property is **bit-identity**: replaying a compiled
plan must produce limb-for-limb the same ciphertexts (and float-for-
float the same scale and noise estimates) as running the recorded
program eagerly.  Seeded random programs — drawn over add/sub/negate/
plaintext ops/rotations/conjugation/multiply/rescale with level- and
scale-valid operands, one op kind per op-table entry the tracer can
record — are interpreted both ways across all four reducer backends
and both acceptance ring degrees.  On top of that:
plan reuse across input batches, stale-plan rejection, the unified
Plan protocol, and the compiled matvec / poly_eval entry points.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import (
    CheddarError,
    KeyError_,
    LevelError,
    ParameterError,
    ScaleMismatchError,
    TraceError,
)
from repro.plan import Plan
from repro.poly.rns_poly import PolyContext
from repro.rns.primes import PrimePool
from repro.scheme import (
    CircuitPlan,
    Evaluator,
    KeyGenerator,
    Plaintext,
)
from repro.scheme._circuit import CircuitTracer
from repro.scheme.encoder import CanonicalEncoder
from repro.scheme.evaluator import validate_rotations
from repro.scheme._linalg import SlotLinalg

METHODS = ("barrett", "montgomery", "shoup", "smr")
SCALE = 2.0**20
DNUM = 2
ROTS = (1, 2, 3)


@lru_cache(maxsize=None)
def _pool(n: int) -> PrimePool:
    return PrimePool.generate(n, num_main=3, num_terminal=1, num_aux=4)


@lru_cache(maxsize=None)
def _setup(n: int, method: str):
    pool = _pool(n)
    ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=3, method=method)
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=DNUM)]
    keygen = KeyGenerator(ctx, aux, DNUM, np.random.default_rng(0xC19C + n))
    ev = Evaluator.from_keygen(keygen, rotations=ROTS, conjugate=True)
    return ctx, keygen, ev


@lru_cache(maxsize=None)
def _plaintexts(n: int, method: str) -> tuple[Plaintext, ...]:
    ctx, _, _ = _setup(n, method)
    r = np.random.default_rng(0xF1A7 + n)
    return tuple(
        Plaintext.encode(ctx, r.uniform(-1, 1, n), SCALE) for _ in range(3)
    )


def _fresh_inputs(n: str, method: str, seed: int):
    ctx, keygen, ev = _setup(n, method)
    r = np.random.default_rng(seed)
    cts = []
    for _ in range(2):
        pt = Plaintext.encode(ctx, r.uniform(-1, 1, ctx.ring_degree), SCALE)
        cts.append(ev.encrypt(pt, keygen.public, r))
    return cts


# -- seeded random program generator ------------------------------------


def _gen_ops(seed: int, ctx, num_pts: int, num_random: int = 10):
    """A random level/scale-valid op list over two inputs.

    Ops reference earlier values by index; the same list replays
    against an eager evaluator and a tracer.  A forced prefix
    guarantees every program exercises shared-source rotations, a
    relinearizing multiply and a rescale.
    """
    L = ctx.num_limbs
    r = np.random.default_rng(seed)
    meta = [(L, SCALE), (L, SCALE)]  # (level, scale) per value

    def push(level, scale):
        meta.append((level, float(scale)))

    ops = [("rot", 0, 1), ("rot", 0, 2), ("mul", 0, 1)]
    push(L, SCALE)
    push(L, SCALE)
    push(L, SCALE * SCALE)

    for _ in range(num_random):
        for kind in r.permutation(
            ["add", "sub", "neg", "rot", "conj", "mul", "mp", "ap", "rescale"]
        ):
            if kind in ("add", "sub"):
                groups: dict[tuple, list[int]] = {}
                for idx, key in enumerate(meta):
                    groups.setdefault(key, []).append(idx)
                key = tuple(groups)[int(r.integers(len(groups)))]
                i, j = (int(r.choice(groups[key])) for _ in range(2))
                ops.append((kind, i, j))
                push(*key)
            elif kind == "neg":
                i = int(r.integers(len(meta)))
                ops.append(("neg", i))
                push(*meta[i])
            elif kind in ("rot", "conj"):
                full = [i for i, (lv, _) in enumerate(meta) if lv == L]
                i = int(r.choice(full))
                if kind == "rot":
                    ops.append(("rot", i, int(r.choice(ROTS))))
                else:
                    ops.append(("conj", i))
                push(*meta[i])
            elif kind == "mul":
                full = [i for i, (lv, _) in enumerate(meta) if lv == L]
                i, j = (int(r.choice(full)) for _ in range(2))
                ops.append(("mul", i, j))
                push(L, meta[i][1] * meta[j][1])
            elif kind == "mp":
                full = [i for i, (lv, _) in enumerate(meta) if lv == L]
                i = int(r.choice(full))
                p = int(r.integers(num_pts))
                ops.append(("mp", i, p))
                push(L, meta[i][1] * SCALE)
            elif kind == "ap":
                # the plaintexts sit at the full level and scale SCALE
                fits = [i for i, key in enumerate(meta) if key == (L, SCALE)]
                i = int(r.choice(fits))
                ops.append(("ap", i, int(r.integers(num_pts))))
                push(L, SCALE)
            else:  # rescale
                deep = [i for i, (lv, _) in enumerate(meta) if lv >= 2]
                i = int(r.choice(deep))
                lv, sc = meta[i]
                ops.append(("rescale", i))
                push(lv - 1, sc / ctx.primes[lv - 1])
            break
    second = int(r.integers(len(meta) - 1))
    return ops, (len(meta) - 1, second)


def _interpret(E, ops, x, y, pts):
    vals = [x, y]
    for op in ops:
        kind = op[0]
        if kind == "add":
            vals.append(E.add(vals[op[1]], vals[op[2]]))
        elif kind == "sub":
            vals.append(E.sub(vals[op[1]], vals[op[2]]))
        elif kind == "neg":
            vals.append(E.negate(vals[op[1]]))
        elif kind == "rot":
            vals.append(E.rotate(vals[op[1]], op[2]))
        elif kind == "conj":
            vals.append(E.conjugate(vals[op[1]]))
        elif kind == "mul":
            vals.append(E.multiply(vals[op[1]], vals[op[2]]))
        elif kind == "mp":
            vals.append(E.multiply_plain(vals[op[1]], pts[op[2]]))
        elif kind == "ap":
            vals.append(E.add_plain(vals[op[1]], pts[op[2]]))
        elif kind == "rescale":
            vals.append(E.rescale(vals[op[1]]))
        else:  # pragma: no cover
            raise AssertionError(kind)
    return vals


def _assert_ct_equal(got, want, label=""):
    assert np.array_equal(got.c0.limbs, want.c0.limbs), f"{label} c0"
    assert np.array_equal(got.c1.limbs, want.c1.limbs), f"{label} c1"
    assert got.scale == want.scale, label
    assert got.noise_bits == want.noise_bits, label


def _compile_and_compare(n, method, seed):
    ctx, _, ev = _setup(n, method)
    pts = _plaintexts(n, method)
    ops, (o1, o2) = _gen_ops(seed, ctx, len(pts))
    ct_x, ct_y = _fresh_inputs(n, method, 0xAB0 + seed)

    eager = _interpret(ev, ops, ct_x, ct_y, pts)
    tracer = CircuitTracer(ev)
    traced = _interpret(
        tracer,
        ops,
        tracer.input("x", scale=SCALE),
        tracer.input("y", scale=SCALE),
        pts,
    )
    plan = tracer.compile({"a": traced[o1], "b": traced[o2]})
    got = plan.run(x=ct_x, y=ct_y)
    _assert_ct_equal(got["a"], eager[o1], f"seed={seed} out a")
    _assert_ct_equal(got["b"], eager[o2], f"seed={seed} out b")
    return plan


class TestRandomProgramBitIdentity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_n1024_all_backends(self, method, seed):
        _compile_and_compare(1024, method, seed)

    @pytest.mark.parametrize("method", METHODS)
    def test_n4096_all_backends(self, method):
        _compile_and_compare(4096, method, 7)

    def test_rotate_hoisted_traces_to_shared_hoist(self):
        ctx, _, ev = _setup(1024, "smr")
        ct_x, _ = _fresh_inputs(1024, "smr", 0xB00)
        hs = ev.rotate_hoisted(ct_x, [1, 2, 3])
        eager = ev.add(ev.add(hs[1], hs[2]), hs[3])

        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=SCALE)
        ts = tracer.rotate_hoisted(x, [1, 2, 3])
        plan = tracer.compile(tracer.add(tracer.add(ts[1], ts[2]), ts[3]))
        _assert_ct_equal(plan.run(x=ct_x), eager)
        kinds = [s.kind for s in plan._steps]
        assert kinds.count("hoist") == 1  # one shared ModUp
        assert kinds.count("galois") == 3


class TestPlanReuse:
    def test_one_plan_many_batches(self):
        n, method = 1024, "shoup"
        ctx, _, ev = _setup(n, method)
        pts = _plaintexts(n, method)
        ops, (o1, o2) = _gen_ops(4, ctx, len(pts))
        tracer = CircuitTracer(ev)
        traced = _interpret(
            tracer,
            ops,
            tracer.input("x", scale=SCALE),
            tracer.input("y", scale=SCALE),
            pts,
        )
        plan = tracer.compile({"a": traced[o1], "b": traced[o2]})
        for batch in range(3):
            ct_x, ct_y = _fresh_inputs(n, method, 0x1000 + batch)
            eager = _interpret(ev, ops, ct_x, ct_y, pts)
            got = plan.run({"x": ct_x, "y": ct_y})
            _assert_ct_equal(got["a"], eager[o1], f"batch={batch}")
            _assert_ct_equal(got["b"], eager[o2], f"batch={batch}")


class TestStalePlanRejection:
    def _plan(self, n=1024, method="smr"):
        _, _, ev = _setup(n, method)
        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=SCALE)
        return ev, tracer.compile(tracer.rotate(x, 1))

    def test_wrong_level_input(self):
        ev, plan = self._plan()
        (ct_x, ct_y) = _fresh_inputs(1024, "smr", 1)
        stale = ev.rescale(ev.multiply(ct_x, ct_y))
        with pytest.raises(ParameterError, match="stale plan for input 'x'"):
            plan.run(x=stale)

    def test_wrong_context_input(self):
        _, plan = self._plan()
        foreign, _ = _fresh_inputs(4096, "smr", 1)
        with pytest.raises(ParameterError, match="stale plan for input 'x'"):
            plan.run(x=foreign)

    def test_wrong_scale_input(self):
        ctx, keygen, ev = _setup(1024, "smr")
        _, plan = self._plan()
        r = np.random.default_rng(5)
        pt = Plaintext.encode(ctx, r.uniform(-1, 1, ctx.ring_degree), 2.0**21)
        ct = ev.encrypt(pt, keygen.public, r)
        with pytest.raises(ParameterError, match="arrives at scale"):
            plan.run(x=ct)

    def test_missing_and_unexpected_inputs(self):
        _, plan = self._plan()
        ct_x, _ = _fresh_inputs(1024, "smr", 1)
        with pytest.raises(ParameterError, match="missing \\['x'\\]"):
            plan.run()
        with pytest.raises(ParameterError, match="unexpected \\['z'\\]"):
            plan.run(x=ct_x, z=ct_x)

    def test_validate_rejects_foreign_context(self):
        _, plan = self._plan()
        own_ctx, _, _ = _setup(1024, "smr")
        plan.validate(own_ctx)  # same chain: fine
        other_ctx, _, _ = _setup(4096, "smr")
        with pytest.raises(ParameterError, match="stale plan"):
            plan.validate(other_ctx)


class TestPlanProtocol:
    def test_conformance(self):
        _, plan = TestStalePlanRejection()._plan()
        assert isinstance(plan, Plan)
        assert isinstance(plan, CircuitPlan)

    def test_costs_are_positive(self):
        _, plan = TestStalePlanRejection()._plan()
        cost = plan.cost()
        assert cost.modmuls > 0 and cost.modadds > 0

    def test_circuit_cost_covers_every_step(self):
        ctx, _, ev = _setup(1024, "smr")
        pts = _plaintexts(1024, "smr")
        ops, (o1, o2) = _gen_ops(9, ctx, len(pts))
        tracer = CircuitTracer(ev)
        traced = _interpret(
            tracer,
            ops,
            tracer.input("x", scale=SCALE),
            tracer.input("y", scale=SCALE),
            pts,
        )
        plan = tracer.compile({"a": traced[o1], "b": traced[o2]})
        assert plan.cost().modmuls > 0


class TestTracer:
    def test_trace_has_no_data(self):
        _, _, ev = _setup(1024, "smr")
        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=SCALE)
        with pytest.raises(TraceError, match="no component polynomials"):
            x.c0
        with pytest.raises(TraceError, match="no noise estimate"):
            x.noise_bits

    def test_encrypt_decrypt_refused(self):
        ctx, keygen, ev = _setup(1024, "smr")
        tracer = CircuitTracer(ev)
        with pytest.raises(TraceError, match="encrypt is not traceable"):
            tracer.encrypt(None, keygen.public, np.random.default_rng(0))
        with pytest.raises(TraceError, match="decrypt is not traceable"):
            tracer.decrypt(tracer.input("x", scale=SCALE), keygen.secret)

    def test_foreign_operands_rejected(self):
        _, _, ev = _setup(1024, "smr")
        t1, t2 = CircuitTracer(ev), CircuitTracer(ev)
        x = t1.input("x", scale=SCALE)
        with pytest.raises(TraceError, match="not a traced ciphertext"):
            t2.negate(x)
        ct_x, _ = _fresh_inputs(1024, "smr", 2)
        with pytest.raises(TraceError, match="not a traced ciphertext"):
            t1.negate(ct_x)

    def test_cse_shares_identical_calls(self):
        _, _, ev = _setup(1024, "smr")
        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=SCALE)
        a = tracer.rotate(x, 1)
        b = tracer.rotate(x, 1)
        assert a.node is b.node
        # multiply is commutative: both orders hash-cons to one node
        y = tracer.input("y", scale=SCALE)
        assert tracer.multiply(x, y).node is tracer.multiply(y, x).node

    @pytest.mark.parametrize(
        ("program", "expected", "relin"),
        [
            (lambda E, x, y: E.multiply(x, y), KeyError_, False),
            (lambda E, x, y: E.rotate(x, 5), KeyError_, True),  # no key for 5
            (
                lambda E, x, y: E.rescale(E.rescale(E.rescale(E.rescale(x)))),
                LevelError,  # the fourth rescale starts at level 1
                True,
            ),
            (lambda E, x, y: E.add(x, y), ScaleMismatchError, True),
            (lambda E, x, y: E.multiply(x, E.rescale(y)), LevelError, True),
        ],
        ids=["relin-key", "galois-key", "rescale-floor", "scale-add", "level-multiply"],
    )
    def test_traced_errors_match_eager(self, program, expected, relin):
        ctx, keygen, ev = _setup(1024, "smr")
        if not relin:
            ev = Evaluator(ctx, galois_keys=ev.galois_keys, sigma=ev.sigma)
        r = np.random.default_rng(0xE44)
        x, y = (
            ev.encrypt(
                Plaintext.encode(ctx, r.uniform(-1, 1, 8), sc), keygen.public, r
            )
            for sc in (SCALE, 2 * SCALE)
        )
        tracer = CircuitTracer(ev)
        tx = tracer.input("x", scale=SCALE)
        ty = tracer.input("y", scale=2 * SCALE)
        raised = []
        for E, a, b in ((ev, x, y), (tracer, tx, ty)):
            with pytest.raises(CheddarError) as info:
                program(E, a, b)
            raised.append(type(info.value))
        assert raised == [expected, expected]

    def test_duplicate_input_name_rejected(self):
        _, _, ev = _setup(1024, "smr")
        tracer = CircuitTracer(ev)
        tracer.input("x", scale=SCALE)
        with pytest.raises(ParameterError, match="duplicate circuit input"):
            tracer.input("x", scale=SCALE)


class TestRotationValidation:
    def test_zero_rotation_named(self):
        with pytest.raises(ParameterError, match="rotation 0 is the identity"):
            validate_rotations([1, 0], 8, "rotate_hoisted")

    def test_out_of_range_named(self):
        with pytest.raises(ParameterError, match="rotation 9 out of range"):
            validate_rotations([9], 8, "rotate_hoisted")

    def test_duplicate_named(self):
        with pytest.raises(ParameterError, match="duplicate rotation -7"):
            validate_rotations([1, -7], 8, "matvec")

    def test_rotate_hoisted_rejects_duplicates(self):
        _, _, ev = _setup(1024, "smr")
        ct_x, _ = _fresh_inputs(1024, "smr", 3)
        with pytest.raises(ParameterError, match="duplicate rotation"):
            ev.rotate_hoisted(ct_x, [1, 1])


class TestCompiledLinalg:
    def _lin(self, dim):
        n, method = 1024, "montgomery"
        ctx, keygen, _ = _setup(n, method)
        rots = SlotLinalg.matvec_rotations(dim)
        ev = Evaluator.from_keygen(keygen, rotations=rots)
        lin = SlotLinalg(CanonicalEncoder(ctx), ev)
        r = np.random.default_rng(0xD1A6)
        vec = r.standard_normal(dim) * 0.3
        sc = 2.0**12
        ct = ev.encrypt(
            lin.encoder.encode(vec, sc, num_slots=dim), keygen.public, r
        )
        return lin, ct, r.standard_normal((dim, dim)), sc

    @staticmethod
    def _compile(lin, build, scale):
        """Trace ``build(traced_linalg, x)`` and compile it."""
        tracer = CircuitTracer(lin.ev)
        x = tracer.input("x", scale=scale)
        return tracer.compile(build(SlotLinalg(lin.encoder, tracer), x))

    def test_compiled_matvec_matches_both_eager_paths(self):
        lin, ct, mat, sc = self._lin(16)
        plan = self._compile(lin, lambda t, x: t.matvec_naive(x, mat), sc)
        got = plan.run(ct)
        _assert_ct_equal(got, lin.matvec(ct, mat), "vs fused")
        _assert_ct_equal(got, lin.matvec_naive(ct, mat), "vs naive")
        kinds = [s.kind for s in plan._steps]
        # 4 baby rotations share one hoist; each giant realign hoists alone
        assert kinds.count("hoist") < kinds.count("galois")
        assert "mac" in kinds

    def test_compiled_poly_eval_matches_eager(self):
        lin, ct, _, sc = self._lin(16)
        coeffs = [0.5, -1.0, 0.25, 0.125]
        plan = self._compile(lin, lambda t, x: t.poly_eval(x, coeffs), sc)
        _assert_ct_equal(plan.run({"x": ct}), lin.poly_eval(ct, coeffs))


class TestCkksContext:
    def test_facade_roundtrip_and_determinism(self):
        from repro import CkksContext

        kwargs = dict(
            ring_degree=256,
            num_main=4,
            num_aux=5,
            dnum=2,
            seed=11,
            rotations=(1,),
        )
        cc1, cc2 = CkksContext(**kwargs), CkksContext(**kwargs)
        vals = [0.5] * cc1.num_slots
        ct1 = cc1.encrypt(vals, scale=2.0**20)
        ct2 = cc2.encrypt(vals, scale=2.0**20)
        assert np.array_equal(ct1.c0.limbs, ct2.c0.limbs)  # seeded wiring
        err = np.max(np.abs(cc1.decrypt(cc1.evaluator.rotate(ct1, 1)) - 0.5))
        assert err < 1e-2  # N=256 rotate: key-switch noise near 2^-9

    def test_facade_tracer_compiles(self):
        from repro import CkksContext

        cc = CkksContext(
            ring_degree=256, num_main=4, num_aux=5, dnum=2, seed=3,
            rotations=(2,),
        )
        tracer = cc._tracer()
        x = tracer.input("x", scale=2.0**20)
        plan = tracer.compile(tracer.rotate(x, 2))
        ct = cc.encrypt([0.25] * cc.num_slots, scale=2.0**20)
        _assert_ct_equal(plan.run(ct), cc.evaluator.rotate(ct, 2))
