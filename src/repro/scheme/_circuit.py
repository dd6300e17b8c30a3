"""Circuit compiler: trace an evaluator program, plan it, replay it.

Single composite ops already run ahead-of-time schedules — the hoisted
rotation tensor, the BSGS matvec/poly_eval schedules — and each beats
its eager composition while staying bit-identical.  This module
generalizes the discipline to *whole programs*:

* :class:`CircuitTracer` is an :class:`~repro.scheme.evaluator.Evaluator`
  that records instead of computing: every op appends a node to a DAG
  and returns a :class:`TracedCiphertext` carrying only metadata (scale,
  level, context).  Any code written against the evaluator interface —
  including :class:`~repro.scheme._linalg.SlotLinalg` compositions —
  traces unmodified.
* The **planner** (:meth:`CircuitTracer.compile`) rewrites the DAG:
  common subexpressions are shared (hash-consing at trace time), every
  group of Galois ops on one source shares a single hoisted ModUp,
  rescale chains fuse into the producing key switch / plaintext product,
  plaintext-multiply-accumulate trees collapse into fused NTT-domain
  MACs, and intermediates whose consumers all accept NTT operands stay
  in the NTT domain across op boundaries.  Every transformation
  preserves the ring-level expression exactly, so compiled execution is
  **bit-identical** to the eager evaluator (the property tests replay
  seeded random DAGs both ways and compare limbs).
* The **executor** (:meth:`CircuitPlan.run`) replays the step list
  against fresh inputs with no per-call planning or encoding.  Each
  step is a named record binding, once per plan, what its op-table
  entry (:mod:`repro.scheme.ops`) needs: the constants the entry's
  ``capture`` derives (key switchers, automorphism permutations,
  transformed and reducer-prepared plaintexts) and the plan scratch it
  names (hoist tensors, lazy accumulators).  Replay still allocates:
  each step builds fresh output polynomials and its kernels'
  temporaries (ROADMAP item 4 measures the per-request peak and plans
  plan-owned buffers).  Every step runs the entry's ``apply`` — the
  arithmetic and the scale and noise rules the eager evaluator runs —
  so noise estimates, computed at run time because they depend on the
  inputs, match eager float for float.  :meth:`CircuitPlan.cost` adds
  up the entries' ``price``.

:class:`CircuitPlan` is the public ``repro.Plan``: ``run`` / ``cost`` /
``validate``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro import hooks
from repro.errors import (
    CheddarError,
    ParameterError,
    PlanExecutionError,
    TraceError,
)
from repro.poly.cost import CostModel, OpCost, _merge
from repro.poly.lazy import LazyAccumulator
from repro.poly.rns_poly import (
    _FP_MIX,
    COEFF,
    PolyContext,
    data_fingerprint,
)
from repro.scheme.ciphertext import Ciphertext, Plaintext
from repro.scheme.evaluator import Evaluator
from repro.scheme.ops import (
    OPS,
    RESCALE,
    Op,
    materialize,
    persists_ntt,
    scales_match,
)

__all__ = ["CircuitTracer", "TracedCiphertext", "CircuitPlan"]


class _Node:
    """One recorded evaluator operation (or a declared input)."""

    __slots__ = ("id", "op", "args", "arg", "key", "scale", "ctx")

    def __init__(self, nid, op, args, arg, key, scale, ctx):
        self.id = nid
        self.op = op
        self.args = tuple(args)
        #: the op's non-ciphertext argument and switching key (op table
        #: convention); an input's ``arg`` is its name
        self.arg = arg
        self.key = key
        self.scale = float(scale)
        self.ctx = ctx

    @property
    def level(self) -> int:
        return self.ctx.num_limbs


class TracedCiphertext:
    """A symbolic ciphertext: metadata only, produced by a tracer.

    Carries exactly the state the evaluator's soundness checks consult
    (scale / level / context); asking for numeric data — the component
    polynomials, the noise estimate — raises
    :class:`~repro.errors.TraceError`, because a trace has none.
    """

    __slots__ = ("node", "tracer")

    def __init__(self, node: _Node, tracer: CircuitTracer) -> None:
        self.node = node
        self.tracer = tracer

    @property
    def scale(self) -> float:
        return self.node.scale

    @property
    def level(self) -> int:
        return self.node.level

    @property
    def ctx(self) -> PolyContext:
        return self.node.ctx

    @property
    def domain(self) -> str:
        # Every eager evaluator op materializes coefficient-domain
        # ciphertexts; the planner's NTT persistence is internal.
        return COEFF

    def _no_data(self, what: str):
        raise TraceError(
            f"traced ciphertext has no {what}: the tracer records the "
            "program, it does not execute it (compile the circuit and "
            "run the plan to get numbers)"
        )

    @property
    def c0(self):
        self._no_data("component polynomials")

    @property
    def c1(self):
        self._no_data("component polynomials")

    @property
    def noise_bits(self):
        self._no_data("noise estimate")

    @property
    def noise_budget_bits(self):
        self._no_data("noise estimate")


class CircuitTracer(Evaluator):
    """An evaluator that records a program DAG instead of executing it.

    Built from a configured eager evaluator (whose context and keys it
    shares), it exposes the same op surface; each call runs the op-table
    entry's eager operand checks (level / context / scale / key
    availability) against the traced metadata, then appends a node.
    Structurally identical calls are hash-consed to one node, so e.g.
    the balanced power tree of ``poly_eval`` traces to a shared DAG with
    or without the implementation's own cache.  ``rotate_hoisted``
    traces to plain Galois nodes: the planner rediscovers the shared
    ModUp, since every Galois node on one source joins one hoist group.

    ``encrypt`` / ``decrypt`` raise :class:`TraceError`: a circuit's
    boundary is :meth:`input` and the compiled plan's outputs.
    """

    def __init__(self, evaluator: Evaluator) -> None:
        super().__init__(
            evaluator.ctx,
            relin_key=evaluator.relin_key,
            galois_keys=evaluator.galois_keys,
            sigma=evaluator.sigma,
            key_source=evaluator.key_source,
        )
        self.nodes: list[_Node] = []
        self._cse: dict[tuple, _Node] = {}
        self._input_names: set[str] = set()

    # -- node construction -------------------------------------------------
    def _record(self, op, args, arg_key, arg, key, scale, ctx):
        cse_key = (op, tuple(a.id for a in args), arg_key)
        node = self._cse.get(cse_key)
        if node is None:
            node = _Node(len(self.nodes), op, args, arg, key, scale, ctx)
            self.nodes.append(node)
            self._cse[cse_key] = node
        return TracedCiphertext(node, self)

    def _tn(self, ct, op: str) -> _Node:
        if not isinstance(ct, TracedCiphertext) or ct.tracer is not self:
            raise TraceError(
                f"{op}: operand is not a traced ciphertext of this tracer"
            )
        return ct.node

    # -- circuit boundary --------------------------------------------------
    def input(self, name: str, *, scale: float) -> TracedCiphertext:
        """Declare a named circuit input at the tracer's context/level."""
        if not name:
            raise ParameterError("circuit inputs need a non-empty name")
        if name in self._input_names:
            raise ParameterError(f"duplicate circuit input name {name!r}")
        if scale <= 0:
            raise ParameterError(f"input scale must be > 0, got {scale}")
        self._input_names.add(name)
        return self._record("input", (), name, name, None, scale, self.ctx)

    def encrypt(self, pt, pk, rng):
        raise TraceError(
            "encrypt is not traceable: declare circuit inputs with "
            "tracer.input(name, scale=...) and encrypt outside the circuit"
        )

    def decrypt(self, ct, sk):
        raise TraceError(
            "decrypt is not traceable: run the compiled plan and decrypt "
            "its outputs outside the circuit"
        )

    # -- recorded ops ------------------------------------------------------
    def _apply(self, op: Op, cts, arg=None, **res) -> TracedCiphertext:
        """The eager checks, then a node carrying the op's scale and level."""
        nodes = [self._tn(ct, op.name) for ct in cts]
        key = op.check(self, cts, arg)
        if op.commutative and nodes[0].id > nodes[1].id:
            nodes.reverse()  # a*b and b*a hash-cons to one node
        arg_key = id(arg) if isinstance(arg, Plaintext) else arg
        return self._record(
            op.name, nodes, arg_key, arg, key, op.scale(cts, arg), op.ctx(cts)
        )

    def _hoist(self, ct, ksk) -> None:
        return None  # the planner shares the ModUp per hoist group

    # -- compilation -------------------------------------------------------
    def compile(self, outputs) -> CircuitPlan:
        """Plan the recorded DAG down to the named ``outputs``.

        ``outputs`` is either a single :class:`TracedCiphertext` (the
        plan's :meth:`~CircuitPlan.run` then returns a bare
        :class:`Ciphertext`) or a ``{name: traced}`` mapping.
        """
        if isinstance(outputs, TracedCiphertext):
            out_nodes = {"out": self._tn(outputs, "compile")}
            single = True
        elif isinstance(outputs, Mapping):
            if not outputs:
                raise ParameterError("compile needs at least one output")
            out_nodes = {
                str(name): self._tn(tc, "compile")
                for name, tc in outputs.items()
            }
            single = False
        else:
            raise ParameterError(
                "compile takes a traced ciphertext or a {name: traced} "
                f"mapping, got {type(outputs).__name__}"
            )
        return CircuitPlan(self, out_nodes, single)


@dataclass(eq=False, slots=True)
class _Step:
    """One executor step of a compiled plan, its arguments bound by name.

    ``arg`` and ``key`` follow the op table's convention (an input
    step's ``arg`` is its name; a hoist step's ``key`` is its group's
    switching key).  ``res`` holds the keyword arguments the entry's
    ``apply`` takes: the constants its ``capture`` derived plus the plan
    scratch its ``binds`` names.  ``consts`` are the captured plaintext
    polynomials, ``level`` the operands' level (an input's own) and
    ``scale`` the traced scale of the value the step writes.
    """

    kind: str
    dst: int = -1
    srcs: tuple = ()
    arg: object = None
    key: object = None
    res: dict = field(default_factory=dict)
    consts: tuple = ()
    rescales: int = 0
    emit_ntt: bool = False
    level: int = 0
    scale: float | None = None
    #: trace-node provenance ("n<id>:<op>") for analyzer diagnostics
    label: str = ""


class CircuitPlan:
    """A compiled evaluator program: step list + captured constants.

    Public as ``repro.Plan``.  Build once (through
    :meth:`CircuitTracer.compile`), run many:
    every :meth:`run` replays the same schedule against fresh inputs —
    no planning and no plaintext encoding; the captured scratch (hoist
    tensors, accumulators) is reused, while step outputs and kernel
    temporaries are allocated per run.
    """

    def __init__(
        self,
        tracer: CircuitTracer,
        out_nodes: dict[str, _Node],
        single: bool,
    ) -> None:
        self.ctx = tracer.ctx
        self._sigma = tracer.sigma
        self._noise = tracer.noise_model
        self._single = single
        # declared at trace time; some may be dead after DCE, and a
        # caller feeding the full batch must not be punished for that
        self._declared = frozenset(tracer._input_names)
        self._plan(tracer, out_nodes)

    # -- planning ----------------------------------------------------------
    def _plan(self, tracer: CircuitTracer, out_nodes: dict[str, _Node]):
        out_ids = {n.id for n in out_nodes.values()}

        # Dead-code elimination: nodes reachable from the outputs, in
        # trace order (which is a topological order by construction).
        reach: set[int] = set()
        stack = list(out_nodes.values())
        while stack:
            n = stack.pop()
            if n.id in reach:
                continue
            reach.add(n.id)
            stack.extend(n.args)
        live = [n for n in tracer.nodes if n.id in reach]

        cons: dict[int, list[_Node]] = {n.id: [] for n in live}
        for n in live:
            for a in n.args:
                cons[a.id].append(n)

        # -- MAC fusion: left-fold add chains over single-consumer
        # plaintext products collapse into one fused NTT-domain MAC per
        # chain (exactly the _fused_inner schedule, rediscovered).
        mac_terms: dict[int, list[tuple[_Node, Plaintext]]] = {}
        absorbed: set[int] = set()

        def _mp_term(x: _Node):
            if (
                x.op == "multiply_plain"
                and len(cons[x.id]) == 1
                and x.id not in out_ids
            ):
                return (x.args[0], x.arg)
            return None

        for n in live:
            if n.op != "add":
                continue
            left, right = n.args
            rt = _mp_term(right)
            if rt is None:
                continue
            lt = _mp_term(left)
            if lt is not None:
                mac_terms[n.id] = [lt, rt]
                absorbed.update((left.id, right.id))
            elif (
                left.id in mac_terms
                and len(cons[left.id]) == 1
                and left.id not in out_ids
            ):
                mac_terms[n.id] = mac_terms.pop(left.id) + [rt]
                absorbed.update((left.id, right.id))

        def _eff_op(n: _Node) -> str:
            return "mac" if n.id in mac_terms else n.op

        # -- rescale fusion: a single-consumer key switch / plaintext
        # product followed by rescale(s) executes them in one step, on
        # the coefficient-domain components it just produced.
        base_of: dict[int, tuple[_Node, int]] = {}
        inlined: set[int] = set()
        for n in live:
            if n.op != "rescale" or n.id in absorbed:
                continue
            src = n.args[0]
            if len(cons[src.id]) != 1 or src.id in out_ids:
                continue
            if src.id in base_of:
                base, k = base_of[src.id]
                base_of[n.id] = (base, k + 1)
                inlined.add(src.id)
            elif (
                src.id not in absorbed
                and src.op != "input"
                and OPS[_eff_op(src)].absorbs_rescale
            ):
                base_of[n.id] = (src, 1)
                inlined.add(src.id)

        # -- step emission in trace order: each step binds its op-table
        # entry's captured constants and the plan scratch the entry
        # names.  Galois ops are grouped by (source value, key
        # configuration); each group shares one ModUp + forward
        # transform of every digit, run by a hoist step ahead of the
        # group's first Galois step.
        slot_of: dict[int, int] = {}
        steps: list[_Step] = []
        inputs: list[tuple[str, int, float]] = []
        self._accs: dict[int, LazyAccumulator] = {}
        hoisted: dict[tuple, np.ndarray] = {}

        for n in live:
            if n.id in absorbed or n.id in inlined:
                continue
            # Resolve what this value node actually computes.
            base, rescales = base_of.get(n.id, (n, 0))
            kind = _eff_op(base)
            dst = slot_of[n.id] = len(slot_of)
            label = f"n{n.id}:{kind}"
            if kind == "input":
                inputs.append((base.arg, dst, base.scale))
                steps.append(_Step("input", dst, arg=base.arg, level=base.level,
                                   scale=base.scale, label=label))
                continue
            op = OPS[kind]
            emit_ntt = persists_ntt(
                kind, rescales, n.id in out_ids, [c.op for c in cons[n.id]]
            )
            srcs, arg = base.args, base.arg
            if base.id in mac_terms:
                srcs, arg = zip(*mac_terms[base.id])
            src = srcs[0]
            res, consts = op.capture(src.ctx, arg, base.key)
            if "acc" in op.binds:
                res["acc"] = self._acc(src.ctx)
            if "ntt" in op.binds:
                res["ntt"] = emit_ntt
            if "hoisted" in op.binds:
                group = (src.id, tuple(base.key.aux_primes), base.key.dnum)
                if group not in hoisted:
                    sw = res["switcher"]
                    hoisted[group] = np.empty(
                        (sw.dnum, sw.num_ext, self.ctx.ring_degree), np.uint64
                    )
                    steps.append(_Step(
                        "hoist", -1, (slot_of[src.id],), key=base.key,
                        res={"switcher": sw, "hoisted": hoisted[group]},
                        level=src.level, label=f"n{n.id}:hoist",
                    ))
                res["hoisted"] = hoisted[group]
            steps.append(_Step(
                kind, dst, tuple(slot_of[a.id] for a in srcs), arg=arg,
                key=base.key, res=res, consts=consts, rescales=rescales,
                emit_ntt=emit_ntt, level=src.level, scale=n.scale, label=label,
            ))

        self._steps = steps
        self._n_slots = len(slot_of)
        self._inputs = inputs
        self._outputs = {name: slot_of[n.id] for name, n in out_nodes.items()}

    def _acc(self, ctx: PolyContext) -> LazyAccumulator:
        """The lazy accumulator every MAC at ``ctx``'s level shares (steps
        run sequentially; multiply_accumulate resets it)."""
        level = ctx.num_limbs
        if level not in self._accs:
            self._accs[level] = LazyAccumulator(
                ctx.batch_ntt.reducer,
                (level, ctx.ring_degree),
                checked=ctx.checked,
                backend=ctx.backend,
            )
        return self._accs[level]

    # -- plan protocol -----------------------------------------------------
    def validate(self, config) -> None:
        """Refuse inputs/configs from a different context chain.

        ``config`` is a :class:`PolyContext` or anything carrying one
        (an evaluator, a ciphertext).  Raises
        :class:`~repro.errors.ParameterError` naming the first
        mismatched field — including level mismatches, which is the
        stale-plan case (a plan compiled at one level cannot replay
        against operands that have rescaled past it).
        """
        ctx = config if isinstance(config, PolyContext) else config.ctx
        reason = self.ctx.mismatch_reason(ctx)
        if reason is not None:
            raise ParameterError(f"stale plan: {reason}")

    @property
    def input_names(self) -> list[str]:
        return [name for name, _, _ in self._inputs]

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def describe(self) -> str:
        """One line per step: kind, register, fused-rescale count."""
        parts = []
        for s in self._steps:
            tag = s.kind
            if s.rescales:
                tag += f"+rs{s.rescales}"
            if s.emit_ntt:
                tag += "~ntt"
            parts.append(f"{tag}->r{s.dst}" if s.dst >= 0 else tag)
        return " ; ".join(parts)

    def fingerprint(self) -> int:
        """Checksum over every captured plaintext constant in the plan.

        Folds, per step, the fingerprints of the encoded plaintext
        polynomials, their NTT-domain copies, *and* the reducer-prepared
        operand arrays the pointwise kernels actually consume (a
        corrupted prepared handle would otherwise poison every product
        while the source limbs still checksum clean), mixed with the
        step index.  The serving layer records this at tenant
        registration and re-checks it before each batch dispatch; a
        mismatch quarantines the plan and triggers a rebuild from the
        tenant's build function.  Fault detection only — not
        cryptographic.
        """
        with np.errstate(over="ignore"):
            h = np.uint64(len(self._steps))
            for idx, step in enumerate(self._steps):
                if not step.consts:
                    continue
                for poly in step.consts:
                    h = (h ^ np.uint64(poly.fingerprint())) * _FP_MIX
                    prepared = poly.state.prepared
                    if prepared is not None:
                        for arr in prepared:
                            word = np.uint64(data_fingerprint(arr))
                            h = (h ^ word) * _FP_MIX
                h ^= np.uint64(idx + 1)
            return int(h * _FP_MIX)

    def analyze(self, **kwargs):
        """Static Level-2 check of this plan, without running it.

        Sugar for :func:`repro.analysis.check_plan`: propagates
        level/scale/noise-budget lattices over the step list with the
        op table's rules (the executor's own) and returns a
        :class:`~repro.analysis.plan_check.PlanReport` flagging budget
        exhaustion, scale pathologies, dead hoists and redundant NTT
        round trips before any ciphertext is touched.
        """
        from repro.analysis.plan_check import check_plan

        return check_plan(self, **kwargs)

    # -- execution ---------------------------------------------------------
    def run(
        self, inputs=None, *, tag=None, **named
    ) -> Ciphertext | dict[str, Ciphertext]:
        """Replay the plan against fresh input ciphertexts.

        Inputs are passed as a mapping or keywords, one per declared
        :meth:`CircuitTracer.input` name that survived planning.  Each
        is validated against the plan's context, level and scale —
        a stale or foreign ciphertext raises
        :class:`~repro.errors.ParameterError` instead of producing
        garbage.  Returns a bare :class:`Ciphertext` for single-output
        plans, else ``{name: Ciphertext}``.

        A library error raised *inside* a compute step is re-raised as
        :class:`~repro.errors.PlanExecutionError` naming the step index,
        the trace-node label, and the caller-supplied ``tag`` (the
        serving layer passes its tenant/request identity); the original
        exception rides along as ``__cause__``.  Input-validation steps
        are exempt so callers keep the precise
        :class:`~repro.errors.ParameterError` contract above.
        """
        provided: dict[str, Ciphertext] = {}
        if inputs is not None:
            if isinstance(inputs, Ciphertext) and len(self._inputs) == 1:
                provided[self._inputs[0][0]] = inputs
            elif isinstance(inputs, Mapping):
                provided.update(inputs)
            else:
                raise ParameterError(
                    "run takes a {name: Ciphertext} mapping (or a single "
                    "ciphertext for single-input plans)"
                )
        provided.update(named)
        needed = {name for name, _, _ in self._inputs}
        missing = sorted(needed - provided.keys())
        extra = sorted(provided.keys() - needed - self._declared)
        if missing or extra:
            raise ParameterError(
                f"plan inputs are {sorted(needed)}; "
                f"missing {missing}, unexpected {extra}"
            )

        vals: list[Ciphertext | None] = [None] * self._n_slots
        for idx, step in enumerate(self._steps):
            try:
                hooks.emit("circuit.step", step.label)
                self._run_step(step, vals, provided)
            except CheddarError as exc:
                if step.kind == "input":
                    # Input validation keeps its precise ParameterError
                    # contract (stale plan / wrong scale name the input).
                    raise
                label = step.label or step.kind
                who = f" [{tag}]" if tag else ""
                raise PlanExecutionError(
                    f"step {idx}/{len(self._steps)} ({label}){who} "
                    f"failed: {exc}",
                    step_index=idx,
                    label=label,
                    tag=tag,
                ) from exc
        outs = {
            name: materialize(vals[slot])
            for name, slot in self._outputs.items()
        }
        if self._single:
            return outs["out"]
        return outs

    def _finish(self, step, ct: Ciphertext) -> Ciphertext:
        """Fused rescales, then the step's output domain."""
        for _ in range(step.rescales):
            ct = RESCALE.apply((ct,), None, None, self._noise)
        return ct if step.emit_ntt else materialize(ct)

    def _run_step(self, step, vals, provided) -> None:
        if step.kind == "input":
            name, scale = step.arg, step.scale
            ct = provided[name]
            if not isinstance(ct, Ciphertext):
                raise ParameterError(
                    f"input {name!r} is not a Ciphertext "
                    f"(got {type(ct).__name__})"
                )
            reason = self.ctx.mismatch_reason(ct.ctx)
            if reason is not None:
                raise ParameterError(f"stale plan for input {name!r}: {reason}")
            if not scales_match(ct.scale, scale):
                raise ParameterError(
                    f"input {name!r} arrives at scale "
                    f"2^{math.log2(ct.scale):.3f} but the plan was traced "
                    f"at 2^{math.log2(scale):.3f}"
                )
            vals[step.dst] = ct
            return
        cts = [vals[s] for s in step.srcs]
        if step.kind == "hoist":
            step.res["switcher"].hoist(cts[0].c1, out=step.res["hoisted"])
            return
        ct = OPS[step.kind].apply(cts, step.arg, step.key, self._noise, **step.res)
        vals[step.dst] = self._finish(step, ct)

    # -- pricing -----------------------------------------------------------
    def cost(self) -> OpCost:
        """Price one :meth:`run` in Table-3 int32 instructions.

        Field-wise sum over the step list of each op step's
        :meth:`~repro.scheme.ops.Op.price` at the operands' level, its
        fused rescales priced by the rescale entry one level down each,
        and the hoist steps: a hoist step pays the key switch's shared
        front once, each Galois step of its group pays only the finish.
        Input steps are free.
        """
        models: dict[int, CostModel] = {}

        def at(level: int) -> CostModel:
            if level not in models:
                models[level] = CostModel(self.ctx.ring_degree, level, self.ctx.method)
            return models[level]

        total = OpCost(self.ctx.method, 0, 0)
        for s in self._steps:
            parts: list[tuple[OpCost, int]] = []  # (kernel, calls)
            if s.kind in OPS:
                parts += OPS[s.kind].price(at(s.level), s)
            elif s.kind == "hoist":
                parts.append((at(s.level).ks_shared(s.key.num_aux, dnum=s.key.dnum), 1))
            for level in range(s.level, s.level - s.rescales, -1):
                parts += RESCALE.price(at(level), s)
            for op, calls in parts:
                total = _merge(total, op.scaled(calls))
        return total
