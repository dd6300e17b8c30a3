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
  against fresh inputs with no per-call planning or encoding: the key
  switchers, automorphism permutations, hoist tensors, lazy
  accumulators and encoded (transformed, reducer-prepared) plaintexts
  are all captured once per plan.  Replay still allocates: each step
  builds fresh output polynomials and its kernels' temporaries (ROADMAP
  item 4 measures the per-request peak and plans plan-owned buffers).
  Every step runs the op table's entry (:mod:`repro.scheme.ops`) — the
  arithmetic and the scale and noise rules the eager evaluator runs —
  so noise estimates, computed at run time because they depend on the
  inputs, match eager float for float.

:class:`CircuitPlan` satisfies the :class:`repro.plan.Plan` protocol:
``build`` / ``run`` / ``cost`` / ``validate``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

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
from repro.poly.ntt import automorphism_tables
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


class _Step:
    """One executor step of a compiled plan."""

    __slots__ = ("kind", "dst", "srcs", "payload", "rescales", "emit_ntt",
                 "level", "label")

    def __init__(self, kind, dst=-1, srcs=(), payload=None, rescales=0,
                 emit_ntt=False, level=0, label=""):
        self.kind = kind
        self.dst = dst
        self.srcs = tuple(srcs)
        self.payload = payload
        self.rescales = rescales
        self.emit_ntt = emit_ntt
        self.level = level
        #: trace-node provenance ("n<id>:<op>") for analyzer diagnostics
        self.label = label

    def operands(self):
        """The op table's ``(arg, key)`` for this step, from its payload."""
        kind, payload = self.kind, self.payload
        if kind == "add_plain":
            return payload, None
        if kind in ("multiply_plain", "mac"):
            return payload[0], None
        if kind == "multiply":
            return None, payload[0]
        if kind == "galois":
            return payload[0], payload[1]
        return None, None


class CircuitPlan:
    """A compiled evaluator program: step list + captured constants.

    Satisfies the :class:`repro.plan.Plan` protocol.  Build once
    (through :meth:`CircuitTracer.compile` / :meth:`build`), run many:
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

    @classmethod
    def build(cls, tracer: CircuitTracer, outputs) -> CircuitPlan:
        """Plan-protocol constructor (same as ``tracer.compile``)."""
        return tracer.compile(outputs)

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

        # -- NTT persistence: a value stays in the NTT domain when every
        # consumer accepts it there (and it is not an output and carries
        # no fused rescale).  Conversions are exact either way; this
        # only removes inverse/forward transform pairs.
        def _keeps_ntt(value_node: _Node, produced_op: str, rescales: int):
            if rescales or value_node.id in out_ids:
                return False
            op = OPS.get(produced_op)
            if op is None or not op.keeps_ntt:
                return False
            users = cons[value_node.id]
            if not users:
                return False
            return all(OPS[c.op].ntt_operand for c in users)

        # -- hoist grouping: Galois ops are grouped by (source value,
        # key configuration); each group shares one ModUp + forward
        # transform of every digit.
        hoist_groups: dict[tuple, int] = {}
        hoist_specs: list[tuple[_Node, object]] = []  # (src node, switcher)

        def _galois_group(gnode: _Node) -> int:
            ksk = gnode.key
            src = gnode.args[0]
            key = (src.id, tuple(ksk.aux_primes), ksk.dnum)
            idx = hoist_groups.get(key)
            if idx is None:
                idx = len(hoist_specs)
                hoist_groups[key] = idx
                switcher = gnode.ctx.key_switcher(ksk.aux_primes, ksk.dnum)
                hoist_specs.append((src, switcher))
            return idx

        # -- step emission in trace order --------------------------------
        slot_of: dict[int, int] = {}
        steps: list[_Step] = []
        inputs: list[tuple[str, int, float]] = []
        hoisted_emitted: set[int] = set()
        n_ring = self.ctx.ring_degree
        levels_used: set[int] = set()

        def _slot(node: _Node) -> int:
            return slot_of[node.id]

        for n in live:
            if n.id in absorbed or n.id in inlined:
                continue
            # Resolve what this value node actually computes.
            if n.id in base_of:
                base, rescales = base_of[n.id]
            else:
                base, rescales = n, 0
            op = _eff_op(base)
            dst = len(slot_of)
            slot_of[n.id] = dst
            emit_ntt = _keeps_ntt(n, op, rescales)
            level = base.ctx.num_limbs
            levels_used.add(level)
            if op == "input":
                inputs.append((base.arg, dst, base.scale))
                steps.append(_Step("input", dst, (),
                                   (base.arg, base.scale), level=level))
            elif op in ("add", "sub", "negate"):
                steps.append(_Step(
                    op, dst, [_slot(a) for a in base.args],
                    emit_ntt=emit_ntt, level=level,
                ))
            elif op == "add_plain":
                pt = base.arg
                steps.append(_Step(
                    "add_plain", dst, (_slot(base.args[0]),), pt,
                    level=level,
                ))
            elif op == "multiply_plain":
                pt = base.arg
                p_ntt = pt.poly.to_ntt()
                p_ntt.prepared_operand()
                steps.append(_Step(
                    "multiply_plain", dst, (_slot(base.args[0]),),
                    (pt, p_ntt), rescales, emit_ntt, level,
                ))
            elif op == "mac":
                terms = mac_terms[base.id]
                pts = [pt for _, pt in terms]
                p_ntts = []
                for pt in pts:
                    p = pt.poly.to_ntt()
                    p.prepared_operand()
                    p_ntts.append(p)
                steps.append(_Step(
                    "mac", dst, [_slot(src) for src, _ in terms],
                    (pts, p_ntts), rescales, emit_ntt, level,
                ))
            elif op == "multiply":
                relin = base.key  # resolved at the node's level
                switcher = base.ctx.key_switcher(relin.aux_primes, relin.dnum)
                steps.append(_Step(
                    "multiply", dst,
                    (_slot(base.args[0]), _slot(base.args[1])),
                    (relin, switcher), rescales,
                    level=level,
                ))
            elif op == "galois":
                k, ksk = base.arg, base.key
                gidx = _galois_group(base)
                if gidx not in hoisted_emitted:
                    hoisted_emitted.add(gidx)
                    src_node, switcher = hoist_specs[gidx]
                    steps.append(_Step(
                        "hoist", -1, (_slot(src_node),),
                        (gidx, switcher), level=level,
                    ))
                perm = automorphism_tables(n_ring, k)[2]
                _, switcher = hoist_specs[gidx]
                steps.append(_Step(
                    "galois", dst, (_slot(base.args[0]),),
                    (k, ksk, perm, gidx, switcher), rescales,
                    level=level,
                ))
            elif op == "rescale":
                steps.append(_Step(
                    "rescale", dst, (_slot(base.args[0]),), level=level,
                ))
            else:  # pragma: no cover - tracer and planner move together
                raise ParameterError(f"unknown traced op {base.op!r}")
            steps[-1].label = f"n{n.id}:{op}"
            if op == "galois" and steps[-2].kind == "hoist":
                if not steps[-2].label:
                    steps[-2].label = f"n{n.id}:hoist"

        self._steps = steps
        self._n_slots = len(slot_of)
        self._inputs = inputs
        self._outputs = {name: slot_of[n.id] for name, n in out_nodes.items()}

        # -- per-plan scratch ---------------------------------------------
        # One lazy accumulator per live level serves every MAC in the
        # plan (steps run sequentially; multiply_accumulate resets it).
        self._accs: dict[int, LazyAccumulator] = {}
        for level in levels_used:
            lvl_ctx = self.ctx
            while lvl_ctx.num_limbs > level:
                lvl_ctx = lvl_ctx.drop_last()
            self._accs[level] = LazyAccumulator(
                lvl_ctx.batch_ntt.reducer,
                (level, n_ring),
                checked=lvl_ctx.checked,
                backend=lvl_ctx.backend,
            )
        # One hoist tensor per group, shaped by its switcher.
        self._hoist_bufs = [
            np.empty((sw.dnum, sw.num_ext, n_ring), np.uint64)
            for _, sw in hoist_specs
        ]

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
                if step.kind == "multiply_plain":
                    pt, p_ntt = step.payload
                    polys = (pt.poly, p_ntt)
                elif step.kind == "mac":
                    pts, p_ntts = step.payload
                    polys = tuple(pt.poly for pt in pts) + tuple(p_ntts)
                elif step.kind == "add_plain":
                    polys = (step.payload.poly,)
                else:
                    continue
                for poly in polys:
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
        kind = step.kind
        if kind == "input":
            name, scale = step.payload
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
        if kind == "hoist":
            gidx, switcher = step.payload
            switcher.hoist(cts[0].c1, out=self._hoist_bufs[gidx])
            return
        arg, key = step.operands()
        res = {}
        if kind in ("add", "sub", "negate"):
            # domain-preserving: operands meet in the step's output domain
            if not step.emit_ntt or len({ct.domain for ct in cts}) > 1:
                cts = [materialize(ct) for ct in cts]
        elif kind == "multiply_plain":
            res["p_ntt"] = step.payload[1]
        elif kind == "mac":
            res["p_ntts"] = step.payload[1]
            res["acc"] = self._accs[step.level]
        elif kind == "multiply":
            _, res["switcher"] = step.payload
            res["acc"] = self._accs[step.level]
        elif kind == "galois":
            _, _, res["perm"], gidx, res["switcher"] = step.payload
            res["hoisted"] = self._hoist_bufs[gidx]
        ct = OPS[kind].apply(cts, arg, key, self._noise, **res)
        vals[step.dst] = self._finish(step, ct)

    # -- pricing -----------------------------------------------------------
    def cost(self) -> OpCost:
        """Price one :meth:`run` in Table-3 int32 instructions.

        Field-wise sum over the step list, each step kind priced here
        from the :class:`~repro.poly.cost.CostModel` kernel entries at
        the step's level.  The plan supplies what the op table cannot
        know: term counts, output domains, fused rescales and hoist
        sharing — a hoist step pays the key switch's shared front once,
        each Galois step of its group pays only the finish.
        """
        models: dict[int, CostModel] = {}

        def at(level: int) -> CostModel:
            if level not in models:
                models[level] = CostModel(self.ctx.ring_degree, level, self.ctx.method)
            return models[level]

        total = OpCost(self.ctx.method, 0, 0)
        for s in self._steps:
            m, limbs = at(s.level), s.level
            key = s.operands()[1]
            parts: list[tuple[OpCost, int]] = []  # (kernel, calls)
            if s.kind in ("add", "sub", "negate"):
                parts = [(m.add(), 2)]
            elif s.kind == "add_plain":
                parts = [(m.add(), 1)]
            elif s.kind == "multiply_plain":
                parts = [(m.ntt(), 2 * limbs), (m.pointwise(), 2 * limbs)]
            elif s.kind == "mac":
                terms = len(s.srcs)
                parts = [
                    (m.ntt(), 2 * terms * limbs),
                    (m.multiply_accumulate(terms), 2),
                ]
            elif s.kind == "multiply":
                # The tensor (four forward transforms, two pointwise
                # products, a two-term MAC for the cross component, two
                # inverses for the degree-0/1 outputs), then the
                # relinearization: one more inverse for the degree-2
                # input, the key switch and its two component adds.
                parts = [
                    (m.ntt(), 4 * limbs),
                    (m.pointwise(), 2 * limbs),
                    (m.multiply_accumulate(2), 1),
                    (m.intt(), 3 * limbs),
                    (m.ks_shared(key.num_aux, dnum=key.dnum), 1),
                    (m.ks_finish(key.num_aux, dnum=key.dnum), 1),
                    (m.add(), 2),
                ]
            elif s.kind == "hoist":
                switcher = s.payload[1]
                parts = [(m.ks_shared(len(switcher.aux), dnum=switcher.dnum), 1)]
            elif s.kind == "galois":
                # the finish, a free NTT-domain permutation of the
                # hoisted digits, the coefficient-domain pass on c0 and
                # the add of the switched part into it
                parts = [
                    (m.ks_finish(key.num_aux, dnum=key.dnum), 1),
                    (m.automorphism("ntt"), 1),
                    (m.automorphism("coeff"), 1),
                    (m.add(), 1),
                ]
            elif s.kind == "rescale":
                parts = [(m.rescale(), 2)]
            # input steps are free
            if s.kind in ("multiply_plain", "mac") and not s.emit_ntt:
                parts.append((m.intt(), 2 * limbs))
            for level in range(limbs, limbs - s.rescales, -1):
                parts.append((at(level).rescale(), 2))
            for op, calls in parts:
                total = _merge(total, op.scaled(calls))
        return total
