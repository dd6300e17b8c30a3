"""Level-2 static checker: lattice propagation over compiled circuit plans.

:func:`check_plan` walks a :class:`~repro.scheme._circuit.CircuitPlan`'s
step list *without executing it*, propagating a per-register abstract
state — live level, scale, and the heuristic ``log2 |noise|`` estimate —
through the **op table's own rules** (:mod:`repro.scheme.ops`), the
functions the plan executor and the eager evaluator evaluate.  The
noise/scale prediction is therefore bit-for-bit the value ``plan.run``
would tag onto each ciphertext; the test suite pins that identity,
which is what makes the static verdicts trustworthy.  The operand checks
are the table's too: an error here is what the eager evaluator would
have raised.

On top of the faithful propagation the checker flags:

Errors (``report.ok`` is False; the plan should not be run):

* ``budget-exhausted`` — predicted noise reaches ``log2 Q_l - 1``: the
  decrypted message is statically known to be garbage.  Data-independent
  (the noise heuristic depends only on scales and circuit shape), so
  this verdict needs no inputs.
* ``scale-mismatch`` — add/sub/add_plain operands whose scales differ
  beyond the op table's ``SCALE_RTOL``; the eager path would have
  raised :class:`~repro.errors.ScaleMismatchError` at trace time, so
  this only fires on hand-built or corrupted step lists — including the
  add that a drifted rescale chain eventually feeds.
* ``key-level-mismatch`` — a multiply/galois step whose switching key
  was generated for a different limb basis than the step's level; the
  executor would raise mid-run, the checker names it up front.
* ``mac-overflow`` — a fused MAC with more terms than the lazy
  accumulator admits at that level (the reducer contract's rule,
  :meth:`~repro.rns.reduction.ReducerContract.lazy_headroom`).
* ``invalid-step`` / ``level-mismatch`` — malformed register references
  or operand levels; robustness against hand-assembled plans.

Warnings (suspicious but not statically fatal):

* ``scale-overflow`` — scale exceeds the level modulus.  Any slot of
  magnitude >= 1 wraps; kept a warning because the message payload is
  data the checker cannot see.
* ``scale-underflow`` — scale dropped below 1: every slot's integer
  image rounds to nothing; almost always an over-rescaled circuit.
* ``scale-drift`` — a rescale chain lands more than
  ``drift_warn_bits`` away from the plan's working scale (the rescale
  cycle keeps primes within ~1 bit of the scale rung, so persistent
  drift means the prime schedule and the scale schedule disagree).
* ``wasteful-rescale`` — a rescale applied to a value that has seen no
  scale-raising op (the table's ``raises_scale`` flag) since the
  previous rescale or input: the limb drop buys nothing and costs a
  level.
* ``dead-hoist`` — a hoisted ModUp tensor no Galois step consumes.
* ``redundant-ntt-roundtrip`` — a step materializes coefficient-domain
  components although every consumer accepts (and will re-transform to)
  the NTT domain; the planner's own predicate over the table's
  ``keeps_ntt`` / ``ntt_operand`` flags
  (:func:`~repro.scheme.ops.persists_ntt`), so planner-produced plans
  never trip it — firing means the schedule pays an inverse/forward
  transform pair for nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.analysis.intervals import Diagnostic
from repro.errors import (
    KeyError_,
    LevelError,
    ParameterError,
    ScaleMismatchError,
    StaticAnalysisError,
)
from repro.rns.reduction import REDUCER_CONTRACTS
from repro.scheme.ops import (
    OPS,
    RESCALE,
    NoiseModel,
    check_key_level,
    persists_ntt,
)

#: diagnostic code for each operand-check failure the table raises
_CODES = {
    LevelError: "level-mismatch",
    ScaleMismatchError: "scale-mismatch",
    KeyError_: "key-level-mismatch",
}


@dataclass(frozen=True)
class NodeState:
    """Abstract state of one plan register after its producing step."""

    level: int
    scale: float
    noise_bits: float
    #: ``log2 Q_level - 1 - noise_bits`` — the remaining noise budget
    budget_bits: float
    #: producing step index + label, for diagnostics
    step: int = 0
    label: str = ""
    #: a scale-raising op happened since the last rescale/input
    raised: bool = field(default=False, compare=False)
    #: downstream of a node that already reported budget exhaustion
    exhausted: bool = field(default=False, compare=False)
    #: the level's :class:`PolyContext`, which the op rules read
    ctx: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PlanReport:
    """Outcome of one :func:`check_plan` pass."""

    num_steps: int
    errors: tuple[Diagnostic, ...]
    warnings: tuple[Diagnostic, ...]
    #: abstract state per plan output name — scale/noise are bit-exact
    #: predictions of what ``plan.run`` will tag onto the ciphertexts
    output_states: dict[str, NodeState]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        """Raise :class:`StaticAnalysisError` naming the first error."""
        if self.errors:
            first = self.errors[0]
            more = len(self.errors) - 1
            suffix = f" (+{more} more)" if more else ""
            raise StaticAnalysisError(f"plan rejected: {first}{suffix}")

    def describe(self) -> str:
        """Human-readable report: verdict, then one line per finding."""
        lines = [
            f"plan check: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) over {self.num_steps} step(s)"
        ]
        lines.extend(str(d) for d in self.errors)
        lines.extend(str(d) for d in self.warnings)
        for name, st in sorted(self.output_states.items()):
            lines.append(
                f"output {name!r}: level {st.level}, "
                f"scale 2^{math.log2(st.scale):.3f}, "
                f"noise {st.noise_bits:.2f} bits, "
                f"budget {st.budget_bits:.2f} bits"
            )
        return "\n".join(lines)


def _level_chain(ctx) -> dict:
    """``{level: ctx}`` for every level reachable by dropping limbs."""
    chain = {}
    c = ctx
    while True:
        chain[c.num_limbs] = c
        if c.num_limbs == 1:
            break
        c = c.drop_last()
    return chain


class _Checker:
    def __init__(self, plan, drift_warn_bits: float):
        self.plan = plan
        self.drift = float(drift_warn_bits)
        self.chain = _level_chain(plan.ctx)
        self.log_q = {
            lvl: sum(math.log2(q) for q in c.primes)
            for lvl, c in self.chain.items()
        }
        self.model = NoiseModel(plan.ctx.ring_degree, plan._sigma)
        self.errors: list[Diagnostic] = []
        self.warnings: list[Diagnostic] = []
        self.states: list[NodeState | None] = [None] * plan._n_slots
        self.working_scale = max(
            (scale for _, _, scale in plan._inputs), default=1.0
        )

    # -- reporting helpers -------------------------------------------------
    def _where(self, i, step) -> str:
        label = step.label or step.kind
        reg = f"->r{step.dst}" if step.dst >= 0 else ""
        return f"step {i} ({label}{reg})"

    def error(self, code, i, step, detail) -> None:
        self.errors.append(
            Diagnostic("error", code, self._where(i, step), detail)
        )

    def warn(self, code, i, step, detail) -> None:
        self.warnings.append(
            Diagnostic("warning", code, self._where(i, step), detail)
        )

    # -- state helpers -----------------------------------------------------
    def _src(self, i, step, slot) -> NodeState | None:
        if not (0 <= slot < len(self.states)) or self.states[slot] is None:
            self.error(
                "invalid-step", i, step,
                f"reads register r{slot} before any step defines it",
            )
            return None
        return self.states[slot]

    def _budget(self, level: int, noise: float) -> float:
        return self.log_q[level] - 1.0 - noise

    def _op_step(self, i, step, op) -> None:
        """Check one op step's operands and propagate its result state."""
        cts = [self._src(i, step, s) for s in step.srcs]
        if any(ct is None for ct in cts):
            return
        try:
            op.validate(cts, step.arg)
        except (LevelError, ScaleMismatchError, ParameterError) as exc:
            self.error(_CODES.get(type(exc), "invalid-step"), i, step, str(exc))
        else:
            if cts[0].level != step.level:
                self.error(
                    "level-mismatch", i, step,
                    f"{step.kind} operands at level {cts[0].level} but the "
                    f"step declares level {step.level}",
                )
        if step.key is not None:
            at = self.chain.get(step.level)
            try:
                check_key_level(
                    step.key, () if at is None else at.primes, step.level,
                    op.name,
                )
            except KeyError_ as exc:
                self.error("key-level-mismatch", i, step, str(exc))
        if "acc" in op.binds:
            self._check_mac_headroom(i, step, len(cts))
        try:
            st = self._rule(op, cts, step.arg, step.key)
        except LevelError:
            return  # no limb left to drop: nothing to propagate
        raised = op.raises_scale or any(ct.raised for ct in cts)
        exhausted = any(ct.exhausted for ct in cts)
        self._finish(i, step, cts[0], st, raised, exhausted)

    def _rule(self, op, cts, arg, key) -> NodeState:
        """``op``'s ctx, scale and noise rules applied to ``cts``."""
        ctx = op.ctx(cts)
        return replace(
            cts[0],
            level=ctx.num_limbs,
            ctx=ctx,
            scale=op.scale(cts, arg),
            noise_bits=op.noise(cts, arg, key, self.model),
        )

    def _finish(self, i, step, src, st, raised, src_exhausted) -> None:
        """Apply the step's fused rescales to ``st``, check it, store it.

        ``src`` is the first operand's state.  A result below its level
        was rescaled, by the step's fused rescales or by a lone rescale
        step, and gets the rescale checks from the scale entering that
        chain to the scale leaving it.
        """
        before = src.scale if st.level < src.level else st.scale
        for _ in range(step.rescales):
            st = self._rule(RESCALE, (st,), None, None)
        if st.level < src.level:
            self._rescale_quality(i, step, before, st.scale, raised)
            raised = False
        level, scale, noise = st.level, st.scale, st.noise_bits
        budget = self._budget(level, noise)
        exhausted = src_exhausted
        if budget <= 0.0 and not exhausted:
            self.error(
                "budget-exhausted", i, step,
                f"predicted noise {noise:.2f} bits >= "
                f"log2(Q_{level}) - 1 = {self.log_q[level] - 1.0:.2f}: "
                "the result cannot decrypt correctly",
            )
            exhausted = True
        if (
            math.log2(scale) >= self.log_q[level]
            and not (src_exhausted and budget <= 0.0)
        ):
            self.warn(
                "scale-overflow", i, step,
                f"scale 2^{math.log2(scale):.1f} exceeds the level-"
                f"{level} modulus ({self.log_q[level]:.1f} bits): any "
                "slot of magnitude >= 1 wraps",
            )
        self.states[step.dst] = NodeState(
            level=level,
            scale=scale,
            noise_bits=noise,
            budget_bits=budget,
            step=i,
            label=step.label or step.kind,
            raised=raised,
            exhausted=exhausted,
            ctx=st.ctx,
        )

    def _rescale_quality(self, i, step, before, after, raised) -> None:
        """Drift / waste / underflow checks for one rescale chain."""
        if not raised:
            self.warn(
                "wasteful-rescale", i, step,
                "rescale applied to a value with no multiply since the "
                "previous rescale/input: drops a level for nothing",
            )
        if after < 1.0:
            self.warn(
                "scale-underflow", i, step,
                f"rescale leaves scale 2^{math.log2(after):.2f} < 1: "
                "the encoded image rounds away",
            )
        drift = abs(math.log2(after) - math.log2(self.working_scale))
        if drift > self.drift:
            self.warn(
                "scale-drift", i, step,
                f"rescale lands {drift:.2f} bits from the working scale "
                f"2^{math.log2(self.working_scale):.1f} (tolerance "
                f"{self.drift:.1f}): the prime schedule and scale "
                "schedule disagree",
            )

    # -- main walk ---------------------------------------------------------
    def run(self) -> PlanReport:
        plan = self.plan
        steps = plan._steps
        hoists: list[tuple[int, object]] = []  # (step index, hoist step)
        consumed: set[int] = set()  # ids of the hoist tensors Galois reads
        consumers: dict[int, list] = {}
        for step in steps:
            for s in step.srcs:
                consumers.setdefault(s, []).append(step)

        for i, step in enumerate(steps):
            kind = step.kind
            if kind == "input":
                fresh = self.model.fresh_bits
                self.states[step.dst] = NodeState(
                    level=step.level,
                    scale=step.scale,
                    noise_bits=fresh,
                    budget_bits=self._budget(step.level, fresh),
                    step=i,
                    label=step.label or f"input:{step.arg}",
                    ctx=self.chain[step.level],
                )
            elif kind == "hoist":
                hoists.append((i, step))
                self._src(i, step, step.srcs[0])
            elif kind in OPS:
                if "hoisted" in step.res:
                    consumed.add(id(step.res["hoisted"]))
                self._op_step(i, step, OPS[kind])
            else:
                self.error(
                    "invalid-step", i, step, f"unknown step kind {kind!r}"
                )

            self._check_ntt_roundtrip(i, step, consumers)

        for group, (at, step) in enumerate(hoists):
            if id(step.res.get("hoisted")) not in consumed:
                self.warn(
                    "dead-hoist", at, step,
                    f"hoisted ModUp tensor (group {group}) is never "
                    "consumed by a Galois step",
                )

        outputs = {}
        for name, slot in self.plan._outputs.items():
            st = self.states[slot]
            if st is not None:
                outputs[name] = st
        return PlanReport(
            num_steps=len(steps),
            errors=tuple(self.errors),
            warnings=tuple(self.warnings),
            output_states=outputs,
        )

    def _check_mac_headroom(self, i, step, terms) -> None:
        ctx = self.chain.get(step.level)
        if ctx is None:
            return  # no such level: reported as a level mismatch
        qmax = max(ctx.primes)
        capacity = REDUCER_CONTRACTS[ctx.method].lazy_headroom(qmax)
        if terms > capacity:
            self.error(
                "mac-overflow", i, step,
                f"{terms} MAC terms exceed the {ctx.method} lazy "
                f"accumulator headroom of {capacity} at level "
                f"{step.level} (q_max={qmax})",
            )

    def _check_ntt_roundtrip(self, i, step, consumers) -> None:
        """The planner's NTT-persistence rule, replayed as a lint."""
        users = [u.kind for u in consumers.get(step.dst, ())]
        outputs = self.plan._outputs.values()
        if not step.emit_ntt and persists_ntt(
            step.kind, step.rescales, step.dst in outputs, users
        ):
            self.warn(
                "redundant-ntt-roundtrip", i, step,
                f"{step.kind} materializes coefficient-domain components "
                "although every consumer accepts the NTT domain: the "
                "schedule pays an inverse/forward transform pair for "
                "nothing",
            )


def check_plan(plan, *, drift_warn_bits: float = 2.0) -> PlanReport:
    """Statically analyze a compiled :class:`CircuitPlan`.

    Propagates (level, scale, noise) through the step list with the op
    table's rules, which the executor runs too, and reports budget
    exhaustion, scale pathologies, dead hoists and redundant transform
    round trips — see the module docstring for the full catalogue.  ``plan.analyze()``
    is sugar for this function.

    Args:
        plan: a compiled :class:`~repro.scheme._circuit.CircuitPlan`.
        drift_warn_bits: tolerated distance (bits) between a rescale
            chain's landing scale and the plan's working scale before a
            ``scale-drift`` warning fires.
    """
    return _Checker(plan, drift_warn_bits).run()
