"""Noise-budget-aware level planner: automatic rescale placement.

The model layer never calls ``rescale`` by hand.  Each model layer is
traced inside a :meth:`LevelPlanner.layer` span; after every scale-
raising composition the planner's :meth:`~LevelPlanner.normalize` drops
levels until the working scale returns to the declared ``2**scale_bits``
— simulating the drops against the *actual* prime chain, not a nominal
bit count — and refuses statically (raising
:class:`~repro.errors.ModelPlanError`, which names the layer and the
failing budget, per the ``PolyContext.mismatch_reason`` convention) when
a layer needs more levels than remain.

Deployability is checked twice more, both before any ciphertext exists:

* at construction, the declared scale must admit a
  :class:`~repro.rns.cycle.RescalingCycle` whose every move swaps only
  main primes — the prefix limb layout rescales by dropping the highest
  main limb, so a cycle that needs terminal-prime swaps is undeployable
  on this representation, and the planner says so by name;
* at :meth:`finish`, the compiled plan runs PR 7's
  :func:`~repro.analysis.check_plan`; any error diagnostic is mapped
  back to the model layer that traced the offending node (step labels
  carry ``n<id>:<op>`` trace provenance) and raised as a layer-named
  :class:`~repro.errors.ModelPlanError`.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager

from repro.errors import (
    KeyError_,
    LevelError,
    ModelPlanError,
    ParameterError,
)
from repro.rns.cycle import RescalingCycle, find_rescaling_cycle
from repro.scheme._linalg import bsgs_split, stack_budget

_NODE_RE = re.compile(r"\bn(\d+):")


class LevelPlanner:
    """Places every rescale of a traced model; rejects what cannot fit.

    Args:
        tracer: the :class:`~repro.scheme._circuit.CircuitTracer` the
            model is being recorded on.
        scale_bits: the model's working scale is ``2**scale_bits``;
            every :meth:`normalize` returns the ciphertext scale to
            (approximately) this value.
        main_bits / terminal_bits: the prime system's nominal sizes,
            used to vet the rescaling cycle and to budget level counts.
    """

    def __init__(
        self,
        tracer,
        *,
        scale_bits: int,
        main_bits: int = 30,
        terminal_bits: int = 25,
    ) -> None:
        self.tracer = tracer
        self.scale_bits = int(scale_bits)
        self.main_bits = int(main_bits)
        self.terminal_bits = int(terminal_bits)
        self.cycle = self._vet_cycle()
        #: rescales placed so far (all of them: the model path places none)
        self.placed_rescales = 0
        self._layers: list[tuple[str, int, int]] = []
        self._current: str | None = None

    # -- static deployability ----------------------------------------------
    def _vet_cycle(self) -> RescalingCycle:
        try:
            cycle = find_rescaling_cycle(
                self.scale_bits,
                main_bits=self.main_bits,
                terminal_bits=self.terminal_bits,
            )
        except ParameterError as exc:
            raise ModelPlanError(
                f"scale 2^{self.scale_bits} is undeployable: no rescaling "
                f"cycle exists for {self.main_bits}/{self.terminal_bits}-bit "
                f"primes ({exc})"
            ) from exc
        swaps = [m for m in cycle.moves if m.terminal_delta != 0]
        if swaps:
            raise ModelPlanError(
                f"scale 2^{self.scale_bits} is undeployable on the prefix "
                f"limb layout: its rescaling cycle needs terminal-prime "
                f"swaps ({swaps[0].terminal_delta:+d} terminals in one "
                f"move) but rescaling here only drops the highest main "
                f"limb; use a scale with a mains-only cycle (e.g. "
                f"2^{self.main_bits})"
            )
        return cycle

    # -- layer spans ---------------------------------------------------------
    @contextmanager
    def layer(self, name: str):
        """Record ``name`` as the owner of every node traced inside.

        Scheme-layer rejections raised while tracing (key level too low
        for the digit count, scale budget exceeded, level exhausted) are
        re-raised as :class:`ModelPlanError` naming the layer.
        """
        if self._current is not None:
            raise ModelPlanError(
                f"layer {name!r} opened inside layer {self._current!r}: "
                "layer spans cannot nest"
            )
        start = len(self.tracer.nodes)
        self._current = name
        try:
            yield
        except ModelPlanError:
            raise
        except (ParameterError, LevelError, KeyError_) as exc:
            raise ModelPlanError(
                f"layer {name!r} cannot be deployed on these parameters: "
                f"{exc}",
                layer=name,
            ) from exc
        finally:
            self._layers.append((name, start, len(self.tracer.nodes)))
            self._current = None

    def _layer_of(self, node_id: int) -> str | None:
        for name, start, end in self._layers:
            if start <= node_id < end:
                return name
        return None

    def _where(self) -> str:
        return self._current if self._current is not None else "model"

    # -- rescale placement ---------------------------------------------------
    def normalize(self, ct):
        """Rescale ``ct`` back down to the working scale, or refuse.

        Simulates the drops against the live prime chain (each rescale
        divides by the actual highest main prime), counts how many the
        stacked scale needs, and raises a layer-named
        :class:`ModelPlanError` if the chain is too short — *before*
        recording any rescale node.
        """
        target = self.scale_bits + self.main_bits / 2
        available = ct.level - 1
        needed = 0
        sim_scale, sim_ctx = ct.scale, ct.ctx
        while math.log2(sim_scale) > target:
            needed += 1
            if needed <= available:
                sim_scale /= sim_ctx.primes[-1]
                sim_ctx = sim_ctx.drop_last()
            else:  # keep counting at nominal size for the error message
                sim_scale /= 2.0 ** self.main_bits
        if needed > available:
            raise ModelPlanError(
                f"layer {self._where()!r}: returning scale "
                f"2^{math.log2(ct.scale):.1f} to 2^{self.scale_bits} needs "
                f"{needed} rescale levels but only {available} remain "
                f"below level {ct.level}; shallower activation, larger "
                "modulus chain, or smaller scale",
                layer=self._where(),
            )
        for _ in range(needed):
            ct = self.tracer.rescale(ct)
        self.placed_rescales += needed
        return ct

    def require_budget(self, ct, coeffs) -> None:
        """Pre-check a ``poly_eval`` scale stack at ``ct``'s level.

        The budget rule ``poly_eval`` enforces
        (:func:`~repro.scheme._linalg.stack_budget`), raised as the
        layer-named :class:`ModelPlanError` so an undeployable
        activation is rejected with model context, statically.
        """
        coeffs = [float(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if len(coeffs) < 2:
            return
        bs, gs = bsgs_split(len(coeffs))
        need, have = stack_budget(ct, coeffs, bs * gs)
        if need > have:
            raise ModelPlanError(
                f"layer {self._where()!r}: degree-{len(coeffs) - 1} "
                f"activation stacks ~{need:.0f} scale bits but level "
                f"{ct.level} leaves {have:.0f} after headroom; lower the "
                "activation degree or enter the layer at a higher level",
                layer=self._where(),
            )

    # -- compilation ---------------------------------------------------------
    def finish(self, outputs):
        """Compile the trace and statically check the plan.

        Returns ``(plan, report)`` on success.  Any error diagnostic
        from :func:`~repro.analysis.check_plan` is mapped back to the
        model layer that traced the offending node and raised as a
        layer-named :class:`ModelPlanError`.
        """
        plan = self.tracer.compile(outputs)
        report = plan.analyze()
        if report.errors:
            parts = []
            first_layer = None
            for diag in report.errors:
                layer = None
                m = _NODE_RE.search(diag.where)
                if m is not None:
                    layer = self._layer_of(int(m.group(1)))
                if first_layer is None and layer is not None:
                    first_layer = layer
                parts.append(f"layer {layer or '?'}: {diag}")
            raise ModelPlanError(
                "compiled model fails the static plan check: "
                + "; ".join(parts),
                layer=first_layer,
            )
        return plan, report
