"""Deterministic seeded fault injection for the serving layer.

The recovery machinery in :mod:`repro.serving.scheduler` is only worth
trusting if it is exercised against *real* induced failures — a bit
actually flipped in a limb matrix mid-execution, a kernel that actually
raises, a batch that actually stalls past the watchdog — not mocks of
them.  :class:`FaultInjector` provides exactly that, deterministically:
every fault decision is drawn from ``np.random.default_rng((seed,
request_id))``, so a given (seed, request id) always produces the same
fault kind at the same point, independent of batch composition, retry
interleaving or wall-clock timing.  A failing soak run replays exactly.

Fault kinds (``KINDS``):

``corrupt-payload``
    Flip a low bit of the request's submitted value *after* its payload
    fingerprint was taken (drawn at :meth:`on_submit`, flipped when the
    request reaches a batch cut, at :meth:`on_cut`).  Detected there by
    the payload checksum; the request is rejected alone with a
    structured ``corrupted-payload`` error while its co-batched
    neighbours proceed untouched.
``corrupt-plan``
    Flip a bit inside one of the tenant plan's captured constants — the
    backend-*prepared* operand array a pointwise kernel actually reads,
    the first one found walking the steps' captured plaintexts
    (``step.consts``, what the plan fingerprint covers) — at
    :meth:`before_dispatch`, when no run of the plan is in flight.
    Detected pre-dispatch by
    :meth:`~repro.scheme._circuit.CircuitPlan.fingerprint`; the scheduler
    rebuilds the plan from the tenant's build function.
``bitflip-ct``
    Flip one bit of the batch's input ciphertext limbs from *inside*
    execution (on the second ``circuit.step`` event).  Detected after
    the run by the input-ciphertext fingerprint; the scheduler discards
    the tainted result, re-encrypts and retries.
``kernel-error``
    Raise :class:`~repro.errors.InjectedFaultError` from inside the
    first forward NTT of the batch — a transient kernel failure,
    retried with backoff.
``stall``
    Sleep ``stall_s`` inside the first ``circuit.step`` event so the
    batch blows its watchdog; the scheduler times out, rebuilds the
    plan (the stalled zombie thread may still write into the old plan's
    scratch) and retries.
``noise``
    Exhaust the result's noise budget (a large post-run
    ``noise_bits`` penalty, counted when the scheduler applies it with
    :meth:`penalize`); the scheduler's budget guard refuses to deliver
    the result and retries.

Faults fire only while ``attempt < transient_attempts``, so by
construction every injected fault is *transient* and a correctly
implemented retry path must eventually succeed — any surviving wrong
answer or unstructured error is a real serving bug.  Persistent faults
for breaker tests come from ``outages`` (tenant → batch-counter window
during which every execution raises) and ``forced`` (request id → fault
kind, overriding the seeded draw; ``transient_attempts`` still applies).

The injector installs itself as the process-wide :mod:`repro.hooks`
handler only inside an :meth:`arm` window around a single batch
execution, and uninstalls on exit — the no-fault path never sees a
handler.  A run the watchdog gave up on is :meth:`disarm`-ed before the
scheduler drains its thread, so that zombie fires nothing: every fault
counted in :attr:`FaultInjector.injected` is one a detector can see.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro.errors import InjectedFaultError
from repro.hooks import install, uninstall

__all__ = ["KINDS", "FaultInjector"]

#: all injectable fault kinds, in draw order
KINDS = (
    "corrupt-payload",
    "corrupt-plan",
    "bitflip-ct",
    "kernel-error",
    "stall",
    "noise",
)

#: bound on remembered planned-fault entries; far above any queue bound
#: (the scheduler only reads entries for in-flight requests), so a
#: long-running injector does not grow without limit
_PLANNED_CAP = 4096


class _Armed:
    """Mutable per-arm-window state shared with the hook closure."""

    __slots__ = ("kinds", "steps_seen", "ntts_seen", "ct", "noise_penalty_bits")

    def __init__(self, kinds: set[str], ct) -> None:
        self.kinds = kinds
        self.steps_seen = 0
        self.ntts_seen = 0
        self.ct = ct
        self.noise_penalty_bits = 0.0


class FaultInjector:
    """Seeded, per-request-deterministic fault source for one server."""

    def __init__(
        self,
        seed: int,
        *,
        rate: float = 0.0,
        kinds: tuple[str, ...] = KINDS,
        stall_s: float = 0.25,
        transient_attempts: int = 1,
        forced: dict[int, str] | None = None,
        outages: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        bad = set(kinds) - set(KINDS)
        if bad:
            raise ValueError(f"unknown fault kinds {sorted(bad)}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = tuple(kinds)
        self.stall_s = float(stall_s)
        self.transient_attempts = int(transient_attempts)
        self.forced = dict(forced or {})
        self.outages = dict(outages or {})
        #: injected fault kinds, counted at the moment they fire
        self.injected: Counter[str] = Counter()
        #: request ids whose seeded/forced draw selected a fault
        #: (bounded to the most recent ``_PLANNED_CAP`` entries)
        self.planned: dict[int, str] = {}
        self._lock = threading.Lock()

    # -- fault selection ---------------------------------------------------
    def draw(self, request_id: int) -> str | None:
        """The fault kind destined for ``request_id``, or ``None``.

        Deterministic in (seed, request id): forced overrides first,
        then one uniform draw against ``rate`` and a uniform choice of
        kind.  Recorded in :attr:`planned` for post-hoc accounting.
        """
        kind = self.forced.get(request_id)
        if kind is None and self.rate > 0.0 and self.kinds:
            rng = np.random.default_rng((self.seed, request_id))
            if rng.random() < self.rate:
                kind = self.kinds[int(rng.integers(len(self.kinds)))]
        if kind is not None:
            self.planned[request_id] = kind
            while len(self.planned) > _PLANNED_CAP:
                # dicts iterate in insertion order: evict the oldest
                # (lowest, long-since-resolved) request ids first
                self.planned.pop(next(iter(self.planned)))
        return kind

    def on_submit(self, request) -> None:
        """Submission-time draw: marks the request with its fault kind,
        which fires later (at the batch cut or during execution)."""
        self.draw(request.id)

    def on_cut(self, request) -> None:
        """``corrupt-payload``: flip a low bit of the request's value just
        before the batch cut's payload check, modelling data corrupted in
        the queue.  A request shed or expired before any cut is never
        corrupted, so each injection meets the check."""
        if self.planned.get(request.id) != "corrupt-payload":
            return
        if np.ndim(request.value) == 0:
            request.value = float(
                np.float64(request.value).view(np.uint64) ^ np.uint64(1 << 3)
            )
        else:  # vector tenant: flip a mantissa bit of element 0 in place
            bits = request.value.view(np.uint64)
            bits[0] ^= np.uint64(1 << 3)
        self.injected["corrupt-payload"] += 1

    def before_dispatch(self, plan, requests, attempt: int) -> None:
        """``corrupt-plan`` for a batch whose ``requests`` drew it (while
        ``attempt < transient_attempts``), just before the scheduler's
        fingerprint check: no run of ``plan`` is in flight then, while at
        submission one could be, and its flip reach a delivered answer."""
        if attempt < self.transient_attempts and any(
            self.planned.get(req.id) == "corrupt-plan" for req in requests
        ):
            self.corrupt_plan(plan)

    def corrupt_plan(self, plan) -> bool:
        """Flip one bit in the first prepared operand among ``plan``'s
        captured plaintexts.

        Returns ``True`` if a constant was found and corrupted (plans
        with no plaintext products have nothing to corrupt).
        """
        for step in plan._steps:
            for poly in step.consts:
                prepared = poly.state.prepared
                if prepared:
                    flat = prepared[0].reshape(-1).view(np.uint64)
                    flat[0] ^= np.uint64(1 << 7)
                    self.injected["corrupt-plan"] += 1
                    return True
        return False

    # -- the arm window ----------------------------------------------------
    @contextmanager
    def arm(self, *, tenant: str, requests, attempt: int, batch_index: int, ct):
        """Install execution-time faults around one ``plan.run``.

        ``requests`` are the batch's packed requests; the union of their
        planned fault kinds (each gated on ``attempt <
        transient_attempts``) plus any active tenant outage decides what
        the hook does.  Yields the armed-state object; its
        ``noise_penalty_bits`` holds any drawn noise-exhaustion penalty,
        which :meth:`penalize` applies to the result.
        """
        kinds: set[str] = set()
        lo, hi = self.outages.get(tenant, (0, -1))
        if lo <= batch_index <= hi:
            kinds.add("kernel-error")
            self.injected["outage"] += 1
        if attempt < self.transient_attempts:
            for req in requests:
                kind = self.planned.get(req.id)
                if kind in ("bitflip-ct", "kernel-error", "stall", "noise"):
                    kinds.add(kind)
        armed = _Armed(kinds, ct)
        if "noise" in kinds:
            armed.noise_penalty_bits = 500.0
        if kinds & {"bitflip-ct", "kernel-error", "stall"}:
            install(self._handler(armed))
        try:
            yield armed
        finally:
            uninstall()

    def disarm(self, armed: _Armed) -> None:
        """End ``armed``'s window early: its hook fires nothing more.

        For a run the watchdog gave up on, before its thread is drained:
        a fault that thread fired would meet no detector.
        """
        armed.kinds.clear()
        uninstall()

    def penalize(self, armed: _Armed, out) -> None:
        """Apply the window's noise penalty to the result ``out`` and
        count the ``noise`` fault: the budget guard reads ``out`` next."""
        if armed.noise_penalty_bits:
            out.noise_bits += armed.noise_penalty_bits
            self.injected["noise"] += 1

    def _handler(self, armed: _Armed):
        def handle(site: str, payload: object) -> None:
            if site == "batch_ntt.forward" and "kernel-error" in armed.kinds:
                with self._lock:
                    armed.ntts_seen += 1
                    fire = armed.ntts_seen == 1
                if fire:
                    self.injected["kernel-error"] += 1
                    raise InjectedFaultError(
                        "injected transient kernel fault in batch_ntt.forward"
                    )
            if site == "circuit.step":
                with self._lock:
                    armed.steps_seen += 1
                    n = armed.steps_seen
                if n == 1 and "stall" in armed.kinds:
                    self.injected["stall"] += 1
                    time.sleep(self.stall_s)
                if n == 2 and "bitflip-ct" in armed.kinds and armed.ct is not None:
                    self.injected["bitflip-ct"] += 1
                    armed.kinds.discard("bitflip-ct")
                    limbs = armed.ct.c0.limbs
                    limbs[0, 0] ^= np.uint64(1 << 11)
                    armed.ct.c0.state.invalidate()

        return handle
