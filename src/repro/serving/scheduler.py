"""Fault-tolerant multi-tenant CKKS serving: queue, batcher, recovery.

:class:`CkksServer` turns a :class:`~repro.context.CkksContext` plus a
set of registered tenant circuits into an asyncio service: clients
``await server.submit(tenant, value)`` single-slot queries, and the
scheduler packs pending same-tenant queries into one shared sparse-packed
ciphertext (the PR 5 packings: ``s`` slots replicate ``(N/2)/s`` times,
so ``s`` is the next power of two above the batch size and always
divides ``N/2``), dispatches the tenant's precompiled
:class:`~repro.scheme._circuit.CircuitPlan` on an executor thread, and
fans the decrypted slots back out to each caller's future.

**Admission control** happens at :meth:`CkksServer.register_tenant`:
the tenant's circuit is traced, compiled, and pre-flighted through
:meth:`~repro.scheme._circuit.CircuitPlan.analyze`; a plan whose static
report carries errors (noise budget exhausted, scale mismatch,
key-level mismatch, ...) is rejected with a structured
:class:`~repro.errors.AdmissionError` *before* any request can reach
it.  Overload is handled by a bounded queue: at capacity, expired then
lower-priority queued requests are load-shed
(:class:`~repro.errors.QueueFullError`, code ``load-shed``) to make
room, else the new submission is rejected (code ``queue-full``).

**Recovery** is layered per batch execution:

* a *watchdog* (:func:`asyncio.wait_for`) bounds each ``plan.run``; on
  timeout the orphaned worker thread is drained, the plan is rebuilt
  (the zombie may still be writing into the old plan's scratch
  accumulators — retrying into fresh scratch makes the race harmless),
  and the batch retried;
* *integrity checks* — the plan's constant fingerprint before dispatch
  (mismatch → rebuild), the input ciphertext's fingerprint after the
  run (mismatch → re-encrypt + retry), and a noise-budget guard on the
  result (exhausted → retry) — catch silent corruption that raises no
  exception at all;
* *transient* kernel failures (:class:`~repro.errors.InjectedFaultError`,
  :class:`~repro.errors.SanitizerError` under ``REPRO_CHECKED=1``)
  retry with exponential backoff and seeded jitter, up to
  ``max_attempts``; anything else fails the batch fast with the
  :class:`~repro.errors.PlanExecutionError` context intact;
* a per-tenant :class:`~repro.serving.breaker.CircuitBreaker` opens
  after consecutive terminal batch failures so a persistently broken
  tenant fast-fails at submission instead of burning executor time.

Requests carry deadlines throughout: the batch cutoff never waits past
the earliest deadline (minus a margin), and expired requests are
rejected with :class:`~repro.errors.DeadlineExceededError` at cut,
between retries, and at delivery.  A caller cancelling its future never
strands a half-packed batch — cancelled slots are skipped at cut and at
delivery and the rest of the batch proceeds.

Every delivered batch is recorded (input ciphertext, packing, delivered
slot values) in :attr:`CkksServer.batch_log`, so
:func:`repro.serving.loadgen.verify_delivered` can replay the exact
computation and bit-compare what each client received.  The log — like
the latency samples — is a bounded ring buffer
(``max_recorded_batches`` / ``max_latency_samples``) so a long-running
server does not leak memory; size the bounds above the run length (or
set ``record_batches=False``) when full-replay verification matters.

Anything that escapes the layered recovery above (a bug in encrypt,
decrypt, fingerprinting, or the injector itself) is caught by a
last-ditch guard in the scheduler loop: the batch is rejected with a
structured ``internal-error`` :class:`~repro.errors.ServingError` and
the loop keeps serving — an unexpected exception never strands pending
futures.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.errors import (
    AdmissionError,
    CheddarError,
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    PlanExecutionError,
    QueueFullError,
    SanitizerError,
    ServingError,
)
from repro.serving.breaker import CircuitBreaker

__all__ = ["BatchRecord", "CkksServer", "Request", "ServingConfig"]

#: kernel exceptions worth retrying (vs failing the batch fast)
_TRANSIENT = (InjectedFaultError, SanitizerError)

#: on 3.10 asyncio.wait_for raises asyncio.TimeoutError, which is NOT
#: the builtin TimeoutError (they were unified in 3.11); catch both
_TIMEOUTS = (TimeoutError, asyncio.TimeoutError)


@dataclass
class ServingConfig:
    """Tuning knobs for :class:`CkksServer` (all times in seconds)."""

    max_queue: int = 256            #: bound on queued-but-unserved requests
    batch_window_s: float = 0.002   #: max wait for co-batchable arrivals
    max_batch_slots: int | None = None  #: packing cap (default: all N/2 slots)
    default_deadline_s: float = 2.0     #: per-request deadline if none given
    deadline_margin_s: float = 0.005    #: cut this far before the deadline
    watchdog_s: float = 5.0         #: per-attempt bound on plan execution
    max_attempts: int = 4           #: total tries per batch (1 + retries)
    backoff_base_s: float = 0.002   #: first retry delay (doubles per attempt)
    backoff_cap_s: float = 0.05     #: backoff ceiling
    breaker_threshold: int = 3      #: consecutive batch failures to open
    breaker_cooldown_s: float = 0.25    #: open duration before a trial batch
    min_budget_bits: float = 0.0    #: deliver only above this noise budget
    seed: int = 0                   #: jitter seed (deterministic backoff)
    record_batches: bool = True     #: keep batch_log for replay verification
    max_recorded_batches: int = 4096    #: batch_log ring-buffer bound
    max_latency_samples: int = 8192     #: latencies_s ring-buffer bound
    #: execution tier the server expects of its context — ``None`` accepts
    #: whatever the :class:`~repro.context.CkksContext` resolved (its own
    #: ``backend`` arg > ``REPRO_BACKEND`` > numpy); naming a tier here
    #: makes a context/config mismatch a construction-time error instead
    #: of a silently slower (or faster, unvalidated) serving deployment
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            # normalize + reject unknown tiers up front (ParameterError)
            from repro.poly.backends import resolve_backend

            self.backend = resolve_backend(self.backend)
        s = self.max_batch_slots
        if s is not None and (s < 1 or s & (s - 1)):
            # sparse packings must divide N/2 (a power of two), so any
            # non-power-of-two cap would make every batch fail
            # validate_slots at encrypt time
            raise ValueError(
                f"max_batch_slots must be a power of two >= 1, got {s}"
            )


class Request:
    """One queued query (a slot scalar, or a vector-tenant payload)."""

    __slots__ = ("id", "tenant", "value", "priority", "deadline",
                 "submitted_at", "future", "payload_fp")

    def __init__(self, rid, tenant, value, priority, deadline, future):
        self.id = rid
        self.tenant = tenant
        if np.ndim(value) == 0:
            self.value = float(value)
        else:
            self.value = np.asarray(value, dtype=np.float64)
        self.priority = int(priority)
        self.deadline = float(deadline)
        self.submitted_at = time.monotonic()
        self.future = future
        self.payload_fp = _payload_fp(self.value)


def _payload_fp(value) -> int:
    """Bit-exact checksum of a request payload (detects queue corruption).

    Scalars keep the original single-float64 bit view; vector payloads
    fold every element's bit pattern through an FNV-style hash so any
    single-bit flip anywhere in the vector changes the checksum.
    """
    if np.ndim(value) == 0:
        return int(np.float64(value).view(np.uint64))
    bits = np.asarray(value, dtype=np.float64).ravel().view(np.uint64)
    fp = np.uint64(bits.size)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for b in bits:
            fp = (fp * prime) ^ b
    return int(fp)


@dataclass
class BatchRecord:
    """One delivered batch, replayable for bit-exact verification."""

    tenant: str
    batch_index: int
    attempt: int
    ct: object                      #: the exact input Ciphertext dispatched
    slots: int                      #: sparse packing width used
    delivered: list = field(default_factory=list)  #: (request id, slot, value)


class _Tenant:
    """Registered tenant: build recipe, live plan, breaker, queue."""

    __slots__ = ("name", "build", "scale", "plan", "plan_fp",
                 "breaker", "queue", "report", "input_dim")

    def __init__(self, name, build, scale, plan, plan_fp, breaker, report,
                 input_dim=1):
        self.name = name
        self.build = build
        self.scale = float(scale)
        self.plan = plan
        self.plan_fp = plan_fp
        self.breaker = breaker
        self.queue: deque[Request] = deque()
        self.report = report
        #: slots one request occupies; >1 means one request per batch
        self.input_dim = int(input_dim)


class CkksServer:
    """Asyncio batch scheduler over one CKKS context; see module docs."""

    def __init__(self, cc, *, config: ServingConfig | None = None,
                 injector=None) -> None:
        self.cc = cc
        self.config = config or ServingConfig()
        self.injector = injector
        #: execution tier every kernel under this server dispatches through
        self.backend = getattr(cc, "backend", "numpy")
        if (
            self.config.backend is not None
            and self.config.backend != self.backend
        ):
            raise ValueError(
                f"config requires the {self.config.backend!r} backend but "
                f"the context resolved {self.backend!r}; build the "
                "CkksContext with backend=... to match"
            )
        self._tenants: dict[str, _Tenant] = {}
        self._next_id = 0
        self._task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self._rng = np.random.default_rng(self.config.seed)
        self.metrics: Counter[str] = Counter()
        self.faults_detected: Counter[str] = Counter()
        # ring buffers: a long-running server must not grow without bound
        self.latencies_s: deque[float] = deque(
            maxlen=self.config.max_latency_samples
        )
        self.batch_log: deque[BatchRecord] = deque(
            maxlen=self.config.max_recorded_batches
        )

    # -- admission control -------------------------------------------------
    def register_tenant(self, name: str, build, *,
                        scale_bits: int | None = None, input_dim: int = 1) -> None:
        """Admit a tenant circuit, or raise :class:`AdmissionError`.

        ``build(tracer, x)`` receives a fresh tracer and its declared
        input and must return the traced output ciphertext; the same
        recipe is re-run to rebuild the plan after corruption or a
        watchdog fire, so it must be deterministic and self-contained
        (encode constants inside ``build``, at ``num_slots=1`` so they
        replicate uniformly under any batch packing).

        The input scale is ``2**scale_bits`` (default: the context's own
        ``scale_bits``).  ``input_dim > 1`` admits a
        vector tenant — each request submits an ``input_dim``-vector
        packed into one ciphertext (so batches are one request wide) and
        is delivered the first ``input_dim`` decrypted slots; a compiled
        model registers as
        ``register_tenant(name, model.build, scale_bits=model.scale_bits,
        input_dim=model.dim)``.
        """
        if scale_bits is None:
            scale_bits = getattr(self.cc, "scale_bits", 30)
        use_scale = 2.0 ** int(scale_bits)
        if name in self._tenants:
            raise AdmissionError(
                f"tenant {name!r} is already registered",
                code="duplicate-tenant", tenant=name,
            )
        input_dim = int(input_dim)
        if input_dim < 1 or input_dim & (input_dim - 1):
            # the vector is the packing, so it must be a legal sparse width
            raise AdmissionError(
                f"tenant {name!r} input_dim must be a power of two >= 1, "
                f"got {input_dim}",
                code="bad-input-dim", tenant=name,
            )
        if input_dim > self._slots_cap():
            raise AdmissionError(
                f"tenant {name!r} input_dim={input_dim} exceeds the "
                f"{self._slots_cap()}-slot packing cap",
                code="bad-input-dim", tenant=name,
            )
        plan, report = self._compile(name, build, use_scale)
        if report.errors:
            summary = "; ".join(str(d) for d in report.errors[:3])
            raise AdmissionError(
                f"tenant {name!r} rejected by static analysis "
                f"({len(report.errors)} error(s)): {summary}",
                code="analysis-rejected", tenant=name,
            )
        breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self._tenants[name] = _Tenant(
            name, build, use_scale, plan, plan.fingerprint(), breaker,
            report, input_dim,
        )

    def _compile(self, name: str, build, scale: float):
        tracer = self.cc._tracer()
        try:
            out = build(tracer, tracer.input("x", scale=scale))
            plan = tracer.compile(out)
        except CheddarError as exc:
            raise AdmissionError(
                f"tenant {name!r} circuit failed to trace/compile: {exc}",
                code="trace-rejected", tenant=name,
            ) from exc
        return plan, plan.analyze()

    def tenant_report(self, name: str):
        """The admission-time :class:`PlanReport` for a registered tenant."""
        return self._require(name).report

    def _require(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise AdmissionError(
                f"unknown tenant {name!r}", code="unknown-tenant", tenant=name
            )
        return tenant

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the scheduler loop (idempotent)."""
        if self._task is not None:
            return
        self._wake = asyncio.Event()
        self._stopping = False
        self._task = asyncio.create_task(self._run_loop(), name="ckks-serving")

    async def stop(self) -> None:
        """Drain queued requests, then stop the scheduler loop."""
        if self._task is None:
            return
        self._stopping = True
        self._wake.set()
        await self._task
        self._task = None

    # -- submission --------------------------------------------------------
    async def submit(self, tenant: str, value, *,
                     deadline_s: float | None = None, priority: int = 0):
        """Enqueue one query; await its decrypted result.

        Scalar tenants submit one slot value and are delivered one
        complex slot; vector tenants (``input_dim > 1``) submit an
        ``input_dim``-vector and are delivered the ``input_dim``
        decrypted slots as an array.

        Raises the structured :class:`~repro.errors.ServingError`
        subclass naming the failure cause: breaker open, queue full,
        deadline exceeded, retries exhausted, corrupted payload, ...
        """
        t = self._require(tenant)
        if t.input_dim > 1 and np.shape(value) != (t.input_dim,):
            raise ServingError(
                f"tenant {tenant!r} takes a length-{t.input_dim} vector "
                f"payload, got {np.shape(value)}",
                code="bad-payload", tenant=tenant,
            )
        if not t.breaker.allow():
            raise CircuitOpenError(
                f"tenant {tenant!r} breaker is open after "
                f"{t.breaker.failures} consecutive batch failures; retry in "
                f"{t.breaker.retry_after_s:.3f}s",
                tenant=tenant,
            )
        self._make_room(priority)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        loop = asyncio.get_running_loop()
        req = Request(
            self._next_id, tenant, value, priority,
            time.monotonic() + deadline_s, loop.create_future(),
        )
        self._next_id += 1
        if self.injector is not None:
            self.injector.on_submit(req)
        t.queue.append(req)
        self.metrics["submitted"] += 1
        if self._wake is not None:
            self._wake.set()
        return await req.future

    def _queued(self) -> int:
        return sum(
            1 for t in self._tenants.values()
            for r in t.queue if not r.future.done()
        )

    def _make_room(self, priority: int) -> None:
        """Bounded-queue backpressure: shed or reject at capacity."""
        if self._queued() < self.config.max_queue:
            return
        now = time.monotonic()
        live = [
            r for t in self._tenants.values() for r in t.queue
            if not r.future.done()
        ]
        expired = [r for r in live if now > r.deadline]
        if expired:
            victim = expired[0]
            self._reject(victim, DeadlineExceededError(
                f"request {victim.id} shed at capacity after its deadline",
                tenant=victim.tenant, request_id=victim.id,
            ))
            self.metrics["shed"] += 1
            return
        victim = min(live, key=lambda r: (r.priority, -r.id))
        if victim.priority < priority:
            self._reject(victim, QueueFullError(
                f"request {victim.id} (priority {victim.priority}) load-shed "
                f"for a priority-{priority} submission at capacity",
                code="load-shed", tenant=victim.tenant, request_id=victim.id,
            ))
            self.metrics["shed"] += 1
            return
        raise QueueFullError(
            f"queue at capacity ({self.config.max_queue}) and no "
            f"lower-priority request to shed",
        )

    @staticmethod
    def _reject(req: Request, exc: ServingError) -> None:
        if not req.future.done():
            req.future.set_exception(exc)

    # -- scheduler loop ----------------------------------------------------
    def _pick(self) -> _Tenant | None:
        """The tenant whose queue head has the earliest deadline."""
        best = None
        for t in self._tenants.values():
            while t.queue and t.queue[0].future.done():
                t.queue.popleft()
            if not t.queue:
                continue
            if best is None or t.queue[0].deadline < best.queue[0].deadline:
                best = t
        return best

    def _slots_cap(self) -> int:
        cap = self.cc.num_slots
        if self.config.max_batch_slots is not None:
            cap = min(cap, self.config.max_batch_slots)
        return cap

    def _capacity(self, tenant: _Tenant) -> int:
        """Requests one batch of ``tenant`` holds: a vector tenant's
        request owns the whole packing, so its batches are 1 wide."""
        return 1 if tenant.input_dim > 1 else self._slots_cap()

    async def _run_loop(self) -> None:
        cfg = self.config
        while True:
            tenant = self._pick()
            if tenant is None:
                if self._stopping:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            head = tenant.queue[0]
            cut_at = min(
                head.submitted_at + cfg.batch_window_s,
                head.deadline - cfg.deadline_margin_s,
            )
            wait_s = cut_at - time.monotonic()
            live = sum(1 for r in tenant.queue if not r.future.done())
            if wait_s > 0 and live < self._capacity(tenant):
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), wait_s)
                except _TIMEOUTS:
                    pass
                continue  # re-pick: arrivals may change the best tenant
            batch = self._cut_batch(tenant)
            if batch:
                try:
                    await self._execute_batch(tenant, batch)
                except Exception as exc:
                    self._fail_unexpected(tenant, batch, exc)

    def _cut_batch(self, tenant: _Tenant) -> list[Request]:
        """Pop up to a packing's worth of live requests off one queue.

        Cancelled futures are skipped (a cancelled slot never strands
        the rest of the batch); expired requests are rejected here with
        :class:`DeadlineExceededError`; a payload whose checksum no
        longer matches its submission-time fingerprint is rejected
        *alone* with code ``corrupted-payload`` — its co-batched
        neighbours proceed.
        """
        now = time.monotonic()
        batch: list[Request] = []
        cap = self._capacity(tenant)
        while tenant.queue and len(batch) < cap:
            req = tenant.queue.popleft()
            if req.future.done():
                self.metrics["cancelled"] += 1
                continue
            if now > req.deadline:
                self._reject(req, DeadlineExceededError(
                    f"request {req.id} expired before batching",
                    tenant=tenant.name, request_id=req.id,
                ))
                self.metrics["expired"] += 1
                continue
            if _payload_fp(req.value) != req.payload_fp:
                self.faults_detected["corrupted-payload"] += 1
                self._reject(req, ServingError(
                    f"request {req.id} payload failed its integrity check "
                    "between submission and batching",
                    code="corrupted-payload",
                    tenant=tenant.name, request_id=req.id,
                ))
                continue
            batch.append(req)
        return batch

    def _rebuild_plan(self, tenant: _Tenant) -> None:
        """Recompile the tenant circuit from its build recipe.

        Used after plan-constant corruption and after a watchdog fire
        (the abandoned worker thread may still be writing into the old
        plan's scratch accumulators; retrying into a fresh plan makes
        that race harmless).
        """
        plan, _ = self._compile(tenant.name, tenant.build, tenant.scale)
        tenant.plan = plan
        tenant.plan_fp = plan.fingerprint()
        self.metrics["plan_rebuilds"] += 1

    def _backoff_s(self, attempt: int) -> float:
        base = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2.0 ** attempt),
        )
        return base * (0.5 + float(self._rng.random()))

    async def _execute_batch(self, tenant: _Tenant, batch: list[Request]):
        cfg = self.config
        loop = asyncio.get_running_loop()
        batch_index = self.metrics["batches"]
        self.metrics["batches"] += 1
        last_fault = "unknown"
        for attempt in range(cfg.max_attempts):
            now = time.monotonic()
            live = []
            for req in batch:
                if req.future.done():
                    self.metrics["cancelled"] += 1
                elif now > req.deadline:
                    self._reject(req, DeadlineExceededError(
                        f"request {req.id} expired during retries "
                        f"(attempt {attempt}, last fault: {last_fault})",
                        tenant=tenant.name, request_id=req.id,
                    ))
                    self.metrics["expired"] += 1
                else:
                    live.append(req)
            batch = live
            if not batch:
                return
            if tenant.plan.fingerprint() != tenant.plan_fp:
                self.faults_detected["plan-corruption"] += 1
                self._rebuild_plan(tenant)
            k = len(batch)
            if tenant.input_dim > 1:
                s = tenant.input_dim
                values = batch[0].value
            else:
                s = min(max(1, 1 << (k - 1).bit_length()), self._slots_cap())
                values = [r.value for r in batch] + [0.0] * (s - k)
            ct = self.cc.encrypt(values, scale=tenant.scale, num_slots=s)
            in_fp = ct.fingerprint()
            tag = f"{tenant.name}/b{batch_index}a{attempt}"
            arm = nullcontext(None) if self.injector is None else (
                self.injector.arm(
                    tenant=tenant.name, requests=batch, attempt=attempt,
                    batch_index=batch_index, ct=ct,
                )
            )
            fault = None
            with arm as armed:
                fut = loop.run_in_executor(
                    None, partial(tenant.plan.run, ct, tag=tag)
                )
                try:
                    out = await asyncio.wait_for(
                        asyncio.shield(fut), cfg.watchdog_s
                    )
                except _TIMEOUTS:
                    self.metrics["watchdog_fires"] += 1
                    self.faults_detected["watchdog-timeout"] += 1
                    fault = "watchdog-timeout"
                    await self._drain_zombie(fut)
                    self._rebuild_plan(tenant)
                except PlanExecutionError as exc:
                    if isinstance(exc.__cause__, _TRANSIENT):
                        self.faults_detected["kernel-fault"] += 1
                        fault = f"kernel-fault at {exc.label}"
                    else:
                        return self._fail_batch(tenant, batch, exc)
                except _TRANSIENT:
                    self.faults_detected["kernel-fault"] += 1
                    fault = "kernel-fault"
                except CheddarError as exc:
                    return self._fail_batch(tenant, batch, exc)
            if fault is None:
                if armed is not None and armed.noise_penalty_bits:
                    out.noise_bits += armed.noise_penalty_bits
                if ct.fingerprint() != in_fp:
                    self.faults_detected["input-corruption"] += 1
                    fault = "input-corruption"
                elif out.noise_budget_bits <= cfg.min_budget_bits:
                    self.faults_detected["budget-exhausted"] += 1
                    fault = "budget-exhausted"
                else:
                    self._deliver(tenant, batch, out, ct, s,
                                  batch_index, attempt)
                    return
            last_fault = fault
            self.metrics["retries"] += 1
            await asyncio.sleep(self._backoff_s(attempt))
        tenant.breaker.record_failure()
        for req in batch:
            self._reject(req, ServingError(
                f"request {req.id} failed after {cfg.max_attempts} attempts; "
                f"last fault: {last_fault}",
                code="retries-exhausted",
                tenant=tenant.name, request_id=req.id,
            ))
            self.metrics["failed"] += 1

    async def _drain_zombie(self, fut) -> None:
        """Wait (bounded) for a timed-out worker thread to finish.

        The thread cannot be killed; draining it before the retry keeps
        it from racing the retry's kernels on shared backend scratch.
        If it outlives the drain budget the plan rebuild still isolates
        the retry from the zombie's plan-scratch writes.
        """
        stall = getattr(self.injector, "stall_s", 0.0) or 0.0
        budget = self.config.watchdog_s + stall
        try:
            await asyncio.wait_for(asyncio.shield(fut), budget)
        except _TIMEOUTS:
            pass
        except Exception:
            pass

    def _fail_unexpected(self, tenant: _Tenant, batch, exc: Exception) -> None:
        """Last-ditch guard: an exception escaping the per-batch recovery
        machinery (encrypt, decrypt, fingerprinting, the injector) must
        reject its batch with a structured error and leave the scheduler
        loop alive — a dead loop silently strands every pending future.
        """
        tenant.breaker.record_failure()
        self.metrics["internal_errors"] += 1
        detail = f"{type(exc).__name__}: {exc}"
        for req in batch:
            self._reject(req, ServingError(
                f"request {req.id} failed on an internal serving error: "
                f"{detail}",
                code="internal-error", tenant=tenant.name, request_id=req.id,
            ))
            self.metrics["failed"] += 1

    def _fail_batch(self, tenant: _Tenant, batch, exc: CheddarError) -> None:
        """Terminal (non-transient) failure: structured fail, count it."""
        tenant.breaker.record_failure()
        detail = f"{type(exc).__name__}: {exc}"
        for req in batch:
            self._reject(req, ServingError(
                f"request {req.id} failed permanently: {detail}",
                code="plan-failed", tenant=tenant.name, request_id=req.id,
            ))
            self.metrics["failed"] += 1

    def _deliver(self, tenant, batch, out, ct, slots, batch_index, attempt):
        vals = self.cc.decrypt(out, num_slots=slots)
        tenant.breaker.record_success()
        record = BatchRecord(tenant.name, batch_index, attempt, ct, slots)
        now = time.monotonic()
        for slot, req in enumerate(batch):
            if req.future.done():
                self.metrics["cancelled"] += 1
                continue
            if now > req.deadline:
                self._reject(req, DeadlineExceededError(
                    f"request {req.id} expired before delivery",
                    tenant=tenant.name, request_id=req.id,
                ))
                self.metrics["expired"] += 1
                continue
            if tenant.input_dim > 1:
                value = np.asarray(vals[: tenant.input_dim])
            else:
                value = complex(vals[slot])
            req.future.set_result(value)
            record.delivered.append((req.id, slot, value))
            self.metrics["served"] += 1
            self.latencies_s.append(now - req.submitted_at)
        if self.config.record_batches and record.delivered:
            self.batch_log.append(record)
