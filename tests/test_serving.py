"""Serving-layer tests: scheduler, admission, deadlines, breaker, errors.

Everything async runs through ``asyncio.run`` inside synchronous tests
(the environment has no pytest-asyncio), and every random draw — load
schedules, backoff jitter, fault plans — is seeded, so the suite is
deterministic.
"""

import asyncio
import math
import time

import numpy as np
import pytest

from repro import hooks
from repro.context import CkksContext
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    ParameterError,
    PlanExecutionError,
    QueueFullError,
    ServingError,
)
from repro.poly.rns_poly import data_fingerprint
from repro.serving import (
    CircuitBreaker,
    CkksServer,
    FaultInjector,
    ServingConfig,
    verify_delivered,
)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN

SCALE_BITS = 30
SCALE = 2.0**SCALE_BITS


@pytest.fixture(scope="module")
def cc() -> CkksContext:
    """One tiny context (N=64, 32 slots) shared by the whole module."""
    return CkksContext(ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=11)


def make_affine(cc):
    """y = 0.5 x + 0.25 — exercises multiply_plain/add_plain constants."""

    def build(tracer, x):
        half = cc.encoder.encode([0.5], SCALE, num_slots=1)
        prod = tracer.multiply_plain(x, half)
        bump = cc.encoder.encode([0.25], prod.scale, num_slots=1)
        return tracer.rescale(tracer.add_plain(prod, bump))

    return build


def make_square(cc):
    def build(tracer, x):
        return tracer.rescale(tracer.multiply(x, x))

    return build


def make_server(cc, *, injector=None, **overrides) -> CkksServer:
    defaults = dict(
        batch_window_s=0.01,
        default_deadline_s=5.0,
        watchdog_s=2.0,
        backoff_base_s=0.001,
        backoff_cap_s=0.005,
        breaker_cooldown_s=0.2,
        seed=3,
    )
    defaults.update(overrides)
    server = CkksServer(cc, config=ServingConfig(**defaults),
                        injector=injector)
    server.register_tenant("affine", make_affine(cc), scale_bits=SCALE_BITS)
    server.register_tenant("square", make_square(cc), scale_bits=SCALE_BITS)
    return server


def serve(server, coro):
    """start -> run coro -> drain/stop, inside one asyncio.run."""

    async def driver():
        await server.start()
        try:
            return await coro
        finally:
            await server.stop()

    return asyncio.run(asyncio.wait_for(driver(), 60.0))


# -- admission control -----------------------------------------------------

def test_register_rejects_duplicate(cc):
    server = make_server(cc)
    with pytest.raises(AdmissionError) as ei:
        server.register_tenant("affine", make_affine(cc), scale_bits=SCALE_BITS)
    assert ei.value.code == "duplicate-tenant"
    assert ei.value.tenant == "affine"


def test_register_rejects_untraceable_circuit(cc):
    """A circuit that dies at trace time is refused with trace context."""
    server = make_server(cc)

    def too_deep(tracer, x):
        y = x
        for _ in range(8):
            y = tracer.rescale(tracer.multiply(y, y))
        return y

    with pytest.raises(AdmissionError) as ei:
        server.register_tenant("deep", too_deep, scale_bits=SCALE_BITS)
    assert ei.value.code == "trace-rejected"


def test_register_rejects_statically_unsound_plan(cc):
    """A plan that traces but fails plan.analyze is refused pre-flight."""
    server = make_server(cc)

    def mismatched(tracer, x):
        # A raw (unrescaled) product added to its own input: scales
        # diverge by Delta, which the tracer tolerates within rtol but
        # static analysis flags as a hard scale-mismatch error.
        half = cc.encoder.encode([0.5], SCALE, num_slots=1)
        return tracer.add(tracer.multiply_plain(x, half), x)

    with pytest.raises(AdmissionError) as ei:
        server.register_tenant("bad", mismatched, scale_bits=SCALE_BITS)
    assert ei.value.code in ("analysis-rejected", "trace-rejected")


def test_submit_unknown_tenant(cc):
    server = make_server(cc)
    with pytest.raises(AdmissionError) as ei:
        serve(server, server.submit("nobody", 1.0))
    assert ei.value.code == "unknown-tenant"


# -- the happy path --------------------------------------------------------

def test_single_request_roundtrip(cc):
    server = make_server(cc)
    value = serve(server, server.submit("affine", 0.5))
    assert math.isclose(value.real, 0.5 * 0.5 + 0.25, abs_tol=1e-4)
    assert abs(value.imag) < 1e-4
    assert server.metrics["served"] == 1
    assert verify_delivered(server) == 0


def test_batched_requests_share_ciphertexts(cc):
    """Concurrent same-tenant queries pack into shared sparse packings."""
    server = make_server(cc)
    payloads = [round(v, 3) for v in np.linspace(-1.0, 1.0, 12)]

    async def fire():
        return await asyncio.gather(
            *(server.submit("square", v) for v in payloads)
        )

    results = serve(server, fire())
    for v, got in zip(payloads, results):
        assert math.isclose(got.real, v * v, abs_tol=1e-4)
    # 12 queries fit one 16-slot packing: far fewer batches than requests.
    assert server.metrics["batches"] < len(payloads)
    assert any(rec.slots >= 12 for rec in server.batch_log)
    assert verify_delivered(server) == 0


def test_mixed_tenants_batch_separately(cc):
    server = make_server(cc)

    async def fire():
        return await asyncio.gather(
            server.submit("affine", 0.2), server.submit("square", 0.2)
        )

    affine, square = serve(server, fire())
    assert math.isclose(affine.real, 0.35, abs_tol=1e-4)
    assert math.isclose(square.real, 0.04, abs_tol=1e-4)
    tenants = {rec.tenant for rec in server.batch_log}
    assert tenants == {"affine", "square"}


def test_vector_tenant_is_cut_without_waiting_out_the_window(cc):
    """A vector tenant's batch holds one request, so a lone request is
    cut at once instead of waiting the batch window for partners it
    could not take."""
    server = make_server(cc, batch_window_s=5.0, default_deadline_s=30.0)
    server.register_tenant(
        "vector", make_affine(cc), scale_bits=SCALE_BITS, input_dim=2
    )

    async def timed():
        start = time.monotonic()
        value = await server.submit("vector", np.array([0.5, -0.5]))
        return value, time.monotonic() - start

    value, elapsed_s = serve(server, timed())
    assert elapsed_s < 2.5
    assert np.allclose(value, [0.5, 0.0], atol=1e-4)


# -- deadlines, cancellation, backpressure ---------------------------------

def test_expired_request_rejected_structurally(cc):
    server = make_server(cc, batch_window_s=0.2)
    with pytest.raises(DeadlineExceededError) as ei:
        serve(server, server.submit("affine", 0.1, deadline_s=0.001))
    assert ei.value.code == "deadline-exceeded"
    assert ei.value.request_id is not None


def test_cancellation_never_strands_the_batch(cc):
    """A cancelled co-batched slot is skipped; neighbours still deliver."""
    server = make_server(cc, batch_window_s=0.05)

    async def fire():
        keeper = asyncio.ensure_future(server.submit("square", 0.3))
        victim = asyncio.ensure_future(server.submit("square", 0.7))
        await asyncio.sleep(0)  # both enqueued into the same window
        victim.cancel()
        return await keeper

    value = serve(server, fire())
    assert math.isclose(value.real, 0.09, abs_tol=1e-4)
    assert server.metrics["cancelled"] >= 1
    assert verify_delivered(server) == 0


def test_queue_full_rejects_and_sheds_by_priority(cc):
    server = make_server(cc, max_queue=2)

    async def fire():
        outcomes = {}
        # Fill the queue without letting the scheduler drain it: the
        # server isn't started yet, so submissions only enqueue.
        low = asyncio.ensure_future(
            server.submit("affine", 0.1, priority=0)
        )
        mid = asyncio.ensure_future(
            server.submit("affine", 0.2, priority=1)
        )
        await asyncio.sleep(0.01)
        # Same priority: rejected outright, nothing to shed.
        with pytest.raises(QueueFullError) as ei:
            await server.submit("affine", 0.3, priority=0)
        outcomes["reject-code"] = ei.value.code
        # Higher priority: the lowest-priority queued request is shed.
        high = asyncio.ensure_future(
            server.submit("affine", 0.4, priority=5)
        )
        await asyncio.sleep(0.01)
        await server.start()
        outcomes["low"] = await asyncio.gather(low, return_exceptions=True)
        outcomes["mid"] = await mid
        outcomes["high"] = await high
        return outcomes

    async def driver():
        try:
            return await fire()
        finally:
            await server.stop()

    outcomes = asyncio.run(asyncio.wait_for(driver(), 60.0))
    assert outcomes["reject-code"] == "queue-full"
    (low_exc,) = outcomes["low"]
    assert isinstance(low_exc, QueueFullError)
    assert low_exc.code == "load-shed"
    assert math.isclose(outcomes["mid"].real, 0.35, abs_tol=1e-4)
    assert math.isclose(outcomes["high"].real, 0.45, abs_tol=1e-4)
    assert server.metrics["shed"] == 1


# -- circuit breaker -------------------------------------------------------

def test_breaker_state_machine():
    t = {"now": 0.0}
    breaker = CircuitBreaker(3, 10.0, clock=lambda: t["now"])
    assert breaker.state == CLOSED and breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state == OPEN and not breaker.allow()
    assert breaker.retry_after_s == pytest.approx(10.0)
    t["now"] = 10.5
    assert breaker.allow()  # cooldown elapsed: half-open trial admitted
    assert breaker.state == HALF_OPEN
    breaker.record_failure()  # trial failed: re-open immediately
    assert breaker.state == OPEN and not breaker.allow()
    t["now"] = 21.0
    assert breaker.allow()
    breaker.record_success()  # trial succeeded: closed, count reset
    assert breaker.state == CLOSED and breaker.failures == 0


def test_breaker_half_open_admits_single_probe():
    """While a trial is in flight, further allow() calls are rejected;
    an unresolved trial goes stale after another cool-down."""
    t = {"now": 0.0}
    breaker = CircuitBreaker(1, 10.0, clock=lambda: t["now"])
    breaker.record_failure()
    assert breaker.state == OPEN
    t["now"] = 10.0
    assert breaker.allow()  # cooldown elapsed: the one trial
    assert breaker.state == HALF_OPEN
    assert not breaker.allow()  # a burst during the trial is rejected
    assert breaker.retry_after_s == pytest.approx(10.0)
    t["now"] = 15.0
    assert not breaker.allow()
    t["now"] = 20.0
    assert breaker.allow()  # stale trial: a fresh probe is admitted
    breaker.record_success()
    assert breaker.state == CLOSED and breaker.allow()


def test_breaker_opens_under_outage_and_resets_after_cooldown(cc):
    """A persistent tenant outage opens the breaker at the threshold;
    after cool-down a trial batch closes it again."""
    injector = FaultInjector(
        5, transient_attempts=100, outages={"square": (0, 2)}
    )
    server = make_server(
        cc, injector=injector,
        max_attempts=2, breaker_threshold=3, breaker_cooldown_s=0.15,
        batch_window_s=0.001,
    )

    async def scenario():
        outcome = {"failed": 0}
        # Three sequential batches during the outage -> breaker opens.
        for _ in range(3):
            with pytest.raises(ServingError) as ei:
                await server.submit("square", 0.5)
            assert ei.value.code == "retries-exhausted"
            outcome["failed"] += 1
        with pytest.raises(CircuitOpenError):
            await server.submit("square", 0.5)
        outcome["state-open"] = server._tenants["square"].breaker.state
        # Other tenants are unaffected by square's breaker.
        affine = await server.submit("affine", 0.5)
        assert math.isclose(affine.real, 0.5, abs_tol=1e-4)
        # After the cool-down the outage window (batches 0-2) is over:
        # the half-open trial succeeds and the breaker closes.
        await asyncio.sleep(0.2)
        value = await server.submit("square", 0.5)
        outcome["state-after"] = server._tenants["square"].breaker.state
        outcome["value"] = value
        return outcome

    outcome = serve(server, scenario())
    assert outcome["state-open"] == OPEN
    assert outcome["state-after"] == CLOSED
    assert math.isclose(outcome["value"].real, 0.25, abs_tol=1e-4)
    assert injector.injected["outage"] >= 3


# -- config validation & loop survival -------------------------------------

def test_config_rejects_non_power_of_two_batch_cap():
    """A non-power-of-two cap would fail validate_slots on every batch;
    it is rejected at configuration time instead."""
    with pytest.raises(ValueError, match="power of two"):
        ServingConfig(max_batch_slots=3)
    with pytest.raises(ValueError, match="power of two"):
        ServingConfig(max_batch_slots=0)
    assert ServingConfig(max_batch_slots=4).max_batch_slots == 4


def test_history_collections_are_bounded(cc):
    server = make_server(cc)
    assert server.batch_log.maxlen == server.config.max_recorded_batches
    assert server.latencies_s.maxlen == server.config.max_latency_samples


def test_unexpected_error_rejects_batch_and_keeps_loop_alive(cc):
    """An exception escaping the per-batch recovery machinery must
    surface as a structured internal-error rejection, not kill the
    scheduler loop and strand every later submission."""
    server = make_server(cc)
    real_encrypt = server.cc.encrypt
    boom = {"armed": True}

    def flaky_encrypt(*args, **kwargs):
        if boom["armed"]:
            boom["armed"] = False
            raise RuntimeError("encrypt exploded")
        return real_encrypt(*args, **kwargs)

    async def scenario():
        server.cc.encrypt = flaky_encrypt
        try:
            with pytest.raises(ServingError) as ei:
                await server.submit("affine", 0.5)
            assert ei.value.code == "internal-error"
            assert "RuntimeError" in str(ei.value)
            # the loop survived: the next submission is served normally
            value = await server.submit("affine", 0.5)
            assert math.isclose(value.real, 0.5, abs_tol=1e-4)
        finally:
            del server.cc.encrypt

    serve(server, scenario())
    assert server.metrics["internal_errors"] == 1
    assert server.metrics["served"] == 1


# -- step-level error context ----------------------------------------------

def test_plan_execution_error_names_step_and_tag(cc):
    build = make_affine(cc)
    tracer = cc._tracer()
    plan = tracer.compile(build(tracer, tracer.input("x", scale=SCALE)))
    ct = cc.encrypt([0.5] * 32, scale=SCALE)

    def explode(site, payload):
        if site == "rns_poly.rescale":
            raise InjectedFaultError("kaboom")

    hooks.install(explode)
    try:
        with pytest.raises(PlanExecutionError) as ei:
            plan.run(ct, tag="tenant-x/42")
    finally:
        hooks.uninstall()
    err = ei.value
    assert isinstance(err.__cause__, InjectedFaultError)
    assert err.step_index >= 0
    assert "rescale" in err.label or "multiply" in err.label
    assert err.tag == "tenant-x/42"
    assert "tenant-x/42" in str(err)


def test_input_validation_keeps_parameter_error(cc):
    """Input-step failures keep their precise ParameterError contract."""
    build = make_affine(cc)
    tracer = cc._tracer()
    plan = tracer.compile(build(tracer, tracer.input("x", scale=SCALE)))
    with pytest.raises(ParameterError, match="arrives at scale"):
        plan.run(cc.encrypt([0.5] * 32, scale=2.0**29))


# -- fingerprints ----------------------------------------------------------

def test_data_fingerprint_is_position_sensitive():
    a = np.arange(16, dtype=np.uint64).reshape(4, 4)
    assert data_fingerprint(a) == data_fingerprint(a.copy())
    swapped = a.copy()
    swapped[0, 0], swapped[0, 1] = swapped[0, 1], swapped[0, 0]
    assert data_fingerprint(swapped) != data_fingerprint(a)
    assert data_fingerprint(a[:2]) != data_fingerprint(a)


def test_ciphertext_fingerprint_detects_each_component(cc):
    ct = cc.encrypt([0.1, 0.2], scale=SCALE, num_slots=2)
    base = ct.fingerprint()
    assert base == ct.fingerprint()
    ct.c1.limbs[1, 3] ^= np.uint64(1)
    ct.c1.state.invalidate()
    assert ct.fingerprint() != base
    ct.c1.limbs[1, 3] ^= np.uint64(1)
    ct.c1.state.invalidate()
    assert ct.fingerprint() == base
    ct.state.scale *= 2.0
    assert ct.fingerprint() != base


def test_plan_fingerprint_covers_prepared_operands(cc):
    """Corrupting the backend-prepared constant array — the buffer the
    pointwise kernel actually reads — must change the plan fingerprint
    even though the source limbs are untouched."""
    build = make_affine(cc)
    tracer = cc._tracer()
    plan = tracer.compile(build(tracer, tracer.input("x", scale=SCALE)))
    base = plan.fingerprint()
    assert base == plan.fingerprint()
    corrupted = FaultInjector(0).corrupt_plan(plan)
    assert corrupted
    assert plan.fingerprint() != base


def test_rebuilt_plan_is_bit_identical(cc):
    """The rebuild path must reproduce the exact original computation."""
    server = make_server(cc)
    tenant = server._tenants["affine"]
    ct = cc.encrypt([0.3] * 4, scale=SCALE, num_slots=4)
    before = server.cc.decrypt(tenant.plan.run(ct), num_slots=4)
    fp = tenant.plan_fp
    server._rebuild_plan(tenant)
    assert tenant.plan_fp == fp
    after = server.cc.decrypt(tenant.plan.run(ct), num_slots=4)
    assert np.array_equal(before, after)


# -- lifecycle -------------------------------------------------------------

def test_server_survives_multiple_asyncio_runs(cc):
    server = make_server(cc)
    first = serve(server, server.submit("affine", 0.1))
    second = serve(server, server.submit("affine", 0.1))
    # Encryption is randomized, so only the decoded values agree.
    assert math.isclose(first.real, 0.3, abs_tol=1e-4)
    assert math.isclose(second.real, 0.3, abs_tol=1e-4)
    assert server.metrics["served"] == 2


def test_stop_drains_pending_requests(cc):
    server = make_server(cc, batch_window_s=0.05)

    async def fire():
        await server.start()
        fut = asyncio.ensure_future(server.submit("square", 0.6))
        await asyncio.sleep(0)  # enqueued, not yet batched
        await server.stop()  # must drain, not strand
        assert fut.done()
        return await fut

    value = asyncio.run(asyncio.wait_for(fire(), 60.0))
    assert math.isclose(value.real, 0.36, abs_tol=1e-4)


def test_latency_metrics_recorded(cc):
    server = make_server(cc)
    start = time.monotonic()
    serve(server, server.submit("affine", 0.0))
    wall = time.monotonic() - start
    assert len(server.latencies_s) == 1
    assert 0.0 < server.latencies_s[0] <= wall
