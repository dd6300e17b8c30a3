"""Seeded fault-injection tests: recovery against real induced failures.

Each test forces a specific fault kind (via ``FaultInjector(forced=...)``)
on known request ids and asserts the matching detection + recovery path:
the fault actually fires inside real kernels/queues — bits genuinely
flip, kernels genuinely raise, executions genuinely stall — and the
delivered results are still verified bit-exactly against a clean replay.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.context import CkksContext
from repro.errors import DeadlineExceededError, ServingError
from repro.serving import (
    CkksServer,
    FaultInjector,
    ServingConfig,
    verify_delivered,
)
from repro.serving.loadgen import draw_specs, run_load
from repro.serving.soak import build_server, make_builds, soak

SCALE_BITS = 30
SCALE = 2.0**SCALE_BITS


@pytest.fixture(scope="module")
def cc() -> CkksContext:
    return CkksContext(ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=23)


def make_server(cc, injector, **overrides) -> CkksServer:
    defaults = dict(
        batch_window_s=0.02,
        default_deadline_s=8.0,
        watchdog_s=0.4,
        max_attempts=4,
        backoff_base_s=0.001,
        backoff_cap_s=0.005,
        breaker_cooldown_s=0.2,
        seed=5,
    )
    defaults.update(overrides)
    server = CkksServer(cc, config=ServingConfig(**defaults),
                        injector=injector)
    builds = make_builds(cc)
    server.register_tenant("affine", builds["affine"], scale_bits=SCALE_BITS)
    server.register_tenant("square", builds["square"], scale_bits=SCALE_BITS)
    return server


def serve(server, coro):
    async def driver():
        await server.start()
        try:
            return await coro
        finally:
            await server.stop()

    return asyncio.run(asyncio.wait_for(driver(), 60.0))


def gather_batch(server, tenant, payloads):
    """Submit all payloads concurrently (one batch window), gather results."""

    async def fire():
        return await asyncio.gather(
            *(server.submit(tenant, v) for v in payloads),
            return_exceptions=True,
        )

    return serve(server, fire())


def test_fault_draws_are_deterministic():
    a = FaultInjector(42, rate=0.3)
    b = FaultInjector(42, rate=0.3)
    assert [a.draw(i) for i in range(200)] == [b.draw(i) for i in range(200)]
    c = FaultInjector(43, rate=0.3)
    assert [a.draw(i) for i in range(200)] != [c.draw(i) for i in range(200)]


def test_corrupted_payload_fails_alone_others_deliver(cc):
    """Satellite (a): the corrupted co-batched request is rejected with a
    structured error while every other slot returns a correct result."""
    injector = FaultInjector(1, forced={1: "corrupt-payload"})
    server = make_server(cc, injector)
    payloads = [0.1, 0.2, 0.3, 0.4]  # request ids 0..3, one shared batch
    results = gather_batch(server, "square", payloads)
    assert isinstance(results[1], ServingError)
    assert results[1].code == "corrupted-payload"
    assert results[1].request_id == 1
    for v, got in [(p, r) for i, (p, r) in
                   enumerate(zip(payloads, results)) if i != 1]:
        assert math.isclose(got.real, v * v, abs_tol=1e-4), (v, got)
    assert server.faults_detected["corrupted-payload"] == 1
    assert injector.injected["corrupt-payload"] == 1
    assert verify_delivered(server) == 0


def test_payload_corruption_leaves_the_callers_array_alone(cc):
    """The server queues a copy of a vector payload: the injected bit
    flip corrupts the queued copy, which the checksum rejects, and never
    the array the caller submitted."""
    injector = FaultInjector(1, forced={0: "corrupt-payload"})
    server = make_server(cc, injector)
    server.register_tenant(
        "vector", make_builds(cc)["affine"], scale_bits=SCALE_BITS,
        input_dim=4,
    )
    payload = np.array([0.1, 0.2, 0.3, 0.4])
    submitted = payload.copy()
    with pytest.raises(ServingError) as ei:
        serve(server, server.submit("vector", payload))
    assert ei.value.code == "corrupted-payload"
    assert injector.injected["corrupt-payload"] == 1
    assert np.array_equal(payload.view(np.uint64), submitted.view(np.uint64))


def test_expired_request_carries_no_payload_corruption(cc):
    """A ``corrupt-payload`` draw fires at the batch cut: a request that
    expires first is rejected on its deadline and never corrupted, so
    the injection count still meets the checksum's detections."""
    injector = FaultInjector(1, forced={0: "corrupt-payload"})
    server = make_server(cc, injector)
    with pytest.raises(DeadlineExceededError):  # due at once: expired at the cut
        serve(server, server.submit("square", 0.1, deadline_s=0.0))
    assert injector.planned[0] == "corrupt-payload"
    assert injector.injected["corrupt-payload"] == 0
    assert server.faults_detected["corrupted-payload"] == 0


def test_retry_recovers_after_transient_kernel_faults(cc):
    """Satellite (b): N transient kernel faults, then success via backoff."""
    injector = FaultInjector(
        2, forced={0: "kernel-error"}, transient_attempts=2
    )
    server = make_server(cc, injector)
    value = serve(server, server.submit("affine", 0.6))
    assert math.isclose(value.real, 0.5 * 0.6 + 0.25, abs_tol=1e-4)
    # Two attempts faulted inside batch_ntt.forward, the third delivered.
    assert injector.injected["kernel-error"] == 2
    assert server.faults_detected["kernel-fault"] == 2
    assert server.metrics["retries"] == 2
    assert server.metrics["served"] == 1
    assert verify_delivered(server) == 0


def test_bitflip_ct_detected_and_retried(cc):
    """A bit flipped mid-execution in the input ciphertext is caught by
    the fingerprint re-check; the tainted result is discarded."""
    injector = FaultInjector(3, forced={0: "bitflip-ct"})
    server = make_server(cc, injector)
    value = serve(server, server.submit("square", 0.8))
    assert math.isclose(value.real, 0.64, abs_tol=1e-4)
    assert injector.injected["bitflip-ct"] == 1
    assert server.faults_detected["input-corruption"] == 1
    assert server.metrics["retries"] == 1
    assert verify_delivered(server) == 0


def test_corrupt_plan_detected_and_rebuilt(cc):
    """A corrupted prepared constant is caught pre-dispatch by the plan
    fingerprint; the plan is rebuilt from the tenant recipe."""
    injector = FaultInjector(4)
    server = make_server(cc, injector)
    tenant = server._tenants["affine"]
    assert injector.corrupt_plan(tenant.plan)
    value = serve(server, server.submit("affine", -0.2))
    assert math.isclose(value.real, 0.5 * -0.2 + 0.25, abs_tol=1e-4)
    assert server.faults_detected["plan-corruption"] == 1
    assert server.metrics["plan_rebuilds"] == 1
    assert verify_delivered(server) == 0


def test_corrupt_plan_injected_before_dispatch(cc):
    """A request that draws ``corrupt-plan`` has its tenant plan corrupted
    just before dispatch; the fingerprint check catches it, the plan is
    rebuilt, and the delivered answer is correct."""
    injector = FaultInjector(9, forced={0: "corrupt-plan"})
    server = make_server(cc, injector)
    value = serve(server, server.submit("affine", 0.3))
    assert math.isclose(value.real, 0.5 * 0.3 + 0.25, abs_tol=1e-4)
    assert injector.injected["corrupt-plan"] == 1
    assert server.faults_detected["plan-corruption"] == 1
    assert server.metrics["plan_rebuilds"] == 1
    assert verify_delivered(server) == 0


def test_stall_trips_watchdog_then_recovers(cc):
    """An injected stall blows the per-attempt watchdog; the batch is
    retried on a rebuilt plan and still delivers correctly."""
    injector = FaultInjector(5, forced={0: "stall"}, stall_s=0.8)
    server = make_server(cc, injector, watchdog_s=0.3)
    value = serve(server, server.submit("square", 0.5))
    assert math.isclose(value.real, 0.25, abs_tol=1e-4)
    assert injector.injected["stall"] == 1
    assert server.metrics["watchdog_fires"] == 1
    assert server.metrics["plan_rebuilds"] == 1
    assert verify_delivered(server) == 0


def test_noise_exhaustion_guard_retries(cc):
    """A noise-budget-exhausted result is never delivered; the retry
    (fault gone) succeeds."""
    injector = FaultInjector(6, forced={0: "noise"})
    server = make_server(cc, injector)
    value = serve(server, server.submit("affine", 0.9))
    assert math.isclose(value.real, 0.5 * 0.9 + 0.25, abs_tol=1e-4)
    assert injector.injected["noise"] == 1
    assert server.faults_detected["budget-exhausted"] == 1
    assert server.metrics["retries"] == 1
    assert verify_delivered(server) == 0


def test_co_drawn_noise_and_kernel_error_reconcile(cc):
    """Two requests of one batch draw ``noise`` and ``kernel-error``: the
    kernel fault ends the run before any result exists, so no noise
    penalty is applied or counted, and each count meets its detector's."""
    injector = FaultInjector(10, forced={0: "noise", 1: "kernel-error"})
    server = make_server(cc, injector)
    results = gather_batch(server, "square", [0.3, -0.7])
    for v, got in zip([0.3, -0.7], results):
        assert math.isclose(got.real, v * v, abs_tol=1e-4), (v, got)
    assert injector.injected["kernel-error"] == 1
    assert server.faults_detected["kernel-fault"] == 1
    assert injector.injected["noise"] == 0
    assert server.faults_detected["budget-exhausted"] == 0
    assert server.metrics["retries"] == 1
    assert verify_delivered(server) == 0


def test_bitflip_before_a_kernel_fault_is_detected(cc):
    """On the affine tenant the bit flip (second step) lands before the
    first forward NTT (in the rescale, third step) raises: the input
    fingerprint is re-checked after the faulted run as well."""
    injector = FaultInjector(12, forced={0: "bitflip-ct", 1: "kernel-error"})
    server = make_server(cc, injector)
    results = gather_batch(server, "affine", [0.2, -0.4])
    for v, got in zip([0.2, -0.4], results):
        assert math.isclose(got.real, 0.5 * v + 0.25, abs_tol=1e-4), (v, got)
    assert injector.injected["bitflip-ct"] == 1
    assert server.faults_detected["input-corruption"] == 1
    assert injector.injected["kernel-error"] == 1
    assert server.faults_detected["kernel-fault"] == 1
    assert verify_delivered(server) == 0


def test_timed_out_run_is_disarmed_before_its_drain(cc):
    """A stall co-drawn with ``kernel-error``: the watchdog gives up on
    the run and disarms the hook, so the drained zombie thread reaches
    its first forward NTT without firing the kernel fault."""
    injector = FaultInjector(11, forced={0: "stall", 1: "kernel-error"},
                             stall_s=0.6)
    server = make_server(cc, injector, watchdog_s=0.2)
    results = gather_batch(server, "square", [0.5, 0.25])
    for v, got in zip([0.5, 0.25], results):
        assert math.isclose(got.real, v * v, abs_tol=1e-4), (v, got)
    assert injector.injected["stall"] == 1
    assert server.faults_detected["watchdog-timeout"] == 1
    assert injector.injected["kernel-error"] == 0
    assert server.faults_detected["kernel-fault"] == 0
    assert verify_delivered(server) == 0


def test_persistent_fault_exhausts_retries_structurally(cc):
    """A fault outliving every attempt yields a structured rejection
    naming the last observed cause — never a hang or a bare exception."""
    injector = FaultInjector(
        7, forced={0: "kernel-error"}, transient_attempts=99
    )
    server = make_server(cc, injector, max_attempts=3)
    with pytest.raises(ServingError) as ei:
        serve(server, server.submit("square", 0.5))
    assert ei.value.code == "retries-exhausted"
    assert "kernel-fault" in str(ei.value)
    assert injector.injected["kernel-error"] == 3
    assert server._tenants["square"].breaker.failures == 1


def test_mini_soak_under_mixed_faults(cc):
    """A seeded mixed-fault load: every request resolves, every delivered
    value bit-matches its replay and approximates its reference."""
    injector = FaultInjector(8, rate=0.2, stall_s=0.6)
    server = make_server(cc, injector, watchdog_s=0.3, max_queue=64)
    specs = draw_specs(
        tenants=["affine", "square"], requests=40, seed=8,
        spread_s=0.4, deadline_s=8.0,
    )
    report = serve(server, run_load(server, specs))
    assert report.unstructured == 0
    assert report.delivered + sum(report.rejected.values()) == 40
    assert verify_delivered(server) == 0
    refs = {"affine": lambda v: 0.5 * v + 0.25, "square": lambda v: v * v}
    for index, spec in enumerate(specs):
        value = report.results[index]
        if isinstance(value, complex):
            assert abs(value.real - refs[spec.tenant](spec.value)) < 1e-2
    assert sum(injector.injected.values()) > 0


def test_soak_entrypoint_smoke():
    """The CLI soak path end to end, scaled down (the 1000-request run
    is CI's serving-soak job)."""
    summary = soak(requests=25, seed=7, rate=0.12, spread_s=0.4,
                   timeout_s=120.0)
    assert summary["ok"], summary["failures"]
    assert summary["wrong_answers_bitmatch"] == 0
    assert summary["wrong_answers_reference"] == 0
    assert summary["unstructured_failures"] == 0
    assert summary["admission_rejection_code"] in (
        "trace-rejected", "analysis-rejected"
    )


def test_build_server_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultInjector(0, kinds=("gamma-ray",))
    with pytest.raises(ValueError):
        FaultInjector(0, rate=1.5)
    assert isinstance(build_server(seed=0, rate=0.0), CkksServer)


def test_injector_rng_never_fires_at_rate_zero():
    injector = FaultInjector(9, rate=0.0)
    assert all(injector.draw(i) is None for i in range(100))
    assert not injector.planned
    assert np.all([injector.injected[k] == 0 for k in injector.injected])
