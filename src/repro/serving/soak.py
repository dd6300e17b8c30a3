"""Seeded fault-injection soak: the serving layer's acceptance test.

Stands up a small CKKS context, registers two real tenant circuits (and
demonstrates admission control rejecting a broken third), then drives a
synthetic load — 1000 requests by default — through
:class:`~repro.serving.scheduler.CkksServer` while the seeded
:class:`~repro.serving.faults.FaultInjector` flips ciphertext bits,
corrupts plan constants and request payloads, raises kernel faults,
stalls executions past the watchdog, and exhausts noise budgets on a
deterministic schedule.

The run then *asserts* the serving contract:

* **zero wrong answers** — every delivered slot value bit-matches a
  clean replay of its batch (:func:`~repro.serving.loadgen.
  verify_delivered`) *and* approximates the per-request unbatched
  reference (each payload individually encrypted at ``num_slots=1``
  and run through the same plan);
* **zero unstructured failures** — every rejection is a
  :class:`~repro.errors.ServingError` naming its cause;
* **zero deadlocks** — injected stalls are cut short by the watchdog
  (which must have fired) and the whole run is bounded by an outer
  timeout;
* **every injected fault** was either recovered by retry (the request
  still delivered, correctly) or surfaced as a structured rejection, and
  met its detector: per kind in :data:`DETECTORS`, the detections are
  no fewer than the injections.

Run it directly::

    PYTHONPATH=src python -m repro.serving.soak --requests 1000 \\
        --seed 7 --rate 0.05 --json soak_report.json

Exit status is non-zero on any contract violation; ``--json`` writes
the tallies (including p99 latency and requests/sec) for CI artifacts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro.context import CkksContext
from repro.errors import AdmissionError
from repro.poly.backends import BACKEND_TIERS
from repro.serving.faults import FaultInjector
from repro.serving.loadgen import draw_specs, run_load, verify_delivered
from repro.serving.scheduler import CkksServer, ServingConfig

__all__ = ["DETECTORS", "build_server", "main", "soak"]

#: encoding scale Delta, matched to the 30-bit rescale primes so one
#: rescale lands back near Delta with full precision
SCALE_BITS = 30
SCALE = 2.0**SCALE_BITS


#: fault kind -> the detection (``CkksServer.faults_detected``) that
#: must account for each injection of it
DETECTORS = {
    "corrupt-payload": "corrupted-payload",
    "corrupt-plan": "plan-corruption",
    "bitflip-ct": "input-corruption",
    "kernel-error": "kernel-fault",
    "stall": "watchdog-timeout",
    "noise": "budget-exhausted",
}

#: tenant name -> plaintext reference function (the unbatched oracle)
TENANTS = {
    "affine": lambda v: 0.5 * v + 0.25,
    "square": lambda v: v * v,
}


def make_builds(cc: CkksContext) -> dict:
    """Tenant build recipes, closed over the context's encoder.

    Constants are encoded *inside* each build at ``num_slots=1`` so (a)
    they replicate uniformly under whatever sparse packing the batcher
    picks, and (b) a plan rebuild after corruption re-encodes them
    cleanly from source values.
    """

    def affine(tracer, x):
        # y = 0.5 * x + 0.25: plaintext product, constant folded in at
        # the product scale (the encoder works at the top level), then
        # one rescale.
        half = cc.encoder.encode([0.5], SCALE, num_slots=1)
        prod = tracer.multiply_plain(x, half)
        bump = cc.encoder.encode([0.25], prod.scale, num_slots=1)
        return tracer.rescale(tracer.add_plain(prod, bump))

    def square(tracer, x):
        # y = x * x: ciphertext product, relinearized, rescaled.
        return tracer.rescale(tracer.multiply(x, x))

    def too_deep(tracer, x):
        # Squares past the modulus chain: rejected at admission.
        y = x
        for _ in range(8):
            y = tracer.rescale(tracer.multiply(y, y))
        return y

    return {"affine": affine, "square": square, "too-deep": too_deep}


def build_server(
    *, seed: int, rate: float, watchdog_s: float = 0.5, stall_s: float = 1.0,
    backend: str | None = None, checked: bool | None = None,
) -> CkksServer:
    """A soak-ready server: small ring, two tenants, armed injector.

    ``backend`` picks the kernel execution tier (numpy / compiled) and
    is threaded through both the context (which dispatches on it) and
    the config (which asserts the two agree), so a soak run exercises
    the full serving path on that tier.
    """
    cc = CkksContext(
        ring_degree=256, num_main=4, num_aux=3, dnum=2, seed=seed,
        backend=backend, checked=checked,
    )
    injector = FaultInjector(seed, rate=rate, stall_s=stall_s)
    config = ServingConfig(
        max_queue=512,
        batch_window_s=0.005,
        default_deadline_s=10.0,
        watchdog_s=watchdog_s,
        max_attempts=4,
        breaker_cooldown_s=0.1,
        seed=seed,
        backend=backend,
    )
    server = CkksServer(cc, config=config, injector=injector)
    builds = make_builds(cc)
    for name in TENANTS:
        server.register_tenant(name, builds[name], scale_bits=SCALE_BITS)
    return server


def _check_admission(server: CkksServer) -> str:
    """Admission control must reject the over-deep tenant; return its code."""
    try:
        server.register_tenant(
            "too-deep", make_builds(server.cc)["too-deep"],
            scale_bits=SCALE_BITS,
        )
    except AdmissionError as exc:
        return exc.code
    raise AssertionError("admission control accepted an over-deep circuit")


def _reference_errors(server: CkksServer, specs, results) -> list[str]:
    """Delivered values must approximate the unbatched per-request path."""
    problems = []
    for index, spec in enumerate(specs):
        value = results.get(index)
        if not isinstance(value, complex):
            continue
        expected = TENANTS[spec.tenant](spec.value)
        if abs(value.real - expected) > 1e-2 or abs(value.imag) > 1e-2:
            problems.append(
                f"request {index} ({spec.tenant}, payload {spec.value}): "
                f"delivered {value:.4f}, reference {expected:.4f}"
            )
    return problems


def soak(
    *,
    requests: int = 1000,
    seed: int = 7,
    rate: float = 0.05,
    spread_s: float = 2.0,
    timeout_s: float = 300.0,
    backend: str | None = None,
    checked: bool | None = None,
) -> dict:
    """Run the full soak; return the report dict; raise on any violation."""
    server = build_server(seed=seed, rate=rate, backend=backend, checked=checked)
    admission_code = _check_admission(server)
    specs = draw_specs(
        tenants=sorted(TENANTS),
        requests=requests,
        seed=seed,
        spread_s=spread_s,
        deadline_s=server.config.default_deadline_s,
    )

    async def driven():
        await server.start()
        try:
            return await run_load(server, specs)
        finally:
            await server.stop()

    # The outer bound is the deadlock detector: injected stalls must be
    # cut short by the watchdog, never wedge the loop.
    report = asyncio.run(asyncio.wait_for(driven(), timeout_s))

    wrong_bits = verify_delivered(server)
    ref_problems = _reference_errors(server, specs, report.results)
    injected = dict(server.injector.injected)
    detected = dict(server.faults_detected)
    summary = {
        "requests": requests,
        "seed": seed,
        "fault_rate": rate,
        "backend": server.backend,
        "checked": bool(getattr(server.cc, "checked", False)),
        "delivered": report.delivered,
        "rejected": dict(report.rejected),
        "unstructured_failures": report.unstructured,
        "wrong_answers_bitmatch": wrong_bits,
        "wrong_answers_reference": len(ref_problems),
        "admission_rejection_code": admission_code,
        "faults_injected": injected,
        "faults_detected": detected,
        "watchdog_fires": int(server.metrics["watchdog_fires"]),
        "retries": int(server.metrics["retries"]),
        "plan_rebuilds": int(server.metrics["plan_rebuilds"]),
        "batches": int(server.metrics["batches"]),
        "requests_per_s": round(report.requests_per_s, 2),
        "p50_ms": round(report.p50_s * 1e3, 3),
        "p99_ms": round(report.p99_s * 1e3, 3),
        "wall_s": round(report.wall_s, 2),
    }

    failures = []
    if wrong_bits:
        failures.append(f"{wrong_bits} delivered slots failed bit-match replay")
    failures.extend(ref_problems[:5])
    if report.unstructured:
        failures.append(
            f"{report.unstructured} unstructured (non-ServingError) failures"
        )
    if report.delivered + sum(report.rejected.values()) != requests:
        failures.append("some requests neither delivered nor rejected")
    injected_total = sum(server.injector.injected.values())
    min_faults = max(1, int(np.ceil(0.01 * requests)))
    if rate > 0 and injected_total < min_faults:
        failures.append(
            f"only {injected_total} faults injected (< {min_faults}); "
            "the soak did not stress recovery"
        )
    if rate > 0 and "stall" in injected and not server.metrics["watchdog_fires"]:
        failures.append("stalls were injected but the watchdog never fired")
    for kind, detector in DETECTORS.items():
        if detected.get(detector, 0) < injected.get(kind, 0):
            failures.append(
                f"{injected[kind]} {kind} faults injected, "
                f"{detected.get(detector, 0)} {detector} detected"
            )
    summary["ok"] = not failures
    summary["failures"] = failures
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rate", type=float, default=0.05)
    parser.add_argument("--spread", type=float, default=2.0,
                        help="arrival spread in seconds")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="outer deadlock bound in seconds")
    parser.add_argument("--json", type=str, default=None,
                        help="write the report dict to this path")
    parser.add_argument("--backend", type=str, default=None,
                        choices=BACKEND_TIERS,
                        help="kernel execution tier (default: REPRO_BACKEND "
                             "or numpy)")
    parser.add_argument("--checked", action="store_true", default=None,
                        help="run under sanitizer-checked execution "
                             "(default: REPRO_CHECKED)")
    args = parser.parse_args(argv)
    summary = soak(
        requests=args.requests, seed=args.seed, rate=args.rate,
        spread_s=args.spread, timeout_s=args.timeout, backend=args.backend,
        checked=args.checked,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not summary["ok"]:
        for line in summary["failures"]:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"soak OK: {summary['delivered']}/{summary['requests']} delivered, "
        f"0 wrong answers, {sum(summary['faults_injected'].values())} faults "
        f"injected, {summary['watchdog_fires']} watchdog fires, "
        f"p99 {summary['p99_ms']}ms, {summary['requests_per_s']} req/s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
