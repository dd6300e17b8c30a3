"""The three benchmark workloads: set-up, seeded inputs, request loops, oracles.

``circuit-n4096``
    Compiled tier, N=4096, 12 limbs, dnum=3.  ``cc.compile`` of a 64x64
    matvec, a degree-3 polynomial and a rescale; one client in a closed
    loop times encrypt -> ``plan.run`` -> decrypt.
``eager-n1024``
    Numpy tier, N=1024, 12 limbs.  The same matrix and polynomial through
    eager ``cc.matvec`` -> ``cc.poly_eval`` -> ``evaluator.rescale``.
``serve-mix``
    Compiled tier, N=256, 11 limbs.  A ``CkksServer`` serving the soak's
    scalar tenants ``affine`` and ``square`` plus the iris MLP as a
    vector tenant, one MLP request in every ten, in rounds that each
    run a fixed-rate open-loop Poisson phase (latency, timed from each
    request's scheduled send time), then a closed loop with a fixed
    number of outstanding requests (throughput).

Every input comes from the run's seed; the program sees only those
inputs.  Every delivered output is checked against a plaintext numpy
reference.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro import CkksContext
from repro.errors import ServingError
from repro.ml import load_iris, load_iris_split
from repro.serving import CkksServer, ServingConfig
from repro.serving.loadgen import verify_delivered
from repro.serving.soak import SCALE_BITS, make_builds

#: matvec dimension and ascending polynomial coefficients shared by the
#: two circuit workloads
DIM = 64
COEFFS = (0.5, -1.0, 0.25, 0.125)


def _poly(y: np.ndarray) -> np.ndarray:
    return sum(c * y**k for k, c in enumerate(COEFFS))


@dataclass
class Outcome:
    """One request as the client saw it."""

    tenant: str
    error: float | None = None      #: max |delivered - reference|, None if rejected
    scheduled: float = 0.0          #: perf_counter time it was due (open loop)
    started: float = 0.0            #: perf_counter time the client sent it
    done: float = 0.0
    value: object = None            #: the delivered object (links to batch_log)


@dataclass
class Measured:
    """What one measured phase produced."""

    latencies_s: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    throughput_rps: float = 0.0
    #: perf_counter spans of the phases that gave the latencies
    windows: list = field(default_factory=list)


# -- circuit workloads ---------------------------------------------------------
class CircuitJob:
    """Matvec -> polynomial -> rescale, compiled or eager; one client."""

    #: a wrong answer errs by more than this (outputs carry ~17 bits)
    tolerance = 2.0**-10

    def __init__(self, name: str, ring_degree: int, tier: str, compiled: bool):
        self.name = name
        self.ring_degree = ring_degree
        self.tier = tier
        self.compiled = compiled

    def setup(self, seed: int):
        rng = np.random.default_rng((seed, 0))
        # entries in [-1/8, 1/8] keep M @ z near [-1, 1] for z in [-1, 1]^64
        matrix = rng.uniform(-1.0, 1.0, (DIM, DIM)) / 8
        cc = CkksContext(
            ring_degree=self.ring_degree, num_main=11, num_aux=5, dnum=3,
            seed=seed, backend=self.tier,
            rotations=CkksContext.matvec_rotations(DIM),
        )
        plan = None
        if self.compiled:
            plan = cc.compile(
                lambda p, x: p.rescale(p.poly_eval(p.matvec(x, matrix), COEFFS))
            )
            report = plan.analyze()
            if not report.ok:
                raise RuntimeError(f"{self.name}: plan fails analysis")
        return {"cc": cc, "plan": plan, "matrix": matrix}

    def plans(self, inst) -> list:
        return [] if inst["plan"] is None else [inst["plan"]]

    def request(self, inst, z):
        cc = inst["cc"]
        ct = cc.encrypt(z, num_slots=DIM)
        if inst["plan"] is not None:
            out = inst["plan"].run(ct)
        else:
            out = cc.evaluator.rescale(
                cc.poly_eval(cc.matvec(ct, inst["matrix"]), COEFFS)
            )
        return cc.decrypt(out, num_slots=DIM)

    def error(self, inst, z, got) -> float:
        return float(np.max(np.abs(got - _poly(inst["matrix"] @ z))))

    def warm_up(self, inst, seed: int) -> list:
        rng = np.random.default_rng((seed, 1))
        out = []
        for _ in range(2):
            z = rng.uniform(-1.0, 1.0, DIM)
            out.append(Outcome(self.name, self.error(inst, z, self.request(inst, z))))
        return out

    def measure(self, inst, seed: int, seconds: float, tracer=None) -> Measured:
        rng = np.random.default_rng((seed, 2))
        res = Measured()
        inputs = []
        start = time.perf_counter()
        stop_at = start + seconds
        now = start
        while now < stop_at:
            z = rng.uniform(-1.0, 1.0, DIM)
            t0 = time.perf_counter()
            if tracer is None:
                got = self.request(inst, z)
            else:
                with tracer.span("request", request=len(inputs)):
                    got = self.request(inst, z)
            now = time.perf_counter()
            res.latencies_s.append(now - t0)
            inputs.append((z, got))
        res.windows.append((start, now))
        res.throughput_rps = len(inputs) / (now - start)
        # check outside the timed loop
        res.outcomes = [
            Outcome(self.name, self.error(inst, z, got)) for z, got in inputs
        ]
        return res

    def verify(self, inst) -> int:
        return 0


# -- mixed-tenant serving ------------------------------------------------------
SCALAR_REFS = {
    "affine": lambda v: 0.5 * v + 0.25,
    "square": lambda v: v * v,
}


class ServeMix:
    """Mixed-tenant CKKS serving, open and closed loop in alternating rounds."""

    name = "serve-mix"
    tier = "compiled"
    #: a wrong answer errs by more than this (outputs carry ~17 bits)
    tolerance = 2.0**-8
    #: open-loop arrival rate (requests/s), set well below the knee
    rate_rps = 40.0
    #: outstanding requests in the closed-loop phase
    outstanding = 32
    #: share of the run's seconds given to the open-loop phase
    open_share = 0.6
    #: open/closed phase pairs per run: the host's speed drifts in phases
    #: of seconds, so each metric samples the whole run, not one end of it
    rounds = 4

    def __init__(self):
        features, _ = load_iris()
        split = load_iris_split(seed=0)
        self._pool = (features - split.mean) / split.std

    def setup(self, seed: int):
        cc = CkksContext(
            ring_degree=256, num_main=10, num_aux=7, dnum=2, seed=seed,
            backend=self.tier, rotations=(1, 2),
        )
        split = load_iris_split(seed=0)
        model = cc.model("mlp", split.x_train, split.y_train, degree=3)
        server = CkksServer(cc, config=ServingConfig(
            max_queue=4096,
            default_deadline_s=60.0,
            watchdog_s=30.0,
            seed=seed,
            backend=self.tier,
            max_recorded_batches=1 << 16,
            max_latency_samples=1 << 16,
        ))
        builds = make_builds(cc)
        for tenant in SCALAR_REFS:
            server.register_tenant(tenant, builds[tenant], scale_bits=SCALE_BITS)
        server.register_tenant(
            "mlp", model.build, scale_bits=model.scale_bits, input_dim=model.dim
        )
        return {"cc": cc, "model": model, "server": server}

    def plans(self, inst) -> list:
        server = inst["server"]
        return [server._tenants[t].plan for t in ("affine", "square", "mlp")]

    # -- request stream -------------------------------------------------------
    def _stream(self, rng):
        """Endless seeded requests, one MLP request in every block of ten
        (so the mix, and the work it carries, does not vary by seed)."""
        while True:
            block = ["mlp"] + [
                "affine" if rng.random() < 0.5 else "square" for _ in range(9)
            ]
            for i in rng.permutation(len(block)):
                if block[i] == "mlp":
                    yield "mlp", self._pool[int(rng.integers(len(self._pool)))]
                else:
                    yield block[i], float(rng.uniform(-1.0, 1.0))

    def error(self, inst, tenant, payload, value) -> float:
        if tenant == "mlp":
            ref = inst["model"].predict_plain(payload)[0]
            return float(np.max(np.abs(np.asarray(value) - ref)))
        return abs(value - SCALAR_REFS[tenant](payload))

    async def _send(self, inst, tenant, payload, out: Outcome) -> None:
        out.started = time.perf_counter()
        try:
            value = await inst["server"].submit(tenant, payload)
        except ServingError:
            out.done = time.perf_counter()
            return
        out.done = time.perf_counter()
        out.value = value
        out.error = self.error(inst, tenant, payload, value)

    def _serve(self, inst, body):
        """Run ``body`` on a fresh loop with a one-worker executor."""

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_default_executor(ThreadPoolExecutor(max_workers=1))
            server = inst["server"]
            await server.start()
            try:
                return await body()
            finally:
                await server.stop()

        return asyncio.run(main())

    def warm_up(self, inst, seed: int) -> list:
        rng = np.random.default_rng((seed, 1))
        outcomes = []

        async def body():
            # bursts cover every sparse packing width up to the 32-slot cap
            for k in (1, 2, 3, 5, 9, 17, 32):
                burst = []
                for tenant in SCALAR_REFS:
                    for _ in range(k):
                        v = float(rng.uniform(-1.0, 1.0))
                        o = Outcome(tenant)
                        outcomes.append(o)
                        burst.append(self._send(inst, tenant, v, o))
                await asyncio.gather(*burst)
            for _ in range(4):
                row = self._pool[int(rng.integers(len(self._pool)))]
                o = Outcome("mlp")
                outcomes.append(o)
                await self._send(inst, "mlp", row, o)

        self._serve(inst, body)
        return outcomes

    def measure(self, inst, seed: int, seconds: float, tracer=None) -> Measured:
        open_s = seconds * self.open_share / self.rounds
        closed_s = seconds * (1.0 - self.open_share) / self.rounds
        rng = np.random.default_rng((seed, 2))
        # the open-loop schedules are drawn up front: Poisson arrivals
        stream = self._stream(rng)
        schedules = []
        for _ in range(self.rounds):
            schedule = []
            at = float(rng.exponential(1.0 / self.rate_rps))
            while at < open_s:
                schedule.append((at, *next(stream)))
                at += float(rng.exponential(1.0 / self.rate_rps))
            schedules.append(schedule)
        res = Measured()
        completed = 0

        async def open_phase(schedule):
            t0 = time.perf_counter() + 0.01
            tasks = []
            for at, tenant, payload in schedule:
                due = t0 + at
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                o = Outcome(tenant, scheduled=due)
                res.outcomes.append(o)
                tasks.append(asyncio.create_task(
                    self._send(inst, tenant, payload, o)
                ))
            await asyncio.gather(*tasks)
            res.windows.append((t0, time.perf_counter()))

        async def closed_phase(r):
            stop_at = time.perf_counter() + closed_s

            async def worker(w):
                nonlocal completed
                wstream = self._stream(np.random.default_rng((seed, 3, r, w)))
                while time.perf_counter() < stop_at:
                    tenant, payload = next(wstream)
                    o = Outcome(tenant)
                    res.outcomes.append(o)
                    await self._send(inst, tenant, payload, o)
                    if o.error is not None and o.done <= stop_at:
                        completed += 1

            await asyncio.gather(*(worker(w) for w in range(self.outstanding)))

        async def body():
            config = inst["server"].config
            for r, schedule in enumerate(schedules):
                await open_phase(schedule)
                # Only the open-loop batches are kept for bit-exact replay:
                # the closed loop's batch count follows its throughput, and
                # so would the log's memory and with it peak RSS.
                config.record_batches = False
                try:
                    await closed_phase(r)
                finally:
                    config.record_batches = True

        self._serve(inst, body)
        res.throughput_rps = completed / (closed_s * self.rounds)
        res.latencies_s = [
            o.done - o.scheduled for o in res.outcomes
            if o.scheduled and o.error is not None
        ]
        return res

    def verify(self, inst) -> int:
        """Bit-exact replay of every recorded batch; returns mismatches.

        ``verify_delivered`` compares each delivered value as one complex
        slot, so it replays the scalar tenants' batches; the MLP's vector
        deliveries are replayed here the same way and compared whole.
        """
        server = inst["server"]
        log = list(server.batch_log)
        if len(log) >= server.batch_log.maxlen:
            raise RuntimeError("batch log may have evicted batches")
        scalar = SimpleNamespace(
            batch_log=[r for r in log if r.tenant != "mlp"],
            _tenants=server._tenants, cc=server.cc,
        )
        wrong = verify_delivered(scalar)
        plan = server._tenants["mlp"].plan
        for rec in log:
            if rec.tenant != "mlp":
                continue
            out = plan.run(rec.ct, tag=f"verify/{rec.batch_index}")
            vals = server.cc.decrypt(out, num_slots=rec.slots)
            for _rid, _slot, value in rec.delivered:
                wrong += not np.array_equal(vals[: len(value)], value)
        return wrong


WORKLOADS = {
    "circuit-n4096": lambda: CircuitJob("circuit-n4096", 4096, "compiled", True),
    "eager-n1024": lambda: CircuitJob("eager-n1024", 1024, "numpy", False),
    "serve-mix": ServeMix,
}
