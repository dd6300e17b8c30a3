"""Percentiles and the per-layer metrics computed from a traced run.

Per-layer times are *self* times (span minus children) averaged per
request, so on every workload

    trace.request_ms = sum(layer *_ms) + unattributed_ms
                       (+ serving.queue_wait_ms on serve-mix)

holds, and :func:`layer_metrics` checks it.  On the job workloads a
request is one encrypt -> run -> decrypt.  On serve-mix a request is
charged the spans of the batch it rode in (from the batch's encrypt
start to its decrypt end, on both the event-loop and executor threads),
and the rest of its latency, measured from its scheduled send time, is
queue wait.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict

#: layer span names, in report order; each gives ``<name>_ms`` and some
#: also ``_calls`` / ``_mb``
LAYERS = (
    "poly.ntt", "poly.key_switch", "poly.basis_conv", "poly.mac",
    "poly.pointwise", "poly.automorphism", "poly.rescale",
    "scheme.encode", "scheme.eager", "scheme.plan_run", "scheme.decode",
    "scheme.encrypt", "scheme.decrypt",
)
CALL_COUNTS = ("poly.ntt", "poly.key_switch", "poly.basis_conv", "poly.mac",
               "scheme.encode")
SETUP_STEPS = ("keygen", "compile", "analyze", "train", "register")

#: per-layer metric -> workloads it applies to (elsewhere it must read 0)
ONLY = {
    "scheme.eager_ms": {"eager-n1024"},
    "scheme.plan_run_ms": {"circuit-n4096", "serve-mix"},
    "plan.steps": {"circuit-n4096", "serve-mix"},
    "plan.int32_ops": {"circuit-n4096", "serve-mix"},
    "setup.compile_s": {"circuit-n4096", "serve-mix"},
    "setup.analyze_s": {"circuit-n4096", "serve-mix"},
    "setup.train_s": {"serve-mix"},
    "setup.register_s": {"serve-mix"},
    "serving.queue_wait_ms": {"serve-mix"},
    "serving.queue_wait_tail_ms": {"serve-mix"},
    "serving.slot_fill": {"serve-mix"},
    "serving.busy_share": {"serve-mix"},
    "loadgen.late_ms": {"serve-mix"},
}
#: applicable metrics that may legitimately read 0
MAY_BE_ZERO = {"serving.retries", "serving.rejected", "loadgen.late_ms",
               "trace.overhead_pct"}

_EPS = 1e-6


def tail_percentile(n: int) -> int:
    """Highest whole percentile (<= 99) with >= 10 of ``n`` samples above
    its nearest-rank value; 50 when there are too few samples."""
    for p in range(99, 49, -1):
        if math.ceil(p * n / 100) <= n - 10:
            return p
    return 50


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    vals = sorted(values)
    rank = max(1, math.ceil(p * len(vals) / 100))
    return vals[rank - 1]


class _Agg:
    """Self times, calls and bytes of the spans under one root or batch."""

    __slots__ = ("self_s", "calls", "nbytes", "glue_s")

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nbytes = defaultdict(int)
        self.glue_s = 0.0

    def add(self, other: "_Agg") -> None:
        for k, v in other.self_s.items():
            self.self_s[k] += v
        for k, v in other.calls.items():
            self.calls[k] += v
        for k, v in other.nbytes.items():
            self.nbytes[k] += v
        self.glue_s += other.glue_s

    @property
    def layer_s(self) -> float:
        return sum(self.self_s.values())


def _per_root(spans, problems: list) -> dict:
    aggs: dict[int, _Agg] = {}
    negative = 0
    for s in spans:
        if s.self_s < -_EPS:
            negative += 1
        agg = aggs.get(id(s.root()))
        if agg is None:
            agg = aggs[id(s.root())] = _Agg()
        if s.layer:
            agg.self_s[s.name] += s.self_s
            agg.calls[s.name] += 1
            agg.nbytes[s.name] += s.nbytes
        else:
            agg.glue_s += s.self_s
    if negative:
        problems.append(f"{negative} spans with children longer than themselves")
    return aggs


def _inside(t: float, windows) -> bool:
    return any(lo <= t <= hi for lo, hi in windows)


def _job_charges(spans, aggs, windows, problems):
    """(wall_s, agg) per measured request root."""
    charges = []
    for s in spans:
        if s.parent is None and s.name == "request" and _inside(s.start, windows):
            agg = aggs[id(s)]
            if abs(s.duration - agg.layer_s - agg.glue_s) > _EPS:
                problems.append("a request's self times do not sum to its wall")
            charges.append((s.duration, agg))
    return charges


def _serve_batches(spans, aggs, windows, problems):
    """{(tenant, batch, attempt): (interval_s, agg, plan_run_s)} for
    batches inside ``windows``."""
    roots = sorted(
        (s for s in spans if s.parent is None and _inside(s.start, windows)),
        key=lambda s: s.start,
    )
    starts = [s.start for s in roots]
    enc = [s for s in roots if s.name == "context.encrypt"]
    enc_starts = [s.start for s in enc]
    dec = [s for s in roots if s.name == "context.decrypt"]
    dec_starts = [s.start for s in dec]
    batches = {}
    for run in roots:
        if run.name != "scheme.plan_run" or not run.tag:
            continue
        tenant, _, ba = run.tag.rpartition("/")
        b, _, a = ba[1:].partition("a")
        i = bisect.bisect_right(enc_starts, run.start) - 1
        j = bisect.bisect_left(dec_starts, run.end)
        if i < 0 or j >= len(dec):
            problems.append(f"batch {run.tag} lacks its encrypt or decrypt")
            continue
        lo, hi = enc[i].start, dec[j].end
        agg = _Agg()
        last_end = lo
        k = bisect.bisect_left(starts, lo)
        while k < len(roots) and roots[k].start <= hi:
            r = roots[k]
            if r.end <= hi + _EPS:
                if r.start < last_end - _EPS:
                    problems.append(f"overlapping spans in batch {run.tag}")
                last_end = r.end
                agg.add(aggs[id(r)])
                r.request = run.tag
            k += 1
        batches[(tenant, int(b), int(a))] = (hi - lo, agg, run.duration)
    return batches


def layer_metrics(workload, spans, inst, measured, plans, *, setup_root,
                  cold_s, untraced_p50_s, retries=0) -> tuple[dict, list]:
    """Every per-layer metric for one traced run, plus self-check problems."""
    problems: list[str] = []
    aggs = _per_root(spans, problems)
    out: dict[str, float] = {}
    queue_waits: list[float] = []
    late: list[float] = []
    slot_fill = busy = 0.0
    if workload == "serve-mix":
        server = inst["server"]
        batches = _serve_batches(spans, aggs, measured.windows, problems)
        batch_of = {}
        for rec in server.batch_log:
            for _rid, _slot, value in rec.delivered:
                batch_of[id(value)] = (rec.tenant, rec.batch_index, rec.attempt)
        charges = []
        used: dict = {}
        for o in measured.outcomes:
            if not o.scheduled:
                continue
            late.append(o.started - o.scheduled)
            if o.value is None:
                continue
            key = batch_of.get(id(o.value))
            if key not in batches:
                problems.append(f"request of {o.tenant} not linked to a batch")
                continue
            interval, agg, _ = batches[key]
            wait = (o.done - o.scheduled) - interval
            if wait < -_EPS:
                problems.append("a request finished before its batch did")
            queue_waits.append(wait)
            charges.append((interval, agg))
            used[key] = used.get(key, 0) + 1
        filled = sum(k for key, k in used.items() if key[0] != "mlp")
        slots = 0
        for rec in server.batch_log:
            key = (rec.tenant, rec.batch_index, rec.attempt)
            if key in used and rec.tenant != "mlp":
                slots += rec.slots
        slot_fill = filled / slots if slots else 0.0
        span_s = sum(hi - lo for lo, hi in measured.windows)
        busy = sum(run_s for _, _, run_s in batches.values()) / span_s
        n = len(queue_waits)
        request_s = (sum(queue_waits) + sum(c[0] for c in charges)) / max(n, 1)
    else:
        charges = _job_charges(spans, aggs, measured.windows, problems)
        n = len(charges)
        request_s = sum(c[0] for c in charges) / max(n, 1)
    if n == 0:
        problems.append("no traced requests")
        n = 1
    total = _Agg()
    unattributed = 0.0
    for interval, agg in charges:
        total.add(agg)
        unattributed += interval - agg.layer_s
    for name in LAYERS:
        out[f"{name}_ms"] = total.self_s[name] / n * 1e3
    for name in CALL_COUNTS:
        out[f"{name}_calls"] = total.calls[name] / n
    # each transform reads and writes one limb matrix of the argument's size
    out["poly.ntt_mb"] = 2 * total.nbytes["poly.ntt"] / n / 1e6
    out["unattributed_ms"] = unattributed / n * 1e3
    if unattributed < -_EPS * n:
        problems.append("negative unattributed time")
    out["trace.request_ms"] = request_s * 1e3
    qmean = sum(queue_waits) / len(queue_waits) if queue_waits else 0.0
    out["serving.queue_wait_ms"] = qmean * 1e3
    out["serving.queue_wait_tail_ms"] = (
        percentile(queue_waits, tail_percentile(len(queue_waits))) * 1e3
        if queue_waits else 0.0
    )
    out["serving.slot_fill"] = slot_fill
    out["serving.busy_share"] = busy
    out["serving.retries"] = retries
    out["serving.rejected"] = sum(
        1 for o in measured.outcomes if o.error is None
    )
    out["loadgen.late_ms"] = (
        percentile(late, tail_percentile(len(late))) * 1e3 if late else 0.0
    )
    layered = sum(out[f"{name}_ms"] for name in LAYERS)
    account = layered + out["unattributed_ms"] + out["serving.queue_wait_ms"]
    if abs(account - out["trace.request_ms"]) > 1e-6 * max(1.0, account):
        problems.append(
            f"layers + unattributed ({account:.4f} ms) != traced request "
            f"wall ({out['trace.request_ms']:.4f} ms)"
        )
    traced_p50 = percentile(measured.latencies_s, 50)
    out["trace.overhead_pct"] = (traced_p50 / untraced_p50_s - 1.0) * 100.0
    out["plan.steps"] = sum(p.num_steps for p in plans)
    ops = [sum(p.cost().int32_instrs for p in plans) for _ in range(2)]
    if ops[0] != ops[1]:
        problems.append("plan.int32_ops does not repeat")
    out["plan.int32_ops"] = ops[0]
    # set-up steps: inclusive wall of each step inside the traced set-up
    steps = defaultdict(float)
    for s in spans:
        if s.name.startswith("setup.") and s.root() is setup_root:
            steps[s.name] += s.duration
    for step in SETUP_STEPS:
        out[f"setup.{step}_s"] = steps[f"setup.{step}"]
    out["setup.cold_s"] = cold_s
    return out, problems


def check_coverage(workload: str, values: dict, declared,
                   untraced=()) -> list[str]:
    """Every declared metric is present; applicable ones are non-zero and
    the others read zero.  Metrics of ``untraced`` spans (no wrapper
    target left to install) are exempt from the non-zero rule."""
    problems = []
    for name in declared:
        if name not in values:
            problems.append(f"per-layer metric {name} missing")
            continue
        applies = workload in ONLY.get(name, {workload})
        if name.rsplit("_", 1)[0] in untraced:
            applies = False
        if applies and not values[name] and name not in MAY_BE_ZERO:
            problems.append(f"{name} reads 0 on {workload}")
        if not applies and values[name]:
            problems.append(f"{name} reads {values[name]} on {workload}, "
                            "which should not touch that layer")
    return problems


def layer_families(values: dict) -> dict[str, float]:
    """Per-request ms by layer family, for naming where the time went:
    the kernels (``repro.poly``), the scheme layer, queue wait in the
    serving layer, and glue (``unattributed_ms``)."""
    return {
        "repro.poly": sum(values[f"{n}_ms"] for n in LAYERS if n.startswith("poly.")),
        "repro.scheme": sum(values[f"{n}_ms"] for n in LAYERS if n.startswith("scheme.")),
        "repro.serving": values["serving.queue_wait_ms"],
        "glue": values["unattributed_ms"],
    }
