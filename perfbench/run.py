"""End-to-end benchmark of the CKKS stack: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload circuit-n4096 --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``latency_p5_ms``, ``latency_tail_ms``, ``throughput_rps``,
``precision_bits``, ``peak_rss_mb``).  ``--trace 1`` runs the workload
twice in one process, half the seconds each: first untraced, then with
span wrappers installed around the public ``repro`` calls
(:mod:`tracing`), and prints the per-layer metrics (:mod:`metrics`),
including ``trace.overhead_pct``, the traced-vs-untraced p50 difference.
It also writes every span once, at the end, under
``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong
answer prints ``"correct": false`` and exits 1; a failed guard or
self-check exits 2 without printing a result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# One thread per BLAS pool, set before numpy loads; the kernel library and
# the compiler's temporary files stay inside the checkout.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "repro-kernels")
os.environ["TMPDIR"] = str(BUILD / "tmp")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

# Why latency_p5_ms and not the median: other tenants of a shared host
# slow this process in phases of seconds to minutes (a fixed L1-resident
# integer loop timed between circuit-n4096 requests slows in step with
# them, so the cause is outside the program).  Whether such phases cover
# more or less than half of a run moved the whole-run median of
# circuit-n4096 by over 25% between runs of the same code.  That noise
# only ever adds time, so the fast end of the distribution is the
# steadiest estimate of what the program itself costs.  The single
# fastest request is not: on serve-mix it is whichever request happened
# to arrive just before a batch cut.  Measured on a 2-vCPU KVM guest of
# a shared Xeon host, the quartiles of the per-run value spread, as a
# share of their median: circuit-n4096 (sixteen 36 s runs) p5 8%, p50
# 17%; serve-mix (six runs) p5 11%, minimum 28%, p50 16%.  The whole-run
# median still goes to the ``#`` info line, and latency_tail_ms keeps
# the slow phases in view.

#: timed set-ups after the untimed cold one, half before the measured phase
#: and half after it, so that setup_s (their median) samples the host at
#: both ends of the run rather than in one moment of it
SETUPS = 8

#: glibc malloc thresholds pinned at start-up (mallopt M_MMAP_THRESHOLD,
#: M_TRIM_THRESHOLD): arrays under 32 MiB come from the heap and freed
#: memory stays mapped.  glibc's dynamic thresholds settle to a similar
#: state by themselves, but only after ~36 circuit-n4096 requests; until
#: then every third request re-faults ~400 MB of fresh pages, so a run's
#: latency would depend on how much of it fell in that transient.
MALLOC_OPTIONS = ((-3, 32 << 20), (-1, 1 << 30))


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _guard_tier(tier: str) -> None:
    """Refuse to time a degraded or checked build; load kernels untimed."""
    from repro.analysis.sanitizer import checked_mode
    from repro.poly.backends import BackendFallbackWarning

    warnings.simplefilter("error", BackendFallbackWarning)
    if checked_mode():
        _fail("REPRO_CHECKED is on; the benchmark times unchecked kernels")
    if tier == "compiled":
        from repro.poly.backends.compiled import get_lib

        try:
            lib = get_lib()
        except BackendFallbackWarning as exc:
            _fail(f"compiled tier unavailable: {exc}")
        if lib is None:
            _fail("compiled tier unavailable")


def _pin_malloc() -> bool:
    """Apply :data:`MALLOC_OPTIONS`; False where the C library lacks them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(opt, value) == 1 for opt, value in MALLOC_OPTIONS)


def _check_context(inst, tier: str) -> None:
    cc = inst["cc"]
    if cc.backend != tier:
        _fail(f"context resolved the {cc.backend!r} tier, expected {tier!r}")
    if cc.checked:
        _fail("context runs in checked mode")


def _setups(wl, seed: int, count: int):
    """``count`` set-ups, each timed after a ``gc.collect()`` outside the
    timer that frees the one before; returns the last and the times."""
    inst, times = None, []
    for _ in range(count):
        inst = None
        gc.collect()
        t0 = time.perf_counter()
        inst = wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return inst, times


def _settle() -> None:
    """Collect garbage, then freeze the survivors (contexts, keys, tables)
    so collections during the measured phase do not rescan them."""
    gc.collect()
    gc.freeze()


def _units(kind: str) -> dict[str, str]:
    """Declared metric name -> unit, in BENCHMARK.json order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _outcome_counts(wl, outcomes):
    errors = [o.error for o in outcomes if o.error is not None]
    wrong = sum(1 for e in errors if not e <= wl.tolerance)
    rejected = len(outcomes) - len(errors)
    return errors, wrong, rejected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        _fail(f"no repro package under {SRC}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    malloc_pinned = _pin_malloc()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy as np

    from tracing import Tracer
    from workloads import WORKLOADS
    import metrics as m

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    _guard_tier(wl.tier)
    seconds = args.seconds / 2 if args.trace else args.seconds

    # the first set-up is the cold one, untimed as far as setup_s goes
    head = 0 if args.trace else SETUPS // 2
    inst, (cold_s, *setup_times) = _setups(wl, args.seed, 1 + head)
    _check_context(inst, wl.tier)
    outcomes = wl.warm_up(inst, args.seed)
    _settle()
    measured = wl.measure(inst, args.seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes += measured.outcomes
    mismatches = wl.verify(inst)

    if args.trace:
        untraced_p50 = m.percentile(measured.latencies_s, 50)
        inst = None
        gc.unfreeze()
        gc.collect()
        tracer = Tracer()
        untraced = tracer.install()
        if untraced:
            print("perfbench: no wrapper target left for "
                  + ", ".join(sorted(untraced)), file=sys.stderr)
        try:
            with tracer.span("setup") as setup_root:
                inst = wl.setup(args.seed)
            outcomes += wl.warm_up(inst, args.seed)
            _settle()
            server = inst.get("server")
            retries = server.metrics["retries"] if server else 0
            traced = wl.measure(inst, args.seed, seconds, tracer)
        finally:
            tracer.uninstall()
        if server:
            retries = server.metrics["retries"] - retries
        outcomes += traced.outcomes
        mismatches += wl.verify(inst)
        layer_values, problems = m.layer_metrics(
            args.workload, tracer.spans, inst, traced, wl.plans(inst),
            setup_root=setup_root, cold_s=cold_s,
            untraced_p50_s=untraced_p50, retries=retries,
        )
        problems += m.check_coverage(args.workload, layer_values,
                                     _units("per_layer"), untraced)
        tracer.dump(
            BUILD / "perfbench" / f"trace-{args.workload}-{args.seed}.json",
            t0=setup_root.start,
        )
        if problems:
            for line in problems[:20]:
                print(f"perfbench: trace self-check: {line}", file=sys.stderr)
            raise SystemExit(2)
    else:
        inst = None
        gc.unfreeze()
        setup_times += _setups(wl, args.seed, SETUPS - head)[1]

    errors, wrong, rejected = _outcome_counts(wl, outcomes)
    wrong += mismatches
    lat = measured.latencies_s
    p_tail = m.tail_percentile(len(lat))
    info = {
        "workload": args.workload,
        "tier": wl.tier,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "malloc_pinned": malloc_pinned,
        "samples": len(lat),
        "tail_percentile": p_tail,
        "beyond_tail": len(lat) - math.ceil(p_tail * len(lat) / 100),
        "latency_p50_ms": round(m.percentile(lat, 50) * 1e3, 3),
        "setup_runs_s": [round(t, 4) for t in setup_times],
        "wrong": wrong,
        "bitmatch_mismatches": mismatches,
        "rejected": rejected,
    }
    if args.trace:
        families = m.layer_families(layer_values)
        info["layer_ms"] = {k: round(v, 3) for k, v in families.items()}
        info["dominant_layer"] = max(families, key=families.get)
        info["untraced"] = sorted(untraced)
    print("# " + json.dumps(info))
    units = _units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        values = {name: layer_values[name] for name in units}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_p5_ms": m.percentile(lat, 5) * 1e3,
            "latency_tail_ms": m.percentile(lat, p_tail) * 1e3,
            "throughput_rps": measured.throughput_rps,
            "precision_bits": -math.log2(max(errors)),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": wrong + rejected,
        "metrics": {
            name: {"value": float(v), "unit": units[name]}
            for name, v in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
