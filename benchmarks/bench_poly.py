#!/usr/bin/env python
"""Benchmark harness: batched limb-matrix vs per-prime looped hot paths.

Times the polynomial-layer hot paths the paper's limb-parallel pitch
lives or dies on — forward NTT, full negacyclic multiply, exact rescale,
fast basis conversion (ModUp / ModDown), the fused hybrid key switch,
the scheme-layer composites HMult(+relinearize), rotate, and hoisted
multi-rotation (PR 4), and the slot-workload composites BSGS matvec and
BSGS polynomial evaluation (PR 5) — in two implementations each:

* ``batched``: the :class:`~repro.poly.batch_ntt.BatchNTT` /
  :class:`~repro.poly.basis_conv.BasisConverter` pipeline
  ``RnsPolynomial`` runs in production: one vectorized NumPy pass per
  stage over the whole limb matrix, every per-prime constant
  precomputed and cached;
* ``looped``: the per-prime reference path — Python loops over per-limb
  :class:`~repro.poly.ntt.NegacyclicNTT` engines and per-(i, j)
  conversion rows, with the per-call constant recomputes the cached
  pipeline eliminated.

Every cell is cross-checked for bit-equality before it is timed (the
conversion cells additionally against an exact big-int CRT reference;
the ``hoisted_rotate`` cell against per-index independent rotations —
the shared-ModUp fast path must be bit-identical, not just close),
the grid spans ``N in {1024, 4096} x L in {4, 12}`` across all four
Table-3 reducer backends, and the results land in ``BENCH_poly.json``
at the repository root.  Cells record best-of and median-of-repeats
times; ``--baseline`` re-runs the grid and exits non-zero when any
previously-recorded cell's batched median regresses by more than 25%.

Since PR 9 the grid also spans execution *backends*: every tier named
by ``--backends`` (default ``numpy,compiled``) gets its own cells for
the dispatch-sensitive kernels (forward NTT, multiply, ModUp / ModDown,
key switch), each asserted bit-identical against a numpy-tier context
built from the same seed *before* it is timed, and annotated with a
roofline estimate: the compulsory bytes-moved lower bound at the
measured STREAM-style copy bandwidth (``roofline_s``) and the fraction
of the measured time it explains (``roofline_frac``).

Usage:
    python benchmarks/bench_poly.py                       # full grid
    python benchmarks/bench_poly.py --smoke               # tiny CI grid
    python benchmarks/bench_poly.py --out PATH            # write elsewhere
    python benchmarks/bench_poly.py --backends numpy,compiled
    python benchmarks/bench_poly.py --methods shoup,smr   # reducer subset
    python benchmarks/bench_poly.py --baseline BENCH_poly.json
                                                          # regression gate
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.context import CkksContext  # noqa: E402
from repro.poly.backends import BACKEND_TIERS  # noqa: E402
from repro.poly.basis_conv import KeySwitchKey  # noqa: E402
from repro.poly.ntt import NegacyclicNTT, automorphism_tables  # noqa: E402
from repro.poly.rns_poly import PolyContext, RnsPolynomial  # noqa: E402
from repro.rns.primes import digit_ranges, ntt_friendly_primes  # noqa: E402
from repro.scheme import (  # noqa: E402
    CanonicalEncoder,
    Ciphertext,
    Evaluator,
    KeyGenerator,
    galois_element,
)
from repro.scheme._circuit import CircuitTracer  # noqa: E402
from repro.scheme._linalg import SlotLinalg  # noqa: E402
from repro.serving import (  # noqa: E402
    CkksServer,
    ServingConfig,
    verify_delivered,
)

METHODS = ("barrett", "montgomery", "shoup", "smr")
#: dispatch-sensitive kernel cells the non-numpy tiers re-run
TIER_OPS = ("ntt_forward", "multiply", "mod_up", "mod_down", "key_switch")
FULL_GRID = [(1024, 4), (1024, 12), (4096, 4), (4096, 12)]
SMOKE_GRID = [(256, 4)]

#: regression gate for --baseline mode: any previously-recorded cell
#: whose batched median slows down by more than this factor fails the run
REGRESSION_THRESHOLD = 0.25

#: the serving cells time the asyncio batch scheduler, whose batch
#: windows sit on event-loop timers — quantization jitter swings their
#: ~8 ms smoke medians past the kernel threshold run to run, so they
#: get a wider one (a real scheduler regression shows up well past 2x)
SERVING_THRESHOLD = 0.5

#: cells whose *baseline* batched median sits under this floor are too
#: noisy to gate individually — sub-millisecond kernels swing +-40% run
#: to run on shared runners.  Their code is still gated: every floored
#: kernel executes inside the composite cells (key_switch, hmult,
#: rotate, matvec, poly_eval, circuit) that clear the floor.
MIN_GATED_MEDIAN_S = 5e-3


def _limbs_for(n: int, num_limbs: int) -> list[int]:
    """A 25-30-style basis: one terminal limb, mains for the rest."""
    terminal = ntt_friendly_primes(25, 1, n, kind="terminal")
    taken = {p.value for p in terminal}
    main = ntt_friendly_primes(
        30, num_limbs - 1, n, exclude=taken, kind="main"
    )
    return [p.value for p in terminal + main]


def _aux_for(primes: list[int], n: int, dnum: int) -> list[int]:
    """Auxiliary P-part primes covering the largest key-switch digit."""
    max_digit = 1
    for lo, hi in digit_ranges(len(primes), dnum):
        prod = 1
        for q in primes[lo:hi]:
            prod *= q
        max_digit = max(max_digit, prod)
    count = 1
    while True:
        aux = [
            p.value
            for p in ntt_friendly_primes(
                30, count, n, kind="aux", exclude=set(primes)
            )
        ]
        prod = 1
        for p in aux:
            prod *= p
        if prod > max_digit:
            return aux
        count += 1


def _time(fn, repeats: int) -> tuple[float, float]:
    """(best, median) wall time over ``repeats`` runs.

    Best-of is the least-noise estimator for short deterministic
    kernels (used for the printed speedups); the median is the
    noise-tolerant one the --baseline regression gate compares.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


# -- looped reference implementations (the pre-batching code paths) --------
@functools.lru_cache(maxsize=8)
def _ntts(ctx: PolyContext) -> list[NegacyclicNTT]:
    """Per-prime engines pinned to ``ctx``'s batched roots, built once per
    context so the looped cells time transforms, not table builds."""
    return [
        NegacyclicNTT(q, ctx.ring_degree, ctx.method, psi=psi)
        for q, psi in zip(ctx.primes, ctx.batch_ntt.psis)
    ]


def _looped_forward(ctx: PolyContext, limbs: np.ndarray) -> np.ndarray:
    out = np.empty_like(limbs)
    for i, ntt in enumerate(_ntts(ctx)):
        out[i] = ntt.forward(limbs[i])
    return out


def _looped_multiply(ctx: PolyContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    for i, ntt in enumerate(_ntts(ctx)):
        out[i] = ntt.inverse(ntt.pointwise(ntt.forward(a[i]), ntt.forward(b[i])))
    return out


def _looped_rescale(ctx: PolyContext, limbs: np.ndarray) -> np.ndarray:
    q_last = ctx.primes[-1]
    last = limbs[-1].astype(np.int64)
    centered = np.where(last > q_last // 2, last - q_last, last)
    out = np.empty((ctx.num_limbs - 1, ctx.ring_degree), np.uint64)
    for i, q in enumerate(ctx.primes[:-1]):
        r = centered % q
        diff = limbs[i] + np.uint64(q) - r.astype(np.uint64)
        diff = np.where(diff >= q, diff - np.uint64(q), diff)
        inv = pow(q_last, -1, q)  # the per-call recompute being fixed
        out[i] = diff * np.uint64(inv) % np.uint64(q)
    return out


def _v_floor(x_hat: np.ndarray, src: list[int], q_hat: list[int],
             modulus: int) -> np.ndarray:
    """The conversion correction ``v`` — same float path and exact
    boundary guard as ``BasisConverter._v_term`` so the looped and
    batched conversions are bit-identical by construction."""
    inv_q = 1.0 / np.array(src, dtype=np.float64).reshape(-1, 1)
    s = np.sum(x_hat * inv_q, axis=0)
    dist = np.abs(s - np.rint(s))
    v = np.floor(s).astype(np.uint64)
    for j in np.nonzero(dist < 2.0**-30)[0]:
        exact = sum(int(x_hat[i, j]) * q_hat[i] for i in range(len(src)))
        v[j] = exact // modulus
    return v


def _looped_convert(src: list[int], dst: list[int], x: np.ndarray) -> np.ndarray:
    """Per-(i, j) fast basis extension with per-call constant recomputes."""
    modulus = 1
    for q in src:
        modulus *= q
    q_hat = [modulus // q for q in src]
    x_hat = np.empty_like(x)
    for i, q in enumerate(src):
        w = pow(q_hat[i], -1, q)  # recomputed per call, like pre-PR2 rescale
        x_hat[i] = x[i] * np.uint64(w) % np.uint64(q)
    v = _v_floor(x_hat, src, q_hat, modulus)
    out = np.empty((len(dst), x.shape[1]), np.uint64)
    for j, p in enumerate(dst):
        acc = np.zeros(x.shape[1], np.uint64)
        for i in range(len(src)):
            acc += x_hat[i] * np.uint64(q_hat[i] % p) % np.uint64(p)
        acc += v * np.uint64((-modulus) % p) % np.uint64(p)
        out[j] = acc % np.uint64(p)
    return out


def _looped_mod_up(primes: list[int], aux: list[int], limbs: np.ndarray) -> np.ndarray:
    return np.concatenate([limbs, _looped_convert(primes, aux, limbs)])


def _looped_mod_down(
    primes: list[int], aux: list[int], x_ext: np.ndarray
) -> np.ndarray:
    num_base = len(primes)
    conv = _looped_convert(aux, primes, x_ext[num_base:])
    p_mod = 1
    for p in aux:
        p_mod *= p
    out = np.empty((num_base, x_ext.shape[1]), np.uint64)
    for i, q in enumerate(primes):
        pinv = pow(p_mod, -1, q)  # per-call recompute
        diff = (x_ext[i] + np.uint64(q) - conv[i]) % np.uint64(q)
        out[i] = diff * np.uint64(pinv) % np.uint64(q)
    return out


def _looped_key_switch(
    ctx: PolyContext, ksk: KeySwitchKey, limbs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Naive composition: per-digit looped ModUp + per-prime looped NTT
    multiply-accumulate + looped ModDown."""
    ext_ctx = ksk.ext_ctx
    primes, aux = ctx.primes, ksk.aux_primes
    halves = []
    for half in range(2):
        acc = np.zeros((ext_ctx.num_limbs, ctx.ring_degree), np.uint64)
        for d, (lo, hi) in enumerate(digit_ranges(ctx.num_limbs, ksk.dnum)):
            digit_primes = primes[lo:hi]
            others = primes[:lo] + primes[hi:] + aux
            conv = _looped_convert(digit_primes, others, limbs[lo:hi])
            ext = np.empty((ext_ctx.num_limbs, ctx.ring_degree), np.uint64)
            ext[:lo] = conv[:lo]
            ext[lo:hi] = limbs[lo:hi]
            ext[hi:] = conv[lo:]
            key = ksk.pairs[d][half]
            for i, ntt in enumerate(_ntts(ext_ctx)):
                prod = ntt.pointwise(ntt.forward(ext[i]), key.limbs[i])
                s = acc[i] + prod
                q = np.uint64(ext_ctx.primes[i])
                acc[i] = np.where(s >= q, s - q, s)
        for i, ntt in enumerate(_ntts(ext_ctx)):
            acc[i] = ntt.inverse(acc[i])
        halves.append(_looped_mod_down(primes, aux, acc))
    return halves[0], halves[1]


def _looped_hmult(
    ctx: PolyContext, rlk: KeySwitchKey, a0, a1, b0, b1
) -> tuple[np.ndarray, np.ndarray]:
    """Naive HMult+relinearize: four per-prime looped multiplies for the
    tensor, the looped key switch for the degree-2 part, modular adds."""
    q = ctx.moduli
    t0 = _looped_multiply(ctx, a0, b0)
    x = _looped_multiply(ctx, a0, b1)
    y = _looped_multiply(ctx, a1, b0)
    s = x + y
    t1 = np.where(s >= q, s - q, s)
    t2 = _looped_multiply(ctx, a1, b1)
    d0, d1 = _looped_key_switch(ctx, rlk, t2)
    s = t0 + d0
    c0 = np.where(s >= q, s - q, s)
    s = t1 + d1
    c1 = np.where(s >= q, s - q, s)
    return c0, c1


def _looped_rotate(
    ctx: PolyContext, gk: KeySwitchKey, k: int, c0, c1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prime hoisted-schedule rotation: looped ModUp + per-prime
    forward per digit, the NTT-domain Galois slot permutation, per-prime
    MAC / inverse, looped ModDown, then the coeff-domain sigma on c0."""
    n = ctx.ring_degree
    src, neg, perm = automorphism_tables(n, k)
    ext_ctx = gk.ext_ctx
    primes, aux = ctx.primes, gk.aux_primes
    ext_digits = []
    for lo, hi in digit_ranges(ctx.num_limbs, gk.dnum):
        digit_primes = primes[lo:hi]
        others = primes[:lo] + primes[hi:] + aux
        conv = _looped_convert(digit_primes, others, c1[lo:hi])
        ext = np.empty((ext_ctx.num_limbs, n), np.uint64)
        ext[:lo] = conv[:lo]
        ext[lo:hi] = c1[lo:hi]
        ext[hi:] = conv[lo:]
        hat = np.empty_like(ext)
        for i, ntt in enumerate(_ntts(ext_ctx)):
            hat[i] = ntt.forward(ext[i])
        ext_digits.append(hat[:, perm])
    halves = []
    for half in range(2):
        acc = np.zeros((ext_ctx.num_limbs, n), np.uint64)
        for d, hat in enumerate(ext_digits):
            key = gk.pairs[d][half]
            for i, ntt in enumerate(_ntts(ext_ctx)):
                prod = ntt.pointwise(hat[i], key.limbs[i])
                s = acc[i] + prod
                q = np.uint64(ext_ctx.primes[i])
                acc[i] = np.where(s >= q, s - q, s)
        for i, ntt in enumerate(_ntts(ext_ctx)):
            acc[i] = ntt.inverse(acc[i])
        halves.append(_looped_mod_down(primes, aux, acc))
    d0, d1 = halves
    rc0 = np.empty_like(c0)
    for i, q in enumerate(primes):
        row = c0[i][src]
        rc0[i] = np.where(neg & (row != 0), np.uint64(q) - row, row)
    qcol = ctx.moduli
    s = rc0 + d0
    return np.where(s >= qcol, s - qcol, s), d1


def _bench_serving(
    n: int, num_limbs: int, method: str, dnum: int, repeats: int,
    backend: str | None = None,
) -> list[dict]:
    """The ``serving`` cell: batched scheduler vs per-request replay.

    Delivered values are verified before timing — approximately against
    the unbatched per-request path (independent encryptions cannot
    bit-match) and bit-exactly against a clean replay of each recorded
    batch (:func:`repro.serving.loadgen.verify_delivered`).  The cell
    carries two extra fields, ``p99_s`` and ``requests_per_s``, for the
    serving-soak CI job.
    """
    cc = CkksContext(
        ring_degree=n,
        num_main=num_limbs - 1,
        num_aux=3 if num_limbs <= 6 else 5,
        dnum=dnum,
        seed=0xC0FFEE,
        method=method,
        backend=backend,
    )
    scale = 2.0**30

    def tenant(tracer, x):
        half = cc.encoder.encode([0.5], scale, num_slots=1)
        prod = tracer.multiply_plain(x, half)
        bump = cc.encoder.encode([0.25], prod.scale, num_slots=1)
        return tracer.rescale(tracer.add_plain(prod, bump))

    server = CkksServer(cc, config=ServingConfig(
        batch_window_s=0.001,
        default_deadline_s=60.0,
        watchdog_s=60.0,
        seed=0,
        backend=backend,
    ))
    server.register_tenant("affine", tenant, scale_bits=30)
    k = 32
    payloads = [round(float(v), 3) for v in np.linspace(-1.0, 1.0, k)]

    def served_batch():
        async def drive():
            await server.start()
            try:
                return await asyncio.gather(
                    *(server.submit("affine", v) for v in payloads)
                )
            finally:
                await server.stop()

        return asyncio.run(drive())

    plan = server._tenants["affine"].plan

    def unbatched():
        out = []
        for v in payloads:
            ct = cc.encrypt([v], scale=scale, num_slots=1)
            out.append(complex(cc.decrypt(plan.run(ct), num_slots=1)[0]))
        return out

    got = served_batch()
    ref = unbatched()
    for v, g, r in zip(payloads, got, ref):
        assert abs(g - r) < 1e-4, (
            f"serving deviates from the unbatched reference at {v}: {g} vs {r}"
        )
        assert abs(g.real - (0.5 * v + 0.25)) < 1e-4, (
            f"serving result wrong at {v}: {g}"
        )
    assert verify_delivered(server) == 0, "served slots fail bit-match replay"
    server.batch_log.clear()
    server.latencies_s.clear()
    best_b, med_b = _time(served_batch, repeats)
    best_l, med_l = _time(unbatched, repeats)
    lat = sorted(server.latencies_s)
    p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))] if lat else 0.0
    return [{
        "op": "serving",
        "batched_s": best_b,
        "batched_med_s": med_b,
        "looped_s": best_l,
        "looped_med_s": med_l,
        "p99_s": p99,
        "requests_per_s": round(k / med_b, 2),
    }]



def _bench_ml(method: str, repeats: int) -> list[dict]:
    """The ``ml_inference`` cell: compiled-once model vs per-query compile.

    "batched" replays the model's single compiled :class:`CircuitPlan`
    per encrypted row (hoists/fusion/encodings captured once at compile
    time); "looped" re-traces and re-compiles the same model recipe for
    every query before running it — the cost the single-entry API
    amortizes away.  The rebuilt plan is asserted bit-identical to the
    compiled one on a shared ciphertext before timing, and the encrypted
    labels must agree with the plaintext twin's.
    """
    from repro.ml import agreement, load_iris_split, logistic_regression

    cc = CkksContext(
        ring_degree=256, num_main=10, num_aux=7, dnum=2, seed=0xC0FFEE,
        method=method, rotations=(1, 2),
    )
    split = load_iris_split(seed=0)
    y = (split.y_train == 2).astype(np.int64)
    model = logistic_regression(cc, split.x_train, y, degree=3)
    rows = split.x_test[:8]

    def compiled_infer():
        return model.predict_encrypted(rows)

    def per_query_compile():
        out = np.empty((rows.shape[0], model.dim))
        for i, row in enumerate(rows):
            tracer = cc._tracer()
            plan = tracer.compile(
                model.build(tracer, tracer.input("x", scale=model.scale))
            )
            ct = cc.encrypt(row, scale=model.scale, num_slots=model.dim)
            out[i] = cc.decrypt(plan.run(ct), num_slots=model.dim).real
        return out

    ct = cc.encrypt(rows[0], scale=model.scale, num_slots=model.dim)
    tracer = cc._tracer()
    rebuilt = tracer.compile(
        model.build(tracer, tracer.input("x", scale=model.scale))
    )
    a, b = model.plan.run(ct), rebuilt.run(ct)
    assert np.array_equal(a.c0.limbs, b.c0.limbs), "rebuilt ml c0 differs"
    assert np.array_equal(a.c1.limbs, b.c1.limbs), "rebuilt ml c1 differs"
    enc = model.classify(compiled_infer())
    plain = model.classify(model.predict_plain(rows))
    assert agreement(enc, plain) >= 0.98, "ml cell fails the agreement gate"

    best_b, med_b = _time(compiled_infer, repeats)
    best_l, med_l = _time(per_query_compile, repeats)
    return [{
        "op": "ml_inference",
        "batched_s": best_b,
        "batched_med_s": med_b,
        "looped_s": best_l,
        "looped_med_s": med_l,
        "n": 256,
        "limbs": 11,
        "method": method,
        "speedup": round(best_l / best_b, 2),
        "rows": int(rows.shape[0]),
        "model": "logreg-deg3",
    }]


def _tier_available(tier: str) -> bool:
    """Whether a tier can actually run here (the compiled one needs cc)."""
    if tier == "compiled":
        from repro.poly.backends.compiled import get_lib

        return get_lib() is not None
    return True


def _limb_arrays(result) -> list[np.ndarray]:
    """Normalize a kernel result (poly, array, or tuple of either) to
    its limb matrices for bit-comparison."""
    items = result if isinstance(result, tuple) else (result,)
    return [np.asarray(getattr(x, "limbs", x)) for x in items]


def bench_backend_config(
    n: int, num_limbs: int, method: str, tier: str, repeats: int, seed: int
) -> list[dict]:
    """Timed cells for one non-numpy execution tier.

    Two contexts are built from the same seed — one on the tier under
    test, one on the numpy reference tier — so inputs, key material and
    therefore every output must be bit-identical; each cell asserts that
    equality *before* it is timed.  Cells carry ``backend`` and (once
    the numpy grid has run) ``speedup_vs_numpy``.
    """
    limb_list = _limbs_for(n, num_limbs)
    dnum = 2 if num_limbs <= 6 else 3
    aux = _aux_for(limb_list, n, dnum)

    def build(backend):
        rng = np.random.default_rng(seed)
        ctx = PolyContext(n, limb_list, method, backend=backend)
        a = ctx.random(rng)
        b = ctx.random(rng)
        ksk = KeySwitchKey.random(ctx, aux, dnum, rng)
        return ctx, a, b, ksk

    ctx_n, a_n, b_n, ksk_n = build("numpy")
    ctx_t, a_t, b_t, ksk_t = build(tier)
    assert np.array_equal(a_n.limbs, a_t.limbs), "seeded inputs diverged"

    cells = []

    def cell(op, tier_fn, ref_fn):
        for got, ref in zip(_limb_arrays(tier_fn()), _limb_arrays(ref_fn())):
            assert np.array_equal(got, ref), (
                f"{tier} tier diverges from numpy on {op} "
                f"(N={n}, L={num_limbs}, {method})"
            )
        best, med = _time(tier_fn, repeats)
        cells.append({
            "op": op,
            "backend": tier,
            "batched_s": best,
            "batched_med_s": med,
            "n": n,
            "limbs": num_limbs,
            "method": method,
        })

    cell(
        "ntt_forward",
        lambda: ctx_t.batch_ntt.forward(a_t.limbs),
        lambda: ctx_n.batch_ntt.forward(a_n.limbs),
    )
    cell(
        "multiply",
        lambda: RnsPolynomial(ctx_t, a_t.limbs).multiply(
            RnsPolynomial(ctx_t, b_t.limbs)
        ),
        lambda: RnsPolynomial(ctx_n, a_n.limbs).multiply(
            RnsPolynomial(ctx_n, b_n.limbs)
        ),
    )
    cell(
        "mod_up",
        lambda: a_t.mod_up(aux),
        lambda: a_n.mod_up(aux),
    )
    up_t = a_t.mod_up(aux)
    up_n = a_n.mod_up(aux)
    cell(
        "mod_down",
        lambda: up_t.mod_down(len(aux)),
        lambda: up_n.mod_down(len(aux)),
    )
    cell(
        "key_switch",
        lambda: a_t.key_switch(ksk_t),
        lambda: a_n.key_switch(ksk_n),
    )
    return cells


def _measure_copy_bandwidth() -> float:
    """STREAM-style copy bandwidth in bytes/s (read + write counted).

    One 64 MiB ``np.copyto`` — far over every cache — timed best-of-5;
    this is the sustainable-transfer denominator the roofline estimates
    divide by.
    """
    src = np.ones(1 << 23, np.uint64)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best, _ = _time(lambda: np.copyto(dst, src), 5)
    return 2 * src.nbytes / best


#: ops with a bytes-moved model; composites (key_switch, hmult, ...) are
#: dominated by these and carry no annotation of their own
_ROOFLINE_OPS = ("ntt_forward", "multiply", "mod_up", "mod_down")


def _roofline_s(op: str, n: int, L: int, K: int, method: str,
                copy_bw: float) -> float | None:
    """Optimistic bytes-moved lower bound for one kernel cell, in seconds.

    Counts only *compulsory* traffic — operands in, results out, twiddle
    tables once — at the measured copy bandwidth; per-stage state
    revisits are assumed cache-resident (a 4096-coefficient row is
    16-32 KiB) and compute is assumed free.  ``measured / roofline``
    therefore reads as "how far above the pure memory bound this tier
    runs": large means compute-bound, near 1 means memory-bound.
    """
    word = 8
    # twiddles: value + Shoup companion for shoup, one 64-bit word else
    tw = 12 if method == "shoup" else 8
    ntt = L * n * (2 * word + tw)
    models = {
        "ntt_forward": ntt,
        # two forwards + pointwise (two reads + prepared twin + write)
        # + one inverse
        "multiply": 4 * ntt + 4 * L * n * word,
        # x in, (L + K) rows out, conversion matrix is O(L*K) and free
        "mod_up": (2 * L + K) * n * word,
        "mod_down": (2 * (L + K)) * n * word,
    }
    bytes_moved = models.get(op)
    return None if bytes_moved is None else bytes_moved / copy_bw


def bench_config(n: int, num_limbs: int, method: str, repeats: int, rng) -> list[dict]:
    ctx = PolyContext(n, _limbs_for(n, num_limbs), method)
    a = ctx.random(rng)
    b = ctx.random(rng)
    batch = ctx.batch_ntt

    cells = []

    def cell(op: str, batched_fn, looped_fn) -> None:
        best_b, med_b = _time(batched_fn, repeats)
        best_l, med_l = _time(looped_fn, repeats)
        cells.append(
            {
                "op": op,
                "batched_s": best_b,
                "batched_med_s": med_b,
                "looped_s": best_l,
                "looped_med_s": med_l,
            }
        )

    # forward NTT ----------------------------------------------------------
    looped = _looped_forward(ctx, a.limbs)
    batched = batch.forward(a.limbs)
    assert np.array_equal(looped, batched), "NTT paths disagree"
    cell(
        "ntt_forward",
        lambda: batch.forward(a.limbs),
        lambda: _looped_forward(ctx, a.limbs),
    )

    # full negacyclic multiply --------------------------------------------
    # Fresh wrappers per call: the twin/prepared caches would otherwise
    # turn iterations 2..k into pure pointwise passes.
    def fused_multiply():
        return RnsPolynomial(ctx, a.limbs).multiply(RnsPolynomial(ctx, b.limbs))

    looped = _looped_multiply(ctx, a.limbs, b.limbs)
    assert np.array_equal(looped, fused_multiply().limbs), (
        "multiply paths disagree"
    )
    cell(
        "multiply",
        fused_multiply,
        lambda: _looped_multiply(ctx, a.limbs, b.limbs),
    )

    # exact rescale --------------------------------------------------------
    looped = _looped_rescale(ctx, a.limbs)
    assert np.array_equal(looped, a.exact_rescale().limbs), (
        "rescale paths disagree"
    )
    cell(
        "rescale",
        lambda: a.exact_rescale(),
        lambda: _looped_rescale(ctx, a.limbs),
    )

    # basis conversion: ModUp / ModDown -----------------------------------
    dnum = 2 if num_limbs <= 6 else 3
    aux = _aux_for(ctx.primes, n, dnum)
    ext_ctx = ctx.extend(aux)

    up = a.mod_up(aux)
    looped_up = _looped_mod_up(ctx.primes, aux, a.limbs)
    assert np.array_equal(up.limbs, looped_up), "mod_up paths disagree"
    # Exact big-int CRT reference: row j must be X mod p_j exactly.
    coeffs = a.to_int_coeffs(centered=False)
    expect = np.array(
        [[x % p for x in coeffs] for p in ext_ctx.primes], dtype=np.uint64
    )
    assert np.array_equal(up.limbs, expect), "mod_up != big-int reference"
    cell(
        "mod_up",
        lambda: a.mod_up(aux),
        lambda: _looped_mod_up(ctx.primes, aux, a.limbs),
    )

    down = up.mod_down(len(aux))
    looped_down = _looped_mod_down(ctx.primes, aux, up.limbs)
    assert np.array_equal(down.limbs, looped_down), "mod_down paths disagree"
    p_mod = 1
    for p in aux:
        p_mod *= p
    up_coeffs = up.to_int_coeffs(centered=False)
    expect = np.array(
        [[(x // p_mod) % q for x in up_coeffs] for q in ctx.primes],
        dtype=np.uint64,
    )
    assert np.array_equal(down.limbs, expect), "mod_down != big-int reference"
    cell(
        "mod_down",
        lambda: up.mod_down(len(aux)),
        lambda: _looped_mod_down(ctx.primes, aux, up.limbs),
    )

    # fused hybrid key switch ---------------------------------------------
    ksk = KeySwitchKey.random(ctx, aux, dnum, rng)
    c0, c1 = a.key_switch(ksk)
    l0, l1 = _looped_key_switch(ctx, ksk, a.limbs)
    assert np.array_equal(c0.limbs, l0) and np.array_equal(c1.limbs, l1), (
        "key_switch paths disagree"
    )
    cell(
        "key_switch",
        lambda: a.key_switch(ksk),
        lambda: _looped_key_switch(ctx, ksk, a.limbs),
    )

    # scheme-layer composites: HMult(+relin), rotate, hoisted rotations --
    rotations = (1, 2, 3, 5)
    keygen = KeyGenerator(ctx, aux, dnum, rng)
    ev = Evaluator.from_keygen(keygen, rotations=rotations)
    a0l, a1l = a.limbs, b.limbs
    b0l, b1l = ctx.random(rng).limbs, ctx.random(rng).limbs

    def fresh_ct(l0, l1):
        # Fresh wrappers per call, like the multiply cell: the twin and
        # prepared caches would otherwise hide the transforms.
        return Ciphertext(RnsPolynomial(ctx, l0), RnsPolynomial(ctx, l1), scale=1.0)

    def fused_hmult():
        return ev.multiply(fresh_ct(a0l, a1l), fresh_ct(b0l, b1l))

    rlk = keygen.relinearization_key()
    got = fused_hmult()
    lc0, lc1 = _looped_hmult(ctx, rlk, a0l, a1l, b0l, b1l)
    assert np.array_equal(got.c0.limbs, lc0), "hmult c0 paths disagree"
    assert np.array_equal(got.c1.limbs, lc1), "hmult c1 paths disagree"
    cell(
        "hmult",
        fused_hmult,
        lambda: _looped_hmult(ctx, rlk, a0l, a1l, b0l, b1l),
    )

    k3 = galois_element(3, n)
    gk3 = keygen.galois_key(k3)

    def fused_rotate():
        return ev.rotate(fresh_ct(a0l, a1l), 3)

    got = fused_rotate()
    lc0, lc1 = _looped_rotate(ctx, gk3, k3, a0l, a1l)
    assert np.array_equal(got.c0.limbs, lc0), "rotate c0 paths disagree"
    assert np.array_equal(got.c1.limbs, lc1), "rotate c1 paths disagree"
    cell(
        "rotate",
        fused_rotate,
        lambda: _looped_rotate(ctx, gk3, k3, a0l, a1l),
    )

    # Hoisted multi-rotation: "batched" shares one ModUp + extended NTT
    # across all indices; the reference is the same evaluator rotating
    # per index independently.  Bit-identity asserted before timing is
    # the acceptance bar: the fast path may not drift semantically.
    def hoisted():
        return ev.rotate_hoisted(fresh_ct(a0l, a1l), rotations)

    def independent():
        ct = fresh_ct(a0l, a1l)
        return [ev.rotate(ct, r) for r in rotations]

    shared = hoisted()
    per_index = independent()
    for r, ind in zip(rotations, per_index):
        assert np.array_equal(shared[r].c0.limbs, ind.c0.limbs), (
            "hoisted rotation c0 differs from independent"
        )
        assert np.array_equal(shared[r].c1.limbs, ind.c1.limbs), (
            "hoisted rotation c1 differs from independent"
        )
    cell("hoisted_rotate", hoisted, independent)

    # slot workloads: BSGS matvec + BSGS polynomial evaluation ------------
    # "batched" is the fused path (one hoisted ModUp for the baby front,
    # NTT-domain MAC inner sums / cached power tree); "looped" is the
    # naive composition of the same formula (an independent rotation +
    # plaintext multiply + accumulate per diagonal; every power re-derived
    # per monomial).  The two are bit-identical by construction — asserted
    # before timing, like every other cell.
    dim = 64 if n >= 1024 else 16
    encoder = CanonicalEncoder(ctx)
    lin = SlotLinalg(
        encoder,
        Evaluator.from_keygen(keygen, rotations=SlotLinalg.matvec_rotations(dim)),
    )
    mat_rng = np.random.default_rng(0xA17)
    matrix = mat_rng.uniform(-1, 1, (dim, dim))
    mv_scale = 2.0**30

    def fresh_scaled(l0, l1, scale):
        return Ciphertext(RnsPolynomial(ctx, l0), RnsPolynomial(ctx, l1), scale=scale)

    def fused_matvec():
        return lin.matvec(fresh_scaled(a0l, a1l, mv_scale), matrix)

    def naive_matvec():
        return lin.matvec_naive(fresh_scaled(a0l, a1l, mv_scale), matrix)

    got = fused_matvec()
    ref = naive_matvec()
    assert np.array_equal(got.c0.limbs, ref.c0.limbs), "matvec c0 differs"
    assert np.array_equal(got.c1.limbs, ref.c1.limbs), "matvec c1 differs"
    cell("matvec", fused_matvec, naive_matvec)

    # The scale stack Delta^(bs*gs) must clear Q, so the degree and scale
    # follow the limb budget: deg 7 at L >= 12, deg 3 on shallow bases.
    if num_limbs >= 12:
        pe_scale, pe_coeffs = 2.0**30, [0.3, -0.7, 0.2, 0.11, -0.05, 0.01, 0.02, -0.015]
    else:
        pe_scale, pe_coeffs = 2.0**24, [0.5, -1.0, 0.25, 0.125]

    def fused_poly_eval():
        return lin.poly_eval(fresh_scaled(a0l, a1l, pe_scale), pe_coeffs)

    def naive_poly_eval():
        return lin.poly_eval_naive(fresh_scaled(a0l, a1l, pe_scale), pe_coeffs)

    got = fused_poly_eval()
    ref = naive_poly_eval()
    assert np.array_equal(got.c0.limbs, ref.c0.limbs), "poly_eval c0 differs"
    assert np.array_equal(got.c1.limbs, ref.c1.limbs), "poly_eval c1 differs"
    cell("poly_eval", fused_poly_eval, naive_poly_eval)

    # compiled circuit: matvec -> poly_eval -> rescale ---------------------
    # "batched" replays a CircuitPlan compiled once for the whole
    # pipeline (hoists shared at plan time, diagonal/constant encodings
    # and key-switch schedules captured, NTT-domain persistence across op
    # boundaries); "looped" eagerly composes the already-fused per-op
    # fast paths — each call re-plans, re-encodes and re-allocates.  The
    # rescale sits last because key switching runs at the keygen level.
    # The scale stack Delta^(bs*gs) with Delta = circ_scale^2 must clear
    # Q, hence the shallow-basis drop to 2^12.
    circ_scale = 2.0**30 if num_limbs >= 12 else 2.0**12
    circ_coeffs = [0.5, -1.0, 0.25, 0.125]

    def eager_circuit():
        ct = fresh_scaled(a0l, a1l, circ_scale)
        return lin.ev.rescale(
            lin.poly_eval(lin.matvec(ct, matrix), circ_coeffs)
        )

    tracer = CircuitTracer(lin.ev)
    traced_lin = SlotLinalg(encoder, tracer)
    x = tracer.input("x", scale=circ_scale)
    circuit_plan = tracer.compile(
        tracer.rescale(
            traced_lin.poly_eval(
                traced_lin.matvec_naive(x, matrix), circ_coeffs
            )
        )
    )

    def compiled_circuit():
        return circuit_plan.run(fresh_scaled(a0l, a1l, circ_scale))

    got = compiled_circuit()
    ref = eager_circuit()
    assert np.array_equal(got.c0.limbs, ref.c0.limbs), "circuit c0 differs"
    assert np.array_equal(got.c1.limbs, ref.c1.limbs), "circuit c1 differs"
    cell("circuit", compiled_circuit, eager_circuit)

    # multi-tenant serving: shared-ciphertext batch scheduling -------------
    # "batched" drives k single-slot queries through the asyncio serving
    # layer, which packs them into one sparse-packed ciphertext and runs
    # the tenant's compiled plan once per batch (queue + scheduler +
    # integrity-check overhead included); "looped" is the unbatched
    # alternative — one encrypt / plan replay / decrypt per query.
    # Capped at N <= 1024: the larger rings' serving numbers are
    # dominated by the same kernels the other cells already gate.
    if n <= 1024:
        cells.extend(
            _bench_serving(n, num_limbs, method, dnum, repeats)
        )

    for c in cells:
        c.update(
            n=n,
            limbs=num_limbs,
            method=method,
            speedup=round(c["looped_s"] / c["batched_s"], 2),
        )
    return cells


def _cell_key(c: dict) -> tuple:
    return (
        c["op"], c["n"], c["limbs"], c["method"], c.get("backend", "numpy")
    )


def _gated_pairs(
    results: list[dict], baseline: dict
) -> list[tuple[dict, dict]]:
    """(current, baseline) cell pairs the gate compares.

    A cell is gated when the baseline recorded the same
    ``(op, n, limbs, method, backend)`` with a median at or above the
    :data:`MIN_GATED_MEDIAN_S` noise floor.  Only the numpy tier is
    gated (``meta.gating_backend``): compiled timings depend on the
    runner's toolchain and core count, so their cells are recorded
    for inspection but never turn CI red.
    """
    recorded = {_cell_key(c): c for c in baseline.get("results", [])}
    pairs = []
    for c in results:
        if c.get("backend", "numpy") != "numpy":
            continue
        base = recorded.get(_cell_key(c))
        if (
            base is not None
            and base.get("batched_med_s", 0.0) >= MIN_GATED_MEDIAN_S
        ):
            pairs.append((c, base))
    return pairs


def matched_cells(results: list[dict], baseline: dict) -> list[tuple]:
    """Keys of result cells the baseline actually gates.

    The caller should treat an *empty* match set as a failure: a gate
    that compares nothing is vacuously green, which is exactly the
    silent failure mode a CI regression job exists to prevent.
    """
    return [_cell_key(c) for c, _ in _gated_pairs(results, baseline)]


def compare_to_baseline(
    results: list[dict],
    baseline: dict,
    threshold: float = REGRESSION_THRESHOLD,
) -> list[str]:
    """Machine-normalized regressions of batched medians vs a baseline.

    Raw wall-clock comparison across runs is dominated by host speed —
    a throttled CI runner (or a faster one) would turn every cell red
    (or green) regardless of the code, so each cell's batched median is
    first normalized by the *total* batched median of the gated cell
    set in its own run.  Whole-machine drift cancels exactly; a
    regression in one cell barely moves the total and stands out.  The
    trade-off is explicit: a change that slows every gated cell by the
    same factor is indistinguishable from machine drift and passes —
    CI hardware cannot catch uniform slowdowns without calibration.

    Cells are matched on ``(op, n, limbs, method, backend)`` with only
    the numpy tier gated; unmatched cells, baselines recorded before
    medians existed, and cells under the
    :data:`MIN_GATED_MEDIAN_S` noise floor are skipped — use
    :func:`matched_cells` to detect a gate that matches nothing at all.
    Returns one message per cell whose normalized median slowed by more
    than ``threshold``, naming the cell.
    """
    pairs = _gated_pairs(results, baseline)
    if not pairs:
        return []
    tot_new = sum(c["batched_med_s"] for c, _ in pairs)
    tot_old = sum(b["batched_med_s"] for _, b in pairs)
    drift = tot_new / tot_old
    regressions = []
    for c, base in pairs:
        old, new = base["batched_med_s"], c["batched_med_s"]
        ratio = (new / tot_new) / (old / tot_old)
        cell_threshold = threshold
        if c["op"] == "serving":
            cell_threshold = max(threshold, SERVING_THRESHOLD)
        if ratio > 1 + cell_threshold:
            regressions.append(
                f"{c['op']} N={c['n']} L={c['limbs']} {c['method']}: "
                f"batched median {new*1e3:.3f} ms vs baseline "
                f"{old*1e3:.3f} ms (+{(ratio - 1)*100:.0f}% after "
                f"dividing out the {drift:.2f}x whole-run drift)"
            )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid + fewer repeats (CI-speed sanity run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_REPO_ROOT / "BENCH_poly.json",
        help="output JSON path (default: repo-root BENCH_poly.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_poly.json to compare against; exits "
        "non-zero on a >25%% batched-median regression in any "
        "previously-recorded cell",
    )
    parser.add_argument(
        "--methods",
        type=str,
        default=",".join(METHODS),
        help="comma-separated reducer subset (default: all four)",
    )
    parser.add_argument(
        "--backend",
        "--backends",
        dest="backends",
        type=str,
        default="numpy,compiled",
        help="comma-separated execution tiers to bench (canonical "
        "spelling: --backend, matching the soak CLI and CkksContext); "
        "unavailable tiers are skipped with a warning "
        "(default: numpy,compiled)",
    )
    args = parser.parse_args(argv)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            parser.error(f"unknown method {m!r} (choose from {METHODS})")
    backends = tuple(
        b.strip() for b in args.backends.split(",") if b.strip()
    )
    for b in backends:
        if b not in BACKEND_TIERS:
            parser.error(f"unknown backend {b!r} (choose from {BACKEND_TIERS})")
    tiers = []
    skipped = []
    for b in backends:
        if _tier_available(b):
            tiers.append(b)
        else:
            skipped.append(b)
            print(
                f"WARNING: backend tier {b!r} unavailable on this host "
                "(no C toolchain) — skipping its cells"
            )

    # Full recording runs cover the smoke grid too: the committed
    # BENCH_poly.json must contain the (256, 4) cells or CI's
    # `--smoke --baseline` job would match nothing and gate nothing.
    grid = SMOKE_GRID if args.smoke else SMOKE_GRID + FULL_GRID
    repeats = 3 if args.smoke else 5
    if args.baseline is not None:
        # The regression gate compares medians; a median of 3 is barely
        # noise-tolerant on shared CI machines, so comparisons run more
        # repeats than a plain recording pass.
        repeats = max(repeats, 9)
    rng = np.random.default_rng(0xBE7C4)

    results = []
    for n, num_limbs in grid:
        for method in methods:
            if "numpy" in tiers:
                cells = bench_config(n, num_limbs, method, repeats, rng)
                # one encrypted-inference cell per method, attached to
                # the smoke point so `--smoke --baseline` gates it too
                # (its own context is deeper: N=256 with 11 limbs)
                if (n, num_limbs) == (256, 4):
                    cells.extend(_bench_ml(method, repeats))
                results.extend(cells)
                for cell in cells:
                    print(
                        f"N={n:<5} L={num_limbs:<3} {method:<11} "
                        f"{cell['op']:<12} batched "
                        f"{cell['batched_s']*1e3:8.3f} ms"
                        f"  looped {cell['looped_s']*1e3:8.3f} ms"
                        f"  speedup {cell['speedup']:6.2f}x"
                    )
            for tier in tiers:
                if tier == "numpy":
                    continue
                cells = bench_backend_config(
                    n, num_limbs, method, tier, repeats, seed=0xD15BA7C4
                )
                # one serving cell per method at the deep 1024 point: the
                # full scheduler path (encrypt, plan replay, decrypt)
                # running on the tier under test
                if n <= 1024 and num_limbs >= 12:
                    dnum = 2 if num_limbs <= 6 else 3
                    serving = _bench_serving(
                        n, num_limbs, method, dnum, repeats, backend=tier
                    )
                    for c in serving:
                        c.update(n=n, limbs=num_limbs, method=method,
                                 backend=tier)
                    cells.extend(serving)
                results.extend(cells)
                for cell in cells:
                    print(
                        f"N={n:<5} L={num_limbs:<3} {method:<11} "
                        f"{cell['op']:<12} {tier:<8} "
                        f"{cell['batched_s']*1e3:8.3f} ms"
                    )

    # -- cross-tier annotations: speedup_vs_numpy + roofline --------------
    copy_bw = _measure_copy_bandwidth()
    numpy_meds = {
        (c["op"], c["n"], c["limbs"], c["method"]): c["batched_med_s"]
        for c in results
        if c.get("backend", "numpy") == "numpy"
    }
    aux_counts: dict[tuple, int] = {}
    for c in results:
        if c.get("backend", "numpy") != "numpy":
            base = numpy_meds.get((c["op"], c["n"], c["limbs"], c["method"]))
            if base is not None:
                c["speedup_vs_numpy"] = round(base / c["batched_med_s"], 2)
        if c["op"] in _ROOFLINE_OPS:
            gk = (c["n"], c["limbs"])
            if gk not in aux_counts:
                dnum = 2 if c["limbs"] <= 6 else 3
                aux_counts[gk] = len(
                    _aux_for(_limbs_for(*gk), c["n"], dnum)
                )
            rf = _roofline_s(
                c["op"], c["n"], c["limbs"], aux_counts[gk], c["method"],
                copy_bw,
            )
            if rf is not None:
                c["roofline_s"] = rf
                c["roofline_frac"] = round(rf / c["batched_s"], 3)

    payload = {
        "meta": {
            "bench": "bench_poly",
            "smoke": args.smoke,
            "repeats": repeats,
            "timing": "best-of and median-of-repeats wall seconds",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "methods": list(methods),
            "backends": tiers,
            "backends_skipped": skipped,
            "cpu_count": os.cpu_count(),
            "copy_bw_gbs": round(copy_bw / 1e9, 2),
            "roofline": "roofline_s = compulsory bytes moved / copy "
            "bandwidth; roofline_frac = roofline_s / batched_s (near 1 "
            "= memory-bound)",
            "gating_backend": "numpy",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {len(results)} cells to {args.out}")

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        matched = matched_cells(results, baseline)
        if not matched:
            print(
                f"\nbaseline gate is VACUOUS: {args.baseline} records none "
                "of the cells this run produced — refusing to pass a gate "
                "that compares nothing (re-record the baseline)"
            )
            return 1
        regressions = compare_to_baseline(results, baseline)
        if regressions:
            print(
                f"\n{len(regressions)} regression(s) vs {args.baseline} "
                f"(>{REGRESSION_THRESHOLD:.0%} on the batched median; "
                f"{len(matched)} cells gated):"
            )
            for line in regressions:
                print(f"  REGRESSION {line}")
            return 1
        print(
            f"\nno regressions vs {args.baseline} "
            f"({len(matched)} cells gated)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
