"""CLI for the encrypted-inference end-to-end sweep.

Examples::

    PYTHONPATH=src python -m repro.ml --json ml_inference.json
    PYTHONPATH=src python -m repro.ml --backend numpy,compiled --quick

Exits nonzero when any (model, degree, backend) cell's encrypted-vs-
plain agreement falls below the threshold.
"""

from __future__ import annotations

import argparse
import sys

from repro.ml.e2e import AGREEMENT_THRESHOLD, run_e2e, write_artifact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ml",
        description="Encrypted logreg/MLP inference: agreement gate "
        "and accuracy-vs-depth artifact over the bundled iris split.",
    )
    parser.add_argument(
        "--backend", default="numpy",
        help="comma-separated execution tiers to sweep "
        "(numpy, compiled; unavailable tiers fall back)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="split/keys/weights seed")
    parser.add_argument("--threshold", type=float,
                        default=AGREEMENT_THRESHOLD,
                        help="minimum encrypted-vs-plain agreement")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the artifact JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="one degree per model, 12 test samples")
    args = parser.parse_args(argv)

    kwargs = {}
    if args.quick:
        kwargs.update(logreg_degrees=(3,), mlp_degrees=(2,), n_test=12)
    report = run_e2e(
        backends=tuple(b.strip() for b in args.backend.split(",") if b.strip()),
        seed=args.seed,
        threshold=args.threshold,
        **kwargs,
    )
    if args.json:
        write_artifact(report, args.json)
    for r in report["results"]:
        print(
            f"{r['model']:<7} deg={r['degree']} [{r['backend']}] "
            f"agreement={r['agreement']:.3f} "
            f"enc_acc={r['encrypted_accuracy']:.3f} "
            f"plain_acc={r['plain_accuracy']:.3f} "
            f"fit_err={r['fit_max_error']:.4f} "
            f"levels={r['levels_consumed']} "
            f"rescales={r['planner_rescales']}"
        )
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{verdict}: {len(report['results'])} cells, "
          f"agreement threshold {report['agreement_threshold']}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
