"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints, per workload and metric, the median and the interquartile
distance (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads serve-mix --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --json spread.json

Exits 1 when any spread other than ``setup_s``'s exceeds its bound, or
when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json", default=None, help="write the raw values here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values = raw.setdefault(workload, {name: [] for name in bounds})
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall_s = time.perf_counter() - t0
            if proc.returncode:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed} ({wall_s:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, ok = "  OVER BOUND", False
            elif spread > bounds[name] / 3:
                flag = "  over a third of bound"
            print(f"  {workload:14s} {name:16s} median {med:10.4f} "
                  f"spread {spread:6.3f} bound {bounds[name]:.2f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
