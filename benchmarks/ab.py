"""Order-alternating A/B runs of the end-to-end benchmark on two checkouts.

Runs ``perfbench/run.py --trace 0`` from a parent and a change checkout,
one pair at a time, alternating which side goes first (pair 0 runs the
parent first, pair 1 the change, and so on) so slow phases of a shared
host land on both sides alike.  Each run's last JSON line is its result.
The output is one JSON document: every pair; per side the operations
attempted and failed over all runs, the failed share, and the runs that
answered wrongly or exited nonzero; and per end-to-end metric the
parent's and the change's medians, the parent's quartiles, the change's
win count (``better`` from ``BENCHMARK.json``) and whether the change's
median stays within the metric's bound.  The metrics leave out every
pair with such a run on either side: a wrong answer's timings say
nothing.

Usage::

    python benchmarks/ab.py --parent DIR --change DIR --workload W \\
        --pairs N --seed S [--out FILE] [--record FILE --label TEXT]

Every run lasts ``BENCHMARK.json``'s ``run_seconds``; that file and its
metric declarations are read from the change checkout.  ``--record``
appends the run's summary as one row (:func:`record_row`) to an
end-to-end trajectory file such as the repo's ``BENCH_e2e.json``: a
JSON list holding one row per line (:func:`append_row`), whose earlier
rows are never rewritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

#: what a trajectory row keeps of each metric's summary
ROW_METRIC_KEYS = (
    "parent_median", "change_median", "parent_quartiles", "change_wins",
    "pairs", "within_bound",
)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``checkout``'s benchmark: its result line,
    with the process's exit status under ``"exit"`` (perfbench exits 1
    after a wrong answer but still prints the line)."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        raise RuntimeError(
            f"{checkout}: no result line (exit {proc.returncode}):\n"
            + proc.stderr[-2000:]
        )
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def _sound(run: dict) -> bool:
    """Whether a run's timings count: it exited 0 with every answer right."""
    return run.get("exit", 0) == 0 and run.get("correct", False)


def failures(pairs: list[dict]) -> dict:
    """Per side: operations attempted and failed over all runs, the failed
    share, and the count of runs that answered wrongly or exited nonzero."""
    out = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        attempted = sum(r.get("attempted", 0) for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        out[side] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "bad_runs": sum(not _sound(r) for r in runs),
        }
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, parent quartiles, wins and bound checks.

    ``pairs`` holds ``{"parent": result, "change": result}`` dicts (the
    benchmark's result lines); ``metrics`` is ``BENCHMARK.json``'s
    ``end_to_end`` list.  Pairs with a wrong-answer or nonzero-exit run
    on either side are left out (:func:`failures` counts them).
    """
    sound = [p for p in pairs if _sound(p["parent"]) and _sound(p["change"])]
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [
            (p["parent"]["metrics"][name]["value"],
             p["change"]["metrics"][name]["value"])
            for p in sound
            if name in p["parent"]["metrics"] and name in p["change"]["metrics"]
        ]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        limit = p_med * (1 + spec["bound"] if lower else 1 - spec["bound"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": p_med,
            "change_median": c_med,
            "parent_quartiles": list(_quartiles(parent)),
            "change_over_parent": c_med / p_med if p_med else None,
            "change_wins": sum((b < a) if lower else (b > a) for a, b in both),
            "pairs": len(both),
            "within_bound": c_med <= limit if lower else c_med >= limit,
        }
    return out


def host_info() -> dict:
    """The measuring host: CPU count and model, Python and NumPy."""
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln for ln in fh if ln.startswith("model name")]
    except OSError:
        models = []
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0].split(":", 1)[1].strip() if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
    }


def commit(checkout: Path) -> str | None:
    """The checkout's HEAD commit, suffixed ``-dirty`` when its tracked
    files differ from it; ``None`` outside a git work tree."""
    git = ["git", "-C", str(checkout)]
    try:
        head = subprocess.run(
            [*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        changed = subprocess.run(
            [*git, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if changed else "")


def record_row(doc: dict, label: str, host: dict, commits: dict) -> dict:
    """One trajectory row from an A/B document: the label, workload,
    seed and pair count, the host, both commits, per metric the
    :data:`ROW_METRIC_KEYS` of its summary, and per side the failed
    share of operations."""
    return {
        "label": label,
        "workload": doc["workload"],
        "seed": doc["seed"],
        "pairs": len(doc["pairs"]),
        "host": host,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "metrics": {
            name: {key: summary[key] for key in ROW_METRIC_KEYS}
            for name, summary in doc["summary"].items()
        },
        "failed_share": {
            side: counts["failed_share"]
            for side, counts in doc["failures"].items()
        },
    }


def append_row(path: Path, row: dict) -> None:
    """Append ``row`` to the JSON list at ``path`` (created if missing).

    One row per line, the first opening the list and every later one
    led by its comma, so an append overwrites only the closing ``]``
    line: the bytes of earlier rows never change.
    """
    line = json.dumps(row)
    if not path.exists():
        path.write_text(f"[{line}\n]\n")
        return
    with path.open("r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        if fh.read() != b"]\n":
            raise ValueError(f"{path} does not end in a row list's ']' line")
        fh.seek(-2, os.SEEK_END)
        fh.write(f",{line}\n]\n".encode())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--record", type=Path,
                    help="append the summary as one row to this file")
    ap.add_argument("--label", help="the row's label, e.g. the change's name")
    args = ap.parse_args(argv)
    if (args.record is None) != (args.label is None):
        ap.error("--record and --label go together")
    decl = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = decl["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, args.seed, seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "parent": str(sides["parent"]),
        "change": str(sides["change"]),
        "failures": failures(pairs),
        "summary": summarize(pairs, decl["end_to_end"]),
        "pairs": pairs,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    if args.record:
        commits = {side: commit(path) for side, path in sides.items()}
        append_row(args.record, record_row(doc, args.label, host_info(), commits))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
