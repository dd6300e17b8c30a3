"""benchmarks/ab.py's summary: medians, parent quartiles, wins, bounds and
the failure counts; and the trajectory row ``--record`` appends."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_AB = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _AB)
ab = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("ab", ab)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "latency_p5_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]


def _result(**values):
    return {
        "correct": True,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()},
    }


def _pairs(rows):
    return [
        {"parent": _result(**p), "change": _result(**c)} for p, c in rows
    ]


def test_summary_on_canned_pairs():
    rows = [
        ({"latency_p5_ms": 100, "throughput_rps": 4.0, "peak_rss_mb": 90},
         {"latency_p5_ms": 95, "throughput_rps": 4.2, "peak_rss_mb": 120}),
        ({"latency_p5_ms": 110, "throughput_rps": 3.8, "peak_rss_mb": 92},
         {"latency_p5_ms": 112, "throughput_rps": 3.9, "peak_rss_mb": 118}),
        ({"latency_p5_ms": 104, "throughput_rps": 4.1, "peak_rss_mb": 91},
         {"latency_p5_ms": 99, "throughput_rps": 4.0, "peak_rss_mb": 121}),
        ({"latency_p5_ms": 120, "throughput_rps": 3.5, "peak_rss_mb": 93},
         {"latency_p5_ms": 101, "throughput_rps": 3.6, "peak_rss_mb": 119}),
    ]
    s = ab.summarize(_pairs(rows), METRICS)
    lat = s["latency_p5_ms"]
    assert lat["parent_median"] == 107 and lat["change_median"] == 100
    assert lat["parent_quartiles"] == [103, 112.5]
    assert lat["change_wins"] == 3 and lat["pairs"] == 4
    assert lat["within_bound"]
    rps = s["throughput_rps"]
    assert rps["change_wins"] == 3  # higher is better
    assert rps["change_median"] == pytest.approx(3.95)
    assert rps["within_bound"]
    # 119.5 MB against 91.5 MB is +31%, beyond the 15% bound
    rss = s["peak_rss_mb"]
    assert rss["change_wins"] == 0 and not rss["within_bound"]
    assert rss["change_over_parent"] == pytest.approx(119.5 / 91.5)


def test_summary_skips_metrics_a_run_lacks():
    rows = [({"latency_p5_ms": 10}, {"latency_p5_ms": 11})]
    s = ab.summarize(_pairs(rows), METRICS)
    assert list(s) == ["latency_p5_ms"]
    assert s["latency_p5_ms"]["parent_quartiles"] == [10, 10]
    assert s["latency_p5_ms"]["within_bound"]  # +10% < 25%


def test_failures_counted_and_wrong_runs_left_out():
    """A wrong-answer run (perfbench exits 1 but prints its line) is
    counted per side and its pair leaves the metrics; failed operations
    sum over every run."""
    rows = [
        ({"latency_p5_ms": 100}, {"latency_p5_ms": 90}),
        ({"latency_p5_ms": 104}, {"latency_p5_ms": 10}),  # the wrong run
        ({"latency_p5_ms": 108}, {"latency_p5_ms": 98}),
    ]
    pairs = _pairs(rows)
    counts = [((200, 2), (210, 0)), ((190, 0), (205, 5)), ((180, 1), (220, 3))]
    for pair, (parent, change) in zip(pairs, counts):
        for side, (attempted, failed) in (("parent", parent), ("change", change)):
            pair[side].update(attempted=attempted, failed=failed, exit=0)
    pairs[1]["change"].update(correct=False, exit=1)
    f = ab.failures(pairs)
    assert f["parent"] == {
        "attempted": 570, "failed": 3, "failed_share": 3 / 570, "bad_runs": 0,
    }
    assert f["change"] == {
        "attempted": 635, "failed": 8, "failed_share": 8 / 635, "bad_runs": 1,
    }
    lat = ab.summarize(pairs, METRICS)["latency_p5_ms"]
    assert lat["pairs"] == 2
    assert lat["parent_median"] == 104 and lat["change_median"] == 94
    # A nonzero exit alone also leaves the pair out, on either side.
    pairs[1]["change"].update(correct=True, exit=0)
    pairs[0]["parent"]["exit"] = 2
    assert ab.failures(pairs)["parent"]["bad_runs"] == 1
    assert ab.summarize(pairs, METRICS)["latency_p5_ms"]["pairs"] == 2


def _doc(rows, workload="circuit-n4096"):
    pairs = _pairs(rows)
    for pair in pairs:
        for side in ("parent", "change"):
            pair[side].update(attempted=100, failed=1, exit=0)
    return {
        "workload": workload,
        "seed": 1,
        "failures": ab.failures(pairs),
        "summary": ab.summarize(pairs, METRICS),
        "pairs": pairs,
    }


HOST = {"nproc": 2, "cpu": "test cpu", "python": "3.11.7", "numpy": "2.4.6"}
COMMITS = {"parent": "a" * 40, "change": "b" * 40 + "-dirty"}


def test_record_row_format():
    rows = [({"latency_p5_ms": 100, "peak_rss_mb": 90},
             {"latency_p5_ms": 90, "peak_rss_mb": 91})] * 3
    row = ab.record_row(_doc(rows), "change A", HOST, COMMITS)
    assert list(row) == [
        "label", "workload", "seed", "pairs", "host", "parent_commit",
        "change_commit", "metrics", "failed_share",
    ]
    assert (row["label"], row["workload"], row["seed"], row["pairs"]) == (
        "change A", "circuit-n4096", 1, 3,
    )
    assert row["host"] == HOST
    assert (row["parent_commit"], row["change_commit"]) == (
        COMMITS["parent"], COMMITS["change"],
    )
    assert list(row["metrics"]) == ["latency_p5_ms", "peak_rss_mb"]
    assert row["metrics"]["latency_p5_ms"] == {
        "parent_median": 100, "change_median": 90,
        "parent_quartiles": [100, 100], "change_wins": 3, "pairs": 3,
        "within_bound": True,
    }
    assert row["failed_share"] == {"parent": 0.01, "change": 0.01}


def test_append_keeps_earlier_rows_byte_identical(tmp_path):
    path = tmp_path / "BENCH_e2e.json"
    rows = [({"latency_p5_ms": 100}, {"latency_p5_ms": 90})]
    first = ab.record_row(_doc(rows), "change A", HOST, COMMITS)
    second = ab.record_row(_doc(rows, "serve-mix"), "change B", HOST, COMMITS)
    ab.append_row(path, first)
    before = path.read_bytes()
    ab.append_row(path, second)
    after = path.read_bytes()
    head = before[: -len(b"]\n")]
    assert after.startswith(head)
    assert head == b"[" + json.dumps(first).encode() + b"\n"
    assert after[len(head):] == b"," + json.dumps(second).encode() + b"\n]\n"
    assert json.loads(after) == [first, second]
