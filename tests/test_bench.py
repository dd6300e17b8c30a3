"""Benchmark-harness unit tests: the --baseline regression gate.

The timing loops themselves are exercised by CI's bench-smoke job; here
the pure comparison logic is pinned — cell matching, the noise floor,
the whole-run drift normalization, the >25% threshold, tolerance of
baselines recorded before medians existed, and a gate run that never
writes over its own baseline.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_poly.py"
_spec = importlib.util.spec_from_file_location("bench_poly", _BENCH)
bench_poly = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_poly", bench_poly)
_spec.loader.exec_module(bench_poly)


def _cell(op="ntt_forward", n=1024, limbs=4, method="smr", med=1.0):
    return {
        "op": op,
        "n": n,
        "limbs": limbs,
        "method": method,
        "batched_s": med * 0.9,
        "batched_med_s": med,
        "looped_s": med * 4,
        "looped_med_s": med * 5,
    }


def _anchor(med=1.0):
    """A stable reference cell the drift normalization anchors on."""
    return _cell(op="key_switch", med=med)


def test_no_regression_within_threshold():
    baseline = {"results": [_cell(med=1.0), _anchor(1.0)]}
    results = [_cell(med=1.2), _anchor(1.0)]  # +20% < 25% after drift
    assert bench_poly.compare_to_baseline(results, baseline) == []


def test_regression_beyond_threshold_reported():
    baseline = {"results": [_cell(med=1.0), _anchor(4.0)]}
    results = [_cell(med=2.0), _anchor(4.0)]  # 2x against a stable anchor
    regressions = bench_poly.compare_to_baseline(results, baseline)
    assert len(regressions) == 1
    assert "ntt_forward" in regressions[0]
    assert "drift" in regressions[0]


def test_whole_machine_drift_does_not_flag():
    """A uniformly slower host (throttled CI runner) is machine drift,
    not a code regression — every cell scales, nothing flags."""
    baseline = {"results": [_cell(med=1.0), _anchor(4.0)]}
    results = [_cell(med=1.6), _anchor(6.4)]  # everything 1.6x slower
    assert bench_poly.compare_to_baseline(results, baseline) == []
    # ...and a real regression still shows through on top of drift
    results = [_cell(med=3.2), _anchor(6.4)]  # drifted 1.6x AND 2x worse
    regressions = bench_poly.compare_to_baseline(results, baseline)
    assert len(regressions) == 1 and "ntt_forward" in regressions[0]


def test_sub_floor_cells_are_not_gated():
    """Sub-millisecond cells are too noisy to gate individually; they
    are excluded by the MIN_GATED_MEDIAN_S floor (their kernels are
    still covered through the composite cells)."""
    tiny = bench_poly.MIN_GATED_MEDIAN_S / 10
    baseline = {"results": [_cell(op="rescale", med=tiny), _anchor(1.0)]}
    results = [_cell(op="rescale", med=tiny * 50), _anchor(1.0)]
    assert bench_poly.compare_to_baseline(results, baseline) == []
    assert bench_poly.matched_cells(results, baseline) == [
        ("key_switch", 1024, 4, "smr", "numpy")
    ]


def test_unrecorded_cells_are_skipped():
    """New kernels and removed cells are not regressions."""
    baseline = {"results": [_cell(op="old_kernel", med=1.0)]}
    results = [_cell(op="key_switch", med=9.9)]
    assert bench_poly.compare_to_baseline(results, baseline) == []


def test_premedian_baselines_are_skipped():
    old_style = _cell(med=1.0)
    del old_style["batched_med_s"]  # recorded before medians existed
    baseline = {"results": [old_style]}
    results = [_cell(med=5.0)]
    assert bench_poly.compare_to_baseline(results, baseline) == []


def test_threshold_is_configurable():
    baseline = {"results": [_cell(med=1.0), _anchor(4.0)]}
    results = [_cell(med=1.2), _anchor(4.0)]
    assert bench_poly.compare_to_baseline(results, baseline, threshold=0.1)
    assert not bench_poly.compare_to_baseline(results, baseline, threshold=0.3)


def test_faster_cells_never_flag():
    baseline = {"results": [_cell(med=1.0), _anchor(4.0)]}
    results = [_cell(med=0.2), _anchor(4.0)]
    assert bench_poly.compare_to_baseline(results, baseline) == []


def test_matched_cells_counts_the_gated_set():
    baseline = {"results": [_cell(), _cell(op="rescale")]}
    results = [_cell(), _cell(op="matvec")]  # matvec not recorded yet
    matched = bench_poly.matched_cells(results, baseline)
    # Cell keys carry the backend tier; cells recorded before the tier
    # column existed read back as the numpy tier.
    assert matched == [("ntt_forward", 1024, 4, "smr", "numpy")]


def test_serving_cells_use_the_wider_threshold():
    """The asyncio batch windows ride event-loop timers whose
    quantization jitter exceeds the kernel threshold; serving cells
    gate at SERVING_THRESHOLD instead, still catching >2x blowups."""
    baseline = {"results": [_cell(op="serving", med=1.0), _anchor(10.0)]}
    jitter = [_cell(op="serving", med=1.4), _anchor(10.0)]  # +35% norm'd
    assert bench_poly.compare_to_baseline(jitter, baseline) == []
    # ...but the same +35% on a kernel cell still flags:
    kernel = [_cell(med=1.4), _anchor(10.0)]
    kernel_base = {"results": [_cell(med=1.0), _anchor(10.0)]}
    assert len(bench_poly.compare_to_baseline(kernel, kernel_base)) == 1
    blowup = [_cell(op="serving", med=2.5), _anchor(10.0)]
    assert len(bench_poly.compare_to_baseline(blowup, baseline)) == 1


def test_non_numpy_tiers_are_never_gated():
    """Compiled timings depend on the runner's toolchain and core
    count — their cells are recorded but must never turn CI red,
    even when both sides carry the same tier cell with a huge slowdown."""
    tier_base = dict(_cell(med=1.0), backend="compiled")
    tier_now = dict(_cell(med=50.0), backend="compiled")
    baseline = {"results": [tier_base, _anchor(1.0)]}
    results = [tier_now, _anchor(1.0)]
    assert bench_poly.compare_to_baseline(results, baseline) == []
    assert bench_poly.matched_cells(results, baseline) == [
        ("key_switch", 1024, 4, "smr", "numpy")
    ]


def test_vacuous_gate_matches_nothing():
    """A baseline recording none of the produced cells gates nothing —
    the CLI refuses to pass in that state (exit 1), so a grid rename
    cannot silently disarm the CI regression job."""
    baseline = {"results": [_cell(op="renamed_kernel")]}
    results = [_cell(op="matvec")]
    assert bench_poly.matched_cells(results, baseline) == []
    premedian = _cell()
    del premedian["batched_med_s"]
    assert bench_poly.matched_cells([_cell()], {"results": [premedian]}) == []


def test_full_recording_grid_includes_the_smoke_cells():
    """CI's `--smoke --baseline BENCH_poly.json` gate only bites if the
    committed full-grid baseline records the smoke cells."""
    for cfg in bench_poly.SMOKE_GRID:
        assert cfg not in bench_poly.FULL_GRID  # no double timing
    # main() composes the recording grid as SMOKE + FULL; pin the shape
    # here so a refactor cannot quietly drop the smoke cells again.
    assert bench_poly.SMOKE_GRID[0] == (256, 4)


def test_roofline_widths_follow_tier_storage():
    """The roofline counts the bytes each tier really stores: uint64
    limbs on both, twiddles at numpy's kernel widths (Shoup's uint32
    value + uint64 companion, one 64-bit word else) and as 32-bit words
    on the compiled tier."""
    numpy_tw = {"barrett": 8, "montgomery": 8, "shoup": 12, "smr": 8}
    for method, tw in numpy_tw.items():
        assert bench_poly._storage_bytes(64, method, "numpy") == (8, tw)
    if bench_poly._tier_available("compiled"):
        for method in numpy_tw:
            expect = (8, 8 if method == "shoup" else 4)
            assert bench_poly._storage_bytes(64, method, "compiled") == expect
    ntt = bench_poly._roofline_s("ntt_forward", 64, 2, 1, 8, 4, copy_bw=1.0)
    assert ntt == 2 * 64 * (2 * 8 + 4)


def test_gate_refuses_to_overwrite_its_baseline(tmp_path, monkeypatch):
    """`--out` naming the `--baseline` file (however spelled) exits
    non-zero before anything is timed and leaves the baseline intact."""
    baseline = tmp_path / "BENCH_poly.json"
    baseline.write_text('{"results": []}\n')
    before = baseline.read_bytes()

    def timed(*args, **kwargs):
        raise AssertionError("the gate timed a cell")

    monkeypatch.setattr(bench_poly, "bench_config", timed)
    monkeypatch.setattr(bench_poly, "bench_backend_config", timed)
    monkeypatch.chdir(tmp_path)
    for out in (str(baseline), "BENCH_poly.json"):
        with pytest.raises(SystemExit) as exit_info:
            bench_poly.main(["--smoke", "--baseline", str(baseline), "--out", out])
        assert exit_info.value.code != 0
        assert baseline.read_bytes() == before
