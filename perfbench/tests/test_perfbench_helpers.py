"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from reference import components
from spans import Span, Tracer, layer_table, self_times, union_length

ROOT = Path(__file__).resolve().parents[2]


# -- percentile pick ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected_p",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    values = [float(i) for i in range(n)]
    picked = helpers.tail_percentile(values)
    if expected_p is None:
        assert picked is None
        return
    p, value = picked
    assert p == expected_p
    assert sum(1 for v in values if v > value) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert helpers.percentile(values, 50) == 3.0
    assert helpers.percentile(values, 100) == 5.0
    assert helpers.percentile(values, 1) == 1.0
    assert helpers.percentile([float(i) for i in range(1, 201)], 95) == 190.0


def test_timing_reports_sample_count_and_median():
    t = helpers.timing([3.0, 1.0, 2.0])
    assert t == {"n": 3, "p50": 2.0, "tail": None}
    assert helpers.timing([])["n"] == 0
    assert helpers.timing([0.001 * i for i in range(200)])["tail"]["p"] == 95.0


def test_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = helpers.spread(values)
    assert s["spread"] == pytest.approx((q3 - q1) / statistics.median(values))


# -- metric-name grammar ------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "solve_s_p50", "xp.fft.points", "opc.iteration.s_p50", "9lives", "a-b", "x" * 64])
def test_metric_names_accepted(name):
    assert helpers.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "nm^2", "x" * 65, None])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        helpers.check_metric_name(name)


def test_benchmark_json_fits_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        helpers.check_metric_name(name)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in bench["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) == 0.25


# -- Eq. 22 without runtime ---------------------------------------------------


def test_quality_is_eq22_without_runtime():
    from repro import ScoreBreakdown

    slow = ScoreBreakdown(runtime_s=123.4, pv_band_nm2=100.0, epe_violations=2, shape_violations=1)
    fast = ScoreBreakdown(runtime_s=0.5, pv_band_nm2=100.0, epe_violations=2, shape_violations=1)
    expected = 4 * 100.0 + 5000 * 2 + 10000 * 1
    assert helpers.quality_of(components(slow)) == expected
    assert helpers.quality_of(components(fast)) == expected
    assert helpers.quality_of(components(slow)) == pytest.approx(slow.total - slow.runtime_s)


def test_quality_of_a_service_score_ignores_total():
    score = {"total": 987654.0, "pv_band_nm2": 16.0, "epe_violations": 0, "shape_violations": 0}
    assert helpers.quality_of(components(score)) == 64.0
    totals = helpers.quality_totals([components(score), components(score)])
    assert totals["quality_score"] == 128.0 and totals["pv_band_nm2"] == 32.0


# -- failure counting ---------------------------------------------------------


def test_failures_counted():
    from repro.errors import RateLimitedError, ServiceError

    assert helpers.classify_request(error=RateLimitedError("HTTP 429", retry_after_s=1.0)) == "rate_limited"
    assert helpers.classify_request(error=TimeoutError("read timed out")) == "timeout"
    assert helpers.classify_request(error=ServiceError("job abc did not settle within 5s")) == "timeout"
    assert helpers.classify_request(error=ServiceError("HTTP 500: boom")) == "http_error"
    assert helpers.classify_request({"state": "FAILED"}) == "not_done"
    assert helpers.classify_request({"state": "RUNNING"}) == "not_done"
    assert helpers.classify_request({"state": "DONE"}) == "ok"
    miss = "abc"
    assert helpers.classify_request({"state": "DONE", "cached": False}, expect_cached_from=miss) == "uncached_hit"
    assert helpers.classify_request({"state": "DONE", "cached": True, "cached_from": "zzz"}, expect_cached_from=miss) == "uncached_hit"
    assert helpers.classify_request({"state": "DONE", "cached": True, "cached_from": miss}, expect_cached_from=miss) == "ok"
    assert helpers.count_failures(["ok", "rate_limited", "timeout", "not_done", "ok", "uncached_hit"]) == (6, 4)
    assert helpers.count_failures([]) == (0, 0)


# -- spans --------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    spans = [
        Span(0, "solve", "opc", 0.0, 10.0),
        Span(1, "forward", "optics", 1.0, 4.0, parent=0),
        Span(2, "adjoint", "optics", 5.0, 6.0, parent=0),
        Span(3, "fft", "xp", 1.0, 2.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)
    table = layer_table(spans)
    assert table["optics"] == {"count": 2, "busy_s": pytest.approx(4.0), "self_s": pytest.approx(3.0)}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "solve", "opc", 0.0, 10.0), Span(1, "a", "x", 1.0, 4.0, parent=0), Span(2, "b", "x", 3.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_wrappers_record_parents_and_roots():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_w = tracer.wrap(inner, "inner", "b")
    outer_w = tracer.wrap(lambda x: inner_w(x) * 2, "outer", "a")
    with tracer.sample("job:1", "sample", "bench"):
        assert outer_w(1) == 4
    sample, outer, inner_span = tracer.spans
    assert outer.parent == sample.id and inner_span.parent == outer.id
    assert {s.root for s in tracer.spans} == {"job:1"}
    assert sample.start <= outer.start <= inner_span.start <= inner_span.end <= outer.end <= sample.end


def test_patch_function_reaches_importers_and_uninstalls():
    from repro.mask import sraf
    from repro.opc import mosaic

    original = sraf.initial_mask_with_srafs
    tracer = Tracer()
    tracer.patch_function(original, "mask.seed", "mask")
    try:
        assert mosaic.initial_mask_with_srafs is not original
        assert mosaic.initial_mask_with_srafs.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert mosaic.initial_mask_with_srafs is original and sraf.initial_mask_with_srafs is original


def test_tracing_overhead_uses_medians():
    assert helpers.tracing_overhead([(1.1, 1.0), (2.2, 2.0), (3.3, 3.0)]) == pytest.approx(0.1)


# -- run length and host corrections -----------------------------------------


def test_another_unit_fits_at_the_mean_unit_length(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(helpers.time, "perf_counter", lambda: now[0])
    now[0] = 112.0  # two 6-s units took 12 s
    assert helpers.another_unit_fits(100.0, 2, seconds=18.0)
    assert not helpers.another_unit_fits(100.0, 2, seconds=17.9)
    now[0] = 134.0  # one 34-s pass already overran 30 s
    assert not helpers.another_unit_fits(100.0, 1, seconds=30.0)


def test_host_speed_rescales_by_the_bursts_around_a_sample():
    import calibrate

    with calibrate.HostSpeed() as speed:
        corrected = speed.rescale(3.0)
        before, after = speed.points[-2:]
    assert corrected == pytest.approx(3.0 * calibrate.REFERENCE_BURST_S / ((before + after) / 2))


def test_steal_clock_subtracts_counted_steal(monkeypatch):
    import calibrate

    steal = iter([10.0, 10.5])
    monkeypatch.setattr(calibrate, "steal_s", lambda: next(steal))
    with calibrate.StealClock() as clock:
        pass
    assert clock.steal == pytest.approx(0.5)
    assert clock.corrected == max(0.0, clock.wall - 0.5) == 0.0
    monkeypatch.undo()
    assert calibrate.steal_s() >= 0.0


# -- the command without a program --------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no program" in proc.stderr
