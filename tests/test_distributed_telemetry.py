"""Distributed telemetry: worker spools, parent merge, trace export, report.

The load-bearing acceptance test runs a real 2-worker full-chip solve
with a telemetry directory and checks the whole pipeline end to end:
every tile leaves an atomic spool file, the parent's merged counters
equal the spool-file sums, and the exported ``trace.json`` is a valid
Chrome trace with one lane per process and the worker's nested
solve/iteration spans inside each ``tile:`` span.  The null-twin test
pins the other contract — telemetry off leaves no files behind.
"""

import json
import os

import pytest

from repro.cli import main
from repro.config import (
    GridSpec,
    LithoConfig,
    OpticsConfig,
    OptimizerConfig,
    ProcessConfig,
    ResistConfig,
)
from repro.errors import ReproError
from repro.fullchip import FullChipConfig, FullChipEngine
from repro.obs import Instrumentation, MetricsRegistry, Tracer
from repro.obs.distributed import (
    SPOOL_DIRNAME,
    TileTelemetry,
    WorkerTelemetryConfig,
    iter_spool_files,
    merge_tile_telemetry,
    read_spool,
    spool_filename,
    summarize_worker,
    worker_instrumentation,
    write_spool,
)
from repro.obs.export import (
    TraceLane,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import Histogram
from repro.obs.report import (
    RUN_FILENAME,
    TRACE_FILENAME,
    bench_direction,
    compare_bench,
    diagnose_history,
    load_run,
    render_bench_check,
    render_run_report,
)
from repro.obs.trace import TraceSlice
from repro.opc.history import IterationRecord, OptimizationHistory
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0
PROBE_NM = 1024.0


def _fc_litho() -> LithoConfig:
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    """One telemetry-enabled 2-worker solve, shared by the whole module."""
    run_dir = tmp_path_factory.mktemp("telemetry_run")
    obs = Instrumentation.collecting(trace=True, metrics=True, timeline=True)
    engine = FullChipEngine(
        _fc_litho(),
        optimizer=OptimizerConfig(max_iterations=3, use_jump=False),
        config=FullChipConfig(
            tile_nm=1024.0,
            probe_extent_nm=PROBE_NM,
            workers=2,
            telemetry_dir=str(run_dir),
        ),
        obs=obs,
    )
    layout = synthetic_canvas(2048.0, 2048.0, seed=5)
    result = engine.solve(layout)
    return run_dir, obs, result


class TestAcceptance:
    def test_every_tile_leaves_a_spool_file(self, telemetry_run):
        run_dir, _, result = telemetry_run
        assert result.all_ok
        assert result.telemetry_dir == run_dir
        spools = iter_spool_files(run_dir / SPOOL_DIRNAME)
        assert len(spools) == len(result.tile_results) == 4
        names = {f"tile_r{r.index[0]}_c{r.index[1]}" for r in result.tile_results}
        assert {p.name for p in spools} == {spool_filename(n) for n in names}

    def test_merged_counters_equal_spool_sums(self, telemetry_run):
        run_dir, obs, result = telemetry_run
        spool_total = 0
        for path in iter_spool_files(run_dir / SPOOL_DIRNAME):
            data = read_spool(path)
            counter = data.metrics.get("iterations_total")
            assert counter and counter["type"] == "counter"
            spool_total += int(counter["value"])
        merged = obs.metrics.as_dict()["iterations_total"]["value"]
        assert spool_total > 0
        assert merged == spool_total
        # The picklable summaries agree with the spool files too.
        assert sum(r.telemetry.iterations for r in result.tile_results) == spool_total

    def test_parent_report_nests_worker_spans(self, telemetry_run):
        _, obs, result = telemetry_run
        stats = obs.tracer.stats()
        r0 = result.tile_results[0].index
        tile_name = f"tile_r{r0[0]}_c{r0[1]}"
        prefix = f"fullchip.solve/fullchip.tiles/tile:{tile_name}"
        assert f"{prefix}/solve" in stats
        assert f"{prefix}/solve/optimize/iteration" in stats
        assert stats[f"{prefix}/solve/optimize/iteration"].count == 3

    def test_chrome_trace_is_valid_with_process_lanes(self, telemetry_run):
        run_dir, _, result = telemetry_run
        with open(run_dir / TRACE_FILENAME) as handle:
            document = json.load(handle)
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        lanes = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        # At least the parent plus one worker process (with 2 pool
        # workers and 4 tiles, usually parent + 2 workers).
        assert len(lanes) >= 2
        assert lanes[os.getpid()] == "parent"
        worker_pids = {p for p in lanes if p != os.getpid()}
        assert worker_pids == {r.telemetry.pid for r in result.tile_results}
        # Nested per-tile spans: each worker lane holds the tile span
        # and the optimizer iterations inside it.
        r0 = result.tile_results[0].index
        tile_name = f"tile_r{r0[0]}_c{r0[1]}"
        paths = {e["args"]["path"] for e in events if e.get("ph") == "X"}
        assert f"tile:{tile_name}" in paths
        assert f"tile:{tile_name}/solve/optimize/iteration" in paths
        assert "fullchip.solve" in paths  # parent lane

    def test_run_json_records_tiles_and_cache(self, telemetry_run):
        run_dir, _, result = telemetry_run
        run = load_run(run_dir)
        assert run["kind"] == "fullchip_run"
        assert run["workers"] == 2
        assert len(run["tiles"]) == 4
        for tile in run["tiles"]:
            assert tile["telemetry"]["iterations"] == 3
        assert run["ambit_cache"]["entries"] >= 1

    def test_report_renders_from_artifacts_alone(self, telemetry_run):
        run_dir, _, result = telemetry_run
        report = render_run_report(run_dir)
        assert "2x2 tiles" in report and "2 worker(s)" in report
        assert "ambit model cache" in report
        for r in result.tile_results:
            assert f"tile_r{r.index[0]}_c{r.index[1]}" in report
        assert "fullchip.solve" in report  # phase breakdown
        assert "iterations_total" in report  # metrics summary
        assert "--- convergence ---" in report
        assert "3 iters" in report

    def test_report_cli_renders_run_dir(self, telemetry_run, capsys):
        run_dir, _, _ = telemetry_run
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "--- convergence ---" in out and "tile_r0_c0" in out

    def test_report_cli_rejects_non_run_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert RUN_FILENAME in capsys.readouterr().err


class TestFFTThreadRecords:
    """Each solver process gets its share of the cores, and run.json says so."""

    def test_two_workers_split_the_cores(self, tmp_path, monkeypatch):
        cores = 6
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        run_dir = tmp_path / "run"
        result = FullChipEngine(
            _fc_litho(),
            optimizer=OptimizerConfig(max_iterations=2, use_jump=False),
            config=FullChipConfig(
                tile_nm=1024.0,
                probe_extent_nm=PROBE_NM,
                workers=2,
                telemetry_dir=str(run_dir),
                queue_lease_s=60.0,
                backend="numpy",
            ),
        ).solve(synthetic_canvas(2048.0, 1024.0, seed=2))
        assert result.all_ok
        share = max(1, cores // 2)
        assert [r.fft_threads for r in result.tile_results] == [share, share]
        run = load_run(run_dir)
        assert run["fft_threads"] == result.fft_threads == cores
        assert [tile["fft_threads"] for tile in run["tiles"]] == [share, share]
        assert f"{cores} FFT thread(s) in the parent" in render_run_report(run_dir)


class TestNullTwin:
    def test_no_telemetry_dir_leaves_no_artifacts(self, tmp_path):
        engine = FullChipEngine(
            _fc_litho(),
            optimizer=OptimizerConfig(max_iterations=2, use_jump=False),
            config=FullChipConfig(tile_nm=1024.0, probe_extent_nm=PROBE_NM),
        )
        result = engine.solve(synthetic_canvas(2048.0, 2048.0, seed=5))
        assert result.all_ok
        assert result.telemetry_dir is None
        assert all(r.telemetry is None for r in result.tile_results)
        # The disabled singleton stayed inert: no spans, no metrics.
        assert engine.obs is Instrumentation.disabled()
        assert engine.obs.tracer.stats() == {}
        # And nothing was spooled anywhere under the test sandbox.
        assert list(tmp_path.rglob("spool_*.jsonl")) == []

    def test_merge_none_is_noop(self):
        obs = Instrumentation.collecting()
        merge_tile_telemetry(obs, None)
        assert obs.metrics.as_dict() == {}
        assert obs.tracer.stats() == {}


class TestSpoolRoundTrip:
    def _worker_bundle(self):
        obs, events = worker_instrumentation(
            WorkerTelemetryConfig(spool_dir="unused", timeline=True)
        )
        with obs.tracer.span("tile:t"):
            with obs.tracer.span("solve"):
                obs.metrics.counter("iterations_total").inc(5)
                obs.metrics.gauge("final_objective").set(1.25)
                obs.events.emit("iteration", iteration=0, objective=2.0)
        return obs, events

    def test_write_then_read_preserves_everything(self, tmp_path):
        obs, events = self._worker_bundle()
        path = write_spool(tmp_path, "tile_r0_c0", obs, events)
        assert path == tmp_path / spool_filename("tile_r0_c0")
        data = read_spool(path)
        assert data.tile == "tile_r0_c0"
        assert data.pid == os.getpid()
        assert {s["path"] for s in data.spans} == {"tile:t", "tile:t/solve"}
        assert [s.path for s in data.slices] == ["tile:t/solve", "tile:t"]
        assert data.metrics["iterations_total"]["value"] == 5
        assert data.events == [
            {"event": "iteration", "iteration": 0, "objective": 2.0}
        ]

    def test_summary_matches_bundle(self, tmp_path):
        obs, events = self._worker_bundle()
        summary = summarize_worker("tile_r0_c0", obs, events)
        assert summary.iterations == 5
        assert summary.events_count == 1
        assert summary.pid == os.getpid()
        round_tripped = TileTelemetry.from_dict(
            json.loads(json.dumps(summary.as_dict()))
        )
        assert round_tripped == summary

    def test_bad_lines_are_skipped(self, tmp_path):
        path = tmp_path / spool_filename("t")
        path.write_text(
            json.dumps({"kind": "header", "tile": "t", "pid": 7})
            + "\n{truncated\n"
            + json.dumps({"kind": "metric", "name": "c", "type": "counter", "value": 1})
            + "\n"
        )
        data = read_spool(path)
        assert data.tile == "t" and data.pid == 7
        assert data.metrics["c"]["value"] == 1

    def test_merge_folds_summary_into_parent(self):
        obs, events = self._worker_bundle()
        summary = summarize_worker("tile_r0_c0", obs, events)
        parent = Instrumentation.collecting()
        with parent.tracer.span("fullchip.tiles"):
            merge_tile_telemetry(parent, summary, under="fullchip.tiles")
            merge_tile_telemetry(parent, summary, under="fullchip.tiles")
        assert parent.metrics.as_dict()["iterations_total"]["value"] == 10
        stats = parent.tracer.stats()
        assert stats["fullchip.tiles/tile:t/solve"].count == 2


class TestMergeSemantics:
    def test_histogram_bucket_mismatch_raises(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="h"):
            hist.merge_dict(
                {"buckets": [1.0, 5.0], "counts": [0, 0, 0], "count": 0, "sum": 0.0}
            )

    def test_merge_snapshot_sums_and_merges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, n in ((a, 2), (b, 3)):
            registry.counter("c").inc(n)
            registry.gauge("g").set(float(n))
            registry.histogram("h", buckets=(1.0, 2.0)).observe(float(n))
        a.merge_snapshot(b.as_dict())
        merged = a.as_dict()
        assert merged["c"]["value"] == 5
        assert merged["g"]["value"] == 3.0
        assert merged["h"]["count"] == 2
        assert merged["h"]["sum"] == 5.0


class TestChromeTraceExport:
    def test_lanes_become_metadata_plus_x_events(self, tmp_path):
        lanes = [
            TraceLane(pid=1, label="parent", slices=[
                TraceSlice(path="fullchip.solve", ts_us=0.0, dur_us=100.0),
            ]),
            TraceLane(pid=2, label="tile_r0_c0", sort_index=1, slices=[
                TraceSlice(path="tile:t/solve", ts_us=10.0, dur_us=50.0, failed=True),
            ]),
        ]
        events = chrome_trace_events(lanes)
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in metadata} == {
            "process_name", "process_sort_index"
        }
        assert len(metadata) == 4  # two records per pid
        x_events = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in x_events] == ["fullchip.solve", "solve"]
        assert x_events[1]["args"]["failed"] is True
        path = write_chrome_trace(tmp_path / "trace.json", lanes)
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []

    def test_validator_flags_broken_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        orphan = {
            "traceEvents": [
                {"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 9, "tid": 0}
            ]
        }
        problems = validate_chrome_trace(orphan)
        assert any("no process_name lane" in p for p in problems)
        negative = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "p"}},
                {"name": "s", "ph": "X", "ts": -5, "dur": 1, "pid": 1, "tid": 0},
            ]
        }
        assert any("bad ts" in p for p in validate_chrome_trace(negative))


class TestConvergenceDiagnostics:
    def _history(self, objectives, steps=None):
        history = OptimizationHistory()
        steps = steps or [0.1] * len(objectives)
        for i, (objective, step) in enumerate(zip(objectives, steps)):
            history.append(
                IterationRecord(
                    iteration=i, objective=objective, gradient_rms=0.1,
                    step_size=step, term_values={"epe": objective / 2},
                )
            )
        return history

    def test_monotone_descent_is_clean(self):
        diag = diagnose_history(self._history([10.0, 8.0, 6.0, 4.0, 2.0, 1.0]))
        assert not diag.stalled and not diag.oscillating
        assert diag.flags == []
        assert diag.best_objective == 1.0
        assert diag.final_terms == {"epe": 0.5}

    def test_flat_tail_flags_stall(self):
        objectives = [10.0, 5.0] + [4.0] * 8
        diag = diagnose_history(self._history(objectives))
        assert diag.stalled
        assert "stalled" in diag.flags

    def test_alternating_objective_flags_oscillation(self):
        objectives = [5.0, 6.0, 5.0, 6.0, 5.0, 6.0, 5.0]
        diag = diagnose_history(self._history(objectives))
        assert diag.oscillating

    def test_recoveries_overlay(self):
        diag = diagnose_history(self._history([3.0, 2.0]), recoveries=2)
        assert diag.recoveries == 2
        assert "2 recovery" in diag.flags

    def test_empty_history(self):
        diag = diagnose_history(OptimizationHistory())
        assert diag.iterations == 0 and diag.final_objective is None


class TestBenchCheck:
    def test_direction_rules(self):
        assert bench_direction("parallel_s") == "lower"
        assert bench_direction("speedup") == "higher"
        assert bench_direction("speedup_floor") is None  # config echo
        assert bench_direction("rel_tol") is None
        assert bench_direction("tiles") is None

    def test_compare_flags_directional_regressions(self):
        baseline = {"parallel_s": 10.0, "speedup": 2.0, "tiles": 4, "ok": True}
        fresh = {"parallel_s": 13.0, "speedup": 1.0, "tiles": 4, "ok": False}
        deltas = {d.key: d for d in compare_bench(baseline, fresh, tolerance=0.15)}
        assert "ok" not in deltas  # bools never participate
        assert deltas["parallel_s"].regressed  # +30% on lower-is-better
        assert deltas["speedup"].regressed  # -50% on higher-is-better
        assert not deltas["tiles"].regressed  # no direction
        text = render_bench_check("BENCH_x.json", list(deltas.values()), 0.15)
        assert "REGRESSED" in text and "2 regression(s)" in text

    def test_within_tolerance_is_clean(self):
        baseline = {"parallel_s": 10.0, "speedup": 2.0}
        fresh = {"parallel_s": 11.0, "speedup": 1.9}
        deltas = compare_bench(baseline, fresh, tolerance=0.15)
        assert not any(d.regressed for d in deltas)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ReproError):
            compare_bench({"a_s": 1.0}, {"a_s": 1.0}, tolerance=-0.1)

    def test_cli_exit_codes(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_fullchip.json"
        baseline.write_text(json.dumps({"parallel_s": 10.0, "speedup": 2.0}))
        clean = tmp_path / "fresh_ok.json"
        clean.write_text(json.dumps({"parallel_s": 10.5, "speedup": 1.95}))
        regressed = tmp_path / "fresh_bad.json"
        regressed.write_text(json.dumps({"parallel_s": 25.0, "speedup": 0.8}))
        assert main(["bench-check", str(baseline), str(clean)]) == 0
        assert "no regressions" in capsys.readouterr().out
        assert main(["bench-check", str(baseline), str(regressed)]) == 2
        assert "REGRESSED" in capsys.readouterr().out

    def test_cli_rejects_incomparable_payloads(self, tmp_path, capsys):
        baseline = tmp_path / "a.json"
        baseline.write_text(json.dumps({"x": 1.0}))
        fresh = tmp_path / "b.json"
        fresh.write_text(json.dumps({"y": 2.0}))
        assert main(["bench-check", str(baseline), str(fresh)]) == 1
        assert "no comparable" in capsys.readouterr().err
