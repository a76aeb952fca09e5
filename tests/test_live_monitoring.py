"""Live monitoring: heartbeats, liveness watchdog, status feed, watch CLI.

The load-bearing acceptance fixture runs a real 2-worker full-chip
solve with one tile forced to stall via ``REPRO_FULLCHIP_FAULTS``, on
the default executor and again on the queue executor (both fork queue
workers in the run directory), and checks the whole live pipeline end
to end: the watchdog raises a ``worker_stalled`` event while the run is
in flight, ``status.json``'s final tile states match the returned
:class:`TileResult`s exactly, every process left a resource timeline,
and ``repro watch --once`` (dashboard and ``--json``) exits 3 on the
failed run.  Unit tests pin the
watchdog/status/ETA math with fake clocks so no timing is left to the
scheduler.
"""

import json
import os
import subprocess

import pytest

from repro.cli import _parse_tolerances, main
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
from repro.obs import NULL_HEARTBEAT, Instrumentation
from repro.obs.live import (
    HEARTBEAT_DIRNAME,
    STATUS_FILENAME,
    Heartbeat,
    HeartbeatWriter,
    LivenessWatchdog,
    StatusWriter,
    WatchdogConfig,
    heartbeat_filename,
    load_status,
    read_heartbeat,
    read_heartbeats,
)
from repro.obs.report import compare_bench, update_bench_baseline
from repro.obs.resources import (
    RESOURCES_DIRNAME,
    ResourceSampler,
    read_resource_timeline,
    resources_filename,
    summarize_resources,
)
from repro.obs.watch import collect_snapshot, render_snapshot, watch_exit_code
from repro.testing.faults import TILE_FAULTS_ENV
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0
PROBE_NM = 1024.0

#: The tile the acceptance fixture stalls (second tile of the top row).
STALLED = (0, 1)


def _fc_litho() -> LithoConfig:
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


def _stall_run(tmp_path_factory, executor):
    """One 2-worker solve on ``executor`` with tile (0,1) stalled for 4s.

    The fixtures that call this are shared by a whole test class or
    module, which cannot use ``monkeypatch``, so the env hook is set and
    restored by hand.
    """
    run_dir = tmp_path_factory.mktemp(f"stall_run_{executor}")
    events = []
    obs = Instrumentation.collecting(
        trace=True, metrics=True, timeline=True, events_sink=events.append
    )
    engine = FullChipEngine(
        _fc_litho(),
        optimizer=OptimizerConfig(max_iterations=3, use_jump=False),
        config=FullChipConfig(
            tile_nm=1024.0,
            probe_extent_nm=PROBE_NM,
            executor=executor,
            workers=2,
            keep_going=True,
            telemetry_dir=str(run_dir),
            resource_interval_s=0.1,
            watchdog_stall_factor=3.0,
            watchdog_min_stall_s=0.8,
        ),
        obs=obs,
    )
    saved = os.environ.get(TILE_FAULTS_ENV)
    os.environ[TILE_FAULTS_ENV] = f"stall@{STALLED[0]},{STALLED[1]}:4"
    try:
        result = engine.solve(synthetic_canvas(2048.0, 2048.0, seed=5))
    finally:
        if saved is None:
            os.environ.pop(TILE_FAULTS_ENV, None)
        else:
            os.environ[TILE_FAULTS_ENV] = saved
    return run_dir, obs, events, result


@pytest.fixture(scope="module")
def stall_run(tmp_path_factory):
    return _stall_run(tmp_path_factory, "pool")


class TestAcceptance:
    def test_watchdog_flags_the_stalled_worker(self, stall_run):
        _, obs, events, _ = stall_run
        stalls = [e for e in events if e["event"] == "worker_stalled"]
        assert stalls, "watchdog never flagged the injected stall"
        flag = stalls[0]
        assert flag["tile"] == f"tile_r{STALLED[0]}_c{STALLED[1]}"
        assert flag["stalled_for_s"] > flag["threshold_s"]
        assert flag["pid"] != os.getpid()
        counter = obs.metrics.as_dict()["fullchip_workers_stalled"]
        assert counter["value"] >= 1

    def test_stalled_tile_fails_and_the_rest_complete(self, stall_run):
        _, _, _, result = stall_run
        assert not result.all_ok
        assert result.failed_tiles == [STALLED]
        by_index = {r.index: r for r in result.tile_results}
        assert by_index[STALLED].status.status == "failed"
        assert "injected stall" in by_index[STALLED].status.error
        for index, tile in by_index.items():
            if index != STALLED:
                assert tile.status.status == "ok"

    def test_status_json_matches_tile_results_exactly(self, stall_run):
        run_dir, _, _, result = stall_run
        status = load_status(run_dir)
        assert status["schema"] == 1
        assert status["kind"] == "fullchip_status"
        assert status["state"] == "failed"
        assert status["workers"] == 2
        assert status["parent_pid"] == os.getpid()
        feed = {t["name"]: t for t in status["tile_states"]}
        assert len(feed) == len(result.tile_results) == 4
        for tile in result.tile_results:
            name = f"tile_r{tile.index[0]}_c{tile.index[1]}"
            assert feed[name]["state"] == tile.status.status
            assert feed[name]["index"] == list(tile.index)
            assert feed[name]["attempts"] == tile.status.attempts
        counts = status["tiles"]
        assert counts == {
            "total": 4, "done": 3, "running": 0, "failed": 1, "pending": 0,
        }
        assert status["eta_s"] == 0.0
        assert status["counters"].get("iterations_total", 0) >= 9

    def test_heartbeat_files_round_trip(self, stall_run):
        run_dir, _, _, result = stall_run
        beats = read_heartbeats(run_dir / HEARTBEAT_DIRNAME)
        names = {f"tile_r{r.index[0]}_c{r.index[1]}" for r in result.tile_results}
        assert set(beats) == names
        for name, beat in beats.items():
            assert beat.tile == name
            assert beat.pid > 0 and beat.pid != os.getpid()
            assert beat.ts > 0
        stalled_name = f"tile_r{STALLED[0]}_c{STALLED[1]}"
        assert beats[stalled_name].phase == "failed"
        done = {n: b.phase for n, b in beats.items() if n != stalled_name}
        assert set(done.values()) == {"done"}
        # File-level round trip through the public name helper.
        path = run_dir / HEARTBEAT_DIRNAME / heartbeat_filename(stalled_name)
        assert read_heartbeat(path) == beats[stalled_name]

    def test_resource_timelines_cover_every_pid(self, stall_run):
        run_dir, _, _, _ = stall_run
        res_dir = run_dir / RESOURCES_DIRNAME
        parent_file = res_dir / resources_filename(os.getpid())
        assert parent_file.is_file()
        assert read_resource_timeline(parent_file)
        worker_pids = {
            b.pid for b in read_heartbeats(run_dir / HEARTBEAT_DIRNAME).values()
        }
        for pid in worker_pids:
            timeline = read_resource_timeline(res_dir / resources_filename(pid))
            assert timeline, f"no resource samples for worker pid {pid}"
            assert all(s.pid == pid for s in timeline)
            assert timeline[-1].rss_bytes > 0
        summary = {e["pid"]: e for e in summarize_resources(
            res_dir, parent_pid=os.getpid()
        )}
        assert summary[os.getpid()]["role"] == "parent"
        assert all(summary[pid]["role"] == "worker" for pid in worker_pids)

    def test_watch_once_json_is_valid_and_exits_3(self, stall_run, capsys):
        run_dir, _, _, _ = stall_run
        assert main(["watch", str(run_dir), "--once", "--json"]) == 3
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["kind"] == "fullchip_status"
        assert snapshot["eta_s"] == 0.0
        phases = {t["name"]: t["phase"] for t in snapshot["tile_states"]}
        assert set(phases.values()) == {"done", "failed"}
        assert snapshot["resources"], "snapshot carries no resource summaries"

    def test_watch_once_dashboard_renders(self, stall_run, capsys):
        run_dir, _, _, _ = stall_run
        assert main(["watch", str(run_dir), "--once"]) == 3
        out = capsys.readouterr().out
        assert "tiles done" in out and "[failed]" in out
        assert "tile_r0_c1" in out and "parent" in out

    def test_watch_rejects_non_run_dir(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path)]) == 1
        assert STATUS_FILENAME in capsys.readouterr().err

    def test_report_json_shares_the_text_builder(self, stall_run, capsys):
        run_dir, _, _, result = stall_run
        assert main(["report", str(run_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "fullchip_report"
        assert len(report["run"]["tiles"]) == 4
        pids = {e["pid"] for e in report["resources"]}
        assert os.getpid() in pids and len(pids) >= 2
        assert report["convergence"], "report --json carries no convergence"
        # The text path renders from the same artifacts, resources included.
        assert main(["report", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert "--- resources ---" in text and "rss peak" in text


class TestQueueAcceptance(TestAcceptance):
    """The same assertions with the tiles solved on the queue executor.

    A queue worker's lease is renewed from a daemon thread for as long
    as its process lives, so a worker that hangs keeps its lease: only
    the watchdog flags it.
    """

    @pytest.fixture(scope="class")
    def stall_run(self, tmp_path_factory):
        return _stall_run(tmp_path_factory, "queue")


class TestHeartbeatWriter:
    def test_round_trip(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "tile_r0_c0")
        writer.beat(phase="optimize", iteration=7, objective=1.5)
        beat = read_heartbeat(writer.path)
        assert beat == Heartbeat(
            tile="tile_r0_c0", pid=os.getpid(), phase="optimize",
            iteration=7, objective=1.5, ts=beat.ts,
        )
        assert beat.age_s(beat.ts + 2.0) == 2.0

    def test_null_twin_is_inert(self):
        assert NULL_HEARTBEAT.enabled is False
        NULL_HEARTBEAT.beat(phase="optimize", iteration=1)

    def test_torn_heartbeat_reads_as_none(self, tmp_path):
        path = tmp_path / heartbeat_filename("t")
        path.write_text('{"tile": "t", "pid":')
        assert read_heartbeat(path) is None
        assert read_heartbeats(tmp_path) == {}


def _beat(tile, iteration, ts, pid=None, phase="optimize"):
    return Heartbeat(
        tile=tile, pid=pid if pid is not None else os.getpid(),
        phase=phase, iteration=iteration, ts=ts,
    )


class TestLivenessWatchdog:
    def _watchdog(self, events, **kwargs):
        config = WatchdogConfig(stall_factor=2.0, min_stall_s=5.0, **kwargs)
        obs = Instrumentation.collecting(
            trace=False, metrics=True, events_sink=events.append
        )
        return LivenessWatchdog(config, obs=obs, clock=lambda: 0.0), obs

    def test_stall_flags_after_threshold_then_rearms(self):
        events = []
        dog, obs = self._watchdog(events)
        # Iterations 1s apart: median iteration time 1s, threshold
        # max(5, 2*1) = 5s.
        dog.observe({"t": _beat("t", 0, ts=0.0)}, now=0.0)
        dog.observe({"t": _beat("t", 1, ts=1.0)}, now=1.0)
        dog.observe({"t": _beat("t", 2, ts=2.0)}, now=2.0)
        assert dog.threshold_s() == 5.0
        # Silence within threshold: nothing raised.
        assert dog.observe({"t": _beat("t", 2, ts=2.0)}, now=6.0) == []
        # Past it: exactly one flag, latched against re-raising.
        flags = dog.observe({"t": _beat("t", 2, ts=2.0)}, now=8.0)
        assert [f.tile for f in flags] == ["t"]
        assert flags[0].stalled_for_s == 6.0 and flags[0].threshold_s == 5.0
        assert dog.observe({"t": _beat("t", 2, ts=2.0)}, now=9.0) == []
        assert [e["event"] for e in events] == ["worker_stalled"]
        assert obs.metrics.as_dict()["fullchip_workers_stalled"]["value"] == 1
        # Progress re-arms the latch and announces the resume.
        assert dog.observe({"t": _beat("t", 3, ts=10.0)}, now=10.0) == []
        assert [e["event"] for e in events] == ["worker_stalled", "worker_resumed"]
        flags = dog.observe({"t": _beat("t", 3, ts=10.0)}, now=20.0)
        assert len(flags) == 1 and len(dog.stalls) == 2

    def test_dead_pid_waits_out_the_stall_threshold(self):
        # Dead workers are the queue sweep's to find: a reaped pid's
        # silent heartbeat is flagged like any other, once it stalls.
        child = subprocess.Popen(["true"])
        child.wait()  # reaped: the pid no longer exists
        events = []
        dog, _ = self._watchdog(events)
        beat = _beat("t", 0, ts=0.0, pid=child.pid)
        dog.observe({"t": beat}, now=0.0)
        assert dog.observe({"t": beat}, now=0.5) == []
        flags = dog.observe({"t": beat}, now=6.0)
        assert [f.pid for f in flags] == [child.pid]
        assert flags[0].stalled_for_s == 6.0 and flags[0].threshold_s == 5.0

    def test_done_tiles_and_final_phases_are_ignored(self):
        events = []
        dog, _ = self._watchdog(events)
        dog.observe({"a": _beat("a", 0, ts=0.0)}, now=0.0)
        dog.mark_done("a")
        assert dog.observe({"a": _beat("a", 0, ts=0.0)}, now=100.0) == []
        dog.observe({"b": _beat("b", 0, ts=0.0, phase="done")}, now=0.0)
        assert dog.observe(
            {"b": _beat("b", 0, ts=0.0, phase="done")}, now=100.0
        ) == []

    def test_config_validation(self):
        with pytest.raises(ReproError):
            WatchdogConfig(stall_factor=0.5)
        with pytest.raises(ReproError):
            WatchdogConfig(min_stall_s=0.0)


class TestStatusWriter:
    def _writer(self, tmp_path, now):
        return StatusWriter(
            tmp_path,
            {"tile_r0_c0": (0, 0), "tile_r0_c1": (0, 1),
             "tile_r1_c0": (1, 0), "tile_r1_c1": (1, 1)},
            layout="synth", workers=2, clock=lambda: now[0],
        )

    def test_eta_extrapolates_completion_rate(self, tmp_path):
        now = [0.0]
        status = self._writer(tmp_path, now)
        now[0] = 10.0
        payload = status.payload()
        assert payload["eta_s"] is None  # nothing settled yet
        status.mark_done("tile_r0_c0", "ok")
        status.mark_done("tile_r0_c1", "failed", error="boom")
        payload = status.payload()
        # 2 settled in 10s -> 0.2 tiles/s -> 2 remaining / 0.2 = 10s.
        assert payload["tiles_per_s"] == pytest.approx(0.2)
        assert payload["eta_s"] == pytest.approx(10.0)
        status.mark_done("tile_r1_c0", "recovered")
        status.mark_done("tile_r1_c1", "timeout")
        assert status.payload()["eta_s"] == 0.0

    def test_heartbeats_never_override_terminal_states(self, tmp_path):
        now = [0.0]
        status = self._writer(tmp_path, now)
        status.apply_heartbeat(_beat("tile_r0_c0", 2, ts=1.0))
        tile = {t["name"]: t for t in status.payload()["tile_states"]}
        assert tile["tile_r0_c0"]["state"] == "running"
        assert tile["tile_r0_c0"]["iteration"] == 2
        status.mark_done("tile_r0_c0", "ok", iterations=3, score_total=12.0)
        status.apply_heartbeat(_beat("tile_r0_c0", 99, ts=2.0))
        tile = {t["name"]: t for t in status.payload()["tile_states"]}
        assert tile["tile_r0_c0"]["state"] == "ok"
        assert tile["tile_r0_c0"]["iteration"] == 3
        assert tile["tile_r0_c0"]["phase"] == "done"

    def test_finalize_auto_state_and_stall_flagging(self, tmp_path):
        now = [0.0]
        status = self._writer(tmp_path, now)
        status.mark_running("tile_r0_c0", pid=1234)
        status.mark_stalled("tile_r0_c0")
        tile = {t["name"]: t for t in status.payload()["tile_states"]}
        assert tile["tile_r0_c0"]["stalled"] and tile["tile_r0_c0"]["pid"] == 1234
        status.mark_done("tile_r0_c0", "failed")
        for name in ("tile_r0_c1", "tile_r1_c0", "tile_r1_c1"):
            status.mark_done(name, "ok")
        status.finalize(score={"total": 1.0})
        payload = status.payload()
        assert payload["state"] == "failed"  # auto: a tile failed
        assert payload["score"] == {"total": 1.0}
        tile = {t["name"]: t for t in payload["tile_states"]}
        assert tile["tile_r0_c0"]["stalled"] is False  # settled clears it

    def test_write_then_load_round_trips(self, tmp_path):
        now = [5.0]
        status = self._writer(tmp_path, now)
        status.set_counters({"iterations_total": 12})
        status.write()
        loaded = load_status(tmp_path)
        assert loaded["schema"] == 1 and loaded["layout"] == "synth"
        assert loaded["counters"] == {"iterations_total": 12}
        assert [t["name"] for t in loaded["tile_states"]] == sorted(
            ["tile_r0_c0", "tile_r0_c1", "tile_r1_c0", "tile_r1_c1"]
        )

    def test_load_status_requires_the_file(self, tmp_path):
        with pytest.raises(ReproError, match=STATUS_FILENAME):
            load_status(tmp_path)


class TestWatchSnapshot:
    def _seed_run(self, tmp_path):
        now = [0.0]
        status = StatusWriter(
            tmp_path, {"tile_r0_c0": (0, 0), "tile_r0_c1": (0, 1)},
            layout="synth", workers=2, clock=lambda: now[0],
        )
        status.write()
        return status

    def test_snapshot_overlays_live_heartbeats(self, tmp_path):
        self._seed_run(tmp_path)
        writer = HeartbeatWriter(tmp_path / HEARTBEAT_DIRNAME, "tile_r0_c0")
        writer.beat(phase="optimize", iteration=5, objective=2.5)
        snapshot = collect_snapshot(tmp_path)
        tile = {t["name"]: t for t in snapshot["tile_states"]}
        assert tile["tile_r0_c0"]["state"] == "running"
        assert tile["tile_r0_c0"]["iteration"] == 5
        assert tile["tile_r0_c0"]["heartbeat_age_s"] >= 0.0
        assert tile["tile_r0_c1"]["state"] == "pending"
        rendered = render_snapshot(snapshot)
        assert "optimize" in rendered and "tile_r0_c1" in rendered

    def test_exit_code_contract(self):
        assert watch_exit_code({"state": "done", "tile_states": []}) == 0
        assert watch_exit_code({"state": "failed", "tile_states": []}) == 3
        assert watch_exit_code(
            {"state": "done", "tile_states": [{"state": "timeout"}]}
        ) == 3


class TestResourceSampler:
    def test_samples_and_counters_land_in_the_timeline(self, tmp_path):
        obs = Instrumentation.collecting(trace=False, metrics=True)
        obs.metrics.counter("iterations_total").inc(5)
        path = tmp_path / resources_filename(os.getpid())
        with ResourceSampler(path, interval_s=0.01, metrics=obs.metrics):
            import time

            time.sleep(0.08)
        timeline = read_resource_timeline(path)
        assert timeline
        sample = timeline[-1]
        assert sample.pid == os.getpid()
        assert sample.rss_bytes > 0 and sample.cpu_s >= 0
        assert sample.counters["iterations_total"] == 5
        summary = summarize_resources(tmp_path, parent_pid=os.getpid())
        assert summary[0]["role"] == "parent"
        assert summary[0]["rss_peak_bytes"] >= sample.rss_bytes


class TestBenchUpdate:
    def test_update_preserves_one_previous_generation(self, tmp_path):
        path = tmp_path / "BENCH_fullchip.json"
        path.write_text(json.dumps(
            {"parallel_s": 10.0, "previous": {"parallel_s": 20.0}}
        ))
        payload = update_bench_baseline(path, {"parallel_s": 8.0})
        assert payload == {"parallel_s": 8.0, "previous": {"parallel_s": 10.0}}
        assert json.loads(path.read_text()) == payload

    def test_per_key_tolerance_overrides(self):
        baseline = {"parallel_s": 10.0, "stitch_s": 10.0}
        fresh = {"parallel_s": 13.0, "stitch_s": 13.0}
        deltas = {
            d.key: d for d in compare_bench(
                baseline, fresh, tolerance=0.15, overrides={"stitch_s": 0.5}
            )
        }
        assert deltas["parallel_s"].regressed
        assert not deltas["stitch_s"].regressed
        with pytest.raises(ReproError):
            compare_bench(baseline, fresh, overrides={"stitch_s": -0.1})

    def test_parse_tolerances(self):
        assert _parse_tolerances(None) == (0.15, {})
        assert _parse_tolerances(["0.5"]) == (0.5, {})
        default, overrides = _parse_tolerances(["0.3", "stitch_s=0.9"])
        assert default == 0.3 and overrides == {"stitch_s": 0.9}
        with pytest.raises(ReproError):
            _parse_tolerances(["stitch_s=wat"])

    def test_cli_update_rewrites_baseline_and_exits_0(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_fullchip.json"
        baseline.write_text(json.dumps({"parallel_s": 10.0}))
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps({"parallel_s": 25.0}))  # a regression
        assert main([
            "bench-check", str(baseline), str(fresh),
            "--tolerance", "0.15", "--tolerance", "parallel_s=0.1",
        ]) == 2
        capsys.readouterr()
        assert main(
            ["bench-check", str(baseline), str(fresh), "--update"]
        ) == 0
        assert "Updated baseline" in capsys.readouterr().out
        updated = json.loads(baseline.read_text())
        assert updated["parallel_s"] == 25.0
        assert updated["previous"] == {"parallel_s": 10.0}
