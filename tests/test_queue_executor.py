"""Integration tests for the queue executor and crash-safe workers.

The load-bearing acceptance fixture is ``kill_run``: a real 2-worker
queue-executor full-chip solve with one worker SIGKILLed mid-solve via
``REPRO_FULLCHIP_FAULTS``.  The run must still complete every
tile, the recovered tile's stitched mask must equal an uninterrupted
run's bit-for-bit, and exactly one ``job_requeued`` event must latch —
the whole durability story end to end.  The default executor's forked
workers run on the same queue, in a private directory when the run has
none, and recover the same kill.  The cheaper tests drive
``run_worker`` in-process against a hand-seeded queue and pin the
executor dispatch seam.
"""

import os
import tempfile
import time

import numpy as np
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
from repro.errors import FullChipError
from repro.fullchip import (
    ExecutionContext,
    FullChipConfig,
    FullChipEngine,
    QueueWorkerExecutor,
    SerialExecutor,
    TileJob,
    TileJobQueue,
    build_tile_plan,
    executor_for,
    load_queue_state,
    run_tile_jobs,
    run_worker,
)
from repro.fullchip.queue import DONE_DIRNAME, QUEUE_DIRNAME, QueueConfig
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.obs import Instrumentation
from repro.testing.faults import TILE_FAULTS_ENV
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0
PROBE_NM = 1024.0

#: The tile whose worker the acceptance fixture SIGKILLs mid-solve.
KILLED = (0, 1)


def _fc_litho() -> LithoConfig:
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


def _fast_optimizer() -> OptimizerConfig:
    return OptimizerConfig(max_iterations=3, use_jump=False)


def _job_config() -> FullChipConfig:
    return FullChipConfig(tile_nm=1024.0, probe_extent_nm=PROBE_NM)


def _row_jobs(litho):
    """Two small jobs (a 1x2 plan over a synthetic strip)."""
    plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
    layout = synthetic_canvas(2048.0, 1024.0, seed=2)
    return [
        TileJob(
            tile=tile,
            layout=tile.clip_layout(layout),
            litho=litho,
            config=_job_config(),
            optimizer=_fast_optimizer(),
        )
        for tile in plan
    ]


class TestExecutorFor:
    def test_dispatch_table(self, tmp_path):
        assert isinstance(executor_for("serial", 4, 4), SerialExecutor)
        # One solver at a time: the pool kind solves inline.
        assert isinstance(executor_for("pool", 1, 4), SerialExecutor)
        assert isinstance(executor_for("pool", 4, 1), SerialExecutor)
        # Otherwise it forks min(workers, jobs) queue workers, in the
        # run directory or, with none, in a private one.
        pool = executor_for("pool", 4, 3, run_dir=tmp_path)
        assert isinstance(pool, QueueWorkerExecutor)
        assert pool.workers == 3 and pool.run_dir == tmp_path
        private = executor_for("pool", 2, 4)
        assert isinstance(private, QueueWorkerExecutor)
        assert private.workers == 2 and private.run_dir is None
        queue_exec = executor_for("queue", 2, 4, run_dir=tmp_path)
        assert isinstance(queue_exec, QueueWorkerExecutor)
        assert queue_exec.workers == 2
        # Every forked run takes the given queue settings.
        config = QueueConfig(lease_s=7.0, backoff_s=0.1)
        assert executor_for("pool", 2, 4, queue_config=config).queue_config == config

    def test_solvers_at_once(self, tmp_path):
        # The engine divides the usable cores by this count.
        assert executor_for("serial", 4, 3).solvers_at_once(3) == 1
        assert executor_for("pool", 4, 3).solvers_at_once(3) == 3
        assert executor_for("pool", 2, 3).solvers_at_once(3) == 2
        assert executor_for("pool", 2, 1).solvers_at_once(1) == 1
        assert executor_for("queue", 2, 4, run_dir=tmp_path).solvers_at_once(4) == 2
        with pytest.raises(FullChipError, match="workers"):
            executor_for("queue", 0, 4, run_dir=tmp_path)

    def test_queue_requires_run_dir(self):
        with pytest.raises(FullChipError, match="run directory"):
            executor_for("queue", 2, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FullChipError):
            executor_for("carrier-pigeon", 2, 4)


class TestRunWorker:
    def test_worker_drains_queue_and_matches_serial(self, tmp_path):
        litho = _fc_litho()
        jobs = _row_jobs(litho)
        queue = TileJobQueue.create(
            tmp_path / QUEUE_DIRNAME,
            {job.tile.name: (job.tile.index, job) for job in jobs},
            config=QueueConfig(lease_s=30.0),
        )
        assert run_worker(tmp_path, poll_s=0.05) == 0
        assert queue.drained()
        serial = {r.index: r for r in run_tile_jobs(jobs)}
        for job in jobs:
            record = queue.terminal_record(job.tile.name)
            assert record["state"] == "done"
            assert record["status"] == "ok"
            assert record["attempts"] >= 1
            mask = queue.load_result_mask(record)
            assert np.array_equal(mask, serial[job.tile.index].mask)

    def test_worker_on_unseeded_run_dir_raises(self, tmp_path):
        with pytest.raises(FullChipError):
            run_worker(tmp_path)

    def test_worker_cli_subcommand(self, tmp_path):
        litho = _fc_litho()
        jobs = _row_jobs(litho)[:1]
        queue = TileJobQueue.create(
            tmp_path / QUEUE_DIRNAME,
            {job.tile.name: (job.tile.index, job) for job in jobs},
        )
        assert main(["worker", str(tmp_path), "--poll", "0.05"]) == 0
        assert queue.drained()


class TestIdleWorkersStop:
    def test_run_returns_once_the_last_tile_settles(self, tmp_path):
        """An idle local worker must not sleep out ``poll_s`` at the end.

        Tile (0, 0)'s core is empty, so it settles at once and its
        worker goes idle while the other tile is still solving.
        """
        plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
        layout = Layout.from_rects(
            "right-core-only",
            [Rect(1300, 300, 1500, 700), Rect(1600, 400, 1700, 800)],
            clip=Rect(0, 0, 2048, 1024),
        )
        jobs = [
            TileJob(
                tile=tile,
                layout=tile.clip_layout(layout),
                litho=_fc_litho(),
                config=_job_config(),
                optimizer=_fast_optimizer(),
            )
            for tile in plan
        ]
        executor = QueueWorkerExecutor(tmp_path, workers=2, poll_s=5.0)
        results = executor.run(jobs, ExecutionContext(jobs))
        returned = time.time()
        assert all(result.ok for result in results.values())
        done = tmp_path / QUEUE_DIRNAME / DONE_DIRNAME
        last_commit = max(path.stat().st_mtime for path in done.iterdir())
        assert returned - last_commit < 1.0


class TestAbandonmentGrace:
    """`leased == 0` alone must not fail the run: externally attached
    workers may be between claims and tickets may sit in backoff."""

    def _seeded(self, tmp_path, lease_s=5.0):
        executor = QueueWorkerExecutor(
            tmp_path, workers=1, queue_config=QueueConfig(lease_s=lease_s)
        )
        queue = TileJobQueue.create(
            tmp_path / QUEUE_DIRNAME,
            {"tile_a": ((0, 0), "payload")},
            config=QueueConfig(lease_s=lease_s),
        )
        return executor, queue

    def test_recent_activity_defers_abandonment(self, tmp_path):
        executor, queue = self._seeded(tmp_path)
        # Freshly seeded: history is seconds old, well inside grace.
        assert executor._abandoned(queue, []) is False

    def test_inflight_lease_is_never_abandoned(self, tmp_path, monkeypatch):
        import time as _time

        import repro.fullchip.executor as executor_mod

        executor, queue = self._seeded(tmp_path)
        queue.claim()
        monkeypatch.setattr(
            executor_mod.time, "time", lambda: _time.monotonic() + 1e6
        )
        assert executor._abandoned(queue, []) is False

    def test_quiet_queue_is_abandoned_after_grace(self, tmp_path, monkeypatch):
        import time as _time

        import repro.fullchip.executor as executor_mod

        executor, queue = self._seeded(tmp_path)
        real_now = _time.time()
        monkeypatch.setattr(
            executor_mod.time, "time", lambda: real_now + 1000.0
        )
        assert executor._abandoned(queue, []) is True

    def test_backoff_parked_ticket_counts_as_activity(self, tmp_path, monkeypatch):
        import time as _time

        import repro.fullchip.executor as executor_mod

        executor, queue = self._seeded(tmp_path)
        real_now = _time.time()
        # A ticket parked behind a long backoff is claimable at
        # not_before; the quiet clock starts there, not at seed time.
        queue._write_ticket("tile_a", (0, 0), token=1, not_before=real_now + 995.0)
        monkeypatch.setattr(
            executor_mod.time, "time", lambda: real_now + 1000.0
        )
        assert executor._abandoned(queue, []) is False


class TestEngineQueueExecutor:
    def test_config_validation(self, tmp_path):
        with pytest.raises(FullChipError, match="telemetry_dir"):
            FullChipConfig(
                tile_nm=1024.0, probe_extent_nm=PROBE_NM, executor="queue"
            )
        with pytest.raises(FullChipError, match="executor"):
            FullChipConfig(
                tile_nm=1024.0, probe_extent_nm=PROBE_NM, executor="nope"
            )
        with pytest.raises(FullChipError, match="lease_s"):
            FullChipConfig(
                tile_nm=1024.0,
                probe_extent_nm=PROBE_NM,
                executor="queue",
                telemetry_dir=str(tmp_path),
                queue_lease_s=0.0,
            )

    @pytest.mark.parametrize(
        "executor, workers, with_run_dir",
        [("queue", 1, True), ("pool", 2, True), ("queue", 2, True),
         ("pool", 2, False)],
        ids=["queue-1", "pool-2", "queue-2", "pool-2-private"],
    )
    def test_queue_run_matches_default_run(
        self, tmp_path, monkeypatch, executor, workers, with_run_dir
    ):
        """A clean forked solve is bit-identical to the serial default."""
        litho = _fc_litho()
        layout = synthetic_canvas(2048.0, 1024.0, seed=2)
        reference = FullChipEngine(
            litho,
            optimizer=_fast_optimizer(),
            config=FullChipConfig(tile_nm=1024.0, probe_extent_nm=PROBE_NM),
        ).solve(layout)
        run_dir = tmp_path / "run"
        private_root = tmp_path / "tmp"
        private_root.mkdir()
        monkeypatch.setenv("TMPDIR", str(private_root))
        monkeypatch.setattr(tempfile, "tempdir", None)
        seen_private = []
        result = FullChipEngine(
            litho,
            optimizer=_fast_optimizer(),
            config=FullChipConfig(
                tile_nm=1024.0,
                probe_extent_nm=PROBE_NM,
                executor=executor,
                workers=workers,
                telemetry_dir=str(run_dir) if with_run_dir else None,
                queue_lease_s=60.0,
            ),
        ).solve(
            layout,
            on_tile=lambda _: seen_private.append(os.listdir(private_root)),
        )
        assert result.all_ok
        assert np.array_equal(result.mask, reference.mask)
        # The private queue directory lived through the run, then went.
        assert os.listdir(private_root) == []
        if with_run_dir:
            assert not any(seen_private)
            state = load_queue_state(run_dir)
            assert state is not None
            assert state["counts"]["done"] == len(result.tile_results)
            assert state["counts"]["requeued"] == 0
            assert state["lease_s"] == 60.0  # the config's, on every kind
        else:
            assert len(seen_private) == len(result.tile_results)
            assert all(
                len(names) == 1 and names[0].startswith("repro-queue-")
                for names in seen_private
            )

    @pytest.mark.parametrize("executor", ["pool", "queue"])
    def test_resumed_run_solves_a_failed_tile_again(
        self, tmp_path, monkeypatch, executor
    ):
        """The queue is disposable: a resumed run seeds it afresh and
        resumes from the done markers, so a tile that failed is solved
        again."""
        litho = _fc_litho()
        layout = synthetic_canvas(2048.0, 1024.0, seed=2)
        config = dict(
            tile_nm=1024.0,
            probe_extent_nm=PROBE_NM,
            executor=executor,
            workers=2,
            keep_going=True,
            telemetry_dir=str(tmp_path / "run"),
            checkpoint_dir=str(tmp_path / "state"),
        )
        monkeypatch.setenv(TILE_FAULTS_ENV, "fail@0,1")
        first = FullChipEngine(
            litho, optimizer=_fast_optimizer(), config=FullChipConfig(**config)
        ).solve(layout)
        assert first.failed_tiles == [(0, 1)]
        monkeypatch.delenv(TILE_FAULTS_ENV)
        resumed = FullChipEngine(
            litho,
            optimizer=_fast_optimizer(),
            config=FullChipConfig(resume=True, **config),
        ).solve(layout)
        by_index = {r.index: r for r in resumed.tile_results}
        assert by_index[(0, 0)].from_cache
        assert by_index[(0, 1)].ok and not by_index[(0, 1)].from_cache


@pytest.fixture(scope="module")
def kill_run(tmp_path_factory):
    """One 2-worker queue solve with tile (0,1)'s worker SIGKILLed.

    Module scope cannot use ``monkeypatch``, so the env hook is set and
    restored by hand.  The fixture also solves the same canvas
    uninterrupted (serial, no injection) as the stitching reference.
    """
    litho = _fc_litho()
    layout = synthetic_canvas(2048.0, 2048.0, seed=5)
    reference = FullChipEngine(
        litho,
        optimizer=_fast_optimizer(),
        config=FullChipConfig(tile_nm=1024.0, probe_extent_nm=PROBE_NM),
    ).solve(layout)
    run_dir = tmp_path_factory.mktemp("kill_run")
    events = []
    obs = Instrumentation.collecting(
        trace=True, metrics=True, timeline=True, events_sink=events.append
    )
    engine = FullChipEngine(
        litho,
        optimizer=_fast_optimizer(),
        config=FullChipConfig(
            tile_nm=1024.0,
            probe_extent_nm=PROBE_NM,
            executor="queue",
            workers=2,
            keep_going=True,
            telemetry_dir=str(run_dir),
            queue_lease_s=10.0,
            queue_backoff_s=0.05,
            resource_interval_s=0.1,
        ),
        obs=obs,
    )
    saved = os.environ.get(TILE_FAULTS_ENV)
    os.environ[TILE_FAULTS_ENV] = f"kill@{KILLED[0]},{KILLED[1]}:2"
    try:
        result = engine.solve(layout)
    finally:
        if saved is None:
            os.environ.pop(TILE_FAULTS_ENV, None)
        else:
            os.environ[TILE_FAULTS_ENV] = saved
    return run_dir, obs, events, result, reference


class TestKillRecoveryAcceptance:
    def test_every_tile_completes(self, kill_run):
        _, _, _, result, _ = kill_run
        assert result.all_ok
        assert result.failed_tiles == []
        assert len(result.tile_results) == 4

    def test_killed_tile_is_recovered_on_a_fresh_attempt(self, kill_run):
        _, _, _, result, _ = kill_run
        by_index = {r.index: r for r in result.tile_results}
        killed = by_index[KILLED]
        assert killed.status.status == "recovered"
        assert killed.status.attempts >= 2  # the SIGKILLed attempt + re-run
        for index, tile in by_index.items():
            if index != KILLED:
                assert tile.status.status == "ok"

    def test_exactly_one_requeue_event_latches(self, kill_run):
        _, obs, events, _, _ = kill_run
        requeued = [e for e in events if e["event"] == "job_requeued"]
        assert len(requeued) == 1
        event = requeued[0]
        assert event["tile"] == f"tile_r{KILLED[0]}_c{KILLED[1]}"
        assert event["token"] == 1
        assert not [e for e in events if e["event"] == "job_quarantined"]
        counters = obs.metrics.as_dict()
        assert counters["fullchip_jobs_requeued"]["value"] == 1

    def test_recovered_stitch_matches_uninterrupted_run(self, kill_run):
        _, _, _, result, reference = kill_run
        assert np.array_equal(result.mask, reference.mask)

    def test_queue_directory_tells_the_whole_story(self, kill_run):
        run_dir, _, _, result, _ = kill_run
        state = load_queue_state(run_dir)
        assert state["counts"]["done"] == 4
        assert state["counts"]["requeued"] == 1
        by_name = {t["name"]: t for t in state["tiles"]}
        killed = by_name[f"tile_r{KILLED[0]}_c{KILLED[1]}"]
        assert killed["state"] == "done"
        assert killed["requeues"] == 1
        kinds = [h["kind"] for h in killed["history"]]
        assert kinds.count("requeued") == 1
        assert kinds[-1] == "done"
        # The dead attempt's pulses must not survive into the re-run:
        # the recovered tile's final heartbeat carries attempt 2.
        from repro.obs.live import HEARTBEAT_DIRNAME, read_heartbeats

        beats = read_heartbeats(run_dir / HEARTBEAT_DIRNAME)
        killed_beat = beats.get(f"tile_r{KILLED[0]}_c{KILLED[1]}")
        if killed_beat is not None:
            assert killed_beat.attempt >= 2

    def test_report_renders_the_queue_section(self, kill_run):
        run_dir, _, _, _, _ = kill_run
        from repro.obs.report import build_run_report, render_run_report

        report = build_run_report(run_dir)
        assert report["queue"]["counts"]["done"] == 4
        text = render_run_report(run_dir)
        assert "durable queue" in text
        assert "requeued" in text


def test_default_executor_recovers_a_killed_worker(kill_run, monkeypatch):
    """``workers=2`` on the default executor, with no run directory,
    survives a SIGKILLed worker: the tile is requeued and re-solved."""
    *_, reference = kill_run
    monkeypatch.setenv(TILE_FAULTS_ENV, f"kill@{KILLED[0]},{KILLED[1]}:2")
    result = FullChipEngine(
        _fc_litho(),
        optimizer=_fast_optimizer(),
        config=FullChipConfig(
            tile_nm=1024.0, probe_extent_nm=PROBE_NM, workers=2, keep_going=True
        ),
    ).solve(synthetic_canvas(2048.0, 2048.0, seed=5))
    assert result.all_ok
    by_index = {r.index: r for r in result.tile_results}
    assert by_index[KILLED].status.status == "recovered"
    assert np.array_equal(result.mask, reference.mask)
