"""Unit tests for the durable tile-job queue protocols.

Everything here exercises the queue's one-winner filesystem protocols
with tiny fake job payloads and a frozen clock — no real solves — so
the whole file runs in milliseconds.  The load-bearing tests are the
fencing ones: a stale worker's late commit must never clobber a
re-run's result, under either fence (lost lease unlink, or losing the
highest-token tiebreak).
"""

import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import FullChipError
from repro.fullchip.queue import (
    LEASED_DIRNAME,
    PENDING_DIRNAME,
    QueueConfig,
    TileJobQueue,
    _entry_name,
    _parse_entry_name,
    load_queue_state,
)


class Clock:
    """A settable time source for deterministic lease expiry."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _queue(root, tiles=("tile_a", "tile_b"), clock=None, **cfg):
    config = QueueConfig(**{"lease_s": 5.0, "backoff_s": 0.0, **cfg})
    jobs = {name: ((0, i), f"payload:{name}") for i, name in enumerate(tiles)}
    queue = TileJobQueue.create(root, jobs, config=config)
    if clock is not None:
        queue._now = clock
    return queue


class TestQueueConfig:
    def test_validation(self):
        with pytest.raises(FullChipError):
            QueueConfig(lease_s=0)
        with pytest.raises(FullChipError):
            QueueConfig(max_requeues=-1)
        with pytest.raises(FullChipError):
            QueueConfig(backoff_s=-0.1)


class TestEntryNames:
    def test_roundtrip(self):
        assert _parse_entry_name(_entry_name("tile_r0_c1", 3)) == ("tile_r0_c1", 3)

    def test_aliens_rejected(self):
        assert _parse_entry_name("junk.txt") is None
        assert _parse_entry_name("tile.json") is None
        assert _parse_entry_name("tile.tXX.json") is None


class TestClaimAndCommit:
    def test_claim_returns_payload_and_lease(self, tmp_path):
        clock = Clock()
        queue = _queue(tmp_path / "q", clock=clock)
        claim = queue.claim()
        assert claim is not None
        assert claim.tile == "tile_a"  # sorted order
        assert claim.token == 0 and claim.attempt == 1
        assert claim.job == "payload:tile_a"
        assert claim.lease.pid == os.getpid()
        assert claim.lease.deadline == clock.t + 5.0

    def test_each_ticket_claimed_once(self, tmp_path):
        queue = _queue(tmp_path / "q")
        first, second = queue.claim(), queue.claim()
        assert {first.tile, second.tile} == {"tile_a", "tile_b"}
        assert queue.claim() is None  # everything leased

    def test_complete_roundtrips_mask_and_settles(self, tmp_path):
        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        claim = queue.claim()
        mask = np.linspace(0, 1, 16).reshape(4, 4)
        assert queue.complete(claim, mask, {"status": "ok", "attempts": 1})
        record = queue.terminal_record("tile_a")
        assert record["state"] == "done"
        assert record["status"] == "ok" and record["token"] == 0
        assert np.array_equal(queue.load_result_mask(record), mask)
        assert queue.drained()
        counts = queue.counts()
        assert counts["done"] == 1 and counts["pending"] == 0
        assert counts["leased"] == 0

    def test_fail_is_terminal(self, tmp_path):
        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        claim = queue.claim()
        assert queue.fail(claim, {"status": "failed", "error": "boom"})
        record = queue.terminal_record("tile_a")
        assert record["state"] == "failed" and record["error"] == "boom"
        assert queue.drained()

    def test_claim_gc_tickets_behind_terminal_record(self, tmp_path):
        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        claim = queue.claim()
        queue.complete(claim, None, {"status": "ok"})
        # A straggler ticket behind the settled tile is swept, not claimed.
        queue._write_ticket("tile_a", (0, 0), token=0, not_before=0.0)
        assert queue.claim() is None
        assert not list((tmp_path / "q" / PENDING_DIRNAME).glob("*.json"))

    def test_open_requires_meta(self, tmp_path):
        with pytest.raises(FullChipError, match="not a queue dir"):
            TileJobQueue.open(tmp_path / "nope")

    def test_open_restores_config(self, tmp_path):
        _queue(tmp_path / "q", lease_s=7.5, max_requeues=4, backoff_s=1.25)
        reopened = TileJobQueue.open(tmp_path / "q")
        assert reopened.config == QueueConfig(
            lease_s=7.5, max_requeues=4, backoff_s=1.25
        )


class TestExpirySweep:
    def test_expired_lease_requeues_with_backoff(self, tmp_path):
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock, backoff_s=4.0)
        queue.claim()
        incidents = queue.sweep_expired()
        assert incidents == []  # lease still live
        clock.t += 6.0
        # Deadline passed, but the claimant (this process) is alive on
        # this host: the live-pid grace defers expiry.
        assert queue.sweep_expired() == []
        clock.t += 10.0
        incidents = queue.sweep_expired()
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident["kind"] == "job_requeued"
        assert incident["tile"] == "tile_a" and incident["token"] == 1
        assert incident["backoff_s"] == 4.0
        # Lease gone, replacement ticket gated by the backoff.
        assert not list((tmp_path / "q" / LEASED_DIRNAME).glob("*.json"))
        assert queue.claim() is None
        clock.t += 5.0
        reclaim = queue.claim()
        assert reclaim.token == 1 and reclaim.attempt == 2

    def test_backoff_doubles_per_generation(self, tmp_path):
        clock = Clock()
        queue = _queue(
            tmp_path / "q", tiles=("tile_a",), clock=clock,
            backoff_s=1.0, max_requeues=3,
        )
        backoffs = []
        for _ in range(3):
            clock.t += 100.0
            queue.claim()
            clock.t += 100.0
            (incident,) = queue.sweep_expired()
            backoffs.append(incident["backoff_s"])
        assert backoffs == [1.0, 2.0, 4.0]

    def test_sweep_is_single_winner_per_incident(self, tmp_path):
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        queue.claim()
        other = TileJobQueue.open(tmp_path / "q")
        other._now = clock
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        total = queue.sweep_expired() + other.sweep_expired()
        assert len(total) == 1  # O_EXCL ticket creation: one incident

    def test_dead_pid_expires_immediately(self, tmp_path):
        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        claim = queue.claim()
        # A pid that existed and is now gone, on this host.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lease_path = (
            tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", claim.token)
        )
        record = claim.lease.as_dict()
        record["pid"] = proc.pid
        record["host"] = socket.gethostname()
        lease_path.write_text(json.dumps(record))
        (incident,) = queue.sweep_expired()  # no time travel needed
        assert incident["reason"] == "worker died"
        assert incident["stale_pid"] == proc.pid

    def test_orphaned_lease_falls_back_to_ctime(self, tmp_path):
        # A crash between the claim rename and the lease rewrite leaves
        # the ticket payload (no deadline) in leased/.
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        src = tmp_path / "q" / PENDING_DIRNAME / _entry_name("tile_a", 0)
        dst = tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", 0)
        os.rename(src, dst)
        assert queue.sweep_expired() == []  # within ctime + lease_s
        clock.t = os.stat(dst).st_ctime + queue.config.lease_s + 1.0
        (incident,) = queue.sweep_expired()
        assert incident["kind"] == "job_requeued"

    def test_quarantine_after_max_requeues(self, tmp_path):
        clock = Clock()
        queue = _queue(
            tmp_path / "q", tiles=("tile_a",), clock=clock, max_requeues=0
        )
        queue.claim()
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        (incident,) = queue.sweep_expired()
        assert incident["kind"] == "job_quarantined"
        record = queue.terminal_record("tile_a")
        assert record["state"] == "quarantined"
        assert "max_requeues=0" in record["error"]
        assert queue.drained() and queue.claim() is None
        kinds = [h["kind"] for h in queue.history("tile_a")]
        assert kinds == ["seeded", "leased", "quarantined"]

    def test_sweep_clears_stale_heartbeat(self, tmp_path):
        from repro.obs.live import heartbeat_filename

        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        queue.claim()
        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        stale = hb_dir / heartbeat_filename("tile_a")
        stale.write_text("{}")
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired(heartbeat_dir=hb_dir)
        assert not stale.exists()


class TestCommitFencing:
    """Duplicate-completion idempotence: exactly one result wins."""

    def test_stale_worker_loses_the_lease_fence(self, tmp_path):
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        stale_claim = queue.claim()  # worker A, token 0
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired()  # A presumed dead; tile requeued
        fresh_claim = queue.claim()  # worker B, token 1
        fresh_mask = np.full((4, 4), 2.0)
        assert queue.complete(fresh_claim, fresh_mask, {"status": "ok"}) is True
        # A's late commit: its lease is gone, so the unlink fence fails.
        stale_mask = np.zeros((4, 4))
        assert queue.complete(stale_claim, stale_mask, {"status": "ok"}) is False
        record = queue.terminal_record("tile_a")
        assert record["token"] == 1
        assert np.array_equal(queue.load_result_mask(record), fresh_mask)
        kinds = [h["kind"] for h in queue.history("tile_a")]
        assert kinds.count("discarded") == 1

    def test_resurrected_lease_loses_by_token_order(self, tmp_path):
        # The renew TOCTOU can briefly rewrite a just-swept lease file;
        # even then the stale commit must lose to the higher token.
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        stale_claim = queue.claim()
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired()
        fresh_claim = queue.claim()
        fresh_mask = np.full((4, 4), 2.0)
        assert queue.complete(fresh_claim, fresh_mask, {"status": "ok"})
        # Resurrect the stale generation's lease file by hand.
        (tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", 0)).write_text(
            json.dumps(stale_claim.lease.as_dict())
        )
        assert queue.complete(stale_claim, np.zeros((4, 4)), {"status": "ok"}) is False
        record = queue.terminal_record("tile_a")
        assert record["token"] == 1
        assert np.array_equal(queue.load_result_mask(record), fresh_mask)

    def test_stale_worker_cannot_fail_over_a_fresh_result(self, tmp_path):
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        stale_claim = queue.claim()
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired()
        fresh_claim = queue.claim()
        assert queue.complete(fresh_claim, np.ones((2, 2)), {"status": "ok"})
        assert queue.fail(stale_claim, {"status": "failed", "error": "late"}) is False
        assert queue.terminal_record("tile_a")["state"] == "done"

    def test_claim_from_before_a_fresh_seed_loses_the_fence(self, tmp_path):
        # A forked worker can outlive its engine and still be solving
        # when the next run seeds the same queue afresh.  Tokens restart
        # at 0, so its lease path names the new claimant's lease.
        from repro.fullchip.queue import DONE_DIRNAME

        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        stale_claim = queue.claim()
        stale_claim.lease.pid = os.getpid() + 1  # claimed by another process
        reseeded = TileJobQueue.create(
            tmp_path / "q",
            {"tile_a": ((0, 0), "payload:new")},
            config=queue.config,
        )
        fresh_claim = reseeded.claim()
        assert fresh_claim.token == stale_claim.token == 0
        assert fresh_claim.job == "payload:new"
        assert queue.renew(stale_claim.lease) is False
        assert queue.complete(stale_claim, np.zeros((4, 4)), {"status": "ok"}) is False
        fresh_mask = np.full((4, 4), 2.0)
        assert reseeded.complete(fresh_claim, fresh_mask, {"status": "ok"}) is True
        records = list((tmp_path / "q" / DONE_DIRNAME).glob("*.json"))
        assert [path.name for path in records] == [_entry_name("tile_a", 0)]
        record = reseeded.terminal_record("tile_a")
        assert np.array_equal(reseeded.load_result_mask(record), fresh_mask)
        kinds = [h["kind"] for h in reseeded.history("tile_a")]
        assert kinds.count("discarded") == 1


class TestCommitCrashSafety:
    """A worker (or sweeper) killed at any instant loses at most one
    lease term of work — the commit/sweep orderings leave no stateless
    window."""

    def test_failed_result_write_leaves_lease_recoverable(
        self, tmp_path, monkeypatch
    ):
        # OSError mid-commit (e.g. disk full writing the npz): the
        # lease must survive, so the tile expires and requeues like
        # any dead worker instead of vanishing from every state dir.
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        claim = queue.claim()

        def explode(path, mask):
            raise OSError("disk full")

        monkeypatch.setattr(
            TileJobQueue, "_write_result_npz", staticmethod(explode)
        )
        with pytest.raises(OSError):
            queue.complete(claim, np.ones((2, 2)), {"status": "ok"})
        monkeypatch.undo()
        assert queue.lease_exists(claim.lease)
        assert queue.terminal_record("tile_a") is None
        clock.t += 16.0
        (incident,) = queue.sweep_expired()
        assert incident["kind"] == "job_requeued"
        retry = queue.claim()
        assert retry.token == 1
        assert queue.complete(retry, np.ones((2, 2)), {"status": "ok"})
        assert queue.drained()

    def test_zombie_lease_behind_settled_tile_is_cleared_not_requeued(
        self, tmp_path
    ):
        # Crash between the terminal write and the lease unlink: the
        # leftover lease is swept without minting a new generation.
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        claim = queue.claim()
        assert queue.complete(claim, np.ones((2, 2)), {"status": "ok"})
        lease_path = (
            tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", 0)
        )
        lease_path.write_text(json.dumps(claim.lease.as_dict()))
        clock.t += 100.0
        assert queue.sweep_expired() == []
        assert not lease_path.exists()
        assert queue.drained()
        assert not list((tmp_path / "q" / PENDING_DIRNAME).glob("*.json"))

    def test_sweeper_crash_leftover_cannot_mint_duplicate_generation(
        self, tmp_path
    ):
        # A sweeper that crashed after writing the replacement ticket
        # but before unlinking the stale lease leaves both behind; once
        # the ticket is claimed, the stale lease must be cleared — not
        # requeued into a second live generation of the same tile.
        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        stale = queue.claim()
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired()
        fresh = queue.claim()
        assert fresh.token == 1
        # Resurrect the crashed sweeper's leftover: the stale t0 lease.
        stale_path = (
            tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", 0)
        )
        stale_path.write_text(json.dumps(stale.lease.as_dict()))
        assert queue.sweep_expired() == []  # cleared, no incident
        assert not stale_path.exists()
        assert not list((tmp_path / "q" / PENDING_DIRNAME).glob("*.json"))
        assert queue.lease_exists(fresh.lease)

    def test_reader_resolves_racing_terminal_records_by_token(self, tmp_path):
        # Worst case: a stale lower-token record lands *last* (past
        # every fence).  Token-named records make the read side resolve
        # the race — highest token wins, the fresh mask stays loadable.
        from repro.fullchip.queue import DONE_DIRNAME

        clock = Clock()
        queue = _queue(tmp_path / "q", tiles=("tile_a",), clock=clock)
        stale = queue.claim()
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired()
        fresh = queue.claim()
        fresh_mask = np.full((4, 4), 2.0)
        assert queue.complete(fresh, fresh_mask, {"status": "ok"})
        assert queue._write_exclusive(
            tmp_path / "q" / DONE_DIRNAME / _entry_name("tile_a", 0),
            {"tile": "tile_a", "token": stale.token, "status": "ok",
             "result_file": "tile_a.t0.npz"},
        )
        record = queue.terminal_record("tile_a")
        assert record["token"] == 1
        assert np.array_equal(queue.load_result_mask(record), fresh_mask)
        counts = queue.counts()
        assert counts["done"] == 1 and counts["total"] == 1


class TestLeaseRenewer:
    def test_thread_floor_renews_without_beats(self, tmp_path):
        # No heartbeat pulses at all (model build, telemetry off, one
        # slow iteration): the renewal thread alone must keep the
        # on-disk deadline moving.
        from repro.fullchip.worker import LeaseRenewer

        queue = _queue(tmp_path / "q", tiles=("tile_a",), lease_s=0.4)
        claim = queue.claim()
        first_deadline = claim.lease.deadline
        lease_path = (
            tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", 0)
        )
        renewer = LeaseRenewer(queue, claim).start()
        try:
            import time as _time

            _time.sleep(1.0)  # several lease terms, zero beats
            assert not renewer.lost
            on_disk = json.loads(lease_path.read_text())
            assert on_disk["deadline"] > first_deadline
        finally:
            renewer.stop()

    def test_transient_write_failure_does_not_latch_lost(
        self, tmp_path, monkeypatch
    ):
        import repro.fullchip.queue as queue_mod
        from repro.fullchip.worker import LeaseRenewer

        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        claim = queue.claim()
        renewer = LeaseRenewer(queue, claim)

        def refuse(path, payload):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(queue_mod, "write_json_atomic", refuse)
        assert queue.renew(claim.lease) is False  # surfaced, not swallowed
        renewer._renew(force=True)
        assert not renewer.lost  # lease file still present: retryable
        monkeypatch.undo()
        renewer._renew(force=True)
        assert not renewer.lost

    def test_lost_latches_when_lease_file_gone(self, tmp_path):
        from repro.fullchip.worker import LeaseRenewer

        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        claim = queue.claim()
        renewer = LeaseRenewer(queue, claim)
        os.unlink(tmp_path / "q" / LEASED_DIRNAME / _entry_name("tile_a", 0))
        renewer._renew(force=True)
        assert renewer.lost


class TestAdoption:
    def test_fresh_create_wipes_previous_state(self, tmp_path):
        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        queue.complete(queue.claim(), np.ones((2, 2)), {"status": "ok"})
        recreated = _queue(tmp_path / "q", tiles=("tile_a",))
        assert recreated.terminal_record("tile_a") is None
        assert recreated.claim() is not None


class TestHistoryAndState:
    def test_history_skips_torn_lines(self, tmp_path):
        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        with open(tmp_path / "q" / "history" / "tile_a.jsonl", "a") as handle:
            handle.write('{"truncated...\n')
        queue._history("tile_a", "leased", token=0)
        kinds = [h["kind"] for h in queue.history("tile_a")]
        assert kinds == ["seeded", "leased"]

    def test_load_queue_state_counts_and_histories(self, tmp_path):
        clock = Clock()
        queue = _queue(tmp_path / "q", clock=clock)
        queue.complete(queue.claim(), np.ones((2, 2)), {"status": "ok"})
        queue.claim()
        clock.t += 16.0  # past deadline + the live-pid grace (2 lease terms)
        queue.sweep_expired()
        state = load_queue_state(tmp_path)  # run dir containing q? no — see below
        assert state is None  # tmp_path itself holds no queue/
        state = load_queue_state(tmp_path / "q")
        assert state["kind"] == "fullchip_queue"
        assert state["counts"]["done"] == 1
        assert state["counts"]["pending"] == 1
        assert state["counts"]["requeued"] == 1
        by_name = {t["name"]: t for t in state["tiles"]}
        assert by_name["tile_a"]["state"] == "done"
        assert by_name["tile_b"]["state"] == "pending"
        assert by_name["tile_b"]["attempts"] == 2  # requeued once
        assert by_name["tile_b"]["requeues"] == 1
        kinds = [h["kind"] for h in by_name["tile_b"]["history"]]
        assert kinds == ["seeded", "leased", "requeued"]

    def test_load_queue_state_accepts_run_dir(self, tmp_path):
        from repro.fullchip.queue import QUEUE_DIRNAME

        _queue(tmp_path / QUEUE_DIRNAME, tiles=("tile_a",))
        state = load_queue_state(tmp_path)
        assert state is not None and state["counts"]["total"] == 1

    def test_render_queue_state_sections(self, tmp_path):
        from repro.obs.report import render_queue_state

        queue = _queue(tmp_path / "q", tiles=("tile_a",))
        queue.complete(queue.claim(), np.ones((2, 2)), {"status": "ok"})
        text = render_queue_state(load_queue_state(tmp_path / "q"))
        assert "durable queue" in text
        assert "1 done" in text
        assert "seeded -> leased -> done" in text

    def test_queue_only_watch_snapshot(self, tmp_path):
        from repro.obs.watch import collect_snapshot, watch_exit_code

        run_dir = tmp_path / "run"
        from repro.fullchip.queue import QUEUE_DIRNAME

        queue = _queue(run_dir / QUEUE_DIRNAME, tiles=("tile_a", "tile_b"))
        queue.fail(queue.claim(), {"status": "failed", "error": "x"})
        snapshot = collect_snapshot(run_dir)  # no status.json at all
        assert snapshot["queue_only"] is True
        assert snapshot["state"] == "running"
        assert snapshot["tiles"]["failed"] == 1
        assert snapshot["queue"]["counts"]["failed"] == 1
        queue.complete(queue.claim(), None, {"status": "ok"})
        snapshot = collect_snapshot(run_dir)
        assert snapshot["state"] == "failed"  # drained with a failure
        assert watch_exit_code(snapshot) == 3


class TestWatchdogAttemptRearm:
    def test_new_attempt_counts_as_progress_and_rearms(self):
        from repro.obs import Instrumentation
        from repro.obs.live import Heartbeat, LivenessWatchdog, WatchdogConfig

        events = []
        obs = Instrumentation.collecting(
            trace=False, metrics=True, events_sink=events.append
        )
        dog = LivenessWatchdog(
            WatchdogConfig(stall_factor=2.0, min_stall_s=5.0),
            obs=obs,
            clock=lambda: 0.0,
        )

        def beat(iteration, ts, attempt):
            return Heartbeat(
                tile="t", pid=1, phase="optimize",
                iteration=iteration, ts=ts, attempt=attempt,
            )

        # First attempt stalls and is flagged.
        dog.observe({"t": beat(0, 0.0, 1)}, now=0.0)
        dog.observe({"t": beat(1, 1.0, 1)}, now=1.0)
        flags = dog.observe({"t": beat(1, 1.0, 1)}, now=8.0)
        assert [f.tile for f in flags] == ["t"]
        # The requeued attempt's first pulse (same iteration number!)
        # counts as progress: the latch re-arms, no instant re-flag.
        assert dog.observe({"t": beat(1, 9.0, 2)}, now=9.0) == []
        assert dog.observe({"t": beat(1, 9.0, 2)}, now=10.0) == []
        resumed = [e for e in events if e["event"] == "worker_resumed"]
        assert len(resumed) == 1

    def test_heartbeat_attempt_roundtrip(self, tmp_path):
        from repro.obs.live import HeartbeatWriter, read_heartbeat

        pulses = []
        writer = HeartbeatWriter(
            tmp_path, "t", attempt=3, on_beat=pulses.append
        )
        writer.beat(phase="optimize", iteration=1)
        assert read_heartbeat(writer.path).attempt == 3
        assert len(pulses) == 1
