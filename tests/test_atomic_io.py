"""Atomic-writer / live-reader contracts under concurrent access.

``repro watch``, the service progress feed, and queue workers all read
files that another process rewrites continuously.  The atomic-write
discipline (tmp + ``os.replace``) promises a reader sees a complete
file or none at all — these tests hammer that promise with a real
writer/reader race instead of trusting the docstring.
"""

import json
import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.fullchip.queue import TileJobQueue, load_queue_state
from repro.obs.live import StatusWriter, load_status
from repro.utils.io import write_json_atomic, write_npz_atomic, write_text_atomic

HAMMER_ROUNDS = 300


def _hammer(read_once, stop):
    """Run ``read_once`` until ``stop`` is set; return collected errors."""
    errors = []

    def loop():
        while not stop.is_set():
            try:
                read_once()
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                errors.append(exc)
                return

    thread = threading.Thread(target=loop)
    thread.start()
    return thread, errors


class TestWriteAtomic:
    def test_reader_never_sees_torn_json(self, tmp_path):
        path = tmp_path / "status.json"
        # Large enough that a non-atomic write would be observably torn.
        write_json_atomic(path, {"seq": 0, "blob": "x" * 4096})
        seen = []

        def read_once():
            payload = json.loads(path.read_text())
            assert payload["blob"] == "x" * 4096
            seen.append(payload["seq"])

        stop = threading.Event()
        thread, errors = _hammer(read_once, stop)
        for seq in range(1, HAMMER_ROUNDS):
            write_json_atomic(path, {"seq": seq, "blob": "x" * 4096})
        stop.set()
        thread.join(timeout=30)
        assert not errors, f"reader saw a torn write: {errors[0]!r}"
        # Single writer: the sequence a reader observes is monotonic.
        assert seen == sorted(seen)

    def test_write_text_atomic_leaves_no_tmp_droppings(self, tmp_path):
        path = tmp_path / "out.txt"
        for i in range(20):
            write_text_atomic(path, f"round {i}\n")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "round 19\n"

    def test_interrupted_write_keeps_old_content(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.json"
        write_json_atomic(path, {"ok": True})

        import repro.utils.io as io_mod

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(io_mod.os, "replace", boom)
        with pytest.raises(OSError):
            write_json_atomic(path, {"ok": False})
        monkeypatch.undo()
        # The old payload survives intact and the temp file is cleaned up.
        assert json.loads(path.read_text()) == {"ok": True}
        assert list(tmp_path.iterdir()) == [path]

    def test_npz_write_failing_midway_keeps_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "result.npz"
        write_npz_atomic(path, mask=np.arange(16.0).reshape(4, 4))
        old_bytes = path.read_bytes()

        def fail_midway(handle, **arrays):
            handle.write(old_bytes[: len(old_bytes) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            write_npz_atomic(path, mask=np.ones((4, 4)))
        monkeypatch.undo()
        assert path.read_bytes() == old_bytes
        assert list(tmp_path.iterdir()) == [path]
        with np.load(path, allow_pickle=False) as archive:
            assert np.array_equal(archive["mask"], np.arange(16.0).reshape(4, 4))


class TestStatusFeedHammer:
    def test_load_status_during_rewrites(self, tmp_path):
        tiles = {f"t{i}_0": (i, 0) for i in range(4)}
        writer = StatusWriter(tmp_path, tiles, layout="synth", workers=2)
        writer.write()

        def read_once():
            payload = load_status(tmp_path)
            counts = payload["tiles"]
            assert counts["total"] == 4
            assert payload["state"] in ("running", "done", "failed")

        stop = threading.Event()
        thread, errors = _hammer(read_once, stop)
        for _ in range(HAMMER_ROUNDS // len(tiles)):
            for name in tiles:
                writer.mark_running(name, pid=123)
                writer.write()
                writer.mark_done(name, "ok")
                writer.write()
        writer.finalize()
        writer.write()
        stop.set()
        thread.join(timeout=30)
        assert not errors, f"load_status raised mid-rewrite: {errors[0]!r}"
        assert load_status(tmp_path)["state"] == "done"

    def test_load_status_missing_dir_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_status(tmp_path / "nope")


class TestQueueStateHammer:
    def test_load_queue_state_during_transitions(self, tmp_path):
        jobs = {f"t{i}_0": ((i, 0), {"tile": i}) for i in range(6)}
        queue = TileJobQueue.create(tmp_path / "queue", jobs)

        def read_once():
            state = load_queue_state(tmp_path / "queue")
            assert state is not None
            counts = state["counts"]
            assert counts["total"] == 6
            # A snapshot mid-transition may catch a ticket between
            # directories, but never invents tiles.
            assert counts["pending"] + counts["leased"] + counts["done"] + counts[
                "failed"
            ] + counts["quarantined"] <= 6

        stop = threading.Event()
        thread, errors = _hammer(read_once, stop)
        mask = np.zeros((4, 4), dtype=bool)
        done = 0
        while True:
            claim = queue.claim()
            if claim is None:
                break
            if done % 2 == 0:
                assert queue.complete(claim, mask, {"elapsed_s": 0.1})
            else:
                assert queue.fail(claim, {"error": "synthetic"})
            done += 1
        stop.set()
        thread.join(timeout=30)
        assert not errors, f"load_queue_state raised mid-claim: {errors[0]!r}"
        final = load_queue_state(tmp_path / "queue")["counts"]
        assert final["done"] == 3 and final["failed"] == 3
        assert final["pending"] == final["leased"] == 0
