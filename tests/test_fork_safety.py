"""Forked tile processes start safe in a busy parent.

Pool workers and local queue workers are forks of the engine's process,
which under ``repro serve`` also runs other jobs' threads and the HTTP
server.  A child must not inherit a lock some other thread held at the
fork (it would wait on it forever), nor the server's sockets.  Each
executor run here is bounded: on a hang its children are killed and
the test fails instead of blocking the suite.
"""

import json
import multiprocessing
import os
import socket
import threading

import numpy as np
import pytest

from repro.config import (
    GridSpec,
    LithoConfig,
    OpticsConfig,
    OptimizerConfig,
    ProcessConfig,
    ResistConfig,
)
from repro.fullchip import (
    ExecutionContext,
    PoolExecutor,
    QueueWorkerExecutor,
    TileJob,
    ambit_model_for,
    build_tile_plan,
    run_tile_jobs,
)
from repro.fullchip import ambit
from repro.fullchip import executor as executor_mod
from repro.geometry.rect import Rect
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0
PROBE_NM = 1024.0
HANG_S = 60.0


def _jobs():
    """Two small tile jobs (a 1x2 plan over a synthetic strip)."""
    litho = LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )
    plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
    layout = synthetic_canvas(2048.0, 1024.0, seed=2)
    return [
        TileJob(
            tile=tile,
            layout=tile.clip_layout(layout),
            litho=litho,
            optimizer=OptimizerConfig(max_iterations=2, use_jump=False),
            probe_extent_nm=PROBE_NM,
        )
        for tile in plan
    ]


class _LockHolder:
    """A thread that holds the parent's model-cache lock until released."""

    def __init__(self):
        self._taken = threading.Event()
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._hold, daemon=True)

    def _hold(self):
        with ambit._MODEL_CACHE_LOCK:
            self._taken.set()
            self._release.wait()

    def start(self):
        self._thread.start()
        assert self._taken.wait(10.0)

    def release(self):
        self._release.set()
        self._thread.join(10.0)


def _run_bounded(executor, jobs):
    """``executor.run(jobs)``, failing (not hanging) after ``HANG_S``."""
    stop = threading.Event()
    outcome = {}

    def run():
        try:
            outcome["results"] = executor.run(jobs, ExecutionContext(jobs, cancel=stop.is_set))
        except BaseException as exc:  # noqa: BLE001 - relayed below
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(HANG_S)
    if thread.is_alive():
        stop.set()
        for child in multiprocessing.active_children():
            child.kill()
        thread.join(30.0)
        pytest.fail(f"a forked tile process did not finish within {HANG_S:g} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["results"]


def _assert_matches_serial(jobs, results):
    serial = {r.index: r for r in run_tile_jobs(jobs)}
    assert sorted(results) == sorted(serial)
    for index, result in results.items():
        assert result.ok, result.status.error
        assert np.array_equal(result.mask, serial[index].mask)


class TestHeldModelLock:
    def test_pool_children_solve_while_a_thread_holds_the_lock(self, monkeypatch):
        jobs = _jobs()
        holder = _LockHolder()
        warm = executor_mod.warm_model_cache

        def warm_then_hold(batch):
            # The pool warms the model, then forks: hold the lock between.
            warm(batch)
            holder.start()

        monkeypatch.setattr(executor_mod, "warm_model_cache", warm_then_hold)
        try:
            results = _run_bounded(PoolExecutor(2), jobs)
        finally:
            holder.release()
        _assert_matches_serial(jobs, results)

    def test_queue_workers_solve_while_a_thread_holds_the_lock(self, tmp_path):
        jobs = _jobs()
        ambit_model_for(jobs[0].litho, probe_extent_nm=PROBE_NM)
        holder = _LockHolder()
        holder.start()
        try:
            results = _run_bounded(QueueWorkerExecutor(tmp_path, workers=2, poll_s=0.1), jobs)
        finally:
            holder.release()
        _assert_matches_serial(jobs, results)
        # The forks inherited the parent's model.
        assert [r.model_tier for r in results.values()] == ["memory", "memory"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_forked_worker_holds_no_inherited_inet_socket(tmp_path, monkeypatch):
    listener = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listener.getsockname())
    accepted, _ = listener.accept()
    local_a, local_b = socket.socketpair()
    fds = {
        "listener": listener.fileno(),
        "client": client.fileno(),
        "accepted": accepted.fileno(),
        "unix": local_a.fileno(),
    }
    report = tmp_path / "fds.json"

    def report_fds(run_dir, poll_s):
        # Runs in the child where run_worker would.
        report.write_text(json.dumps(
            {name: os.readlink(f"/proc/self/fd/{fd}") for name, fd in fds.items()}
        ))

    monkeypatch.setattr(executor_mod, "run_worker", report_fds)
    try:
        proc = QueueWorkerExecutor(tmp_path, workers=1)._spawn_worker()
        proc.join(HANG_S)
        assert proc.exitcode == 0
        seen = json.loads(report.read_text())
        assert seen["listener"] == seen["client"] == seen["accepted"] == os.devnull
        assert seen["unix"].startswith("socket:")  # not an inet socket: kept
        # The parent's own sockets are untouched.
        client.sendall(b"ping")
        assert accepted.recv(4) == b"ping"
    finally:
        for sock in (listener, client, accepted, local_a, local_b):
            sock.close()
