"""The ``repro worker`` loop: claim a lease, solve, commit, repeat.

A queue worker is a plain process pointed at a run directory whose
``queue/`` subdirectory was seeded by the
:class:`~repro.fullchip.executor.QueueWorkerExecutor`.  Any number of
workers — launched by the engine or by hand on any host sharing the
filesystem — cooperate through the queue's one-winner filesystem
protocols:

* **Claim** — atomic rename of a pending ticket into ``leased/``;
  exactly one worker wins each ticket.
* **Renew** — a background renewal thread extends the lease on a
  fixed timer for as long as the worker process lives, so beat-free
  solve phases (model build, cache warm, one slow iteration, a job
  with telemetry off) cannot expire a healthy lease; the solve's own
  heartbeat pulses also renew opportunistically (the
  :class:`LeaseRenewer` hook rides ``HeartbeatWriter.on_beat``).
* **Commit** — fenced by the worker's own lease: the lease file must
  still name this claim (pid, host, claim time), so a stale worker
  whose lease was swept, or whose queue was seeded afresh, while it
  kept computing has its result discarded, never clobbering a re-run.
* **Sweep** — every worker sweeps expired leases before claiming, so
  workers crash-recover *each other*: a SIGKILLed peer's tile is
  requeued (with backoff) by whoever polls next.

The loop is deliberately crash-oblivious: no state lives in the worker
beyond the claim it is currently solving, so killing a worker at any
instant loses at most one lease term of work.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..errors import FullChipError
from ..obs.live import HEARTBEAT_DIRNAME
from .queue import QUEUE_DIRNAME, ClaimedJob, TileJobQueue
from .scheduler import solve_tile_job

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from multiprocessing.synchronize import Event

logger = logging.getLogger(__name__)

__all__ = ["LeaseRenewer", "process_claim", "run_worker"]


class LeaseRenewer:
    """Time-floored lease renewal: a timer thread plus a beat hook.

    Renewal must never depend on the solve making *observable*
    progress — model build and cache warm emit no heartbeat, a single
    slow iteration can outlast the whole lease, and a job with
    telemetry off never constructs a ``HeartbeatWriter`` at all.  So
    the floor is a daemon thread (:meth:`start`) that renews every
    quarter lease term for as long as this process lives; heartbeat
    pulses (``__call__``, wired as ``HeartbeatWriter.on_beat``) renew
    opportunistically on top, throttled to the same interval.

    A renewal that fails because the lease file *no longer holds this
    claim* (swept as expired, or the queue seeded afresh) latches
    :attr:`lost` — the solve is not interrupted; the commit fence will
    discard the result, and aborting mid-solve would buy nothing but a
    harder-to-test code path.  A renewal whose *write* fails (transient
    ``OSError``) does not latch: the on-disk deadline is still running,
    so the renewer logs and retries on the next tick.
    """

    def __init__(self, queue: TileJobQueue, claim: ClaimedJob) -> None:
        self.queue = queue
        self.claim = claim
        self.interval_s = max(queue.config.lease_s / 4.0, 0.05)
        self.lost = False
        self._lock = threading.Lock()
        self._last_renew = time.monotonic()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LeaseRenewer":
        """Launch the renewal-floor thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run,
                name=f"lease-renew-{self.claim.tile}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the renewal-floor thread (the beat hook keeps working)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(2.0 * self.interval_s, 1.0))
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._renew(force=True)

    def __call__(self, now: float) -> None:
        self._renew()

    def _renew(self, force: bool = False) -> None:
        with self._lock:
            if self.lost:
                return
            monotonic_now = time.monotonic()
            if not force and monotonic_now - self._last_renew < self.interval_s:
                return
            self._last_renew = monotonic_now
            if self.queue.renew(self.claim.lease):
                return
            if self.queue.lease_exists(self.claim.lease):
                # Rewrite failed but the lease (and its old deadline)
                # is still there: transient fault, retry next tick.
                logger.warning(
                    "lease renew write failed for tile %s (token %d); retrying",
                    self.claim.tile, self.claim.token,
                )
                return
            self.lost = True
            logger.warning(
                "lease lost for tile %s (token %d) — result will be fenced",
                self.claim.tile, self.claim.token,
            )


def process_claim(queue: TileJobQueue, claim: ClaimedJob) -> bool:
    """Solve one claimed job and commit the fenced terminal record.

    Returns True when this worker's record won the commit fence (the
    normal case), False when the lease stopped holding this claim
    mid-solve (a sweep, or a fresh seed) and the result was discarded.

    Solve *failures* are terminal immediately (the in-worker retry loop
    inside :func:`solve_tile_job` already covered transients); requeues
    are reserved for lease expiry — i.e. worker death — which never
    reaches this function.
    """
    job = claim.job
    renewer = LeaseRenewer(queue, claim).start()
    # attempt_base offsets heartbeat/kill-injection attempt numbering by
    # the requeue generation, so a recovered tile's attempt 1 is not
    # mistaken for the original attempt 1 (kill injection stays quiet,
    # the watchdog re-arms).
    try:
        result = solve_tile_job(job, attempt_base=claim.token, on_beat=renewer)
    finally:
        renewer.stop()
    status = result.status.status
    if result.ok and claim.token > 0:
        # Success on a requeued generation is a recovery, not a plain ok.
        status = "recovered"
    meta = {
        "status": status,
        "attempts": claim.token + result.status.attempts,
        "runtime_s": result.status.runtime_s,
        "error": result.status.error,
        "epe_violations": result.epe_violations,
        "pv_band_nm2": result.pv_band_nm2,
        "score_total": result.score_total,
        "cached": result.from_cache,
        "fft_threads": result.fft_threads,
        "model_tier": result.model_tier,
        "telemetry": (
            result.telemetry.as_dict() if result.telemetry is not None else None
        ),
    }
    if result.ok and result.mask is not None:
        return queue.complete(claim, result.mask, meta)
    return queue.fail(claim, meta)


def run_worker(
    run_dir: Union[str, Path],
    poll_s: float = 0.5,
    exit_when_drained: bool = True,
    max_jobs: Optional[int] = None,
    stop: Optional[Event] = None,
) -> int:
    """Pull leases from ``<run_dir>/queue/`` until drained (or forever).

    Args:
        run_dir: the full-chip run directory (the engine's telemetry
            directory) containing ``queue/`` and ``heartbeats/``.
        poll_s: sleep between claim attempts when nothing is claimable.
        exit_when_drained: return once every tile is terminal; False
            keeps polling (standing-fleet mode, e.g. workers shared
            across successive runs of the same directory).
        max_jobs: optional cap on claims processed before returning
            (used by tests to script exact worker behavior).
        stop: set by the supervising engine once its run is over; the
            worker then claims nothing more, and an idle worker wakes at
            once instead of sleeping out ``poll_s``.  None (a
            hand-launched worker) waits for the queue to drain.

    Returns:
        A process exit code: 0 always — per-tile failures are queue
        *data* (terminal records the supervising engine interprets),
        not worker errors.

    Raises:
        FullChipError: when ``run_dir`` holds no seeded queue.
    """
    if poll_s <= 0:
        raise FullChipError(f"poll_s must be positive, got {poll_s}")
    run_dir = Path(run_dir)
    queue = TileJobQueue.open(run_dir / QUEUE_DIRNAME)
    heartbeat_dir = run_dir / HEARTBEAT_DIRNAME
    logger.info(
        "worker %d pulling from %s (%d tiles)",
        os.getpid(), queue.root, len(queue.tiles()),
    )
    idle = time.sleep if stop is None else stop.wait
    processed = 0
    while stop is None or not stop.is_set():
        queue.sweep_expired(heartbeat_dir=heartbeat_dir)
        claim = queue.claim()
        if claim is None:
            if queue.drained():
                if exit_when_drained:
                    logger.info(
                        "worker %d: queue drained after %d job(s)",
                        os.getpid(), processed,
                    )
                    return 0
            idle(poll_s)
            continue
        logger.info(
            "worker %d claimed tile %s (attempt %d)",
            os.getpid(), claim.tile, claim.attempt,
        )
        committed = process_claim(queue, claim)
        processed += 1
        if not committed:
            logger.warning(
                "worker %d: tile %s result discarded by the commit fence",
                os.getpid(), claim.tile,
            )
        if max_jobs is not None and processed >= max_jobs:
            logger.info(
                "worker %d: reached max_jobs=%d", os.getpid(), max_jobs
            )
            return 0
    logger.info(
        "worker %d: stopped by its supervisor after %d job(s)",
        os.getpid(), processed,
    )
    return 0
