"""The ``TileExecutor`` seam: inline and durable-queue execution.

:func:`repro.fullchip.scheduler.run_tile_jobs` dispatches every tile
batch through one of two interchangeable executors:

* :class:`SerialExecutor` — solves inline in the parent process.
* :class:`QueueWorkerExecutor` — durable at-least-once execution over
  the file-backed :class:`~repro.fullchip.queue.TileJobQueue`: jobs are
  persisted, local workers forked from the parent and any number of
  hand-launched ``repro worker`` processes claim leases and commit
  fenced results, and the parent supervises — sweeping expired leases,
  emitting one latched ``job_requeued`` / ``job_quarantined`` event per
  incident, and collecting terminal records as :class:`TileResult`s.

:func:`executor_for` places every run by one rule: a run with no run
directory and at most one solver at once solves inline; every other run
forks ``min(workers, tiles)`` local queue workers, on a queue in the
run directory or, with none, in a private temporary directory.  Every
run seeds its queue afresh: resume lives in the tiles' done markers,
which :func:`solve_tile_job` reads and writes wherever it runs, and
dead workers are found by the queue's expiry sweep alone (the liveness
watchdog flags stalls).  Both executors share one
:class:`ExecutionContext`, so per-tile accounting, watchdog/status
plumbing, telemetry merging, and progress callbacks are identical —
the robustness contract (retries, tile-granular resume, liveness
watchdog) does not care where a tile actually ran.
"""

from __future__ import annotations

import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import FullChipCancelled, FullChipError
from ..harness import CellStatus
from ..obs import Instrumentation
from ..obs.distributed import TileTelemetry, merge_tile_telemetry
from .queue import QUEUE_DIRNAME, QueueConfig, TileJobQueue
from .scheduler import (
    TileJob,
    TileResult,
    _pool_context,
    release_inherited_sockets,
    solve_tile_job,
)
from .worker import run_worker

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from multiprocessing.synchronize import Event

logger = logging.getLogger(__name__)

__all__ = [
    "ExecutionContext",
    "TileExecutor",
    "SerialExecutor",
    "QueueWorkerExecutor",
    "executor_for",
]


@dataclass
class ExecutionContext:
    """Everything an executor needs besides the jobs themselves.

    Built once per :func:`~repro.fullchip.scheduler.run_tile_jobs` call;
    owns the per-tile accounting (:meth:`record`) and the liveness /
    status polling (:meth:`poll_liveness`) so the executors stay
    behaviorally identical everywhere but raw job placement.
    """

    jobs: Sequence[TileJob]
    keep_going: bool = False
    obs: Instrumentation = field(default_factory=Instrumentation.disabled)
    progress: Callable[[str], None] = lambda msg: None
    on_tile: Optional[Callable[[TileResult], None]] = None
    watchdog: Optional[object] = None  # LivenessWatchdog
    status: Optional[object] = None  # StatusWriter
    heartbeat_dir: Optional[str] = None
    cancel: Optional[Callable[[], bool]] = None

    def __post_init__(self) -> None:
        self.tile_names: Dict[Tuple[int, int], str] = {
            job.tile.index: job.tile.name for job in self.jobs
        }
        self._total = self.obs.metrics.counter("fullchip_tiles_total")
        self._failed = self.obs.metrics.counter("fullchip_tiles_failed")
        self._retried = self.obs.metrics.counter("fullchip_tile_retries")
        self._cached = self.obs.metrics.counter("fullchip_tiles_cached")

    def counter_values(self) -> Dict[str, int]:
        """Counter-type metrics of the bundle as plain name→value pairs."""
        counters: Dict[str, int] = {}
        try:
            snapshot = self.obs.metrics.as_dict()
        except Exception:  # noqa: BLE001 - live feed must not fail the run
            return counters
        for name, data in snapshot.items():
            if data.get("type") == "counter":
                counters[name] = int(data.get("value", 0) or 0)
        return counters

    def record(self, result: TileResult) -> None:
        """Fold one settled tile into counters/status/watchdog/events."""
        self._total.inc()
        if result.from_cache:
            self._cached.inc()
        if result.status.attempts > 1:
            self._retried.inc(result.status.attempts - 1)
        if not result.ok:
            self._failed.inc()
        # Anchor absorbed worker spans at the live scheduling span so
        # the merged report nests them where the work actually ran.
        under = getattr(self.obs.tracer, "current_path", "") or "fullchip.tiles"
        merge_tile_telemetry(self.obs, result.telemetry, under=under)
        if self.watchdog is not None:
            self.watchdog.mark_done(self.tile_names[result.index])
        if self.status is not None:
            self.status.mark_done(
                self.tile_names[result.index],
                status=result.status.status,
                attempts=result.status.attempts,
                runtime_s=result.status.runtime_s,
                epe_violations=result.epe_violations if result.ok else None,
                pv_band_nm2=result.pv_band_nm2 if result.ok else None,
                score_total=result.score_total if result.ok else None,
                iterations=(
                    result.telemetry.iterations
                    if result.telemetry is not None
                    else None
                ),
                cached=result.from_cache,
                error=result.status.error,
            )
        if self.on_tile is not None:
            self.on_tile(result)
        self.obs.events.emit(
            "tile",
            index=list(result.index),
            status=result.status.status,
            attempts=result.status.attempts,
            runtime_s=result.status.runtime_s,
            score=result.score_total,
            cached=result.from_cache,
            error=result.status.error,
        )
        self.progress(
            f"tile {result.index} {result.status.status}"
            + (" (cached)" if result.from_cache else "")
        )

    def poll_liveness(self) -> None:
        """One watchdog/status round over the current heartbeat files."""
        if self.heartbeat_dir is None or (
            self.watchdog is None and self.status is None
        ):
            return
        from ..obs.live import read_heartbeats

        beats = read_heartbeats(self.heartbeat_dir)
        if self.status is not None:
            for beat in beats.values():
                self.status.apply_heartbeat(beat)
        if self.watchdog is not None:
            for flag in self.watchdog.observe(beats):
                self.progress(
                    f"tile worker {flag.tile} (pid {flag.pid}) stalled "
                    f"after {flag.stalled_for_s:.1f}s without progress"
                )
                if self.status is not None:
                    self.status.mark_stalled(flag.tile)
        if self.status is not None:
            self.status.set_counters(self.counter_values())
            self.status.write()

    def write_status_counters(self) -> None:
        if self.status is not None:
            self.status.set_counters(self.counter_values())
            self.status.write()

    def check_cancelled(self) -> None:
        """Raise :class:`~repro.errors.FullChipCancelled` when asked to stop.

        Executors poll this between placements, so cancellation is
        cooperative: settled tiles stay settled, in-flight work is
        abandoned at the executor's next safe point.
        """
        if self.cancel is not None and self.cancel():
            raise FullChipCancelled("tile run cancelled by request")


class TileExecutor:
    """Placement strategy for one batch of tile jobs.

    Subclasses implement :meth:`run`, returning settled results keyed
    by tile index.  Everything that must behave identically across
    executors lives in :class:`ExecutionContext`.
    """

    name = "abstract"

    def solvers_at_once(self, num_jobs: int) -> int:
        """Solver processes this executor runs at once on ``num_jobs`` jobs."""
        return 1

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        raise NotImplementedError


class SerialExecutor(TileExecutor):
    """Solve every job inline in the calling process, in order."""

    name = "serial"

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        results: Dict[Tuple[int, int], TileResult] = {}
        for job in jobs:
            ctx.check_cancelled()
            if ctx.status is not None:
                ctx.status.mark_running(job.tile.name, pid=os.getpid())
                ctx.status.write()
            result = solve_tile_job(job)
            ctx.record(result)
            results[job.tile.index] = result
            ctx.write_status_counters()
            if not result.ok and not ctx.keep_going:
                raise FullChipError(
                    f"tile {result.index} {result.status.status}: "
                    f"{result.status.error}"
                )
        return results


class QueueWorkerExecutor(TileExecutor):
    """Durable-queue execution: persisted jobs, leased workers, fencing.

    The executor seeds a fresh queue under ``<run_dir>/queue/`` (a
    resumed run's tiles resume from their done markers), starts
    ``workers`` local workers, each a fork of this process running
    :func:`run_worker`, and supervises until every tile reaches a
    terminal record:

    * sweeps expired leases (workers sweep too — whoever gets there
      first wins the incident exactly once); the sweep is the one
      detector of dead workers,
    * emits one latched ``job_requeued`` / ``job_quarantined`` event
      per incident (deduped on (kind, tile, token) from the queue's
      per-tile history, so worker-swept incidents surface here too),
    * feeds the liveness watchdog / status feed exactly like the other
      executors, and
    * starts a fresh local worker when all of them have died with
      tiles left, at most ``workers`` times per run.

    Externally launched workers (``repro worker <run-dir>`` on any
    host sharing the filesystem) participate transparently.  With
    ``run_dir=None`` the queue lives in a private temporary directory
    that only the local workers see, removed when the run ends.
    """

    name = "queue"

    def __init__(
        self,
        run_dir: Optional[Union[str, Path]],
        workers: int = 2,
        queue_config: Optional[QueueConfig] = None,
        poll_s: float = 0.5,
    ) -> None:
        if workers < 1:
            raise FullChipError(f"queue workers must be >= 1, got {workers}")
        if poll_s <= 0:
            raise FullChipError(f"poll_s must be positive, got {poll_s}")
        self.run_dir = None if run_dir is None else Path(run_dir)
        self.workers = workers
        self.queue_config = queue_config or QueueConfig()
        self.poll_s = poll_s

    def solvers_at_once(self, num_jobs: int) -> int:
        # Hand-launched workers are not counted: they take the jobs' value.
        return min(self.workers, num_jobs)

    # -- worker fleet -------------------------------------------------------

    def _spawn_worker(self, run_dir: Path, stop: Event) -> BaseProcess:
        # A fork inherits the imported package and the parent's models,
        # so the worker claims within milliseconds of its start.
        proc = _pool_context().Process(
            target=_forked_worker,
            args=(str(run_dir), self.poll_s, stop),
            name="repro-queue-worker",
        )
        proc.start()
        return proc

    def _wait_for_fleet(self, fleet: List[BaseProcess]) -> None:
        """Sleep up to ``poll_s``, waking at once when a local worker exits."""
        live = [proc for proc in fleet if proc.is_alive()]
        if not live:
            time.sleep(self.poll_s)
            return
        ready = connection.wait([proc.sentinel for proc in live], self.poll_s)
        for proc in live:
            if proc.sentinel in ready:
                proc.join()  # reap it, so sweeps see its pid gone

    @staticmethod
    def _shutdown_fleet(fleet: List[BaseProcess], grace_s: float = 10.0) -> None:
        deadline = time.monotonic() + grace_s
        for proc in fleet:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            proc.close()

    # -- incident events ----------------------------------------------------

    def _emit_incidents(
        self, queue: TileJobQueue, ctx: ExecutionContext, emitted: set
    ) -> None:
        """Latch queue incidents into the parent's event/counter feeds.

        Incidents are discovered from the per-tile history (so sweeps
        performed *by workers* surface here too) and deduped on
        (kind, tile, token): exactly one ``job_requeued`` or
        ``job_quarantined`` event per incident, ever.
        """
        for tile in queue.tiles():
            for line in queue.history(tile):
                kind = str(line.get("kind", ""))
                if kind not in ("requeued", "quarantined"):
                    continue
                key = (kind, tile, int(line.get("token", 0) or 0))
                if key in emitted:
                    continue
                emitted.add(key)
                event = "job_requeued" if kind == "requeued" else "job_quarantined"
                self_counter = (
                    "fullchip_jobs_requeued"
                    if kind == "requeued"
                    else "fullchip_jobs_quarantined"
                )
                ctx.obs.metrics.counter(self_counter).inc()
                ctx.obs.events.emit(
                    event,
                    tile=tile,
                    token=int(line.get("token", 0) or 0),
                    reason=line.get("reason"),
                    backoff_s=line.get("backoff_s"),
                )
                ctx.progress(
                    f"tile {tile} {kind} "
                    f"(generation {line.get('token')}, {line.get('reason')})"
                )

    # -- terminal-record adaptation ----------------------------------------

    @staticmethod
    def _result_from_record(
        queue: TileJobQueue, tile: str, record: Dict[str, object]
    ) -> TileResult:
        index = record.get("index") or [0, 0]
        index = (int(index[0]), int(index[1]))
        state = str(record.get("state", "done"))
        telemetry = None
        telemetry_dict = record.get("telemetry")
        if telemetry_dict:
            try:
                telemetry = TileTelemetry.from_dict(telemetry_dict)
            except (KeyError, TypeError, ValueError):
                telemetry = None
        attempts = int(record.get("attempts", int(record.get("token", 0)) + 1))
        runtime_s = float(record.get("runtime_s", 0.0) or 0.0)
        if state == "done":
            mask = queue.load_result_mask(record)
            if mask is None:
                return TileResult(
                    index=index,
                    status=CellStatus(
                        status="failed",
                        attempts=attempts,
                        runtime_s=runtime_s,
                        error=f"queue result {record.get('result_file')} unreadable",
                    ),
                    telemetry=telemetry,
                )
            return TileResult(
                index=index,
                status=CellStatus(
                    status=str(record.get("status", "ok")),
                    attempts=attempts,
                    runtime_s=runtime_s,
                ),
                mask=mask,
                epe_violations=int(record.get("epe_violations", 0) or 0),
                pv_band_nm2=float(record.get("pv_band_nm2", 0.0) or 0.0),
                score_total=float(record.get("score_total", 0.0) or 0.0),
                from_cache=bool(record.get("cached", False)),
                telemetry=telemetry,
                fft_threads=record.get("fft_threads"),
                model_tier=record.get("model_tier"),
            )
        # failed / quarantined records: both surface as non-ok results,
        # so the engine's rasterized-target fallback covers them.
        status = str(record.get("status", "failed"))
        if status not in ("failed", "timeout"):
            status = "failed"
        return TileResult(
            index=index,
            status=CellStatus(
                status=status,
                attempts=attempts,
                runtime_s=runtime_s,
                error=str(record.get("error") or f"tile {tile} {state}"),
            ),
            telemetry=telemetry,
        )

    # -- the supervision loop ----------------------------------------------

    def run(
        self, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        if self.run_dir is not None:
            return self._supervise(self.run_dir, jobs, ctx)
        with tempfile.TemporaryDirectory(prefix="repro-queue-") as private:
            return self._supervise(Path(private), jobs, ctx)

    def _supervise(
        self, run_dir: Path, jobs: Sequence[TileJob], ctx: ExecutionContext
    ) -> Dict[Tuple[int, int], TileResult]:
        queue_jobs = {job.tile.name: (job.tile.index, job) for job in jobs}
        trace_id = next(
            (
                job.telemetry.trace_id
                for job in jobs
                if job.telemetry is not None and job.telemetry.trace_id
            ),
            None,
        )
        queue = TileJobQueue.create(
            run_dir / QUEUE_DIRNAME,
            queue_jobs,
            config=self.queue_config,
            trace_id=trace_id,
        )
        # Set once the run is over, whatever the outcome: idle local
        # workers wake and exit, busy ones claim nothing more.
        stop = _pool_context().Event()
        fleet: List[BaseProcess] = []
        respawns = 0
        emitted: set = set()
        settled: set = set()
        results: Dict[Tuple[int, int], TileResult] = {}
        grace_s = 10.0
        try:
            for _ in range(self.workers):
                fleet.append(self._spawn_worker(run_dir, stop))
            while True:
                # Cancelling here lets the finally-clause shut the local
                # fleet down; the caller sweeps any expired leases the
                # dead workers leave behind.
                ctx.check_cancelled()
                queue.sweep_expired(heartbeat_dir=ctx.heartbeat_dir)
                self._emit_incidents(queue, ctx, emitted)
                self._mark_leases_running(queue, ctx)
                first_failure: Optional[TileResult] = None
                for tile in sorted(queue.tiles()):
                    if tile in settled:
                        continue
                    record = queue.terminal_record(tile)
                    if record is None:
                        continue
                    settled.add(tile)
                    result = self._result_from_record(queue, tile, record)
                    ctx.record(result)
                    results[result.index] = result
                    if not result.ok and first_failure is None:
                        first_failure = result
                # After the records, so the feed's counters include the
                # tiles that settled this round, the last round's too.
                ctx.poll_liveness()
                if first_failure is not None and not ctx.keep_going:
                    raise FullChipError(
                        f"tile {first_failure.index} "
                        f"{first_failure.status.status}: "
                        f"{first_failure.status.error}"
                    )
                if len(settled) == len(queue.tiles()):
                    break
                if not any(proc.is_alive() for proc in fleet):
                    if respawns < self.workers:
                        respawns += 1
                        logger.warning(
                            "queue: respawning worker (%d/%d)",
                            respawns, self.workers,
                        )
                        fleet.append(self._spawn_worker(run_dir, stop))
                    elif self._abandoned(queue, fleet):
                        self._fail_abandoned(queue, ctx, settled, results)
                        break
                self._wait_for_fleet(fleet)
        except FullChipCancelled:
            # Cancelled work is abandoned: stop the fleet at once rather
            # than let it claim and solve more tiles through the grace.
            grace_s = 0.0
            raise
        finally:
            stop.set()
            self._shutdown_fleet(fleet, grace_s=grace_s)
        return results

    def _mark_leases_running(
        self, queue: TileJobQueue, ctx: ExecutionContext
    ) -> None:
        if ctx.status is None:
            return
        import json

        from .queue import LEASED_DIRNAME, _parse_entry_name

        for path in (queue.root / LEASED_DIRNAME).glob("*.json"):
            parsed = _parse_entry_name(path.name)
            if parsed is None:
                continue
            try:
                with open(path) as handle:
                    lease = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            ctx.status.mark_running(parsed[0], pid=int(lease.get("pid", 0) or 0))

    def _abandoned(
        self, queue: TileJobQueue, fleet: List[BaseProcess]
    ) -> bool:
        """Nothing in flight and the queue has been dead quiet past grace.

        Only consulted once the local fleet is gone and the respawn
        budget is spent.  ``leased == 0`` alone is not abandonment:
        externally attached workers (``repro worker`` launched by hand
        on any host) are invisible to the local fleet list and may be
        between claims, and pending tickets may still be parked behind
        requeue backoff.  So tiles are only failed after every ticket
        has been claimable — and nothing has touched the queue — for a
        full grace window (two lease terms).  External workers extend
        the run only by actually claiming within that window; they do
        not otherwise disable the supervisor's abandonment check.
        """
        counts = queue.counts()
        if counts["leased"] > 0:
            return False
        grace = max(2.0 * self.queue_config.lease_s, 10.0 * self.poll_s)
        return time.time() - queue.last_activity_ts() > grace

    def _fail_abandoned(
        self,
        queue: TileJobQueue,
        ctx: ExecutionContext,
        settled: set,
        results: Dict[Tuple[int, int], TileResult],
    ) -> None:
        """Settle undrained tiles as failed when no worker can ever run them."""
        first_failure: Optional[TileResult] = None
        for tile, index in sorted(queue.tiles().items()):
            if tile in settled:
                continue
            settled.add(tile)
            result = TileResult(
                index=index,
                status=CellStatus(
                    status="failed",
                    error="queue worker fleet exhausted (respawn budget spent)",
                ),
            )
            ctx.record(result)
            results[index] = result
            if first_failure is None:
                first_failure = result
        if first_failure is not None and not ctx.keep_going:
            raise FullChipError(
                f"tile {first_failure.index} failed: "
                f"{first_failure.status.error}"
            )


def _forked_worker(run_dir: str, poll_s: float, stop: Event) -> None:
    """A local queue worker: drop the parent's sockets, then pull leases."""
    release_inherited_sockets()
    run_worker(run_dir, poll_s, stop=stop)


def executor_for(
    workers: int,
    num_jobs: int,
    run_dir: Optional[Union[str, Path]] = None,
    queue_config: Optional[QueueConfig] = None,
) -> TileExecutor:
    """The executor for ``num_jobs`` jobs on up to ``workers`` solvers.

    The one place that picks an executor: the engine always asks here.
    A run with no ``run_dir`` and at most one solver at once
    (``min(workers, num_jobs) <= 1``) solves inline.  Every other run
    forks ``min(workers, num_jobs)`` local queue workers, on a queue
    under ``run_dir`` (which hand-launched ``repro worker`` processes
    may join, and whose heartbeats feed the status feed and watchdog)
    or, with no ``run_dir``, in a private temporary directory.
    """
    solvers = min(workers, num_jobs)
    if run_dir is None and solvers <= 1:
        return SerialExecutor()
    return QueueWorkerExecutor(
        run_dir, workers=solvers, queue_config=queue_config
    )
