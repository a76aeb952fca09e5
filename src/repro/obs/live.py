"""Live run monitoring: worker heartbeats, liveness watchdog, status feed.

Three cooperating pieces turn a full-chip run from a black box into a
live feed (everything post-mortem stays in :mod:`repro.obs.distributed`
and :mod:`repro.obs.report`):

1. **Heartbeats** — each tile worker owns a :class:`HeartbeatWriter`
   that atomically rewrites ``heartbeat_<tile>.json`` (pid, phase,
   iteration, objective, write timestamp) on every optimizer iteration,
   via the ``Instrumentation.heartbeat`` seam the optimizer already
   beats through.  Atomic rewrite (temp + ``os.replace``) means a
   reader never sees a torn heartbeat, and the newest write wins.

2. **Liveness watchdog** — the parent-side :class:`LivenessWatchdog`
   observes the heartbeat files on every round of the queue supervisor
   and flags a worker as *stalled* when its heartbeat has made no
   progress for ``stall_factor`` times the observed median iteration
   time (floored at ``min_stall_s``).  Each flag emits one
   ``worker_stalled`` event and bumps the ``fullchip_workers_stalled``
   counter; progress re-arms the flag with a ``worker_resumed`` event.
   This fires long before a tile's wall-clock ``timeout_s`` budget —
   the watchdog measures *progress*, the budget measures *time*.  Dead
   workers are the queue's to find: its expiry sweep requeues a dead
   worker's tile and deletes its heartbeat.  A stall is what leases
   cannot see, since a hung worker's renewal thread keeps its lease.

3. **Status feed** — the scheduler-owned :class:`StatusWriter`
   atomically rewrites ``status.json``: per-tile states (pending /
   running / ok / recovered / failed / timeout), live iteration + phase
   from the heartbeats, an ETA extrapolated from the observed
   tile-completion rate, and the merged live counters.  ``repro watch``
   tails this file.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..utils.io import write_json_atomic
from . import Instrumentation

__all__ = [
    "STATUS_FILENAME",
    "HEARTBEAT_DIRNAME",
    "Heartbeat",
    "HeartbeatWriter",
    "heartbeat_filename",
    "read_heartbeat",
    "read_heartbeats",
    "iter_heartbeat_files",
    "WatchdogConfig",
    "StallFlag",
    "LivenessWatchdog",
    "StatusWriter",
    "load_status",
]

logger = logging.getLogger(__name__)

#: The progress-feed file at the root of a telemetry run directory.
STATUS_FILENAME = "status.json"

#: Heartbeat files live in this subdirectory of a telemetry run dir.
HEARTBEAT_DIRNAME = "heartbeats"

#: Tile states that mean "finished" (mirrors harness CellStatus values).
TERMINAL_TILE_STATES = ("ok", "recovered", "failed", "timeout")


def heartbeat_filename(tile_name: str) -> str:
    """The heartbeat file name for one tile (``heartbeat_<tile>.json``)."""
    return f"heartbeat_{tile_name}.json"


def iter_heartbeat_files(directory: Union[str, Path]) -> List[Path]:
    """All heartbeat files under a directory, sorted by name."""
    path = Path(directory)
    if not path.is_dir():
        return []
    return sorted(path.glob("heartbeat_*.json"))


@dataclass
class Heartbeat:
    """One worker's latest progress pulse.

    Attributes:
        tile: tile name (``tile_r<row>_c<col>``).
        pid: writing process id.
        phase: what the worker is doing (``setup`` / ``optimize`` /
            ``final_eval`` / ``done`` / ``failed``).
        iteration: latest optimizer iteration index.
        objective: latest objective value (None before the first
            evaluation or when non-finite).
        ts: epoch timestamp of the write.
        attempt: 1-based attempt generation of the writing worker.  A
            requeued tile's fresh worker beats with a higher attempt,
            which the watchdog treats as progress — so pulses left over
            from a dead attempt can never flag the re-run as stalled.
    """

    tile: str
    pid: int
    phase: str = ""
    iteration: int = 0
    objective: Optional[float] = None
    ts: float = 0.0
    attempt: int = 1
    trace_id: Optional[str] = None

    def age_s(self, now: float) -> float:
        """Seconds since this heartbeat was written."""
        return max(0.0, now - self.ts)

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "tile": self.tile,
            "pid": self.pid,
            "phase": self.phase,
            "iteration": self.iteration,
            "objective": self.objective,
            "ts": self.ts,
            "attempt": self.attempt,
        }
        if self.trace_id:
            record["trace_id"] = self.trace_id
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Heartbeat":
        objective = data.get("objective")
        trace_id = data.get("trace_id")
        return cls(
            tile=str(data.get("tile", "")),
            pid=int(data.get("pid", 0)),
            phase=str(data.get("phase", "")),
            iteration=int(data.get("iteration", 0)),
            objective=float(objective) if objective is not None else None,
            ts=float(data.get("ts", 0.0)),
            attempt=int(data.get("attempt", 1)),
            trace_id=str(trace_id) if trace_id else None,
        )


def read_heartbeat(path: Union[str, Path]) -> Optional[Heartbeat]:
    """Parse one heartbeat file; None when missing or unreadable."""
    try:
        with open(path) as handle:
            return Heartbeat.from_dict(json.load(handle))
    except (OSError, json.JSONDecodeError, ValueError, TypeError):
        return None


def read_heartbeats(directory: Union[str, Path]) -> Dict[str, Heartbeat]:
    """All readable heartbeats under a directory, keyed by tile name."""
    beats: Dict[str, Heartbeat] = {}
    for path in iter_heartbeat_files(directory):
        beat = read_heartbeat(path)
        if beat is not None and beat.tile:
            beats[beat.tile] = beat
    return beats


class HeartbeatWriter:
    """Worker-side heartbeat publisher (atomic rewrite per beat).

    Plugs into ``Instrumentation.heartbeat`` so the optimizer's
    per-iteration ``beat()`` calls land here, each one a rewrite.
    Writing never raises into the solve — a failed beat is logged and
    dropped.

    ``attempt`` versions the pulses per requeue generation (see
    :class:`Heartbeat`), and ``on_beat`` is an optional callback fired
    on every ``beat()`` call with the current timestamp — the seam the
    queue executor uses to renew a worker's lease from the pulses the
    optimizer already emits.
    """

    enabled = True

    def __init__(
        self,
        directory: Union[str, Path],
        tile: str,
        clock=time.time,
        attempt: int = 1,
        on_beat=None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.tile = tile
        self.clock = clock
        self.attempt = attempt
        self.on_beat = on_beat
        self.trace_id = trace_id
        self.path = self.directory / heartbeat_filename(tile)

    def beat(
        self,
        phase: str,
        iteration: int = 0,
        objective: Optional[float] = None,
    ) -> None:
        now = float(self.clock())
        if self.on_beat is not None:
            try:
                self.on_beat(now)
            except Exception as exc:  # noqa: BLE001 - hooks must not fail solves
                logger.warning("heartbeat on_beat hook failed: %s", exc)
        record = Heartbeat(
            tile=self.tile,
            pid=os.getpid(),
            phase=phase,
            iteration=iteration,
            objective=objective,
            ts=now,
            attempt=self.attempt,
            trace_id=self.trace_id,
        )
        try:
            write_json_atomic(self.path, record.as_dict())
        except OSError as exc:
            logger.warning("heartbeat write failed for %s: %s", self.tile, exc)


# -- liveness watchdog --------------------------------------------------------


@dataclass(frozen=True)
class WatchdogConfig:
    """Parent-side liveness thresholds.

    Attributes:
        stall_factor: a worker is stalled after ``stall_factor`` times
            the observed median iteration time with no progress.
        min_stall_s: floor on the stall threshold — protects fast
            iterations from flagging on scheduler jitter.
    """

    stall_factor: float = 8.0
    min_stall_s: float = 10.0

    def __post_init__(self) -> None:
        if self.stall_factor < 1:
            raise ReproError(f"stall_factor must be >= 1, got {self.stall_factor}")
        if self.min_stall_s <= 0:
            raise ReproError(f"min_stall_s must be positive, got {self.min_stall_s}")


@dataclass
class StallFlag:
    """One watchdog detection (also the ``worker_stalled`` event body)."""

    tile: str
    pid: int
    phase: str
    iteration: int
    stalled_for_s: float
    threshold_s: float


class _TileTrack:
    """Per-tile progress memory inside the watchdog."""

    def __init__(self, beat: Heartbeat) -> None:
        self.iteration = beat.iteration
        self.phase = beat.phase
        self.attempt = beat.attempt
        self.last_progress_ts = beat.ts
        self.flagged = False


class LivenessWatchdog:
    """Flags tile workers whose heartbeats stop progressing.

    The watchdog is passive: :meth:`observe` is called by the scheduler
    with the freshly-read heartbeats (see :func:`read_heartbeats`), so
    the watchdog itself does no IO and is trivially testable with a
    fake clock.

    Progress means the heartbeat's iteration or phase changed; each
    observed iteration advance contributes ``dt / d_iter`` samples to
    the median iteration time that scales the stall threshold.
    """

    def __init__(
        self,
        config: Optional[WatchdogConfig] = None,
        obs: Optional[Instrumentation] = None,
        clock=time.time,
    ) -> None:
        self.config = config or WatchdogConfig()
        self.obs = obs or Instrumentation.disabled()
        self.clock = clock
        self._tracks: Dict[str, _TileTrack] = {}
        self._done: set = set()
        self._iter_times: Deque[float] = deque(maxlen=256)
        #: Every flag raised over the run (latched flags re-raise only
        #: after a ``worker_resumed`` re-arm).
        self.stalls: List[StallFlag] = []

    def mark_done(self, tile: str) -> None:
        """Stop watching a tile whose result has settled."""
        self._done.add(tile)
        self._tracks.pop(tile, None)

    def threshold_s(self) -> float:
        """Current stall threshold: max(min_stall_s, factor * median iter)."""
        cfg = self.config
        if not self._iter_times:
            return cfg.min_stall_s
        ordered = sorted(self._iter_times)
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid])
        )
        return max(cfg.min_stall_s, cfg.stall_factor * median)

    def observe(
        self, beats: Dict[str, Heartbeat], now: Optional[float] = None
    ) -> List[StallFlag]:
        """Fold one round of heartbeats in; return freshly-raised flags."""
        now = float(self.clock()) if now is None else now
        flags: List[StallFlag] = []
        for tile, beat in beats.items():
            if tile in self._done or beat.phase in ("done", "failed"):
                continue
            track = self._tracks.get(tile)
            if track is None:
                self._tracks[tile] = _TileTrack(beat)
                continue
            new_attempt = beat.attempt != track.attempt
            progressed = (
                new_attempt
                or beat.iteration != track.iteration
                or beat.phase != track.phase
            )
            if progressed:
                d_iter = beat.iteration - track.iteration
                dt = beat.ts - track.last_progress_ts
                # A new attempt restarts the iteration counter — its
                # first pulse is a fresh track, not an iteration sample.
                if d_iter > 0 and dt > 0 and not new_attempt:
                    self._iter_times.append(dt / d_iter)
                track.iteration = beat.iteration
                track.phase = beat.phase
                track.attempt = beat.attempt
                track.last_progress_ts = beat.ts
                if track.flagged:
                    track.flagged = False
                    self.obs.events.emit(
                        "worker_resumed", tile=tile, pid=beat.pid,
                        iteration=beat.iteration,
                    )
                continue
            if track.flagged:
                continue
            stalled_for = now - track.last_progress_ts
            threshold = self.threshold_s()
            if stalled_for <= threshold:
                continue
            flag = StallFlag(
                tile=tile,
                pid=beat.pid,
                phase=beat.phase,
                iteration=beat.iteration,
                stalled_for_s=stalled_for,
                threshold_s=threshold,
            )
            track.flagged = True
            self.stalls.append(flag)
            flags.append(flag)
            self.obs.metrics.counter("fullchip_workers_stalled").inc()
            self.obs.events.emit(
                "worker_stalled",
                tile=flag.tile,
                pid=flag.pid,
                phase=flag.phase,
                iteration=flag.iteration,
                stalled_for_s=flag.stalled_for_s,
                threshold_s=flag.threshold_s,
            )
            logger.warning(
                "watchdog: tile %s worker pid %d stalled (%.1fs without "
                "progress, threshold %.1fs)",
                flag.tile, flag.pid, flag.stalled_for_s, flag.threshold_s,
            )
        return flags


# -- status feed --------------------------------------------------------------


@dataclass
class _TileState:
    """Mutable per-tile entry of the status feed."""

    index: Tuple[int, int]
    state: str = "pending"
    phase: Optional[str] = None
    iteration: Optional[int] = None
    objective: Optional[float] = None
    epe_violations: Optional[int] = None
    pv_band_nm2: Optional[float] = None
    score_total: Optional[float] = None
    runtime_s: Optional[float] = None
    attempts: Optional[int] = None
    pid: Optional[int] = None
    cached: bool = False
    stalled: bool = False
    error: Optional[str] = None

    def as_dict(self, name: str) -> Dict[str, object]:
        return {
            "name": name,
            "index": list(self.index),
            "state": self.state,
            "phase": self.phase,
            "iteration": self.iteration,
            "objective": self.objective,
            "epe_violations": self.epe_violations,
            "pv_band_nm2": self.pv_band_nm2,
            "score_total": self.score_total,
            "runtime_s": self.runtime_s,
            "attempts": self.attempts,
            "pid": self.pid,
            "cached": self.cached,
            "stalled": self.stalled,
            "error": self.error,
        }


class StatusWriter:
    """Atomically-rewritten ``status.json`` progress feed.

    Owned by the parent: the full-chip engine seeds it with every
    planned tile, the scheduler feeds it heartbeats, stall flags, and
    completions, and every :meth:`write` replaces ``status.json`` in
    one atomic step so ``repro watch`` never reads a torn feed.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        tiles: Dict[str, Tuple[int, int]],
        layout: str = "",
        workers: int = 1,
        clock=time.time,
    ) -> None:
        self.path = Path(run_dir) / STATUS_FILENAME
        self.layout = layout
        self.workers = workers
        self.clock = clock
        self.started_at = float(clock())
        self.state = "running"
        self._tiles: Dict[str, _TileState] = {
            name: _TileState(index=index) for name, index in tiles.items()
        }
        self._counters: Dict[str, int] = {}
        self._score: Optional[Dict[str, object]] = None

    # -- mutation hooks (scheduler/engine) ---------------------------------

    def mark_running(self, name: str, pid: Optional[int] = None) -> None:
        tile = self._tiles.get(name)
        if tile is not None and tile.state == "pending":
            tile.state = "running"
            if pid is not None:
                tile.pid = pid

    def apply_heartbeat(self, beat: Heartbeat) -> None:
        tile = self._tiles.get(beat.tile)
        if tile is None or tile.state in TERMINAL_TILE_STATES:
            return
        tile.state = "running"
        tile.phase = beat.phase
        tile.iteration = beat.iteration
        tile.objective = beat.objective
        tile.pid = beat.pid

    def mark_stalled(self, name: str, stalled: bool = True) -> None:
        tile = self._tiles.get(name)
        if tile is not None:
            tile.stalled = stalled

    def mark_done(
        self,
        name: str,
        status: str,
        attempts: int = 1,
        runtime_s: float = 0.0,
        epe_violations: Optional[int] = None,
        pv_band_nm2: Optional[float] = None,
        score_total: Optional[float] = None,
        iterations: Optional[int] = None,
        cached: bool = False,
        error: Optional[str] = None,
    ) -> None:
        tile = self._tiles.get(name)
        if tile is None:
            return
        tile.state = status
        tile.attempts = attempts
        tile.runtime_s = runtime_s
        tile.epe_violations = epe_violations
        tile.pv_band_nm2 = pv_band_nm2
        tile.score_total = score_total
        if iterations is not None:
            tile.iteration = iterations
        tile.phase = "done" if status in ("ok", "recovered") else status
        tile.cached = cached
        tile.stalled = False
        tile.error = error

    def set_counters(self, counters: Dict[str, int]) -> None:
        self._counters = dict(counters)

    def finalize(
        self,
        state: Optional[str] = None,
        score: Optional[Dict[str, object]] = None,
    ) -> None:
        """Settle the run-level state (auto: failed if any tile failed)."""
        if state is None:
            failed = any(
                t.state in ("failed", "timeout") for t in self._tiles.values()
            )
            state = "failed" if failed else "done"
        self.state = state
        if score is not None:
            self._score = dict(score)

    # -- payload + write ---------------------------------------------------

    def counts(self) -> Dict[str, int]:
        done = running = failed = pending = 0
        for tile in self._tiles.values():
            if tile.state in ("ok", "recovered"):
                done += 1
            elif tile.state in ("failed", "timeout"):
                failed += 1
            elif tile.state == "running":
                running += 1
            else:
                pending += 1
        return {
            "total": len(self._tiles),
            "done": done,
            "running": running,
            "failed": failed,
            "pending": pending,
        }

    def payload(self, now: Optional[float] = None) -> Dict[str, object]:
        now = float(self.clock()) if now is None else now
        counts = self.counts()
        elapsed = max(0.0, now - self.started_at)
        settled = counts["done"] + counts["failed"]
        remaining = counts["total"] - settled
        rate = settled / elapsed if elapsed > 0 and settled > 0 else None
        # A finished run's ETA is 0 by definition; mid-run it
        # extrapolates the observed tile-completion rate over the
        # workers still draining the remaining tiles.
        if remaining == 0:
            eta_s: Optional[float] = 0.0
        elif rate:
            eta_s = remaining / rate
        else:
            eta_s = None
        return {
            "schema": 1,
            "kind": "fullchip_status",
            "layout": self.layout,
            "state": self.state,
            "workers": self.workers,
            "parent_pid": os.getpid(),
            "started_at": self.started_at,
            "updated_at": now,
            "elapsed_s": elapsed,
            "eta_s": eta_s,
            "tiles_per_s": rate,
            "tiles": counts,
            "score": self._score,
            "counters": dict(self._counters),
            "tile_states": [
                state.as_dict(name) for name, state in sorted(self._tiles.items())
            ],
        }

    def write(self) -> None:
        """Atomically replace ``status.json``; never raises into the run."""
        try:
            write_json_atomic(self.path, self.payload())
        except OSError as exc:
            logger.warning("status feed write failed: %s", exc)


def load_status(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Parse ``status.json`` from a telemetry run directory.

    Raises:
        ReproError: the directory has no readable ``status.json`` (not a
            telemetry run dir, or the run has not started writing yet).
    """
    path = Path(run_dir) / STATUS_FILENAME
    if not path.is_file():
        raise ReproError(
            f"no {STATUS_FILENAME} in {run_dir} — not a (live) telemetry run "
            f"directory, or the run has not started yet"
        )
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"unreadable {path}: {exc}") from exc
