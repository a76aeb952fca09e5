"""Worker-side telemetry for the tile pool, spooled and merged.

Since the tiled engine (PR 4) runs each tile solve in a forked
``ProcessPoolExecutor`` worker, the parent's :class:`Instrumentation`
only observes scheduling — the per-iteration Hopkins simulations that
dominate full-chip cost happen in processes the parent's tracer never
sees.  This module closes that gap with a spool-and-merge scheme:

1. **Worker side** — :func:`worker_instrumentation` builds a live bundle
   inside ``solve_tile_job`` (timeline tracing + metrics + an in-memory
   event buffer).  After the solve, :func:`write_spool` persists the
   whole bundle as one atomic per-tile JSONL *spool file* (temp file +
   ``os.replace``, the checkpoint discipline) and
   :func:`summarize_worker` distills a compact, picklable
   :class:`TileTelemetry` that rides back to the parent inside
   ``TileResult``.

2. **Parent side** — :func:`merge_tile_telemetry` folds each summary
   into the parent's bundle (counter sums, histogram bucket merges,
   span stats re-rooted under ``fullchip.tiles/<tile>``), so the
   parent's ``metrics.summary()`` and ``tracer.report()`` cover the
   whole chip.  The spool files remain on disk as the ground-truth
   artifacts consumed by the Chrome-trace exporter
   (:mod:`repro.obs.export`) and the ``repro report`` renderer
   (:mod:`repro.obs.report`).

Spool-file format: one JSON object per line, discriminated by ``kind``:

* ``header`` — tile name, worker pid, wall-clock bounds.
* ``span``   — one :class:`~repro.obs.trace.SpanStats` ``as_dict()``.
* ``slice``  — one :class:`~repro.obs.trace.TraceSlice` (timeline mode).
* ``metric`` — one named instrument snapshot (``as_dict()`` form).
* ``event``  — one structured event record, verbatim.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..utils.io import write_text_atomic
from . import Instrumentation
from .trace import TraceSlice

__all__ = [
    "WorkerTelemetryConfig",
    "TileTelemetry",
    "SpoolData",
    "worker_instrumentation",
    "summarize_worker",
    "write_spool",
    "read_spool",
    "iter_spool_files",
    "spool_filename",
    "merge_tile_telemetry",
]

logger = logging.getLogger(__name__)

#: Spool files live in this subdirectory of a telemetry run directory.
SPOOL_DIRNAME = "spool"


def spool_filename(tile_name: str) -> str:
    """The spool file name for one tile (``spool_<tile>.jsonl``)."""
    return f"spool_{tile_name}.jsonl"


def iter_spool_files(spool_dir: Union[str, Path]) -> List[Path]:
    """All spool files under a directory, sorted by name."""
    directory = Path(spool_dir)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("spool_*.jsonl"))


@dataclass(frozen=True)
class WorkerTelemetryConfig:
    """Telemetry settings shipped into tile workers (picklable).

    Attributes:
        spool_dir: directory receiving per-tile spool files (created on
            demand inside the worker).
        timeline: record timestamped slices for Chrome-trace export.
        heartbeat_dir: directory receiving per-tile heartbeat files;
            None disables worker heartbeats (when set, a heartbeat
            is written every optimizer iteration).
        resource_dir: directory receiving per-pid ``resources_*.jsonl``
            timelines; None disables the worker resource sampler.
        resource_interval_s: sampling interval for the worker resource
            sampler (≤ 0 disables it even when ``resource_dir`` is set).
        trace_id: request correlation id stamped into heartbeats and
            spool headers; None when the run has no originating request.
    """

    spool_dir: str
    timeline: bool = True
    heartbeat_dir: Optional[str] = None
    resource_dir: Optional[str] = None
    resource_interval_s: float = 0.0
    trace_id: Optional[str] = None


@dataclass
class TileTelemetry:
    """Compact worker-telemetry summary returned inside ``TileResult``.

    Everything here is plain JSON-able data so the summary pickles
    cheaply across the pool boundary and serializes into ``run.json``.

    Attributes:
        tile: the tile's name (``tile_r<row>_c<col>``).
        pid: worker process id (a Chrome-trace lane).
        spool_file: spool file basename under the run's spool directory.
        iterations: optimizer iterations recorded by the worker
            (``iterations_total`` counter).
        span_stats: the worker tracer's ``stats()`` in ``as_dict`` form.
        metrics: the worker registry's ``as_dict()`` snapshot.
        events_count: structured events captured in the spool.
    """

    tile: str
    pid: int
    spool_file: str
    iterations: int = 0
    span_stats: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    events_count: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (embedded in ``run.json``)."""
        return {
            "tile": self.tile,
            "pid": self.pid,
            "spool_file": self.spool_file,
            "iterations": self.iterations,
            "span_stats": list(self.span_stats),
            "metrics": dict(self.metrics),
            "events_count": self.events_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TileTelemetry":
        return cls(
            tile=str(data["tile"]),
            pid=int(data.get("pid", 0)),
            spool_file=str(data.get("spool_file", "")),
            iterations=int(data.get("iterations", 0)),
            span_stats=list(data.get("span_stats", [])),
            metrics=dict(data.get("metrics", {})),
            events_count=int(data.get("events_count", 0)),
        )


def worker_instrumentation(
    config: WorkerTelemetryConfig,
    tile: Optional[str] = None,
    attempt: int = 1,
    on_beat=None,
) -> Tuple[Instrumentation, List[Dict[str, object]]]:
    """Build a worker-local bundle whose events buffer in memory.

    Returns the bundle plus the event buffer; :func:`write_spool` later
    flushes both to the tile's spool file in one atomic write.  When the
    config carries a ``heartbeat_dir`` and a ``tile`` name is given, the
    bundle also gets a live :class:`~repro.obs.live.HeartbeatWriter` so
    the optimizer's per-iteration beats land in ``heartbeat_<tile>.json``
    — stamped with ``attempt`` (the requeue generation) and firing the
    optional ``on_beat`` hook on every pulse (the queue executor's
    lease-renewal seam).
    """
    events: List[Dict[str, object]] = []
    heartbeat = None
    if config.heartbeat_dir and tile:
        from .live import HeartbeatWriter

        heartbeat = HeartbeatWriter(
            config.heartbeat_dir,
            tile,
            attempt=attempt,
            on_beat=on_beat,
            trace_id=config.trace_id,
        )
    obs = Instrumentation.collecting(
        trace=True,
        metrics=True,
        events_sink=events.append,
        timeline=config.timeline,
        heartbeat=heartbeat,
    )
    return obs, events


def summarize_worker(
    tile_name: str,
    obs: Instrumentation,
    events: List[Dict[str, object]],
) -> TileTelemetry:
    """Distill a worker bundle into the picklable cross-pool summary."""
    metrics = obs.metrics.as_dict()
    iterations = 0
    counter = metrics.get("iterations_total")
    if counter and counter.get("type") == "counter":
        iterations = int(counter.get("value", 0) or 0)
    return TileTelemetry(
        tile=tile_name,
        pid=os.getpid(),
        spool_file=spool_filename(tile_name),
        iterations=iterations,
        span_stats=[s.as_dict() for s in obs.tracer.stats().values()],
        metrics=metrics,
        events_count=len(events),
    )


def write_spool(
    spool_dir: Union[str, Path],
    tile_name: str,
    obs: Instrumentation,
    events: List[Dict[str, object]],
    trace_id: Optional[str] = None,
) -> Path:
    """Atomically persist one worker bundle as a per-tile spool file.

    The file appears complete or not at all (temp file + ``os.replace``
    in the target directory), so a reader never observes a torn spool
    even if the worker dies mid-write.
    """
    directory = Path(spool_dir)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / spool_filename(tile_name)
    header: Dict[str, object] = {
        "kind": "header",
        "tile": tile_name,
        "pid": os.getpid(),
    }
    if trace_id:
        header["trace_id"] = trace_id
    lines = [json.dumps(header)]
    for stats in obs.tracer.stats().values():
        lines.append(json.dumps({"kind": "span", **stats.as_dict()}))
    for item in obs.tracer.slices():
        lines.append(
            json.dumps(
                {
                    "kind": "slice",
                    "path": item.path,
                    "ts_us": item.ts_us,
                    "dur_us": item.dur_us,
                    "failed": item.failed,
                }
            )
        )
    for name, data in obs.metrics.as_dict().items():
        lines.append(json.dumps({"kind": "metric", "name": name, **data}))
    for record in events:
        lines.append(json.dumps({"kind": "event", **record}))
    return write_text_atomic(target, "\n".join(lines) + "\n")


@dataclass
class SpoolData:
    """One parsed spool file (see module docstring for the line kinds)."""

    tile: str = ""
    pid: int = 0
    trace_id: Optional[str] = None
    spans: List[Dict[str, object]] = field(default_factory=list)
    slices: List[TraceSlice] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)


def read_spool(path: Union[str, Path]) -> SpoolData:
    """Parse one spool file; unreadable lines are skipped with a warning."""
    data = SpoolData()
    with open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                logger.warning("%s:%d: skipping bad spool line: %s", path, lineno, exc)
                continue
            kind = record.pop("kind", None)
            if kind == "header":
                data.tile = str(record.get("tile", ""))
                data.pid = int(record.get("pid", 0))
                raw_trace = record.get("trace_id")
                data.trace_id = str(raw_trace) if raw_trace else None
            elif kind == "span":
                data.spans.append(record)
            elif kind == "slice":
                data.slices.append(
                    TraceSlice(
                        path=str(record.get("path", "")),
                        ts_us=float(record.get("ts_us", 0.0)),
                        dur_us=float(record.get("dur_us", 0.0)),
                        failed=bool(record.get("failed", False)),
                    )
                )
            elif kind == "metric":
                name = str(record.pop("name", ""))
                if name:
                    data.metrics[name] = record
            elif kind == "event":
                data.events.append(record)
            else:
                logger.warning("%s:%d: unknown spool kind %r", path, lineno, kind)
    return data


def merge_tile_telemetry(
    obs: Instrumentation,
    telemetry: Optional[TileTelemetry],
    under: str = "fullchip.tiles",
) -> None:
    """Fold one worker summary into the parent bundle.

    Counters add, gauges take the worker's last write, histograms merge
    bucket-wise; span stats are re-rooted beneath ``under`` so the
    parent's ``report()`` nests worker phases inside the scheduling
    span that launched them.  A ``None`` summary (telemetry disabled or
    a tile that died before spooling) is a no-op.
    """
    if telemetry is None:
        return
    obs.metrics.merge_snapshot(telemetry.metrics)
    if telemetry.span_stats:
        obs.tracer.absorb(telemetry.span_stats, under=under)
