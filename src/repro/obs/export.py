"""Chrome trace-event export for timeline traces.

Converts the timestamped :class:`~repro.obs.trace.TraceSlice` intervals
recorded by timeline-mode tracers — the parent's own slices plus the
per-tile worker slices read back from spool files — into the Chrome
trace-event JSON format, loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.

Each process is one *lane*: a ``process_name`` metadata record labels
it, and every completed span becomes a complete ("X") event with
microsecond ``ts``/``dur`` on the shared epoch clock, so parent
scheduling and worker solves line up on one time axis.  Nesting falls
out of interval containment: a worker's ``iteration`` slices sit inside
its ``optimize`` slice, which sits inside the ``tile:<name>`` slice.

The trace-viewer spec this targets:
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Union

from ..utils.io import write_text_atomic
from .trace import TraceSlice

__all__ = [
    "TraceLane",
    "chrome_trace_events",
    "write_chrome_trace",
    "read_chrome_trace",
    "validate_chrome_trace",
]


@dataclass
class TraceLane:
    """One process's slices, rendered as one lane in the trace viewer.

    Attributes:
        pid: process id (the lane key; duplicates merge into one lane).
        label: human-readable lane name (``parent``, ``tile_r0_c0``...).
        slices: the lane's completed-span intervals.
        tid: thread id within the lane (workers solve tiles
            sequentially, so a fixed 0 keeps X-event nesting exact).
        sort_index: explicit lane ordering in the viewer (parent first).
    """

    pid: int
    label: str
    slices: List[TraceSlice] = field(default_factory=list)
    tid: int = 0
    sort_index: int = 0


def chrome_trace_events(lanes: Sequence[TraceLane]) -> List[Dict[str, object]]:
    """Flatten lanes into trace-event records (metadata first).

    Multiple lanes may share a pid (several tiles solved by one queue
    worker); the first label wins the ``process_name`` metadata and the
    slices interleave on the shared time axis, which is exactly what
    happened at runtime.
    """
    events: List[Dict[str, object]] = []
    named_pids: Dict[int, str] = {}
    for lane in lanes:
        if lane.pid not in named_pids:
            named_pids[lane.pid] = lane.label
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": lane.pid,
                    "tid": lane.tid,
                    "args": {"name": lane.label},
                }
            )
            events.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": lane.pid,
                    "tid": lane.tid,
                    "args": {"sort_index": lane.sort_index},
                }
            )
    for lane in lanes:
        for item in lane.slices:
            record: Dict[str, object] = {
                "name": item.name,
                "cat": "span",
                "ph": "X",
                "ts": item.ts_us,
                "dur": item.dur_us,
                "pid": lane.pid,
                "tid": lane.tid,
                "args": {"path": item.path},
            }
            if item.failed:
                record["args"]["failed"] = True  # type: ignore[index]
            events.append(record)
    return events


def write_chrome_trace(
    path: Union[str, Path], lanes: Sequence[TraceLane]
) -> Path:
    """Write a complete ``trace.json`` atomically (tmp + ``os.replace``)."""
    document = {
        "traceEvents": chrome_trace_events(lanes),
        "displayTimeUnit": "ms",
    }
    return write_text_atomic(path, json.dumps(document))


def read_chrome_trace(path: Union[str, Path]) -> List[TraceLane]:
    """Parse a ``trace.json`` back into lanes (inverse of the writer).

    ``process_name`` metadata creates a lane per pid (first label wins,
    matching the writer); ``process_sort_index`` updates the lane's
    ordering; every "X" event appends a :class:`TraceSlice` to its
    pid's lane.  X events on a pid with no metadata get a synthesized
    ``pid-<N>`` lane, so hand-edited or foreign traces still round-trip.
    Lanes come back in first-appearance order.
    """
    with open(path, "r") as handle:
        document = json.load(handle)
    events = document.get("traceEvents") if isinstance(document, dict) else None
    lanes: Dict[int, TraceLane] = {}
    order: List[int] = []

    def lane_for(pid: int, label: str) -> TraceLane:
        lane = lanes.get(pid)
        if lane is None:
            lane = TraceLane(pid=pid, label=label)
            lanes[pid] = lane
            order.append(pid)
        return lane

    for event in events or []:
        if not isinstance(event, dict):
            continue
        pid = event.get("pid")
        if not isinstance(pid, int):
            continue
        phase = event.get("ph")
        args = event.get("args") if isinstance(event.get("args"), dict) else {}
        if phase == "M":
            name = event.get("name")
            if name == "process_name":
                label = str(args.get("name", f"pid-{pid}"))
                if pid in lanes:
                    pass  # first label wins, matching the writer
                else:
                    lane_for(pid, label)
            elif name == "process_sort_index":
                lane_for(pid, f"pid-{pid}").sort_index = int(
                    args.get("sort_index", 0)
                )
        elif phase == "X":
            lane_for(pid, f"pid-{pid}").slices.append(
                TraceSlice(
                    path=str(args.get("path") or event.get("name", "")),
                    ts_us=float(event.get("ts", 0.0)),
                    dur_us=float(event.get("dur", 0.0)),
                    failed=bool(args.get("failed", False)),
                )
            )
    return [lanes[pid] for pid in order]


def validate_chrome_trace(document: object) -> List[str]:
    """Structural check against the trace-event schema; returns problems.

    Verifies the JSON-object container shape, per-event required fields
    ("M" metadata needs ``name``/``pid``/``args``; "X" complete events
    need numeric ``ts``/``dur`` and a ``pid``), and that every "X"
    event's pid carries a ``process_name``.  An empty list means the
    trace loads cleanly in Perfetto / ``chrome://tracing``.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"trace document must be a JSON object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    named_pids = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") not in ("process_name", "process_sort_index",
                                         "thread_name", "thread_sort_index"):
                problems.append(f"event {i}: unknown metadata name {event.get('name')!r}")
            if not isinstance(event.get("pid"), int):
                problems.append(f"event {i}: metadata without integer pid")
            if not isinstance(event.get("args"), dict):
                problems.append(f"event {i}: metadata without args object")
            elif event.get("name") == "process_name":
                named_pids.add(event.get("pid"))
        elif phase == "X":
            if not event.get("name"):
                problems.append(f"event {i}: X event without name")
            if not isinstance(event.get("pid"), int):
                problems.append(f"event {i}: X event without integer pid")
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"event {i}: X event with bad {key}={value!r}")
        else:
            problems.append(f"event {i}: unsupported phase {phase!r}")
    for i, event in enumerate(events):
        if isinstance(event, dict) and event.get("ph") == "X":
            if event.get("pid") not in named_pids:
                problems.append(
                    f"event {i}: pid {event.get('pid')} has no process_name lane"
                )
    return problems
