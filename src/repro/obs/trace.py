"""Hierarchical span tracer for per-phase runtime breakdowns.

``Tracer.span("name")`` opens a context-managed span; spans nest, and
each unique root-to-leaf *path* (``optimize/iteration/objective``)
accumulates a call count and total monotonic time.  ``Tracer.report()``
renders the aggregated tree with total, self (total minus child) and
percent-of-root columns — the per-phase table behind the Table 3 /
Fig. 6 runtime analyses.

The module also provides :class:`NullTracer`, a no-op stand-in whose
``span()`` returns a shared do-nothing context manager, so instrumented
code pays only one attribute lookup and one method call when tracing is
disabled.

Two capabilities support distributed telemetry (:mod:`repro.obs.distributed`):

* **Timeline mode** (``Tracer(timeline=True)``) additionally records one
  :class:`TraceSlice` per completed span — a timestamped interval on a
  shared epoch clock — which the Chrome trace exporter
  (:mod:`repro.obs.export`) turns into Perfetto-loadable slices.
* **Absorption** (:meth:`Tracer.absorb`) merges span statistics recorded
  elsewhere (another tracer, a worker process's spool file) into this
  tracer's aggregate, keyed by span path, so a parent's ``report()``
  covers work done in forked workers.

Spans are exception-safe: a span exited via a raising body is still
recorded (the context manager's ``__exit__`` always runs) and is
additionally tagged *failed* — ``SpanStats.failures`` counts them and
``report()`` marks the path.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Union

__all__ = [
    "SpanStats",
    "TraceSlice",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "new_trace_id",
]


def new_trace_id() -> str:
    """Mint a correlation id tying one request to every artifact it leaves.

    Opaque hex, stable across processes: the service stamps it into job
    records, run manifests, queue history, heartbeats, and spools so a
    single grep reconstructs a request's path through the system.
    """
    return uuid.uuid4().hex


@dataclass(frozen=True)
class SpanStats:
    """Aggregated timing of every span recorded under one path.

    Attributes:
        path: slash-joined ancestry, e.g. ``"optimize/iteration"``.
        count: number of spans completed at this path.
        total_s: wall-clock seconds summed over those spans.
        self_s: ``total_s`` minus time spent in child spans.
        failures: how many of those spans exited via an exception.
    """

    path: str
    count: int
    total_s: float
    self_s: float
    failures: int = 0

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    @property
    def depth(self) -> int:
        return self.path.count("/")

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the spool-file ``span`` record payload)."""
        return {
            "path": self.path,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "failures": self.failures,
        }


@dataclass(frozen=True)
class TraceSlice:
    """One completed span as a timestamped interval (timeline mode).

    Attributes:
        path: the span's slash-joined path.
        ts_us: start time in microseconds on the epoch clock (Unix time),
            comparable across processes on one machine.
        dur_us: duration in microseconds.
        failed: the span exited via an exception.
    """

    path: str
    ts_us: float
    dur_us: float
    failed: bool = False

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


class _Span:
    """One live span; created by ``Tracer.span`` and closed on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_path", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(self._name)
        self._path = "/".join(tracer._stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        tracer = self._tracer
        failed = bool(exc_info) and exc_info[0] is not None
        tracer._totals[self._path] = tracer._totals.get(self._path, 0.0) + elapsed
        tracer._counts[self._path] = tracer._counts.get(self._path, 0) + 1
        if failed:
            tracer._failures[self._path] = tracer._failures.get(self._path, 0) + 1
        if tracer._timeline:
            if len(tracer._slices) < tracer.max_slices:
                tracer._slices.append(
                    TraceSlice(
                        path=self._path,
                        ts_us=(tracer._epoch_offset + self._start) * 1e6,
                        dur_us=elapsed * 1e6,
                        failed=failed,
                    )
                )
            else:
                tracer._dropped_slices += 1
        tracer._stack.pop()
        if tracer._stack:
            parent = "/".join(tracer._stack)
            tracer._child_time[parent] = tracer._child_time.get(parent, 0.0) + elapsed


class _NullSpan:
    """Shared do-nothing span (returned by :class:`NullTracer`)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the default when observability is disabled."""

    enabled = False
    timeline = False
    current_path = ""

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def stats(self) -> Dict[str, SpanStats]:
        return {}

    def slices(self) -> List[TraceSlice]:
        return []

    def absorb(self, stats: object, under: str = "") -> None:
        pass

    def total(self, path: str) -> float:
        return 0.0

    def root_total(self) -> float:
        return 0.0

    def reset(self) -> None:
        pass

    def report(self) -> str:
        return "(tracing disabled)"


class Tracer:
    """Collecting tracer: nestable spans aggregated by path.

    Example:
        >>> tracer = Tracer()
        >>> with tracer.span("outer"):
        ...     with tracer.span("inner"):
        ...         pass
        >>> sorted(tracer.stats())
        ['outer', 'outer/inner']
    """

    enabled = True

    def __init__(self, timeline: bool = False, max_slices: int = 100_000) -> None:
        self._stack: List[str] = []
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._child_time: Dict[str, float] = {}
        self._failures: Dict[str, int] = {}
        self._timeline = bool(timeline)
        self.max_slices = max_slices
        self._slices: List[TraceSlice] = []
        self._dropped_slices = 0
        # Maps perf_counter readings onto the epoch clock, so slices from
        # different processes land on one comparable time axis.
        self._epoch_offset = time.time() - time.perf_counter()

    @property
    def timeline(self) -> bool:
        """True when this tracer records timestamped slices."""
        return self._timeline

    @property
    def current_path(self) -> str:
        """Slash-joined path of the innermost open span ("" at top level).

        Callers absorbing external stats mid-span use this as the
        ``under`` anchor so the absorbed subtree nests where the work
        actually happened.
        """
        return "/".join(self._stack)

    def span(self, name: str) -> _Span:
        """Open a nestable span; use as a context manager."""
        return _Span(self, name)

    def stats(self) -> Dict[str, SpanStats]:
        """Snapshot of every recorded path's aggregate timing."""
        return {
            path: SpanStats(
                path=path,
                count=self._counts[path],
                total_s=total,
                self_s=max(total - self._child_time.get(path, 0.0), 0.0),
                failures=self._failures.get(path, 0),
            )
            for path, total in self._totals.items()
        }

    def slices(self) -> List[TraceSlice]:
        """Completed-span intervals recorded in timeline mode (a copy)."""
        return list(self._slices)

    @property
    def dropped_slices(self) -> int:
        """Slices discarded after ``max_slices`` was reached."""
        return self._dropped_slices

    def absorb(
        self,
        stats: Union[Mapping[str, SpanStats], Iterable[object]],
        under: str = "",
    ) -> None:
        """Merge externally recorded span statistics into this tracer.

        Accepts a ``stats()`` mapping, an iterable of :class:`SpanStats`,
        or an iterable of their ``as_dict()`` payloads (the spool-file
        form).  Aggregation is keyed by span path; with ``under`` set,
        absorbed paths are re-rooted beneath it (``under/<path>``) and
        the absorbed roots' time is charged to ``under``'s child time so
        the rendered tree nests them naturally.
        """
        items = stats.values() if isinstance(stats, Mapping) else stats
        for item in items:
            if isinstance(item, SpanStats):
                path, count = item.path, item.count
                total, self_s = item.total_s, item.self_s
                failures = item.failures
            else:
                path = str(item["path"])  # type: ignore[index]
                count = int(item.get("count", 1))  # type: ignore[union-attr]
                total = float(item.get("total_s", 0.0))  # type: ignore[union-attr]
                self_s = float(item.get("self_s", total))  # type: ignore[union-attr]
                failures = int(item.get("failures", 0))  # type: ignore[union-attr]
            full = f"{under}/{path}" if under else path
            self._totals[full] = self._totals.get(full, 0.0) + total
            self._counts[full] = self._counts.get(full, 0) + count
            if failures:
                self._failures[full] = self._failures.get(full, 0) + failures
            child = max(total - self_s, 0.0)
            if child:
                self._child_time[full] = self._child_time.get(full, 0.0) + child
            if under and "/" not in path:
                self._child_time[under] = self._child_time.get(under, 0.0) + total

    def total(self, path: str) -> float:
        """Total seconds recorded under one exact path (0.0 if unseen)."""
        return self._totals.get(path, 0.0)

    def root_total(self) -> float:
        """Summed time of all root (depth-0) spans."""
        return sum(t for path, t in self._totals.items() if "/" not in path)

    def reset(self) -> None:
        """Drop all recorded spans (open spans keep nesting correctly)."""
        self._totals.clear()
        self._counts.clear()
        self._child_time.clear()
        self._failures.clear()
        self._slices.clear()
        self._dropped_slices = 0

    def report(self, title: str = "phase breakdown") -> str:
        """Fixed-width per-phase table, children indented under parents.

        Paths whose spans ever exited via an exception carry a
        ``[N failed]`` marker after their label.
        """
        stats = self.stats()
        if not stats:
            return f"--- {title} ---\n(no spans recorded)"
        root_total = self.root_total() or 1e-12
        lines = [
            f"--- {title} ---",
            f"{'span':40s} {'count':>7s} {'total s':>9s} {'self s':>9s} {'%root':>6s}",
        ]
        for path in sorted(stats):
            s = stats[path]
            label = "  " * s.depth + s.name
            if s.failures:
                label += f" [{s.failures} failed]"
            lines.append(
                f"{label:40s} {s.count:7d} {s.total_s:9.3f} {s.self_s:9.3f} "
                f"{100.0 * s.total_s / root_total:6.1f}"
            )
        return "\n".join(lines)


#: Shared no-op tracer instance for disabled-observability defaults.
NULL_TRACER = NullTracer()
