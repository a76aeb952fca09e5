"""Observability: hierarchical tracing, metrics, and structured events.

The three pillars, each with a no-op null twin so instrumented code is
free when observability is off:

* :mod:`repro.obs.trace`   — nestable spans, per-phase time breakdown.
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms.
* :mod:`repro.obs.events`  — JSONL run telemetry (one record/iteration).

:class:`Instrumentation` bundles one of each and is what the stack
threads around: the simulator owns a bundle, and the optimizer, the
objectives, the harness and the CLI all pick it up from there.

Example::

    from repro.obs import Instrumentation

    obs = Instrumentation.collecting()
    sim = LithographySimulator(LithoConfig.reduced(), obs=obs)
    MosaicFast(config, simulator=sim).solve(layout)
    print(obs.tracer.report())
    print(obs.metrics.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .events import NULL_EMITTER, EventEmitter, EventSink, NullEventEmitter
from .metrics import (
    DEFAULT_GRADIENT_RMS_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    default_registry,
    set_default_registry,
)
from .trace import NULL_TRACER, NullTracer, SpanStats, Tracer, TraceSlice

__all__ = [
    "Instrumentation",
    "Tracer",
    "NullTracer",
    "SpanStats",
    "TraceSlice",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "default_registry",
    "set_default_registry",
    "DEFAULT_GRADIENT_RMS_BUCKETS",
    "EventEmitter",
    "NullEventEmitter",
    "NullHeartbeat",
    "NULL_TRACER",
    "NULL_REGISTRY",
    "NULL_EMITTER",
    "NULL_HEARTBEAT",
]


class NullHeartbeat:
    """No-op twin of :class:`repro.obs.live.HeartbeatWriter`.

    Defined here (not in :mod:`repro.obs.live`) so the bundle has a
    zero-dependency default and instrumented code can always call
    ``obs.heartbeat.beat(...)`` unconditionally.
    """

    enabled = False

    def beat(self, phase, iteration=0, objective=None):  # noqa: D102
        pass


NULL_HEARTBEAT = NullHeartbeat()


@dataclass
class Instrumentation:
    """Bundle of tracer + metrics + events threaded through the stack.

    The default-constructed bundle is fully disabled (all three nulls),
    so ``obs = obs or Instrumentation.disabled()`` keeps hot paths
    no-op-cheap.  Use :meth:`collecting` (or mix and match fields) to
    turn pillars on.
    """

    tracer: object = field(default=NULL_TRACER)
    metrics: object = field(default=NULL_REGISTRY)
    events: object = field(default=NULL_EMITTER)
    heartbeat: object = field(default=NULL_HEARTBEAT)

    @property
    def is_enabled(self) -> bool:
        """True when any pillar collects data."""
        return bool(
            getattr(self.tracer, "enabled", False)
            or getattr(self.metrics, "enabled", False)
            or getattr(self.events, "enabled", False)
            or getattr(self.heartbeat, "enabled", False)
        )

    @classmethod
    def disabled(cls) -> "Instrumentation":
        """All-null bundle (shared singleton)."""
        return _DISABLED

    @classmethod
    def collecting(
        cls,
        trace: bool = True,
        metrics: bool = True,
        events_sink: Optional[EventSink] = None,
        timeline: bool = False,
        heartbeat: Optional[object] = None,
    ) -> "Instrumentation":
        """Fresh live bundle; events stay off unless a sink is given.

        ``timeline=True`` makes the tracer additionally record
        timestamped :class:`TraceSlice` intervals for Chrome-trace
        export (see :mod:`repro.obs.export`).  ``heartbeat`` accepts a
        :class:`repro.obs.live.HeartbeatWriter` (or any duck-typed
        ``beat()``-bearer) for live worker liveness reporting.
        """
        return cls(
            tracer=Tracer(timeline=timeline) if trace else NULL_TRACER,
            metrics=MetricsRegistry() if metrics else NULL_REGISTRY,
            events=EventEmitter(events_sink) if events_sink is not None else NULL_EMITTER,
            heartbeat=heartbeat if heartbeat is not None else NULL_HEARTBEAT,
        )

    @classmethod
    def from_config(cls, config) -> "Instrumentation":
        """Build from an :class:`repro.config.ObservabilityConfig`."""
        if not (config.trace or config.metrics or config.events_path):
            return _DISABLED
        return cls.collecting(
            trace=config.trace,
            metrics=config.metrics,
            events_sink=config.events_path,
            timeline=getattr(config, "timeline", False),
        )

    def close(self) -> None:
        """Close any file-backed event sink."""
        self.events.close()


_DISABLED = Instrumentation()
