"""Per-process resource telemetry: RSS / CPU / counter timelines.

Full-chip runs are hours-long multi-process affairs, and the spool-based
telemetry (:mod:`repro.obs.distributed`) is strictly post-mortem — a
thrashing or leaking worker is invisible until it finishes or dies.
:class:`ResourceSampler` closes that gap: a daemon thread samples the
*current process* at a fixed interval — resident set size, cumulative
CPU time, and a configurable set of live counters (FFTs, optimizer
iterations) read from a :class:`~repro.obs.metrics.MetricsRegistry` —
into a capped in-memory timeline that is simultaneously appended, one
JSON line per sample, to ``resources_<pid>.jsonl`` in the run's
telemetry directory.

Append-per-sample (rather than the atomic rewrite the spools use) is
deliberate: the file is a *live* feed the ``repro watch`` dashboard
tails mid-run, and JSONL degrades gracefully — a torn final line from a
dying process is skipped by :func:`read_resource_timeline`, every
complete line stays valid.

Readers (:func:`read_resource_timeline`, :func:`summarize_resources`)
work from the files alone so ``repro watch`` and ``repro report`` can
consume timelines of any finished, crashed, or still-running process.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Union

__all__ = [
    "RESOURCES_DIRNAME",
    "DEFAULT_COUNTER_NAMES",
    "ResourceSample",
    "ResourceSampler",
    "process_rss_bytes",
    "process_cpu_s",
    "resources_filename",
    "iter_resource_files",
    "read_resource_timeline",
    "summarize_resources",
]

logger = logging.getLogger(__name__)

#: Resource timelines live in this subdirectory of a telemetry run dir.
RESOURCES_DIRNAME = "resources"

#: Counters sampled by default: the optimizer's iteration count and the
#: forward engine's FFT accounting (see docs/observability.md).
DEFAULT_COUNTER_NAMES = ("iterations_total", "forward_mask_ffts", "forward_fft_reuse")


def resources_filename(pid: int) -> str:
    """The resource-timeline file name for one process."""
    return f"resources_{pid}.jsonl"


def iter_resource_files(directory: Union[str, Path]) -> List[Path]:
    """All resource timelines under a directory, sorted by name."""
    path = Path(directory)
    if not path.is_dir():
        return []
    return sorted(path.glob("resources_*.jsonl"))


def process_rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Reads ``/proc/self/statm`` where available (Linux); elsewhere falls
    back to ``ru_maxrss`` — the *peak* RSS, still monotone enough for a
    leak trend line.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        return int(peak) * (1 if sys.platform == "darwin" else 1024)


def process_cpu_s() -> float:
    """Cumulative user+system CPU seconds of this process."""
    times = os.times()
    return float(times.user + times.system)


@dataclass
class ResourceSample:
    """One point on a per-process resource timeline.

    Attributes:
        ts: epoch timestamp of the sample.
        pid: sampled process id.
        rss_bytes: resident set size at the sample.
        cpu_s: cumulative user+system CPU seconds at the sample.
        counters: live counter values (``iterations_total`` etc.) read
            from the process's metrics registry.
    """

    ts: float
    pid: int
    rss_bytes: int
    cpu_s: float
    counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "ts": self.ts,
            "pid": self.pid,
            "rss_bytes": self.rss_bytes,
            "cpu_s": self.cpu_s,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ResourceSample":
        return cls(
            ts=float(data.get("ts", 0.0)),
            pid=int(data.get("pid", 0)),
            rss_bytes=int(data.get("rss_bytes", 0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
            counters={
                str(k): int(v) for k, v in dict(data.get("counters") or {}).items()
            },
        )


class ResourceSampler:
    """Daemon-thread sampler appending one JSONL line per interval.

    Args:
        path: target ``resources_<pid>.jsonl`` file (parent directories
            are created; an existing file is appended to, so a queue
            worker reused across tiles extends one continuous timeline).
        interval_s: seconds between samples.
        metrics: optional metrics registry whose counters named in
            ``counter_names`` ride along on every sample (duck-typed;
            the null registry contributes nothing).
        counter_names: which counters to sample.
        max_samples: in-memory timeline cap (oldest samples drop; the
            file keeps everything).
        clock: epoch clock, injectable for tests.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    Sampling never raises into the host process: a failed sample is
    logged and skipped.
    """

    def __init__(
        self,
        path: Union[str, Path],
        interval_s: float = 0.5,
        metrics: Optional[object] = None,
        counter_names: Sequence[str] = DEFAULT_COUNTER_NAMES,
        max_samples: int = 10_000,
        clock=time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.path = Path(path)
        self.interval_s = interval_s
        self.metrics = metrics
        self.counter_names = tuple(counter_names)
        self.clock = clock
        self._timeline: Deque[ResourceSample] = deque(maxlen=max_samples)
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._handle = None

    @property
    def samples(self) -> List[ResourceSample]:
        """Snapshot of the capped in-memory timeline."""
        with self._lock:
            return list(self._timeline)

    def _read_counters(self) -> Dict[str, int]:
        if self.metrics is None:
            return {}
        try:
            snapshot = self.metrics.as_dict()
        except Exception:  # noqa: BLE001 - telemetry must not fail the host
            return {}
        counters: Dict[str, int] = {}
        for name in self.counter_names:
            data = snapshot.get(name)
            if data and data.get("type") == "counter":
                counters[name] = int(data.get("value", 0) or 0)
        return counters

    def sample(self) -> Optional[ResourceSample]:
        """Take one sample now: append to the timeline and the file."""
        try:
            record = ResourceSample(
                ts=float(self.clock()),
                pid=os.getpid(),
                rss_bytes=process_rss_bytes(),
                cpu_s=process_cpu_s(),
                counters=self._read_counters(),
            )
        except Exception as exc:  # noqa: BLE001 - never fail the host
            logger.warning("resource sample failed: %s", exc)
            return None
        with self._lock:
            self._timeline.append(record)
            if self._handle is not None:
                try:
                    self._handle.write(json.dumps(record.as_dict()) + "\n")
                    self._handle.flush()
                except OSError as exc:
                    logger.warning("resource timeline write failed: %s", exc)
        return record

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> "ResourceSampler":
        """Open the timeline file and start the sampling thread."""
        if self._thread is not None:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a")
        self._stop.clear()
        self.sample()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="resource-sampler"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Take a final sample, stop the thread, and close the file."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=max(1.0, 4 * self.interval_s))
        self._thread = None
        self.sample()
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def read_resource_timeline(path: Union[str, Path]) -> List[ResourceSample]:
    """Parse one timeline file; torn/bad lines are skipped silently.

    A still-running (or killed) writer can leave a partial final line —
    that is expected, not an error.
    """
    samples: List[ResourceSample] = []
    try:
        with open(path, "r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    samples.append(ResourceSample.from_dict(json.loads(line)))
                except (json.JSONDecodeError, ValueError, TypeError):
                    continue
    except OSError as exc:
        logger.warning("unreadable resource timeline %s: %s", path, exc)
    return samples


def summarize_resources(
    directory: Union[str, Path], parent_pid: Optional[int] = None
) -> List[Dict[str, object]]:
    """Distill every timeline under ``directory`` to one summary each.

    Returns JSON-able dicts (consumed by ``repro report`` and ``repro
    watch``): pid, role (``parent``/``worker`` when ``parent_pid`` is
    known), sample count, covered wall-clock span, peak and last RSS,
    last CPU seconds, and the final counter values.
    """
    summaries: List[Dict[str, object]] = []
    for path in iter_resource_files(directory):
        samples = read_resource_timeline(path)
        if not samples:
            continue
        last = samples[-1]
        role = None
        if parent_pid is not None:
            role = "parent" if last.pid == parent_pid else "worker"
        summaries.append(
            {
                "pid": last.pid,
                "role": role,
                "file": path.name,
                "samples": len(samples),
                "duration_s": last.ts - samples[0].ts,
                "rss_peak_bytes": max(s.rss_bytes for s in samples),
                "rss_last_bytes": last.rss_bytes,
                "cpu_s": last.cpu_s,
                "counters": dict(last.counters),
            }
        )
    return summaries
