"""Persisted job model and the server-agnostic service core.

:class:`IltService` is everything the HTTP front end is not: payload
validation, rate-limited admission, the content-addressed result cache,
one worker thread + run directory per admitted job, cooperative
cancellation, and the fused progress feed.  It owns no sockets — the
REST layer (:mod:`repro.service.server`) and the tests drive the same
object directly.

On-disk layout under the service root::

    <root>/
      service.json          # {host, port, pid, version} once serving
      cache/<key>.json      # content address -> source job id
      jobs/<job_id>/
        job.json            # persisted JobRecord (atomic rewrites)
        run/                # FullChipEngine telemetry_dir: status.json,
                            # heartbeats/, events.jsonl, queue/,
                            # run.json, metrics.json, mask.npz, ...

Job lifecycle: ``PENDING → RUNNING → DONE | FAILED | CANCELLED``.
Identical resubmits (same canonical cache key) short-circuit to a DONE
record pointing at the original job's artifacts — zero tiles solved.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union, get_args, get_type_hints

from .._version import __version__
from ..config import LithoConfig, OptimizerConfig
from ..errors import (
    FullChipCancelled,
    FullChipError,
    JobNotFoundError,
    OpticsError,
    RateLimitedError,
    ReproError,
    ServiceError,
)
from ..fullchip.engine import RESULT_FIELDS, FullChipConfig, FullChipEngine
from ..obs import Instrumentation, MetricsRegistry
from ..obs.events import EventEmitter
from ..obs.live import HEARTBEAT_DIRNAME, STATUS_FILENAME, read_heartbeats
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS
from ..obs.trace import new_trace_id
from ..utils.hashing import canonical_hash
from ..utils.io import write_json_atomic
from ..workloads.spec import load_workload, validate_workload_spec
from .cache import ResultCache, cache_key_for
from .ratelimit import RateLimitConfig, TenantLimiter

logger = logging.getLogger(__name__)

__all__ = [
    "JOB_STATES",
    "TERMINAL_JOB_STATES",
    "ServiceConfig",
    "JobRecord",
    "JobStore",
    "IltService",
    "normalize_payload",
]

JOBS_DIRNAME = "jobs"
RUN_DIRNAME = "run"
JOB_FILENAME = "job.json"
MASK_ARTIFACT = "mask.npz"
EVENTS_FILENAME = "events.jsonl"

JOB_STATES = ("PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED")
TERMINAL_JOB_STATES = ("DONE", "FAILED", "CANCELLED")

_SCALES = ("reduced", "paper")

#: The :class:`FullChipConfig` fields a job payload may set, by payload
#: key.  Each key is its field's name, except ``mode``.
_PAYLOAD_FIELDS: Dict[str, str] = {
    "mode": "solver_mode",
    **{
        name: name
        for name in (
            "tile_nm", "halo_nm", "workers", "keep_going", "use_sraf",
            "backend",
        )
    },
}

_PAYLOAD_DEFAULTS: Dict[str, object] = {
    "scale": "reduced",
    **{
        key: FullChipConfig.__dataclass_fields__[name].default
        for key, name in _PAYLOAD_FIELDS.items()
    },
}

_FIELD_TYPES = get_type_hints(FullChipConfig)
_JSON_KINDS = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string"
}

#: :class:`FullChipConfig` fields no service-wide override may set.  A
#: shared ``telemetry_dir`` would send every job's status feed, queue and
#: run.json to one directory, a ``trace_id`` would be replaced by the
#: job's own, and a shared ``checkpoint_dir`` with ``resume`` would serve
#: one job's tile masks to another.
PER_JOB_FIELDS = ("telemetry_dir", "trace_id", "checkpoint_dir", "resume")


def _json_value(key: str, value: object) -> object:
    """``value`` if it has the JSON type of the field ``key`` sets.

    The type is the field's annotation, ``Optional`` unwrapped.  A bool
    is never a number, and a number for a float field becomes a float.
    """
    hint = _FIELD_TYPES[_PAYLOAD_FIELDS[key]]
    kind = next((t for t in get_args(hint) if t is not type(None)), hint)
    if isinstance(value, bool) == (kind is bool):
        if kind is not float and isinstance(value, kind):
            return value
        if kind is float and isinstance(value, (int, float)):
            with suppress(OverflowError):
                return float(value)
    raise ServiceError(f"{key} must be {_JSON_KINDS[kind]}, got {value!r}")


def _config_kwargs(payload: Dict[str, object]) -> Dict[str, object]:
    """The :class:`FullChipConfig` keywords a normalized payload sets."""
    return {name: payload[key] for key, name in _PAYLOAD_FIELDS.items()}


def normalize_payload(payload: object) -> Dict[str, object]:
    """Validate a submission body into the canonical job payload.

    Unknown keys, malformed workload specs, file-path layouts, values
    of the wrong JSON type, unknown backend specs, and out-of-range
    recipe knobs all raise :class:`~repro.errors.ServiceError` here —
    eagerly, at submission time — so the HTTP layer can answer 400
    instead of a worker crashing mid-run.  Values are checked, never
    coerced: ``"false"`` is not a boolean and ``2.7`` is not a worker
    count.  Ranges and choices are checked by building the job's
    :class:`FullChipConfig`.  The backend spec is canonicalized, so
    equivalent spellings share one cache key.
    """
    if not isinstance(payload, dict):
        raise ServiceError(f"job payload must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_PAYLOAD_DEFAULTS) - {"layout"})
    if unknown:
        raise ServiceError(
            f"unknown payload field(s) {unknown}; allowed: "
            f"{sorted(['layout', *list(_PAYLOAD_DEFAULTS)])}"
        )
    if "layout" not in payload:
        raise ServiceError("job payload needs a 'layout' workload spec")
    normalized: Dict[str, object] = dict(_PAYLOAD_DEFAULTS)
    normalized["layout"] = payload["layout"]
    for key in _PAYLOAD_DEFAULTS:
        if key in payload and payload[key] is not None:
            normalized[key] = payload[key]
    # The service refuses server-side file paths: a layout must be a
    # bundled benchmark or a synth: spec both ends can reconstruct.
    validate_workload_spec(str(normalized["layout"]), allow_paths=False)
    normalized["layout"] = str(normalized["layout"])
    if normalized["scale"] not in _SCALES:
        raise ServiceError(
            f"scale must be one of {_SCALES}, got {normalized['scale']!r}"
        )
    for key in _PAYLOAD_FIELDS:
        if normalized[key] is not None:
            normalized[key] = _json_value(key, normalized[key])
    try:
        config = FullChipConfig(**_config_kwargs(normalized))
    except OpticsError as exc:
        raise ServiceError(f"bad backend: {exc}") from exc
    except FullChipError as exc:
        raise ServiceError(str(exc)) from exc
    normalized["backend"] = config.backend
    return normalized


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`IltService` instance.

    Attributes:
        root: service state directory (jobs, cache, service.json).
        max_active: service-wide cap on concurrently live
            (PENDING+RUNNING) jobs; ``0`` disables the global gate.
        ratelimit: per-tenant rate/concurrency budgets.
        litho: optional lithography-config override applied to every
            job (None: the stock config for the job's ``scale``).
            Overrides feed the cache-key fingerprint, so two services
            with different configs never share cache entries.
        optimizer: optional optimizer-config override (same rules).
        fullchip_overrides: extra :class:`FullChipConfig` keyword
            overrides applied to every job (e.g. ``probe_extent_nm``,
            ``queue_lease_s``).  Only the result-affecting ones (see
            :data:`~repro.fullchip.engine.RESULT_FIELDS`) feed the cache
            fingerprint.  A key that is not a :class:`FullChipConfig`
            field is refused, and so is one of
            :data:`PER_JOB_FIELDS`.
        poll_s: longest wait between two looks of the event feed and
            of :meth:`IltService.wait`; a job that settles wakes both at
            once.
    """

    root: Union[str, Path] = "service-root"
    max_active: int = 8
    ratelimit: RateLimitConfig = field(default_factory=RateLimitConfig)
    litho: Optional[LithoConfig] = None
    optimizer: Optional[OptimizerConfig] = None
    fullchip_overrides: Dict[str, object] = field(default_factory=dict)
    poll_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_active < 0:
            raise ServiceError(f"max_active must be >= 0, got {self.max_active}")
        if self.poll_s <= 0:
            raise ServiceError(f"poll_s must be > 0, got {self.poll_s}")
        unknown = sorted(
            set(self.fullchip_overrides) - set(FullChipConfig.__dataclass_fields__)
        )
        if unknown:
            raise ServiceError(
                f"unknown fullchip_overrides key(s) {unknown}; "
                "each must be a FullChipConfig field"
            )
        for key in PER_JOB_FIELDS:
            if key in self.fullchip_overrides:
                raise ServiceError(
                    f"fullchip_overrides may not set {key!r}: each job "
                    "keeps its own run directory, trace id and tile state"
                )


@dataclass
class JobRecord:
    """One submitted job, as persisted in ``jobs/<id>/job.json``."""

    id: str
    tenant: str
    state: str
    payload: Dict[str, object]
    cache_key: str
    created_ts: float
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    error: Optional[str] = None
    cached: bool = False
    cached_from: Optional[str] = None
    pid: Optional[int] = None
    version: str = __version__
    score: Optional[Dict[str, object]] = None
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobRecord":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


class JobStore:
    """Directory-per-job persistence with atomic job.json rewrites."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root) / JOBS_DIRNAME
        self.root.mkdir(parents=True, exist_ok=True)

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def run_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / RUN_DIRNAME

    def save(self, job: JobRecord) -> None:
        write_json_atomic(self.job_dir(job.id) / JOB_FILENAME, job.as_dict())

    def load(self, job_id: str) -> JobRecord:
        path = self.job_dir(job_id) / JOB_FILENAME
        try:
            with open(path) as handle:
                return JobRecord.from_dict(json.load(handle))
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            raise JobNotFoundError(f"no job {job_id!r}: {exc}") from exc

    def list_ids(self) -> List[str]:
        return sorted(
            p.parent.name for p in self.root.glob(f"*/{JOB_FILENAME}")
        )

    def recover(self) -> List[JobRecord]:
        """Load all jobs; settle RUNNING records whose pid is dead.

        A service restart orphans in-flight jobs (their threads died
        with the process) — they come back FAILED instead of RUNNING
        forever.
        """
        jobs: List[JobRecord] = []
        for job_id in self.list_ids():
            try:
                job = self.load(job_id)
            except JobNotFoundError:
                continue
            if job.state in ("PENDING", "RUNNING") and not _pid_alive(job.pid):
                job.state = "FAILED"
                job.error = "service restarted while the job was in flight"
                job.finished_ts = time.time()
                self.save(job)
            jobs.append(job)
        return jobs


def _pid_alive(pid: Optional[int]) -> bool:
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except (OSError, ValueError):
        return False
    return True


class IltService:
    """The server-agnostic job service (submit/track/cancel/stream).

    Thread-safe: the HTTP layer calls in from many handler threads,
    each admitted job runs on its own daemon thread.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.root = Path(self.config.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.root)
        self.cache = ResultCache(self.root)
        self.limiter = TenantLimiter(self.config.ratelimit)
        self.metrics = MetricsRegistry()
        self._submitted = self.metrics.counter("service_jobs_submitted")
        self._cache_hits = self.metrics.counter("service_cache_hits")
        self._done = self.metrics.counter("service_jobs_done")
        self._failed = self.metrics.counter("service_jobs_failed")
        self._cancelled = self.metrics.counter("service_jobs_cancelled")
        self._rejected = self.metrics.counter("service_jobs_rate_limited")
        self._in_flight = self.metrics.gauge("http_requests_in_flight")
        self._in_flight_count = 0
        self._lock = threading.RLock()
        # Notified when a job settles, so waiters and feeds wake at once.
        self._settled = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._cancel_events: Dict[str, threading.Event] = {}
        self.started_ts = time.time()
        for job in self.store.recover():
            self._jobs[job.id] = job
        # Overrides that only place or pace the work leave masks alone.
        result_overrides = {
            name: value
            for name, value in self.config.fullchip_overrides.items()
            if name in RESULT_FIELDS
        }
        fingerprint_src = {
            "litho": asdict(self.config.litho) if self.config.litho else None,
            "optimizer": (
                asdict(self.config.optimizer) if self.config.optimizer else None
            ),
            "fullchip_overrides": result_overrides or None,
        }
        self._config_fingerprint = (
            canonical_hash(fingerprint_src)
            if any(fingerprint_src.values())
            else None
        )

    # -- HTTP-layer accounting ----------------------------------------------

    def request_started(self) -> None:
        """HTTP middleware hook: one more request in flight."""
        with self._lock:
            self._in_flight_count += 1
            self._in_flight.set(self._in_flight_count)

    def request_finished(self) -> None:
        """HTTP middleware hook: one request left the handler."""
        with self._lock:
            self._in_flight_count = max(0, self._in_flight_count - 1)
            self._in_flight.set(self._in_flight_count)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        payload: object,
        tenant: str = "default",
        trace_id: Optional[str] = None,
    ) -> JobRecord:
        """Admit one job: rate limit → validate → cache → spawn runner.

        ``trace_id`` is the request correlation id (minted here when the
        caller brought none); it rides the job record into the run dir,
        queue history, and every worker artifact.

        Raises:
            RateLimitedError: tenant rate/concurrency budget exhausted
                (HTTP 429 + ``Retry-After``).
            ServiceError: malformed payload (HTTP 400).
        """
        tenant = str(tenant or "default")
        trace_id = str(trace_id) if trace_id else new_trace_id()
        try:
            self.limiter.admit(tenant, self._active_count(tenant))
        except RateLimitedError:
            self._rejected.inc()
            raise
        normalized = normalize_payload(payload)
        if self.config.max_active and self._active_count() >= self.config.max_active:
            self._rejected.inc()
            raise RateLimitedError(
                f"service at max_active={self.config.max_active} live job(s)",
                retry_after_s=self.config.ratelimit.retry_after_s,
            )
        key = cache_key_for(normalized, __version__, self._config_fingerprint)
        self._submitted.inc()
        hit = self.cache.get_valid(key, self.artifact_path)
        if hit is not None:
            return self._record_cache_hit(normalized, tenant, key, hit, trace_id)
        self.metrics.counter(
            "service_jobs_by_tenant", labels={"tenant": tenant, "cache": "miss"}
        ).inc()
        job = JobRecord(
            id=uuid.uuid4().hex[:12],
            tenant=tenant,
            state="PENDING",
            payload=normalized,
            cache_key=key,
            created_ts=time.time(),
            pid=os.getpid(),
            trace_id=trace_id,
        )
        with self._lock:
            self._jobs[job.id] = job
            self.store.save(job)
            self._cancel_events[job.id] = threading.Event()
            thread = threading.Thread(
                target=self._run_job, args=(job.id,), daemon=True,
                name=f"ilt-job-{job.id}",
            )
            self._threads[job.id] = thread
        thread.start()
        return job

    def _record_cache_hit(
        self,
        normalized: Dict[str, object],
        tenant: str,
        key: str,
        entry: Dict[str, object],
        trace_id: Optional[str] = None,
    ) -> JobRecord:
        """A fresh DONE record whose artifacts live in the source job."""
        self._cache_hits.inc()
        self.metrics.counter(
            "service_jobs_by_tenant", labels={"tenant": tenant, "cache": "hit"}
        ).inc()
        source_id = str(entry["job_id"])
        now = time.time()
        job = JobRecord(
            id=uuid.uuid4().hex[:12],
            tenant=tenant,
            state="DONE",
            payload=normalized,
            cache_key=key,
            created_ts=now,
            started_ts=now,
            finished_ts=now,
            cached=True,
            cached_from=source_id,
            pid=os.getpid(),
            trace_id=trace_id,
        )
        try:
            job.score = self._jobs[source_id].score
        except KeyError:
            pass
        with self._lock:
            self._jobs[job.id] = job
            self.store.save(job)
        return job

    def _active_count(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state in ("PENDING", "RUNNING")
                and (tenant is None or job.tenant == tenant)
            )

    # -- the per-job runner --------------------------------------------------

    def _run_job(self, job_id: str) -> None:
        job = self._jobs[job_id]
        cancel_event = self._cancel_events[job_id]
        run_dir = self.store.run_dir(job_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            if cancel_event.is_set():
                self._settle(job, "CANCELLED", error="cancelled before start")
                return
            job.state = "RUNNING"
            job.started_ts = time.time()
            self.store.save(job)
        self.metrics.histogram(
            "service_queue_wait_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            labels={"tenant": job.tenant},
        ).observe(max(0.0, job.started_ts - job.created_ts))
        # Events route through a callable sink so the first record also
        # stamps the time-to-first-event SLO histogram; the inner
        # emitter still owns the durable events.jsonl file.
        inner_events = EventEmitter(str(run_dir / EVENTS_FILENAME))
        first_event = threading.Event()

        def _fused_sink(record: Dict[str, object]) -> None:
            if not first_event.is_set():
                first_event.set()
                self.metrics.histogram(
                    "service_time_to_first_event_seconds",
                    buckets=DEFAULT_LATENCY_BUCKETS,
                    labels={"tenant": job.tenant},
                ).observe(max(0.0, time.time() - job.created_ts))
            fields = {k: v for k, v in record.items() if k != "event"}
            inner_events.emit(str(record.get("event", "")), **fields)

        obs = Instrumentation.collecting(
            trace=True,
            metrics=True,
            events_sink=_fused_sink,
            timeline=True,
        )
        try:
            result = self._solve(job, run_dir, obs, cancel_event)
        except FullChipCancelled:
            self._cleanup_queue(run_dir)
            self._settle(job, "CANCELLED", error="cancelled by request")
            return
        except Exception as exc:  # noqa: BLE001 - job fault barrier
            logger.exception("job %s failed", job_id)
            self._settle(job, "FAILED", error=f"{type(exc).__name__}: {exc}")
            return
        finally:
            try:
                obs.close()
            except Exception:  # noqa: BLE001 - telemetry only
                pass
            try:
                inner_events.close()
            except Exception:  # noqa: BLE001 - telemetry only
                pass
        import numpy as np

        np.savez_compressed(run_dir / MASK_ARTIFACT, mask=result.mask)
        job.score = {
            "total": result.score.total,
            "epe_violations": result.score.epe_violations,
            "pv_band_nm2": result.score.pv_band_nm2,
            "shape_violations": result.score.shape_violations,
        }
        if result.all_ok:
            # Only complete, fully-solved runs are cache-worthy:
            # keep_going runs with fallback tiles must not dedup
            # future submissions into a degraded mask.
            self.cache.put(
                job.cache_key,
                job.id,
                layout=job.payload["layout"],
                created_ts=time.time(),
                version=__version__,
            )
        self._settle(job, "DONE")

    def _solve(self, job, run_dir, obs, cancel_event):
        payload = job.payload
        litho = self.config.litho or (
            LithoConfig.paper()
            if payload["scale"] == "paper"
            else LithoConfig.reduced()
        )
        fc_config = FullChipConfig(
            **{
                **_config_kwargs(payload),
                **self.config.fullchip_overrides,
                "telemetry_dir": str(run_dir),
                "trace_id": job.trace_id,
            }
        )
        engine = FullChipEngine(
            litho, optimizer=self.config.optimizer, config=fc_config, obs=obs
        )
        layout = load_workload(str(payload["layout"]), allow_paths=False)
        return engine.solve(layout, cancel=cancel_event.is_set)

    def _cleanup_queue(self, run_dir: Path) -> None:
        """After a cancel, clear any leases the dead local fleet held.

        The queue executor's shutdown killed its workers; their leases
        would otherwise linger until expiry.  ``sweep_expired`` takes
        the dead-pid fast path, so the cancelled job's queue shows no
        lease held by a dead pid (its tiles read pending).
        """
        from ..fullchip.queue import QUEUE_DIRNAME, TileJobQueue

        queue_dir = run_dir / QUEUE_DIRNAME
        if not queue_dir.is_dir():
            return
        try:
            queue = TileJobQueue.open(queue_dir)
            queue.sweep_expired(
                heartbeat_dir=str(run_dir / HEARTBEAT_DIRNAME)
            )
        except ReproError as exc:
            logger.warning("post-cancel queue sweep failed: %s", exc)

    def _settle(self, job: JobRecord, state: str, error: Optional[str] = None) -> None:
        with self._lock:
            if job.state in TERMINAL_JOB_STATES:
                return
            job.state = state
            job.error = error
            job.finished_ts = time.time()
            self.store.save(job)
            self._settled.notify_all()
        if state == "DONE":
            self._done.inc()
        elif state == "FAILED":
            self._failed.inc()
        elif state == "CANCELLED":
            self._cancelled.inc()
        if state in ("DONE", "FAILED") and not job.cached and job.started_ts:
            self.metrics.histogram(
                "service_solve_seconds",
                buckets=DEFAULT_LATENCY_BUCKETS,
                labels={"tenant": job.tenant, "outcome": state.lower()},
            ).observe(max(0.0, job.finished_ts - job.started_ts))

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return job

    def list(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            jobs = [
                job
                for job in self._jobs.values()
                if tenant is None or job.tenant == tenant
            ]
        return sorted(jobs, key=lambda j: j.created_ts)

    def cancel(self, job_id: str) -> JobRecord:
        """Cooperatively cancel a job (idempotent; no-op when terminal)."""
        job = self.get(job_id)
        with self._lock:
            event = self._cancel_events.get(job_id)
            if event is not None:
                event.set()
            if job.state == "PENDING" and (
                job_id not in self._threads
                or not self._threads[job_id].is_alive()
            ):
                self._settle(job, "CANCELLED", error="cancelled before start")
        return job

    def wait(self, job_id: str, timeout_s: float = 60.0) -> JobRecord:
        """Block until the job settles (test/CLI convenience)."""
        deadline = time.monotonic() + timeout_s
        with self._settled:
            while True:
                job = self.get(job_id)
                if job.state in TERMINAL_JOB_STATES:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._settled.wait(min(self.config.poll_s, remaining))
        raise ServiceError(
            f"job {job_id} still {self.get(job_id).state} "
            f"after {timeout_s:g}s"
        )

    # -- artifacts -----------------------------------------------------------

    def artifact_path(self, job_id: str, name: str) -> Optional[Path]:
        """Resolve an artifact inside the job's run dir (flat names only).

        Cached jobs resolve through the job that actually solved, so a
        dedup hit serves the original mask bytes.
        """
        if "/" in name or "\\" in name or ".." in name or not name:
            raise ServiceError(f"bad artifact name {name!r}")
        job = self.get(job_id)
        if job.cached and job.cached_from:
            job_id = job.cached_from
        path = (self.store.run_dir(job_id) / name).resolve()
        run_dir = self.store.run_dir(job_id).resolve()
        if run_dir not in path.parents:
            raise ServiceError(f"bad artifact name {name!r}")
        return path if path.is_file() else None

    def list_artifacts(self, job_id: str) -> List[str]:
        job = self.get(job_id)
        if job.cached and job.cached_from:
            job_id = job.cached_from
        run_dir = self.store.run_dir(job_id)
        if not run_dir.is_dir():
            return []
        return sorted(p.name for p in run_dir.iterdir() if p.is_file())

    # -- the fused progress feed --------------------------------------------

    def events(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Stream fused progress until the job settles.

        Yields dicts (NDJSON records, one per line on the wire):

        * ``{"kind": "event", ...}`` — each line of the run's
          ``events.jsonl`` (tile completions, requeues, run summary),
        * ``{"kind": "status", ...}`` — a condensed ``status.json``
          snapshot whenever it changes (tile counts, ETA, live
          heartbeat count), and
        * ``{"kind": "job", ...}`` — one terminal record, always last.
        """
        job = self.get(job_id)  # raises JobNotFoundError eagerly
        run_dir = self.store.run_dir(
            job.cached_from if job.cached and job.cached_from else job_id
        )
        events_path = run_dir / EVENTS_FILENAME
        offset = 0
        last_status: Optional[str] = None
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            job = self.get(job_id)
            offset, lines = _tail_jsonl(events_path, offset)
            for line in lines:
                yield {"kind": "event", **line}
            snapshot = self._status_snapshot(run_dir)
            if snapshot is not None:
                fingerprint = canonical_hash(snapshot)
                if fingerprint != last_status:
                    last_status = fingerprint
                    yield {"kind": "status", **snapshot}
            if job.state in TERMINAL_JOB_STATES:
                yield {"kind": "job", **job.as_dict()}
                return
            if deadline is not None and time.monotonic() > deadline:
                yield {"kind": "timeout", "job": job_id}
                return
            # Wake when the job settles, else look again after poll_s for
            # new events and status; never hold the lock across a yield.
            with self._settled:
                if self.get(job_id).state not in TERMINAL_JOB_STATES:
                    self._settled.wait(self.config.poll_s)

    def _status_snapshot(self, run_dir: Path) -> Optional[Dict[str, object]]:
        path = run_dir / STATUS_FILENAME
        try:
            with open(path) as handle:
                status = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        beats = read_heartbeats(run_dir / HEARTBEAT_DIRNAME)
        return {
            "state": status.get("state"),
            "tiles": status.get("tiles"),
            "eta_s": status.get("eta_s"),
            "elapsed_s": status.get("elapsed_s"),
            "score": status.get("score"),
            "live_heartbeats": len(beats),
        }

    # -- health / metrics ----------------------------------------------------

    def health(self) -> Dict[str, object]:
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "ok": True,
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_ts,
            "jobs": by_state,
            "cache_entries": len(self.cache),
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.metrics.as_dict()

    def close(self, timeout_s: float = 10.0) -> None:
        """Cancel live jobs and join their runner threads."""
        with self._lock:
            for event in self._cancel_events.values():
                event.set()
            threads = list(self._threads.values())
        deadline = time.monotonic() + timeout_s
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


def _tail_jsonl(path: Path, offset: int):
    """New complete JSONL records past ``offset``; returns (offset, rows).

    Only whole ``\\n``-terminated lines advance the offset, so a record
    mid-append is picked up complete on the next poll.
    """
    rows: List[Dict[str, object]] = []
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return offset, rows
    consumed = 0
    for raw in data.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            break
        consumed += len(raw)
        try:
            row = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(row, dict):
            rows.append(row)
    return offset + consumed, rows
