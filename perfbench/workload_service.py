"""``service``: jobs through ``python -m repro serve``, driven by one
closed-loop ``ServiceClient``.

The client submits a seed-chosen bundled clip with the default payload
(fast, reduced, ``executor=queue``, one ``repro worker`` per job), waits
on the job's event stream until ``DONE``, then sends identical
resubmits that the result cache answers.  ``--tenant-rate`` and
``--tenant-burst`` are raised so this one client is never refused; a
429 still counts as a failure.  Layers in the server and worker
processes are read afterwards from what the service writes: ``job.json``,
the queue history, ``run.json``, ``access.jsonl``, ``/metricsz`` and the
run dir, joined by the trace id the client passed.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from helpers import Context, WorkloadRun, another_unit_fits, classify_request, percentile, tracing_overhead
from calibrate import HostSpeed, StealClock
from procs import Server
from reference import components
from spans import Tracer

WHY = (
    "the only path with HTTP, the job store, the result cache, the durable "
    "queue and worker start-up on the blocking path; hits read the cache, misses write it"
)
SETUP_LAUNCHES = 5
HITS_PER_MISS = 200
SERVE_ARGS = ["--tenant-rate", "10000", "--tenant-burst", "10000"]
JOB_TIMEOUT_S = 150.0


class _Driver:
    """The closed-loop client and what it saw."""

    def __init__(self, url: str, out: WorkloadRun) -> None:
        from repro.service import ServiceClient

        self.client = ServiceClient(url, tenant="perfbench", timeout_s=60.0, retries=0)
        self.out = out

    def miss_then_hits(self, clip: str) -> Optional[Dict[str, object]]:
        """One cache-miss job for ``clip``, then identical resubmits."""
        from repro.obs.trace import new_trace_id

        out = self.out
        payload = {"layout": clip}
        trace_id = new_trace_id()
        try:
            with StealClock() as clock:
                t0 = time.perf_counter()
                submitted = self.client.submit(payload, trace_id=trace_id)
                submit_s = time.perf_counter() - t0
                final = self.client.wait(str(submitted["id"]), timeout_s=JOB_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            out.outcomes.append(classify_request(error=exc))
            out.gate("miss_done", False, f"{clip}: {type(exc).__name__}: {exc}")
            return None
        seen_ts = time.time()
        outcome = classify_request(final)
        out.outcomes.append(outcome)
        if not out.gate("miss_done", outcome == "ok", f"{clip}: {final.get('state')} {final.get('error')}"):
            return None
        miss_id = str(final["id"])
        mask = self.client.artifact(miss_id, "mask.npz")
        hit_ids: List[str] = []
        hit_s: List[float] = []
        hit_outcomes: List[str] = []
        for _ in range(HITS_PER_MISS):
            h0 = time.perf_counter()
            try:
                record = self.client.submit(payload, trace_id=new_trace_id())
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                hit_outcomes.append(classify_request(error=exc))
                continue
            hit_s.append(time.perf_counter() - h0)
            hit_outcomes.append(classify_request(record, expect_cached_from=miss_id))
            hit_ids.append(str(record["id"]))
        out.outcomes.extend(hit_outcomes)
        out.timings.setdefault("hit_s", []).extend(hit_s)
        out.gate("hits_cached_from_miss", all(o == "ok" for o in hit_outcomes),
                 f"{clip}: {sorted(set(hit_outcomes))}")
        differing = [h for h in hit_ids if self.client.artifact(h, "mask.npz") != mask]
        out.gate("hit_mask_bytes_equal", not differing, f"{clip}: {len(differing)} differ")
        out.timings.setdefault("submit_s", []).append(submit_s)
        out.timings.setdefault("solve_steal_s", []).append(clock.steal)
        return {"clip": clip, "record": final, "clock": clock, "seen_ts": seen_ts,
                "mask": mask, "trace_id": trace_id}


def _mask_array(npz_bytes: bytes):
    import numpy as np

    with np.load(io.BytesIO(npz_bytes)) as data:
        return data["mask"]


def run(ctx: Context) -> WorkloadRun:
    from repro import BENCHMARK_NAMES

    out = WorkloadRun()
    clips = list(BENCHMARK_NAMES)
    random.Random(ctx.seed).shuffle(clips)
    out.cache_state = {
        "setup_s": "cold: fresh process on an empty root",
        "solve_s_p50": "cold result cache (a miss) on a server that has solved nothing yet; "
        "the server and the job's worker process each build the ambit model",
        "hit_s": "warm result cache",
        "peak_rss_mb": "largest of the server and the workers it reaped",
    }
    if ctx.trace:
        return _run_traced(ctx, out, clips[0])
    server: Optional[Server] = None
    try:
        with HostSpeed() as setup_speed:
            for k in range(SETUP_LAUNCHES):
                server = Server(ctx.root, ctx.tmp_dir / f"serve{k}", SERVE_ARGS)
                wall = server.wait_healthy()
                if k < SETUP_LAUNCHES - 1:
                    server.stop()
                    server = None
                out.add_setup(wall, setup_speed.rescale(wall))
        out.timings["setup_calibration_s"] = setup_speed.points
        start = time.perf_counter()
        for j in itertools.count():
            # Every job runs on a server that has solved nothing yet, so
            # each sample pays the same one-off server-side model build.
            if server is None:
                server = Server(ctx.root, ctx.tmp_dir / f"job{j}", SERVE_ARGS)
                server.wait_healthy()
            clip = clips[j % len(clips)]
            out.inputs.append(clip)
            miss = _Driver(server.url, out).miss_then_hits(clip)
            out.peak_rss_mb = max(out.peak_rss_mb, server.stop())
            server = None
            if miss is None:
                break
            out.add_solve(miss["clock"].wall, miss["clock"].corrected)
            out.parts.setdefault(clip, components(miss["record"]["score"]))
            if not another_unit_fits(start, j + 1, ctx.seconds):
                break
    finally:
        if server is not None:
            out.peak_rss_mb = max(out.peak_rss_mb, server.stop())
    return out


def _run_traced(ctx: Context, out: WorkloadRun, clip: str) -> WorkloadRun:
    """The same clip on two fresh servers: untraced, then traced."""
    from repro.service import ServiceClient

    plain_server = Server(ctx.root, ctx.tmp_dir / "plain", SERVE_ARGS)
    try:
        plain_server.wait_healthy()
        plain = _Driver(plain_server.url, out).miss_then_hits(clip)
    finally:
        plain_server.stop()
    tracer = Tracer()
    server = Server(ctx.root, ctx.tmp_dir / "traced", SERVE_ARGS)
    try:
        server.wait_healthy()
        driver = _Driver(server.url, out)
        for attr in ("submit", "wait", "artifact"):
            tracer.patch_method(ServiceClient, attr, f"service.client.{attr}", "service")
        try:
            with tracer.sample(f"job:{clip}", "bench.job", "bench"):
                traced = driver.miss_then_hits(clip)
        finally:
            tracer.uninstall()
        metricsz = ServiceClient(server.url, retries=0).metricsz()
    finally:
        server.stop()
    out.tracer = tracer
    out.inputs = [clip, clip]
    if plain is None or traced is None:
        return out
    out.add_solve(plain["clock"].wall, plain["clock"].corrected)
    out.parts[clip] = components(plain["record"]["score"])
    out.gate("traced_mask_equal", bool((_mask_array(plain["mask"]) == _mask_array(traced["mask"])).all()), clip)
    job = json.loads((ctx.tmp_dir / "traced" / "jobs" / str(traced["record"]["id"]) / "job.json").read_text())
    out.gate("trace_id_joins_job", job.get("trace_id") == traced["trace_id"],
             f"job.json carries {job.get('trace_id')}, the client sent {traced['trace_id']}")
    out.per_layer = _artifact_metrics(ctx.tmp_dir / "traced", traced, metricsz, out.timings)
    out.per_layer["obs.tracing_overhead"] = tracing_overhead([(traced["clock"].wall, plain["clock"].wall)])
    out.not_measured = {
        "optics.*, xp.*, opc.*, mask.*, metrics.*, litho.*": "run in the worker and server processes; "
        "the service writes no per-call record of them",
        "fullchip.ambit_build.s": "built inside the worker and server processes",
    }
    return out


def _counter(metricsz: Dict[str, Dict[str, object]], name: str) -> float:
    entry = metricsz.get(name) or {}
    return float(entry.get("value") or 0.0)


def _artifact_metrics(service_root: Path, miss: Dict[str, object], metricsz, timings) -> Dict[str, float]:
    from repro import LithoConfig
    from repro.fullchip.queue import load_queue_state

    job_id = str(miss["record"]["id"])
    job_dir = service_root / "jobs" / job_id
    job = json.loads((job_dir / "job.json").read_text())
    run_dir = job_dir / "run"
    run = json.loads((run_dir / "run.json").read_text())
    queue = load_queue_state(run_dir) or {"tiles": []}
    claim_wait, worker_solve, done_ts = [], [], []
    requeues = 0
    for tile in queue["tiles"]:
        ts = {h["kind"]: h["ts"] for h in tile["history"]}
        requeues += int(tile["requeues"])
        if "seeded" in ts and "leased" in ts:
            claim_wait.append(ts["leased"] - ts["seeded"])
        if "leased" in ts and "done" in ts:
            worker_solve.append(ts["done"] - ts["leased"])
            done_ts.append(ts["done"])
    access = [json.loads(line) for line in (service_root / "access.jsonl").read_text().splitlines() if line.strip()]
    hit_server = [r["duration_s"] for r in access if r.get("method") == "POST" and r.get("cache_hit") is True]
    spans = {s["path"].rsplit("/", 1)[-1]: s for s in run.get("span_stats", [])}
    files = [p for p in run_dir.rglob("*") if p.is_file()]
    http_errors = sum(
        float(v.get("value") or 0.0) for k, v in metricsz.items()
        if k.startswith("http_requests_total{") and int(re.search(r'status="(\d+)"', k).group(1)) >= 400
    )
    hit_s = timings.get("hit_s", [])
    tiles = run.get("tiles", [])
    tile_s = [t["runtime_s"] for t in tiles]
    pixel_nm = LithoConfig.reduced().grid.pixel_nm
    return {
        "fullchip.tiles": float(len(tiles)),
        "fullchip.window_px": (run["tile_nm"] + 2 * run["halo_nm"]) / pixel_nm,
        "fullchip.tile.s_p50": float(statistics.median(tile_s)) if tile_s else 0.0,
        "fullchip.tile.ok_ratio": (sum(t["status"] in ("ok", "recovered") for t in tiles) / len(tiles)) if tiles else 0.0,
        "fullchip.stitch.s": float(spans.get("fullchip.stitch", {}).get("total_s", 0.0)),
        "fullchip.evaluate.s": float(spans.get("fullchip.evaluate", {}).get("total_s", 0.0)),
        "queue.claim_wait.s": sum(claim_wait),
        "queue.worker_solve.s": sum(worker_solve),
        "queue.commit_to_done.s": (job["finished_ts"] - max(done_ts)) if done_ts else 0.0,
        "queue.requeues": float(requeues),
        "service.submit.s_p50": float(statistics.median(timings["submit_s"])),
        "service.queue_wait.s": job["started_ts"] - job["created_ts"],
        "service.run.s": job["finished_ts"] - job["started_ts"],
        "service.settle_to_client.s": miss["seen_ts"] - job["finished_ts"],
        "service.hit.s_p50": float(statistics.median(hit_s)) if hit_s else 0.0,
        "service.hit.s_p95": percentile(hit_s, 95.0) if hit_s else 0.0,
        "service.hit_server.s_p50": float(statistics.median(hit_server)) if hit_server else 0.0,
        "service.cache.hit_ratio": _counter(metricsz, "service_cache_hits") / max(1.0, _counter(metricsz, "service_jobs_submitted")),
        "service.http.errors": http_errors,
        "service.ratelimit.rejected": _counter(metricsz, "service_jobs_rate_limited"),
        "obs.run_dir.bytes": float(sum(p.stat().st_size for p in files)),
        "obs.run_dir.files": float(len(files)),
    }
