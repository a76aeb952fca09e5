"""Service observability: tracing, Prometheus exposition, SLO metrics.

Covers the request-tracing layer end to end (one trace id from HTTP
ingress to worker spools and the fused Chrome trace), the Prometheus
text exposition grammar, the JSONL access log under handler-thread
concurrency, and the client's connection-refused retry.
"""

import io
import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import (
    GridSpec,
    LithoConfig,
    OpticsConfig,
    OptimizerConfig,
    ProcessConfig,
    ResistConfig,
)
from repro.errors import ServiceError
from repro.obs.export import read_chrome_trace, validate_chrome_trace
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NullMetricsRegistry,
    encode_labels,
    render_prometheus,
    split_series_name,
)
from repro.service import IltService, ServiceClient, ServiceConfig, serve
from repro.service.jobs import JOB_FILENAME, RUN_DIRNAME
from repro.service.server import (
    ACCESS_LOG_FILENAME,
    TRACE_HEADER,
    append_access_record,
)
from repro.service.tracing import SERVICE_LANE_PID, fuse_trace

PROBE_NM = 1024.0


def tiny_litho():
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=16.0),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


def tiny_optimizer(max_iterations=3):
    return OptimizerConfig(max_iterations=max_iterations, use_jump=False)


def tiny_service_config(root, **overrides):
    defaults = dict(
        root=root,
        litho=tiny_litho(),
        optimizer=tiny_optimizer(),
        fullchip_overrides={"probe_extent_nm": PROBE_NM},
        poll_s=0.05,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


SERIAL_PAYLOAD = {
    "layout": "synth:1024x1024:1",
    "mode": "fast",
}


# -- Prometheus exposition grammar -------------------------------------------

_COMMENT_RE = re.compile(r"^# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})?'
    r" (?:[-+]?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|NaN|\+Inf|-Inf)$"
)


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("service_jobs_submitted").inc(4)
    registry.counter(
        "service_jobs_by_tenant", labels={"tenant": "acme", "cache": "hit"}
    ).inc()
    registry.counter(
        "service_jobs_by_tenant", labels={"tenant": "acme", "cache": "miss"}
    ).inc(3)
    registry.gauge("http_requests_in_flight").set(1)
    hist = registry.histogram(
        "http_request_duration_seconds",
        buckets=DEFAULT_LATENCY_BUCKETS,
        labels={"endpoint": "/v1/jobs", "method": "POST"},
    )
    for value in (0.002, 0.02, 0.3, 7.0, 1000.0):
        hist.observe(value)
    return registry


class TestPrometheusExposition:
    def test_every_line_matches_the_grammar(self):
        text = render_prometheus(populated_registry().as_dict())
        assert text.endswith("\n")
        for line in text.splitlines():
            assert _COMMENT_RE.match(line) or _SAMPLE_RE.match(line), line

    def test_label_escaping_round_trip(self):
        registry = MetricsRegistry()
        nasty = 'quo"te\\slash\nnewline'
        registry.counter("weird_total", labels={"tenant": nasty}).inc()
        text = render_prometheus(registry.as_dict())
        sample = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert _SAMPLE_RE.match(sample), sample
        assert '\\"' in sample and "\\\\" in sample and "\\n" in sample
        assert "\n" not in sample

    def test_bucket_series_cumulative_and_consistent_with_json(self):
        registry = populated_registry()
        snapshot = registry.as_dict()
        text = render_prometheus(snapshot)
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("http_request_duration_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)  # monotone cumulative
        count_line = [
            line for line in text.splitlines()
            if line.startswith("http_request_duration_seconds_count")
        ][0]
        assert bucket_values[-1] == int(count_line.rsplit(" ", 1)[1]) == 5
        # The JSON view (satellite: buckets + counts in metrics_snapshot)
        # must agree with the Prometheus cumulative expansion.
        encoded = encode_labels(
            "http_request_duration_seconds",
            {"endpoint": "/v1/jobs", "method": "POST"},
        )
        data = snapshot[encoded]
        assert "buckets" in data and "counts" in data
        cumulative, rebuilt = 0, []
        for count in data["counts"]:
            cumulative += count
            rebuilt.append(cumulative)
        assert rebuilt == bucket_values

    def test_unset_gauges_and_null_instruments_are_omitted(self):
        registry = MetricsRegistry()
        registry.gauge("never_set")
        text = render_prometheus({**registry.as_dict(), "nul": {"type": "null"}})
        assert text == ""

    def test_label_encoding_is_order_stable(self):
        assert encode_labels("m", {"b": 1, "a": 2}) == encode_labels(
            "m", {"a": 2, "b": 1}
        )
        base, labels = split_series_name('m{a="2",b="1"}')
        assert base == "m" and labels == 'a="2",b="1"'
        assert split_series_name("bare") == ("bare", "")

    def test_labels_create_distinct_series_per_combination(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"t": "a"}).inc()
        registry.counter("c", labels={"t": "b"}).inc(2)
        assert registry.counter("c", labels={"t": "a"}).value == 1
        assert registry.counter("c", labels={"t": "b"}).value == 2

    def test_null_registry_accepts_labels(self):
        null = NullMetricsRegistry()
        null.counter("c", labels={"t": "a"}).inc()
        null.gauge("g", labels={"t": "a"}).set(1.0)
        null.histogram("h", buckets=(1.0,), labels={"t": "a"}).observe(0.5)


# -- access log concurrency ---------------------------------------------------


class TestAccessLog:
    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        threads, per_thread = 8, 50

        def hammer(worker):
            for i in range(per_thread):
                append_access_record(
                    tmp_path,
                    {"worker": worker, "i": i, "trace_id": f"t{worker}"},
                )

        pool = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        rows = [
            json.loads(line)
            for line in (tmp_path / ACCESS_LOG_FILENAME).read_text().splitlines()
        ]
        assert len(rows) == threads * per_thread
        for worker in range(threads):
            seen = sorted(r["i"] for r in rows if r["worker"] == worker)
            assert seen == list(range(per_thread))


# -- client retry -------------------------------------------------------------


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class TestClientRetry:
    def test_connection_refused_retries_with_stable_trace_id(self, monkeypatch):
        attempts = []

        def fake_urlopen(request, timeout=None):
            # urllib normalizes stored header names via str.capitalize().
            attempts.append(request.get_header(TRACE_HEADER.capitalize()))
            if len(attempts) < 3:
                raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))
            return _FakeResponse(b'{"id": "j1", "state": "PENDING"}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setattr("time.sleep", lambda s: None)
        client = ServiceClient("http://127.0.0.1:1", retries=2, retry_backoff_s=0.0)
        job = client.submit({"layout": "synth:1024x1024:1"}, trace_id="stable123")
        assert job["id"] == "j1"
        assert len(attempts) == 3
        assert all(a == "stable123" for a in attempts)

    def test_no_retry_on_other_transport_errors(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            raise urllib.error.URLError(OSError("no route to host"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:1", retries=3)
        with pytest.raises(ServiceError):
            client.healthz()
        assert len(calls) == 1

    def test_zero_retries_fails_immediately_on_refused(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(1)
            raise urllib.error.URLError(ConnectionRefusedError(111, "refused"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = ServiceClient("http://127.0.0.1:1", retries=0)
        with pytest.raises(ServiceError):
            client.healthz()
        assert len(calls) == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ServiceError):
            ServiceClient("http://127.0.0.1:1", retries=-1)


# -- HTTP middleware over a live server ---------------------------------------


def _wait_access_rows(root, predicate, timeout_s=10.0):
    """Access rows matching ``predicate``, polling until they land.

    The access record (and the request metrics emitted just before it)
    is appended *after* the response bytes go out, so a client that
    just got its response can race the server thread's finally block.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        rows = []
        path = root / ACCESS_LOG_FILENAME
        if path.is_file():
            for line in path.read_text().splitlines():
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    pass
        matched = [row for row in rows if predicate(row)]
        if matched or time.monotonic() > deadline:
            return matched
        time.sleep(0.02)


@pytest.fixture(scope="module")
def http_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc")
    service = IltService(tiny_service_config(root))
    server = serve(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"service": service, "server": server, "url": server.url, "root": root}
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


class TestHttpObservability:
    def test_submit_echoes_and_persists_the_trace_id(self, http_env):
        request = urllib.request.Request(
            http_env["url"] + "/v1/jobs",
            data=json.dumps(SERIAL_PAYLOAD).encode(),
            method="POST",
            headers={"Content-Type": "application/json",
                     TRACE_HEADER: "feedfacecafe"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers.get(TRACE_HEADER) == "feedfacecafe"
            job = json.loads(response.read())
        assert job["trace_id"] == "feedfacecafe"
        final = http_env["service"].wait(job["id"], timeout_s=60)
        assert final.state == "DONE"
        on_disk = json.loads(
            (http_env["root"] / "jobs" / job["id"] / JOB_FILENAME).read_text()
        )
        assert on_disk["trace_id"] == "feedfacecafe"
        run_meta = json.loads(
            (http_env["root"] / "jobs" / job["id"] / RUN_DIRNAME / "run.json")
            .read_text()
        )
        assert run_meta["trace_id"] == "feedfacecafe"

    def test_minted_trace_id_when_client_brings_none(self, http_env):
        service = http_env["service"]
        job = service.submit(dict(SERIAL_PAYLOAD))
        assert job.trace_id and len(job.trace_id) == 32
        service.wait(job.id, timeout_s=60)

    def test_cache_hit_is_labeled_in_metrics_and_access_log(self, http_env):
        client = ServiceClient(http_env["url"])
        job = client.submit(dict(SERIAL_PAYLOAD))
        client.wait(job["id"], timeout_s=60)
        hit = client.submit(dict(SERIAL_PAYLOAD))
        assert hit["cached"] is True
        assert hit["trace_id"] and hit["trace_id"] != job["trace_id"]
        snapshot = http_env["service"].metrics_snapshot()
        hit_key = encode_labels(
            "service_jobs_by_tenant", {"tenant": "default", "cache": "hit"}
        )
        assert snapshot[hit_key]["value"] >= 1
        hit_rows = _wait_access_rows(
            http_env["root"],
            lambda row: row.get("trace_id") == hit["trace_id"],
        )
        assert hit_rows and hit_rows[0]["cache_hit"] is True
        assert hit_rows[0]["job_id"] == hit["id"]

    def test_access_log_and_request_metrics_cover_every_request(self, http_env):
        client = ServiceClient(http_env["url"])
        client.healthz()
        # The access row lands after the request metrics, so once it is
        # visible the histogram/counter below are too.
        health_rows = _wait_access_rows(
            http_env["root"], lambda row: row.get("endpoint") == "/healthz"
        )
        snapshot = http_env["service"].metrics_snapshot()
        health_key = encode_labels(
            "http_requests_total",
            {"endpoint": "/healthz", "method": "GET", "status": "200"},
        )
        assert snapshot[health_key]["value"] >= 1
        duration_key = encode_labels(
            "http_request_duration_seconds",
            {"endpoint": "/healthz", "method": "GET"},
        )
        assert snapshot[duration_key]["count"] >= 1
        assert snapshot[duration_key]["buckets"]  # JSON carries bounds
        assert health_rows
        row = health_rows[-1]
        assert row["status"] == 200 and row["outcome"] == "ok"
        assert row["trace_id"] and row["duration_s"] >= 0
        assert row["response_bytes"] > 0

    def test_metricsz_prometheus_exposition(self, http_env):
        with urllib.request.urlopen(
            http_env["url"] + "/metricsz?format=prometheus", timeout=30
        ) as response:
            assert response.headers.get_content_type() == "text/plain"
            assert "version=0.0.4" in response.headers.get("Content-Type", "")
            text = response.read().decode()
        for line in text.splitlines():
            assert _COMMENT_RE.match(line) or _SAMPLE_RE.match(line), line
        assert re.search(r"^service_jobs_submitted [1-9]", text, re.M)
        assert "http_request_duration_seconds_bucket" in text
        assert "http_request_duration_seconds_sum" in text
        assert "http_request_duration_seconds_count" in text

    def test_metricsz_unknown_format_is_400(self, http_env):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(
                http_env["url"] + "/metricsz?format=xml", timeout=30
            )
        assert exc.value.code == 400

    def test_slo_histograms_recorded(self, http_env):
        snapshot = http_env["service"].metrics_snapshot()
        wait_key = encode_labels(
            "service_queue_wait_seconds", {"tenant": "default"}
        )
        solve_key = encode_labels(
            "service_solve_seconds", {"outcome": "done", "tenant": "default"}
        )
        ttfe_key = encode_labels(
            "service_time_to_first_event_seconds", {"tenant": "default"}
        )
        for key in (wait_key, solve_key, ttfe_key):
            assert snapshot[key]["count"] >= 1, key


# -- trace-id propagation E2E (queue executor + fused trace) ------------------


@pytest.mark.slow
class TestTraceIdPropagationE2E:
    def test_one_trace_id_across_every_artifact(self, tmp_path):
        from repro.fullchip.queue import QUEUE_DIRNAME, TileJobQueue
        from repro.obs.distributed import SPOOL_DIRNAME, read_spool

        service = IltService(tiny_service_config(tmp_path / "root"))
        server = serve(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            job = client.submit(
                {"layout": "synth:1024x1024:1", "mode": "fast", "workers": 1},
                trace_id="e2e" + "0" * 29,
            )
            trace_id = job["trace_id"]
            assert trace_id == "e2e" + "0" * 29
            final = client.wait(job["id"], timeout_s=180)
            assert final["state"] == "DONE", final.get("error")

            job_dir = tmp_path / "root" / "jobs" / job["id"]
            run_dir = job_dir / RUN_DIRNAME
            assert json.loads((job_dir / JOB_FILENAME).read_text())["trace_id"] == trace_id
            assert json.loads((run_dir / "run.json").read_text())["trace_id"] == trace_id

            queue = TileJobQueue.open(run_dir / QUEUE_DIRNAME)
            assert queue.trace_id == trace_id
            tiles = list(queue.tiles())
            assert tiles
            history = queue.history(tiles[0])
            assert any(row.get("trace_id") == trace_id for row in history)
            # Worker-side lines (claimed/completed by the repro worker
            # subprocess) carry it too — the id crossed the process
            # boundary through meta.json.
            worker_kinds = {
                row["kind"] for row in history if row.get("trace_id") == trace_id
            }
            assert worker_kinds - {"seeded"}

            spools = sorted((run_dir / SPOOL_DIRNAME).glob("spool_*.jsonl"))
            assert spools
            assert read_spool(spools[0]).trace_id == trace_id

            fused = fuse_trace(job["id"], root=tmp_path / "root")
            assert fused.trace_id == trace_id
            assert fused.problems == []
            assert len(fused.lanes) >= 3  # service + parent + >=1 worker
            assert fused.lanes[0].pid == SERVICE_LANE_PID
            assert fused.lanes[0].label == "service"
            paths = [s.path for s in fused.lanes[0].slices]
            assert "job/solve" in paths
            assert any(p.startswith("http/POST /v1/jobs") for p in paths)

            # Round trip through the written file: parses, validates,
            # and the lanes read back.
            document = json.loads(fused.path.read_text())
            assert validate_chrome_trace(document) == []
            lanes = read_chrome_trace(fused.path)
            assert {lane.label for lane in lanes} >= {"service", "parent"}

            # The CLI verb drives the same fusion.
            from repro.cli import main

            assert main([
                "trace", job["id"], "--root", str(tmp_path / "root"),
                "--out", str(tmp_path / "cli_fused.json"),
            ]) == 0
            assert (tmp_path / "cli_fused.json").is_file()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)
