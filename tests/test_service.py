"""The job service: admission, cache, cancellation, and the HTTP front.

The expensive acceptance paths run on the miniature litho config (64x64
grid, 4 kernels, 3 iterations) so a full submit→solve→artifact round
trip costs well under a second of solver time.
"""

import importlib.util
import json
import threading
import time

import numpy as np
import pytest

from repro.config import (
    GridSpec,
    LithoConfig,
    OpticsConfig,
    OptimizerConfig,
    ProcessConfig,
    ResistConfig,
)
from repro.errors import (
    JobNotFoundError,
    RateLimitedError,
    ReproError,
    ServiceError,
)
from repro.service import (
    IltService,
    RateLimitConfig,
    ServiceClient,
    ServiceConfig,
    TenantLimiter,
    TokenBucket,
    cache_key_for,
    normalize_payload,
    serve,
)

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
    "executor": "serial",
}

#: A payload that sets every key to a value other than its default.
FULL_PAYLOAD = {
    "layout": "synth:1024x1024:1",
    "mode": "exact",
    "scale": "reduced",
    "tile_nm": 512,
    "halo_nm": 96.0,
    "workers": 2,
    "executor": "pool",
    "keep_going": True,
    "use_sraf": False,
    "backend": "numpy:float32",
}

#: Field values the payload must refuse rather than coerce.
MISTYPED_FIELDS = [
    ("use_sraf", "false"),
    ("keep_going", "no"),
    ("workers", 2.7),
    ("workers", True),
    ("tile_nm", float("nan")),
    ("tile_nm", float("inf")),
    ("halo_nm", float("nan")),
    ("halo_nm", float("-inf")),
    ("backend", "bogus"),
]


def unimportable_backend():
    """A backend spec that passes admission but cannot load here."""
    for name in ("cupy", "torch"):
        if importlib.util.find_spec(name) is None:
            return name
    pytest.skip("every optional array backend is importable here")


# -- admission units ---------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_exact_wait(self):
        now = [0.0]
        bucket = TokenBucket(capacity=3, refill_per_s=2.0, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        # Empty: next token is 1/rate away, and the failed acquire
        # must not consume anything.
        assert bucket.try_acquire() == pytest.approx(0.5)
        assert bucket.try_acquire() == pytest.approx(0.5)

    def test_refill_caps_at_capacity(self):
        now = [0.0]
        bucket = TokenBucket(capacity=2, refill_per_s=1.0, clock=lambda: now[0])
        bucket.try_acquire()
        bucket.try_acquire()
        now[0] = 100.0  # far more than capacity's worth of refill
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_validation(self):
        with pytest.raises(ServiceError):
            TokenBucket(0, 1.0)
        with pytest.raises(ServiceError):
            TokenBucket(1, 0.0)


class TestTenantLimiter:
    def test_rate_gate_with_exact_retry_after(self):
        now = [0.0]
        limiter = TenantLimiter(
            RateLimitConfig(rate_per_s=1.0, burst=2, max_active=0),
            clock=lambda: now[0],
        )
        limiter.admit("t", 0)
        limiter.admit("t", 0)
        with pytest.raises(RateLimitedError) as exc:
            limiter.admit("t", 0)
        assert exc.value.retry_after_s == pytest.approx(1.0)
        now[0] = 1.0  # one token refilled
        limiter.admit("t", 0)

    def test_tenants_are_independent(self):
        now = [0.0]
        limiter = TenantLimiter(
            RateLimitConfig(rate_per_s=1.0, burst=1, max_active=0),
            clock=lambda: now[0],
        )
        limiter.admit("a", 0)
        with pytest.raises(RateLimitedError):
            limiter.admit("a", 0)
        # Tenant b still has a full bucket.
        limiter.admit("b", 0)

    def test_concurrency_gate_uses_configured_hint(self):
        config = RateLimitConfig(
            rate_per_s=100.0, burst=100, max_active=2, retry_after_s=7.0
        )
        limiter = TenantLimiter(config)
        limiter.admit("t", 1)
        with pytest.raises(RateLimitedError) as exc:
            limiter.admit("t", 2)
        assert exc.value.retry_after_s == pytest.approx(7.0)


# -- cache key ---------------------------------------------------------------


class TestCacheKey:
    def test_placement_knobs_do_not_change_the_key(self):
        base = normalize_payload(dict(SERIAL_PAYLOAD))
        moved = normalize_payload(
            {**SERIAL_PAYLOAD, "workers": 4, "executor": "queue", "keep_going": True}
        )
        assert cache_key_for(base, "1.0") == cache_key_for(moved, "1.0")

    @pytest.mark.parametrize(
        "change",
        [
            {"layout": "synth:1024x1024:2"},
            {"mode": "exact"},
            {"tile_nm": 512.0},
            {"use_sraf": False},
            {"halo_nm": 96.0},
            {"scale": "paper"},
            {"backend": "numpy:float32"},
        ],
    )
    def test_result_knobs_change_the_key(self, change):
        base = normalize_payload(dict(SERIAL_PAYLOAD))
        other = normalize_payload({**SERIAL_PAYLOAD, **change})
        assert cache_key_for(base, "1.0") != cache_key_for(other, "1.0")

    def test_backend_spellings_share_one_key(self):
        short = normalize_payload({**SERIAL_PAYLOAD, "backend": "numpy"})
        spelled = normalize_payload({**SERIAL_PAYLOAD, "backend": "numpy:float64"})
        assert short["backend"] == spelled["backend"] == "numpy"
        assert cache_key_for(short, "1.0") == cache_key_for(spelled, "1.0")

    def test_every_config_field_is_tagged_result_or_placement(self):
        # A new FullChipConfig field fails here until it is sorted into
        # one list or the other: does it change the stitched mask?
        from repro.fullchip import FullChipConfig
        from repro.fullchip.engine import RESULT_FIELDS

        result = {
            "tile_nm", "halo_nm", "solver_mode", "use_sraf", "energy_tol",
            "probe_extent_nm", "backend",
        }
        placement = {
            "workers", "keep_going", "max_retries", "tile_timeout_s",
            "checkpoint_dir", "checkpoint_every", "resume", "telemetry_dir",
            "resource_interval_s", "watchdog_stall_factor",
            "watchdog_min_stall_s", "executor", "queue_lease_s",
            "queue_max_requeues", "queue_backoff_s", "trace_id",
        }
        assert set(RESULT_FIELDS) == result
        assert set(FullChipConfig.__dataclass_fields__) == result | placement

    def test_key_of_the_serial_payload_is_pinned(self):
        assert cache_key_for(normalize_payload(SERIAL_PAYLOAD), "1.0") == (
            "9b74049615696ea56bd306e5d11f1aeba5c96f8e0d6762a4d625666e0ace9e5e"
        )

    def test_version_and_fingerprint_pin_the_key(self):
        base = normalize_payload(dict(SERIAL_PAYLOAD))
        assert cache_key_for(base, "1.0") != cache_key_for(base, "2.0")
        assert cache_key_for(base, "1.0") != cache_key_for(base, "1.0", "cfg-abc")


# -- payload validation ------------------------------------------------------


class TestNormalizePayload:
    def test_defaults_filled(self):
        normalized = normalize_payload({"layout": "B1"})
        assert normalized["mode"] == "fast"
        assert normalized["executor"] == "queue"
        assert normalized["tile_nm"] == 1024.0
        assert normalized["workers"] == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},  # no layout
            {"layout": "B1", "bogus": 1},
            {"layout": "nope-not-a-spec"},
            {"layout": "synth:axb"},
            {"layout": "/tmp/secret.glp"},  # paths refused over the wire
            {"layout": "B1", "mode": "heroic"},
            {"layout": "B1", "scale": "huge"},
            {"layout": "B1", "executor": "carrier-pigeon"},
            {"layout": "B1", "tile_nm": -5},
            {"layout": "B1", "tile_nm": "wide"},
            {"layout": "B1", "workers": 0},
            {"layout": "B1", "halo_nm": -1.0},
            *({"layout": "B1", key: value} for key, value in MISTYPED_FIELDS),
        ],
    )
    def test_rejects_eagerly(self, payload):
        # ServiceError or a workload-spec ReproError — the HTTP layer
        # maps both to 400; a RateLimitedError here would be a 429 bug.
        with pytest.raises(ReproError) as exc:
            normalize_payload(payload)
        assert not isinstance(exc.value, RateLimitedError)

    @pytest.mark.parametrize("key, value", MISTYPED_FIELDS)
    def test_mistyped_field_is_named(self, key, value):
        with pytest.raises(ServiceError, match=key):
            normalize_payload({"layout": "B1", key: value})


class TestPayloadMapping:
    def test_every_payload_key_reaches_its_field(self, tmp_path, monkeypatch):
        from repro.fullchip import FullChipConfig, FullChipEngine

        seen = []

        def solve(self, layout, **kwargs):
            seen.append(self.config)
            raise RuntimeError("config captured")

        monkeypatch.setattr(FullChipEngine, "solve", solve)
        service = IltService(tiny_service_config(tmp_path / "svc"))
        try:
            job = service.submit(dict(FULL_PAYLOAD), trace_id="trace-pin")
            service.wait(job.id, timeout_s=60)
        finally:
            service.close()
        assert seen == [
            FullChipConfig(
                tile_nm=512.0,
                halo_nm=96.0,
                workers=2,
                solver_mode="exact",
                use_sraf=False,
                keep_going=True,
                probe_extent_nm=PROBE_NM,
                telemetry_dir=str(service.store.run_dir(job.id)),
                backend="numpy:float32",
                executor="pool",
                trace_id="trace-pin",
            )
        ]


class TestFullchipOverrides:
    def fingerprint(self, tmp_path, overrides):
        config = tiny_service_config(tmp_path / "svc", fullchip_overrides=overrides)
        return IltService(config)._config_fingerprint

    def test_only_result_overrides_feed_the_fingerprint(self, tmp_path):
        base = self.fingerprint(tmp_path, {"probe_extent_nm": PROBE_NM})
        paced = self.fingerprint(
            tmp_path, {"probe_extent_nm": PROBE_NM, "queue_lease_s": 10.0}
        )
        wider = self.fingerprint(tmp_path, {"probe_extent_nm": 2 * PROBE_NM})
        assert base == paced
        assert base != wider

    def test_unknown_override_is_refused_at_construction(self, tmp_path):
        with pytest.raises(ServiceError, match="probe_extnet_nm"):
            tiny_service_config(
                tmp_path / "svc", fullchip_overrides={"probe_extnet_nm": PROBE_NM}
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("telemetry_dir", "shared-run"),
            ("trace_id", "0123456789abcdef"),
            ("checkpoint_dir", "shared-tiles"),
            ("resume", True),
        ],
    )
    def test_per_job_override_is_refused_at_construction(self, tmp_path, key, value):
        # Each would let one job see another's run directory, trace or
        # done tiles; the pacing and result overrides stay accepted.
        with pytest.raises(ServiceError, match=f"'{key}'"):
            tiny_service_config(
                tmp_path / "svc",
                fullchip_overrides={
                    "probe_extent_nm": PROBE_NM, "queue_lease_s": 10.0, key: value,
                },
            )
        tiny_service_config(
            tmp_path / "svc",
            fullchip_overrides={"probe_extent_nm": PROBE_NM, "queue_lease_s": 10.0},
        )


# -- end-to-end: solve, cache, cancel ---------------------------------------


@pytest.fixture
def service(tmp_path):
    svc = IltService(tiny_service_config(tmp_path / "svc"))
    yield svc
    svc.close()


class TestServiceEndToEnd:
    def test_http_job_mask_is_bit_identical_to_direct_solve(self, service, tmp_path):
        job = service.submit(dict(SERIAL_PAYLOAD))
        job = service.wait(job.id, timeout_s=120)
        assert job.state == "DONE", job.error
        assert job.score is not None and "total" in job.score

        mask_path = service.artifact_path(job.id, "mask.npz")
        assert mask_path is not None
        service_mask = np.load(mask_path)["mask"]

        # The same recipe, driven directly through the engine.
        from repro.fullchip import FullChipConfig, FullChipEngine
        from repro.workloads import load_workload

        engine = FullChipEngine(
            tiny_litho(),
            optimizer=tiny_optimizer(),
            config=FullChipConfig(
                tile_nm=1024.0,
                workers=1,
                solver_mode="fast",
                executor="serial",
                probe_extent_nm=PROBE_NM,
                telemetry_dir=str(tmp_path / "direct"),
            ),
        )
        direct = engine.solve(load_workload(SERIAL_PAYLOAD["layout"]))
        assert np.array_equal(service_mask, direct.mask)

    def test_identical_resubmit_hits_cache_with_zero_new_tiles(self, service):
        first = service.wait(service.submit(dict(SERIAL_PAYLOAD)).id, timeout_s=120)
        assert first.state == "DONE"
        run_dirs = list(service.store.root.glob("*/run"))
        assert len(run_dirs) == 1

        second = service.submit(dict(SERIAL_PAYLOAD))
        # DONE instantly - no PENDING phase, no runner thread, no run dir.
        assert second.state == "DONE"
        assert second.cached and second.cached_from == first.id
        assert second.score == first.score
        assert list(service.store.root.glob("*/run")) == run_dirs
        counters = service.metrics_snapshot()
        assert counters["service_cache_hits"]["value"] == 1
        assert counters["service_jobs_submitted"]["value"] == 2

        # Artifacts resolve through the job that actually solved.
        assert service.artifact_path(second.id, "mask.npz") == (
            service.artifact_path(first.id, "mask.npz")
        )
        assert "mask.npz" in service.list_artifacts(second.id)

    def test_placement_variant_also_hits_cache(self, service):
        first = service.wait(service.submit(dict(SERIAL_PAYLOAD)).id, timeout_s=120)
        assert first.state == "DONE"
        variant = service.submit({**SERIAL_PAYLOAD, "workers": 2})
        assert variant.cached and variant.cached_from == first.id

    def test_events_replay_ends_with_terminal_job_record(self, service):
        job = service.wait(service.submit(dict(SERIAL_PAYLOAD)).id, timeout_s=120)
        records = list(service.events(job.id, timeout_s=30))
        kinds = [r["kind"] for r in records]
        assert kinds[-1] == "job"
        assert records[-1]["state"] == "DONE"
        assert "event" in kinds  # the run's events.jsonl was replayed
        assert "status" in kinds  # and at least one status snapshot

    def test_failed_job_reports_error_and_is_not_cached(self, service):
        # A valid spec naming a library that is not installed passes
        # admission and blows up inside the runner thread: the fault
        # must surface as a FAILED record, not a hung job.
        job = service.submit({**SERIAL_PAYLOAD, "backend": unimportable_backend()})
        job = service.wait(job.id, timeout_s=60)
        assert job.state == "FAILED"
        assert job.error and "backend" in job.error
        assert len(service.cache) == 0
        assert service.metrics_snapshot()["service_jobs_failed"]["value"] == 1

    def test_unknown_job_raises(self, service):
        with pytest.raises(JobNotFoundError):
            service.get("doesnotexist")
        with pytest.raises(JobNotFoundError):
            service.cancel("doesnotexist")


class TestQueueCancel:
    def test_cancel_running_queue_job_leaves_no_live_leases(self, tmp_path):
        # Enough tiles x iterations that the run is mid-flight for
        # seconds — the cancel lands while workers hold leases.
        config = tiny_service_config(
            tmp_path / "svc",
            optimizer=tiny_optimizer(max_iterations=300),
            fullchip_overrides={
                "probe_extent_nm": PROBE_NM,
                "queue_lease_s": 10.0,
            },
        )
        service = IltService(config)
        try:
            job = service.submit(
                {
                    "layout": "synth:2048x2048:3",
                    "mode": "fast",
                    "executor": "queue",
                    "workers": 1,
                }
            )
            run_dir = service.store.run_dir(job.id)

            from repro.fullchip.queue import load_queue_state

            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                state = load_queue_state(run_dir)
                if state and (
                    state["counts"]["leased"] > 0 or state["counts"]["done"] > 0
                ):
                    break
                assert service.get(job.id).state not in ("DONE", "FAILED"), (
                    "job settled before the queue went live"
                )
                time.sleep(0.1)
            else:
                pytest.fail("queue never started leasing tiles")

            service.cancel(job.id)
            job = service.wait(job.id, timeout_s=120)
            assert job.state == "CANCELLED"
            assert job.error

            counts = load_queue_state(run_dir)["counts"]
            assert counts["leased"] == 0, f"live leases after cancel: {counts}"
            assert counts["done"] < counts["total"]

            status = json.loads((run_dir / "status.json").read_text())
            assert status["state"] == "cancelled"
            assert (
                service.metrics_snapshot()["service_jobs_cancelled"]["value"] == 1
            )
        finally:
            service.close()


# -- the HTTP front end ------------------------------------------------------


@pytest.fixture(scope="module")
def http_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-http")
    service = IltService(
        tiny_service_config(
            root / "svc",
            ratelimit=RateLimitConfig(
                rate_per_s=0.01, burst=3, max_active=0, retry_after_s=5.0
            ),
        )
    )
    server = serve(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, service
    server.shutdown()
    service.close()
    thread.join(timeout=10)


class TestHttpApi:
    def test_service_file_published(self, http_env):
        server, service = http_env
        published = json.loads((service.root / "service.json").read_text())
        assert published["url"] == server.url
        assert published["port"] == server.address[1]

    def test_healthz_reports_version(self, http_env):
        server, _ = http_env
        health = ServiceClient(server.url).healthz()
        from repro import __version__

        assert health["ok"] is True
        assert health["version"] == __version__

    def test_full_round_trip_and_429_burst(self, http_env):
        server, service = http_env
        client = ServiceClient(server.url, tenant="alpha", timeout_s=120)

        # Submit, stream to DONE, pull the mask back over the wire.
        job = client.submit(dict(SERIAL_PAYLOAD))
        assert job["state"] in ("PENDING", "RUNNING")
        final = client.wait(job["id"], timeout_s=120)
        assert final["state"] == "DONE"
        assert "mask.npz" in client.artifacts(job["id"])
        blob = client.artifact(job["id"], "mask.npz")
        assert blob[:2] == b"PK"  # npz = zip container

        # Identical resubmit: served from cache, still DONE, no thread.
        hit = client.submit(dict(SERIAL_PAYLOAD))
        assert hit["state"] == "DONE" and hit["cached"]
        assert hit["cached_from"] == job["id"]
        assert client.metricsz()["service_cache_hits"]["value"] >= 1

        # A burst past tenant "bursty"'s budget: 3 admitted (as 400s -
        # admission happens before validation), the 4th is 429 with a
        # Retry-After hint...
        bursty = ServiceClient(server.url, tenant="bursty")
        outcomes = []
        for _ in range(4):
            try:
                bursty.submit({})
                outcomes.append("accepted")
            except RateLimitedError as exc:
                outcomes.append(("limited", exc.retry_after_s))
            except ServiceError:
                outcomes.append("rejected-400")
        assert outcomes[:3] == ["rejected-400"] * 3
        assert outcomes[3][0] == "limited" and outcomes[3][1] > 0
        # ... while the admitted tenant's job is unaffected.
        assert client.job(job["id"])["state"] == "DONE"

    def test_http_error_mapping(self, http_env):
        server, _ = http_env
        client = ServiceClient(server.url, tenant="beta")
        with pytest.raises(ServiceError, match="400"):
            client.submit({"layout": "synth:balloonxcat"})
        # json.dumps writes NaN, and the server's json.loads accepts it.
        with pytest.raises(ServiceError, match="400.*tile_nm"):
            client.submit({"layout": "B1", "tile_nm": float("nan")})
        with pytest.raises(JobNotFoundError):
            client.job("nope")
        with pytest.raises(JobNotFoundError):
            list(client.events("nope"))
        with pytest.raises(JobNotFoundError):
            client.cancel("nope")

    def test_delete_cancels_pending_or_running(self, http_env):
        server, service = http_env
        client = ServiceClient(server.url, tenant="gamma", timeout_s=120)
        job = client.submit(dict(SERIAL_PAYLOAD))
        cancelled = client.cancel(job["id"])
        assert cancelled["id"] == job["id"]
        final = client.wait(job["id"], timeout_s=120)
        # The cancel raced job completion: either it landed (CANCELLED)
        # or the tiny job finished first (DONE). Both are terminal and
        # the service must agree with the wire.
        assert final["state"] in ("CANCELLED", "DONE")
        assert service.get(job["id"]).state == final["state"]
