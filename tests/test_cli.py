"""Tests for the command-line interface (python -m repro)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.fullchip import FullChipConfig, FullChipEngine


class TestParser:
    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "B1"])
        assert args.mode == "fast"
        assert args.scale == "reduced"

    def test_solve_options(self):
        args = build_parser().parse_args(
            ["solve", "B2", "--mode", "exact", "--scale", "paper", "--out", "x"]
        )
        assert (args.mode, args.scale, args.out) == ("exact", "paper", "x")

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "B1", "--mode", "bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_observability_defaults_off(self):
        args = build_parser().parse_args(["solve", "B1"])
        assert args.trace is False
        assert args.metrics_out is None
        assert args.log_json is None
        assert args.verbose == 0

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["solve", "B1", "-vv", "--trace",
             "--metrics-out", "m.json", "--log-json", "e.jsonl"]
        )
        assert args.trace is True
        assert args.metrics_out == "m.json"
        assert args.log_json == "e.jsonl"
        assert args.verbose == 2

    def test_observability_flags_on_simulate_and_verify(self):
        assert build_parser().parse_args(["simulate", "B1", "--trace"]).trace
        assert build_parser().parse_args(["verify", "B1", "--trace"]).trace


class TestCommands:
    def test_benchmarks_lists_all(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("B1", "B10"):
            assert name in out

    def test_export_and_solve_glp(self, tmp_path, capsys):
        glp = tmp_path / "b1.glp"
        assert main(["export", "B1", str(glp)]) == 0
        assert glp.exists()
        assert main(["simulate", str(glp)]) == 0
        out = capsys.readouterr().out
        assert "#EPE" in out

    def test_simulate_benchmark(self, capsys):
        assert main(["simulate", "B1"]) == 0
        assert "no OPC" in capsys.readouterr().out

    def test_unknown_layout_error(self, capsys):
        assert main(["simulate", "B99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_writes_bundle(self, tmp_path, capsys):
        # Smallest possible solve: model-based on B1 at reduced scale.
        code = main(
            ["solve", "B1", "--mode", "modelbased", "--out", str(tmp_path), "--render"]
        )
        assert code == 0
        bundle = tmp_path / "B1_modelbased.npz"
        assert bundle.exists()
        data = np.load(bundle)
        assert set(data.files) == {"target", "mask", "printed", "pv_band"}
        out = capsys.readouterr().out
        assert "optimized mask" in out

    def test_solve_with_observability_outputs(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"
        code = main(
            ["solve", "B1", "--mode", "fast", "--trace",
             "--metrics-out", str(metrics_path), "--log-json", str(events_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Per-phase breakdown printed with the core optimizer phases.
        assert "phase breakdown" in out
        assert "optimize" in out and "iteration" in out
        # Metrics dump carries the headline counters.
        metrics = json.loads(metrics_path.read_text())
        for name in ("forward_evals_total", "kernel_cache_hits",
                     "line_search_backtracks"):
            assert name in metrics, f"missing metric {name}"
        assert metrics["forward_evals_total"]["value"] > 0
        # Event stream: lifecycle + one record per iteration, loadable
        # as a history.
        from repro.opc.history import OptimizationHistory

        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        history = OptimizationHistory.from_jsonl(events_path)
        assert len(history) == kinds.count("iteration") > 0

    def test_simulate_trace_counts_forward_evals(self, capsys):
        assert main(["simulate", "B1", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "forward_evals_total" in out


class _PlanReached(Exception):
    """Raised in place of planning once the engine's config is captured."""


def fullchip_config_from(monkeypatch, argv):
    """The FullChipConfig ``repro fullchip <argv>`` hands its engine."""
    seen = []

    def plan_for(self, layout):
        seen.append(self.config)
        raise _PlanReached

    monkeypatch.setattr(FullChipEngine, "plan_for", plan_for)
    with pytest.raises(_PlanReached):
        main(["fullchip", "synth:2048x1024:1", *argv])
    return seen[0]


class TestFullchipConfigMapping:
    def test_non_finite_tile_size_is_a_clean_error(self, capsys):
        for flag in ("--tile-nm", "--halo-nm"):
            assert main(["fullchip", "synth:2048x1024:1", flag, "nan"]) == 1
            assert "error:" in capsys.readouterr().err

    def test_no_flags_build_the_default_config(self, monkeypatch):
        assert fullchip_config_from(monkeypatch, []) == FullChipConfig()

    def test_every_config_flag_reaches_its_field(self, monkeypatch, tmp_path):
        argv = [
            "--tile-nm", "512", "--halo-nm", "96", "--workers", "3",
            "--executor", "queue", "--mode", "exact",
            "--backend", "numpy:float32", "--keep-going",
            "--tile-timeout", "60", "--max-retries", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--checkpoint-every", "7", "--resume",
            "--telemetry-dir", str(tmp_path / "run"),
            "--lease-s", "12", "--max-requeues", "4", "--queue-backoff", "0.25",
            "--resource-interval", "0.3",
            "--watchdog-stall-factor", "4", "--watchdog-min-stall", "6",
        ]
        assert fullchip_config_from(monkeypatch, argv) == FullChipConfig(
            tile_nm=512.0,
            halo_nm=96.0,
            workers=3,
            executor="queue",
            solver_mode="exact",
            backend="numpy:float32",
            keep_going=True,
            tile_timeout_s=60.0,
            max_retries=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=7,
            resume=True,
            telemetry_dir=str(tmp_path / "run"),
            queue_lease_s=12.0,
            queue_max_requeues=4,
            queue_backoff_s=0.25,
            resource_interval_s=0.3,
            watchdog_stall_factor=4.0,
            watchdog_min_stall_s=6.0,
        )


class TestSubmitPayload:
    def submitted(self, monkeypatch, argv):
        from repro.service import ServiceClient

        sent = []

        def submit(self, payload, trace_id=None):
            sent.append(payload)
            return {"id": "job1", "state": "DONE"}

        monkeypatch.setattr(ServiceClient, "submit", submit)
        assert main(["submit", "http://127.0.0.1:1", "B1", *argv]) == 0
        return sent[0]

    def test_flags_left_out_are_left_to_the_service(self, monkeypatch):
        assert self.submitted(monkeypatch, []) == {"layout": "B1"}

    def test_flags_given_travel(self, monkeypatch):
        assert self.submitted(
            monkeypatch, ["--mode", "exact", "--tile-nm", "512", "--workers", "2"]
        ) == {"layout": "B1", "mode": "exact", "tile_nm": 512.0, "workers": 2}
