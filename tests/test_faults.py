"""Fault-injection + harness-isolation tests.

Covers the injector's own determinism, the full-chip tile fault plan
(``REPRO_FULLCHIP_FAULTS``), and the harness acceptance criterion: a
3-solver x 3-layout batch with one solver raising on one layout still
returns the other 8 cells and renders a table.
"""

import csv
import time

import numpy as np
import pytest

from repro.baselines import ModelBasedOPC, RuleBasedOPC
from repro.errors import FullChipError, ReproError
from repro.harness import CellStatus, run_experiment
from repro.obs import Instrumentation
from repro.testing.faults import (
    TILE_FAULTS_ENV,
    FaultInjector,
    FaultRecord,
    InjectedFault,
    TileFault,
    fire_tile_fault,
    parse_tile_faults,
)
from repro.workloads.iccad2013 import load_benchmark


class TestInjectorUnits:
    def test_gradient_fault_fires_once_at_exact_call(self):
        class Inner:
            def value_and_gradient(self, ctx):
                return 1.0, np.ones((4, 4))

        injector = FaultInjector().arm_gradient_fault(at_call=2, mode="nan")
        wrapped = injector.wrap_objective(Inner())
        results = [wrapped.value_and_gradient(None) for _ in range(5)]
        nan_calls = [
            i for i, (_, g) in enumerate(results) if not np.all(np.isfinite(g))
        ]
        assert nan_calls == [2]  # exactly call 2, one-shot
        assert injector.log == [
            FaultRecord(kind="gradient", where="call 2", detail="nan x1")
        ]

    def test_gradient_fraction_controls_corruption(self):
        class Inner:
            def value_and_gradient(self, ctx):
                return 1.0, np.ones(100)

        injector = FaultInjector().arm_gradient_fault(
            at_call=0, mode="inf", fraction=0.05
        )
        _, grad = injector.wrap_objective(Inner()).value_and_gradient(None)
        assert int(np.sum(~np.isfinite(grad))) == 5

    def test_value_fault_modes(self):
        class Inner:
            def value_and_gradient(self, ctx):
                return 2.0, np.ones(4)

        injector = FaultInjector().arm_value_fault(at_call=0, mode="nan")
        value, _ = injector.wrap_objective(Inner()).value_and_gradient(None)
        assert np.isnan(value)

        injector = FaultInjector().arm_value_fault(
            at_call=0, mode="blowup", blowup_factor=1e6
        )
        value, _ = injector.wrap_objective(Inner()).value_and_gradient(None)
        assert value == 2e6

    def test_invalid_modes_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector().arm_gradient_fault(at_call=0, mode="zero")
        with pytest.raises(ReproError):
            FaultInjector().arm_value_fault(at_call=0, mode="inf")

    def test_wrapper_delegates_attributes(self):
        class Inner:
            last_term_values = {"image": 1.0}

            def value_and_gradient(self, ctx):
                return 1.0, np.ones(4)

            def value(self, ctx):
                return 1.0

        wrapped = FaultInjector().wrap_objective(Inner())
        assert wrapped.last_term_values == {"image": 1.0}
        assert wrapped.value(None) == 1.0

    def test_solve_fault_targets_exact_cell(self):
        class Solver:
            def solve(self, layout):
                return f"solved {layout.name}"

        class L:
            def __init__(self, name):
                self.name = name

        injector = FaultInjector().arm_solve_fault(label="a", layout_name="B2")
        factory = injector.wrap_factory("a", Solver)
        assert factory().solve(L("B1")) == "solved B1"
        with pytest.raises(InjectedFault, match="a on B2"):
            factory().solve(L("B2"))
        # One-shot (times=1): the retry succeeds.
        assert factory().solve(L("B2")) == "solved B2"


class TestTileFaultPlan:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            pytest.param("", {}, id="empty"),
            pytest.param(" ; ", {}, id="blank-entries"),
            pytest.param("fail@0,1", {(0, 1): TileFault("fail")}, id="fail"),
            pytest.param(
                "stall@0,1; stall@1,0:2.5",
                {(0, 1): TileFault("stall", 3600.0), (1, 0): TileFault("stall", 2.5)},
                id="stall-default-and-seconds",
            ),
            pytest.param("kill@0,1", {(0, 1): TileFault("kill", 3)}, id="kill-default"),
            pytest.param(
                "kill@1,2:5; kill@0,0:1",
                {(1, 2): TileFault("kill", 5), (0, 0): TileFault("kill", 1)},
                id="kill-pulses",
            ),
            pytest.param("kill@0,1:0", {(0, 1): TileFault("kill", 0)}, id="kill-zero-pulses"),
            pytest.param(
                "fail@0,0;stall@0,1:4;kill@1,0:2",
                {
                    (0, 0): TileFault("fail"),
                    (0, 1): TileFault("stall", 4.0),
                    (1, 0): TileFault("kill", 2),
                },
                id="mixed-kinds",
            ),
            # Malformed: the error names the variable and the (last) entry.
            pytest.param("fail@a,b", None, id="fail-bad-index"),
            pytest.param("fail@0,1:3", None, id="fail-with-arg"),
            pytest.param("stall@0", None, id="stall-no-col"),
            pytest.param("stall@a,b", None, id="stall-bad-index"),
            pytest.param("stall@0,1:zap", None, id="stall-bad-seconds"),
            pytest.param("stall@0,1:-2", None, id="stall-negative-seconds"),
            pytest.param("stall@0,1:0", None, id="stall-zero-seconds"),
            pytest.param("kill@1", None, id="kill-no-col"),
            pytest.param("kill@a,b", None, id="kill-bad-index"),
            pytest.param("kill@0,1:x", None, id="kill-bad-pulses"),
            pytest.param("kill@0,1:-2", None, id="kill-negative-pulses"),
            pytest.param("kill@0,1:2.5", None, id="kill-fractional-pulses"),
            pytest.param("0,1", None, id="no-kind"),
            pytest.param("boom@0,1", None, id="unknown-kind"),
            pytest.param("fail@0,1; kill@0,1", None, id="tile-listed-twice"),
        ],
    )
    def test_parse(self, spec, expected):
        if expected is not None:
            assert parse_tile_faults(spec) == expected
            return
        with pytest.raises(FullChipError) as exc:
            parse_tile_faults(spec)
        assert TILE_FAULTS_ENV in str(exc.value)
        assert repr(spec.split(";")[-1].strip()) in str(exc.value)

    def test_fire_reads_the_environment(self, monkeypatch):
        class Beats:
            def __init__(self):
                self.iterations = []

            def beat(self, phase, iteration):
                self.iterations.append(iteration)

        monkeypatch.setenv(TILE_FAULTS_ENV, "fail@0,0; stall@0,1:0.05; kill@1,1")
        fire_tile_fault((1, 0), attempt=1)  # not planned: no-op
        fire_tile_fault((1, 1), attempt=2)  # kills fire on attempt 1 only
        with pytest.raises(FullChipError, match="injected failure"):
            fire_tile_fault((0, 0), attempt=2)
        beats = Beats()
        with pytest.raises(FullChipError, match="injected stall"):
            fire_tile_fault((0, 1), attempt=1, heartbeat=beats)
        assert beats.iterations == [0, 1, 2]
        monkeypatch.setenv(TILE_FAULTS_ENV, "fail@0,0; bogus")
        with pytest.raises(FullChipError, match=TILE_FAULTS_ENV):
            fire_tile_fault((1, 0), attempt=1)


@pytest.fixture(scope="module")
def cheap_solvers(reduced_config, sim):
    """Three fast solver factories sharing the prewarmed simulator."""
    return [
        ("rule", lambda: RuleBasedOPC(
            reduced_config, bias_candidates_nm=(0.0, 16.0), use_sraf=False,
            simulator=sim,
        )),
        ("mb", lambda: ModelBasedOPC(
            reduced_config, max_iterations=2, simulator=sim,
        )),
        ("mb-slow", lambda: ModelBasedOPC(
            reduced_config, max_iterations=3, simulator=sim,
        )),
    ]


@pytest.fixture(scope="module")
def three_layouts():
    return [load_benchmark(name) for name in ("B1", "B2", "B4")]


class TestHarnessIsolation:
    def test_one_failing_cell_leaves_other_eight_intact(
        self, cheap_solvers, three_layouts
    ):
        """Acceptance: 3 solvers x 3 layouts with one solver raising on
        one layout -> the other 8 cells complete and the table renders."""
        injector = FaultInjector().arm_solve_fault(
            label="mb", layout_name="B2", times=99
        )
        solvers = [
            (label, injector.wrap_factory(label, factory))
            for label, factory in cheap_solvers
        ]
        events = []
        obs = Instrumentation.collecting(events_sink=events.append)
        result = run_experiment(
            solvers, three_layouts, obs=obs, keep_going=True
        )

        assert [r.kind for r in injector.log] == ["solve_raise"]
        assert len(result.scores) == 8
        assert result.failed_cells() == [("mb", "B2")]
        assert result.statuses[("mb", "B2")].status == "failed"
        assert "InjectedFault" in result.statuses[("mb", "B2")].error
        assert not result.is_complete("mb")
        assert result.is_complete("rule") and result.is_complete("mb-slow")
        assert obs.metrics.counter("harness_cells_failed").value == 1
        assert obs.metrics.counter("harness_cells_total").value == 9
        failed_events = [e for e in events if e["event"] == "cell_failed"]
        assert len(failed_events) == 1
        assert failed_events[0]["solver"] == "mb"

        # The partial matrix still renders, ranks, and exports.
        table = result.format_table()
        assert "--" in table and "ratio" in table
        for name in ("B1", "B2", "B4"):
            assert name in table
        assert result.ranking()[-1] == "mb"  # incomplete solver sorts last
        totals = result.totals()
        assert set(totals) == {"rule", "mb", "mb-slow"}

    def test_partial_csv_round_trips(self, cheap_solvers, three_layouts, tmp_path):
        injector = FaultInjector().arm_solve_fault(label="mb", layout_name="B2",
                                                   times=99)
        solvers = [
            (label, injector.wrap_factory(label, factory))
            for label, factory in cheap_solvers[:2]
        ]
        result = run_experiment(solvers, three_layouts, keep_going=True)
        path = tmp_path / "partial.csv"
        result.to_csv(path)
        with open(path) as handle:
            rows = {(r["solver"], r["layout"]): r for r in csv.DictReader(handle)}
        assert len(rows) == 6
        failed = rows[("mb", "B2")]
        assert failed["status"] == "failed"
        assert failed["score"] == ""
        assert "InjectedFault" in failed["error"]
        ok = rows[("rule", "B1")]
        assert ok["status"] == "ok" and float(ok["score"]) > 0

    def test_retry_recovers_transient_fault(self, cheap_solvers, three_layouts):
        injector = FaultInjector().arm_solve_fault(
            label="rule", layout_name="B1", times=1
        )
        label, factory = cheap_solvers[0]
        events = []
        obs = Instrumentation.collecting(events_sink=events.append)
        result = run_experiment(
            [(label, injector.wrap_factory(label, factory))],
            three_layouts[:1],
            obs=obs,
            max_retries=1,
        )
        status = result.statuses[("rule", "B1")]
        assert status.status == "recovered"
        assert status.attempts == 2
        assert status.ok
        assert result.has_cell("rule", "B1")
        assert obs.metrics.counter("harness_cell_retries").value == 1
        assert any(e["event"] == "cell_retry" for e in events)

    def test_default_contract_still_raises(self, cheap_solvers, three_layouts):
        injector = FaultInjector().arm_solve_fault(label="rule", times=99)
        label, factory = cheap_solvers[0]
        with pytest.raises(InjectedFault):
            run_experiment(
                [(label, injector.wrap_factory(label, factory))],
                three_layouts[:1],
            )

    def test_stalled_cell_times_out(self, reduced_config, sim):
        injector = FaultInjector().arm_solve_stall(seconds=5.0, times=99)
        factory = injector.wrap_factory(
            "rule",
            lambda: RuleBasedOPC(
                reduced_config, bias_candidates_nm=(0.0,), use_sraf=False,
                simulator=sim,
            ),
        )
        obs = Instrumentation.collecting()
        start = time.perf_counter()
        result = run_experiment(
            [("rule", factory)],
            [load_benchmark("B1")],
            obs=obs,
            keep_going=True,
            cell_timeout_s=0.3,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 4.0  # the batch did not wait out the stall
        status = result.statuses[("rule", "B1")]
        assert status.status == "timeout"
        assert "wall-clock budget" in status.error
        assert result.failed_cells() == [("rule", "B1")]
        assert obs.metrics.counter("harness_cell_timeouts").value == 1

    def test_validation_errors(self, cheap_solvers, three_layouts):
        label, factory = cheap_solvers[0]
        with pytest.raises(ReproError, match="max_retries"):
            run_experiment([(label, factory)], three_layouts[:1], max_retries=-1)
        with pytest.raises(ReproError, match="cell_timeout_s"):
            run_experiment([(label, factory)], three_layouts[:1], cell_timeout_s=0)


class TestCellStatus:
    def test_ok_property(self):
        assert CellStatus(status="ok").ok
        assert CellStatus(status="recovered", attempts=2).ok
        assert not CellStatus(status="failed", error="boom").ok
        assert not CellStatus(status="timeout").ok
