"""Run reports and perf-regression checks over telemetry artifacts.

Everything here renders from *artifacts alone* — the ``run.json`` /
``metrics.json`` / ``spool/*.jsonl`` files a telemetry-enabled full-chip
run leaves in its run directory (see
:meth:`repro.fullchip.FullChipEngine.solve` with
``FullChipConfig.telemetry_dir``) — no live engine objects, so the
``repro report`` CLI can post-mortem any finished or crashed run.

Three pieces:

* :func:`render_run_report` — per-tile runtime/EPE/PV-band/retry table,
  merged phase-time breakdown, metrics summary, ambit-cache stats, and
  per-tile convergence diagnostics rebuilt from the spooled iteration
  events.
* :func:`diagnose_history` — convergence analysis of one
  :class:`~repro.opc.history.OptimizationHistory`: objective drop,
  per-term contributions, step-size trace, stall and oscillation flags,
  recovery-event overlay.
* :func:`compare_bench` / :func:`render_bench_check` — the ``repro
  bench-check`` regression gate comparing a fresh benchmark JSON
  against a checked-in ``BENCH_*.json`` baseline.  Direction is
  inferred from the key: ``*speedup*`` is higher-is-better, ``*_s``
  (seconds) is lower-is-better, everything else is informational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ReproError
from ..opc.history import IterationRecord, OptimizationHistory
from ..tables import ColumnSpec, TextTable
from .distributed import SPOOL_DIRNAME, SpoolData, read_spool
from .metrics import MetricsRegistry
from .resources import RESOURCES_DIRNAME, summarize_resources
from .trace import Tracer

__all__ = [
    "RUN_FILENAME",
    "METRICS_FILENAME",
    "TRACE_FILENAME",
    "ConvergenceDiagnostics",
    "diagnose_history",
    "load_run",
    "build_run_report",
    "render_run_report",
    "render_queue_state",
    "BenchDelta",
    "bench_direction",
    "compare_bench",
    "render_bench_check",
    "update_bench_baseline",
]

RUN_FILENAME = "run.json"
METRICS_FILENAME = "metrics.json"
TRACE_FILENAME = "trace.json"

#: Stall detection: relative objective improvement over the trailing
#: window below this fraction flags the trajectory as stalled.
STALL_WINDOW = 5
STALL_REL_TOL = 1e-3

#: Oscillation detection: fraction of sign flips in successive objective
#: deltas above this threshold flags the trajectory as oscillating.
OSCILLATION_THRESHOLD = 0.5


# -- convergence diagnostics -------------------------------------------------


@dataclass
class ConvergenceDiagnostics:
    """Distilled convergence behaviour of one optimization trajectory.

    Attributes:
        iterations: recorded iteration count.
        first_objective / final_objective / best_objective: objective
            trajectory endpoints (None when the history is empty).
        final_step_size: last applied step (after jumps/backtracking).
        min_step_size / max_step_size: step-size trace envelope.
        final_terms: per-term objective values at the last iteration.
        stalled: trailing-window relative improvement below tolerance.
        oscillating: objective deltas flip sign more often than not.
        recoveries: recovery events overlaid from the event stream.
    """

    iterations: int = 0
    first_objective: Optional[float] = None
    final_objective: Optional[float] = None
    best_objective: Optional[float] = None
    final_step_size: Optional[float] = None
    min_step_size: Optional[float] = None
    max_step_size: Optional[float] = None
    final_terms: Dict[str, float] = field(default_factory=dict)
    stalled: bool = False
    oscillating: bool = False
    recoveries: int = 0

    @property
    def flags(self) -> List[str]:
        flags = []
        if self.stalled:
            flags.append("stalled")
        if self.oscillating:
            flags.append("oscillating")
        if self.recoveries:
            flags.append(f"{self.recoveries} recovery")
        return flags

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (embedded in the structured run report)."""
        return {
            "iterations": self.iterations,
            "first_objective": self.first_objective,
            "final_objective": self.final_objective,
            "best_objective": self.best_objective,
            "final_step_size": self.final_step_size,
            "min_step_size": self.min_step_size,
            "max_step_size": self.max_step_size,
            "final_terms": dict(self.final_terms),
            "stalled": self.stalled,
            "oscillating": self.oscillating,
            "recoveries": self.recoveries,
            "flags": list(self.flags),
        }


def diagnose_history(
    history: OptimizationHistory,
    recoveries: int = 0,
    stall_window: int = STALL_WINDOW,
    stall_rel_tol: float = STALL_REL_TOL,
    oscillation_threshold: float = OSCILLATION_THRESHOLD,
) -> ConvergenceDiagnostics:
    """Analyse one trajectory for stalls, oscillation, and step health."""
    records = list(history)
    if not records:
        return ConvergenceDiagnostics(recoveries=recoveries)
    objectives = [r.objective for r in records]
    steps = [r.step_size for r in records]
    diag = ConvergenceDiagnostics(
        iterations=len(records),
        first_objective=objectives[0],
        final_objective=objectives[-1],
        best_objective=min(objectives),
        final_step_size=steps[-1],
        min_step_size=min(steps),
        max_step_size=max(steps),
        final_terms=dict(records[-1].term_values),
        recoveries=recoveries,
    )
    if len(objectives) > stall_window:
        window = objectives[-(stall_window + 1):]
        base = abs(window[0]) or 1.0
        diag.stalled = (window[0] - min(window)) / base < stall_rel_tol
    deltas = [b - a for a, b in zip(objectives, objectives[1:])]
    flips = sum(
        1 for a, b in zip(deltas, deltas[1:]) if a * b < 0
    )
    if len(deltas) > 2:
        diag.oscillating = flips / (len(deltas) - 1) > oscillation_threshold
    return diag


def _history_from_events(events: List[Dict[str, object]]) -> OptimizationHistory:
    """Rebuild a history from spooled event records (dicts, not lines)."""
    history = OptimizationHistory()
    for event in events:
        if event.get("event") == "iteration":
            history.append(IterationRecord.from_event(event))
    return history


def _render_convergence_line(tile: str, diag: Dict[str, object]) -> str:
    if not diag.get("iterations"):
        return f"{tile}: no iterations recorded"
    final_terms = diag.get("final_terms") or {}
    terms = ", ".join(f"{k}={v:.3g}" for k, v in sorted(final_terms.items()))
    flag_list = diag.get("flags") or []
    flags = f"  [{', '.join(flag_list)}]" if flag_list else ""
    line = (
        f"{tile}: {diag['iterations']} iters, "
        f"F {diag['first_objective']:.4g} -> {diag['final_objective']:.4g} "
        f"(best {diag['best_objective']:.4g}), "
        f"step {diag['final_step_size']:.3g} "
        f"[{diag['min_step_size']:.3g}..{diag['max_step_size']:.3g}]"
    )
    if terms:
        line += f", terms: {terms}"
    return line + flags


# -- durable queue state ------------------------------------------------------


def render_queue_state(queue: Dict[str, object]) -> str:
    """Render one ``load_queue_state`` payload as a text section.

    Shared by ``repro watch`` and ``repro report`` so the two views of
    the durable queue can never drift apart.  Works from the queue
    directory's files alone — no ``status.json`` / ``run.json`` needed.
    """
    counts = queue.get("counts") or {}
    lines = [
        "--- durable queue ---",
        f"{counts.get('pending', 0)} pending, {counts.get('leased', 0)} leased, "
        f"{counts.get('done', 0)} done, {counts.get('failed', 0)} failed, "
        f"{counts.get('quarantined', 0)} quarantined | "
        f"{counts.get('requeued', 0)} requeue incident(s) | "
        f"lease {float(queue.get('lease_s', 0.0)):g}s, "
        f"max requeues {queue.get('max_requeues')}, "
        f"backoff {float(queue.get('backoff_s', 0.0)):g}s",
    ]
    table = TextTable(
        [
            ColumnSpec("tile", 12, "<"),
            ColumnSpec("queue state", 11, "<"),
            ColumnSpec("attempts", 8),
            ColumnSpec("requeues", 8),
            ColumnSpec("history", 40, "<"),
        ]
    )
    for tile in queue.get("tiles", []):
        kinds = [str(h.get("kind", "?")) for h in tile.get("history") or []]
        if len(kinds) > 6:
            kinds = ["..."] + kinds[-6:]
        table.add_row(
            [
                str(tile.get("name", "?")),
                str(tile.get("state", "?")),
                str(tile.get("attempts", "?")),
                str(tile.get("requeues", 0)),
                " -> ".join(kinds) if kinds else None,
            ]
        )
    lines.append(table.render())
    return "\n".join(lines)


# -- run report --------------------------------------------------------------


def load_run(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Parse ``run.json`` from a telemetry run directory.

    Raises:
        ReproError: the directory has no readable ``run.json``.
    """
    path = Path(run_dir) / RUN_FILENAME
    if not path.is_file():
        raise ReproError(f"no {RUN_FILENAME} in {run_dir} (not a telemetry run dir?)")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"unreadable {path}: {exc}") from exc


def _load_spools(run_dir: Path, run: Dict[str, object]) -> Dict[str, SpoolData]:
    """Per-tile spool data keyed by tile name (missing files skipped)."""
    spools: Dict[str, SpoolData] = {}
    spool_dir = run_dir / SPOOL_DIRNAME
    for tile in run.get("tiles", []):
        telemetry = tile.get("telemetry") or {}
        spool_file = telemetry.get("spool_file")
        if not spool_file:
            continue
        path = spool_dir / str(spool_file)
        if path.is_file():
            spools[str(tile.get("name", ""))] = read_spool(path)
    return spools


def build_run_report(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Assemble the structured run report (the ``report --json`` payload).

    One JSON-able dict fusing every artifact of a telemetry run
    directory: the ``run.json`` manifest, the merged ``metrics.json``
    snapshot, per-tile convergence diagnostics rebuilt from the spooled
    iteration events, and the per-process resource summaries.  The text
    report (:func:`render_run_report`) renders from *this* structure, so
    the two paths can never drift apart.

    Raises:
        ReproError: the directory has no readable ``run.json``.
    """
    run_dir = Path(run_dir)
    run = load_run(run_dir)
    metrics: Optional[Dict[str, object]] = None
    metrics_path = run_dir / METRICS_FILENAME
    if metrics_path.is_file():
        try:
            with open(metrics_path) as handle:
                metrics = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"unreadable {metrics_path}: {exc}") from exc
    convergence: Dict[str, Dict[str, object]] = {}
    for name, spool in sorted(_load_spools(run_dir, run).items()):
        recoveries = sum(
            1 for e in spool.events if str(e.get("event", "")).startswith("recovery")
        )
        convergence[name] = diagnose_history(
            _history_from_events(spool.events), recoveries=recoveries
        ).as_dict()
    # Durable-queue state, read from the queue/ directory alone (None
    # for runs that solved their tiles inline and never seeded one).  Imported lazily:
    # obs must stay importable without the fullchip package.
    from ..fullchip.queue import load_queue_state

    return {
        "schema": 1,
        "kind": "fullchip_report",
        "run": run,
        "metrics": metrics,
        "convergence": convergence,
        "queue": load_queue_state(run_dir),
        "resources": summarize_resources(
            run_dir / RESOURCES_DIRNAME, parent_pid=run.get("parent_pid")
        ),
    }


def render_run_report(run_dir: Union[str, Path]) -> str:
    """Render the full run summary from a telemetry run directory."""
    report = build_run_report(run_dir)
    run = report["run"]
    sections: List[str] = []

    layout = run.get("layout", "?")
    grid = run.get("grid") or ["?", "?"]
    score = run.get("score") or {}
    sections.append(
        f"run: {layout} | {grid[0]}x{grid[1]} tiles | "
        f"{run.get('workers', '?')} worker(s) | "
        f"{run.get('fft_threads') or '?'} FFT thread(s) in the parent | "
        f"runtime {float(run.get('runtime_s', 0.0)):.1f} s"
    )
    if run.get("trace_id"):
        sections.append(f"trace: {run['trace_id']}")
    if score:
        sections.append(
            f"chip score: {float(score.get('total', 0.0)):.0f} "
            f"(#EPE={score.get('epe_violations', '?')}, "
            f"PVB={float(score.get('pv_band_nm2', 0.0)):.0f} nm^2, "
            f"shapes={score.get('shape_violations', '?')})"
        )
    seams = run.get("seams") or {}
    if seams:
        sections.append(
            f"seams: max|dM|={float(seams.get('max_abs_mask_delta', 0.0)):.3e}, "
            f"{seams.get('seam_epe_violations', '?')} seam EPE violation(s)"
        )
    ambit = run.get("ambit_cache") or {}
    if ambit:
        sections.append(
            f"ambit model: {run.get('model_tier') or '?'} in the parent | "
            f"ambit model cache: hits={ambit.get('hits', 0)} "
            f"misses={ambit.get('misses', 0)} entries={ambit.get('entries', 0)} "
            f"disk_hits={ambit.get('disk_hits', 0)} "
            f"disk_misses={ambit.get('disk_misses', 0)}"
        )

    # Per-tile table.
    table = TextTable(
        [
            ColumnSpec("tile", 12, "<"),
            ColumnSpec("status", 10, "<"),
            ColumnSpec("attempts", 8),
            ColumnSpec("iters", 6),
            ColumnSpec("#EPE", 6),
            ColumnSpec("PVB", 10),
            ColumnSpec("score", 10),
            ColumnSpec("runtime", 9),
            ColumnSpec("pid", 7),
            ColumnSpec("fft thr", 7),
            ColumnSpec("model", 6),
        ]
    )
    tiles = run.get("tiles", [])
    for tile in tiles:
        telemetry = tile.get("telemetry") or {}
        ok = tile.get("status") in ("ok", "recovered")
        table.add_row(
            [
                str(tile.get("name", "?")),
                str(tile.get("status", "?")) + ("*" if tile.get("cached") else ""),
                str(tile.get("attempts", "?")),
                str(telemetry.get("iterations")) if telemetry else None,
                str(tile.get("epe_violations")) if ok else None,
                f"{float(tile.get('pv_band_nm2', 0.0)):.0f}" if ok else None,
                f"{float(tile.get('score_total', 0.0)):.0f}" if ok else None,
                f"{float(tile.get('runtime_s', 0.0)):.1f}s",
                str(telemetry.get("pid")) if telemetry else None,
                str(tile["fft_threads"]) if tile.get("fft_threads") else None,
                tile.get("model_tier"),
            ]
        )
    sections.append(table.render())

    # Phase breakdown rebuilt from the persisted (already merged) stats.
    span_stats = run.get("span_stats") or []
    if span_stats:
        tracer = Tracer()
        tracer.absorb(span_stats)
        sections.append(tracer.report())

    # Metrics summary rebuilt from the persisted snapshot.
    if report["metrics"] is not None:
        registry = MetricsRegistry()
        registry.merge_snapshot(report["metrics"])
        sections.append(registry.summary())

    # Durable-queue state (absent when the run seeded no queue here).
    queue = report.get("queue")
    if queue:
        sections.append(render_queue_state(queue))

    # Convergence diagnostics from the spooled iteration events.
    convergence = report["convergence"]
    if convergence:
        lines = ["--- convergence ---"]
        for name in sorted(convergence):
            lines.append(_render_convergence_line(name, convergence[name]))
        sections.append("\n".join(lines))

    # Per-process resource timelines (when the sampler ran).
    resources = report["resources"]
    if resources:
        lines = ["--- resources ---"]
        for entry in resources:
            counters = entry.get("counters") or {}
            counter_text = (
                ", " + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
                if counters
                else ""
            )
            lines.append(
                f"pid {entry.get('pid')} ({entry.get('role') or 'unknown'}): "
                f"rss peak {float(entry.get('rss_peak_bytes', 0)) / 2**20:.1f} MiB, "
                f"cpu {float(entry.get('cpu_s', 0.0)):.1f} s, "
                f"{entry.get('samples')} sample(s) over "
                f"{float(entry.get('duration_s', 0.0)):.1f} s{counter_text}"
            )
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


# -- bench-check -------------------------------------------------------------


@dataclass(frozen=True)
class BenchDelta:
    """One benchmark key compared between baseline and fresh results.

    Attributes:
        key: the benchmark JSON key.
        baseline / fresh: the two values.
        direction: ``"higher"`` / ``"lower"`` is better, or None for
            informational keys that never gate.
        change: relative change ``(fresh - baseline) / |baseline|``.
        regressed: the change moved the wrong way beyond tolerance.
    """

    key: str
    baseline: float
    fresh: float
    direction: Optional[str]
    change: float
    regressed: bool


def bench_direction(key: str) -> Optional[str]:
    """Infer better-direction from a benchmark key name."""
    lowered = key.lower()
    if "floor" in lowered or "tol" in lowered:
        return None  # config echoes, not measurements
    if "speedup" in lowered:
        return "higher"
    if lowered.endswith("_s"):
        return "lower"
    return None


def compare_bench(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    tolerance: float = 0.15,
    overrides: Optional[Dict[str, float]] = None,
) -> List[BenchDelta]:
    """Compare two benchmark JSON payloads key by key.

    Only numeric keys present in *both* payloads participate; a key is
    *regressed* when it moved against its inferred direction by more
    than its tolerance (fractional) — ``overrides`` maps individual
    keys to their own tolerance, everything else uses ``tolerance``.
    Keys with no inferred direction are reported with
    ``regressed=False``.
    """
    if tolerance < 0:
        raise ReproError(f"tolerance must be >= 0, got {tolerance}")
    overrides = overrides or {}
    for key, value in overrides.items():
        if value < 0:
            raise ReproError(f"tolerance for {key!r} must be >= 0, got {value}")
    deltas: List[BenchDelta] = []
    for key in sorted(set(baseline) & set(fresh)):
        base_value, fresh_value = baseline[key], fresh[key]
        if isinstance(base_value, bool) or isinstance(fresh_value, bool):
            continue
        if not isinstance(base_value, (int, float)) or not isinstance(
            fresh_value, (int, float)
        ):
            continue
        direction = bench_direction(key)
        base_f, fresh_f = float(base_value), float(fresh_value)
        change = (fresh_f - base_f) / abs(base_f) if base_f else 0.0
        key_tolerance = overrides.get(key, tolerance)
        regressed = False
        if direction == "higher":
            regressed = change < -key_tolerance
        elif direction == "lower":
            regressed = change > key_tolerance
        deltas.append(
            BenchDelta(
                key=key,
                baseline=base_f,
                fresh=fresh_f,
                direction=direction,
                change=change,
                regressed=regressed,
            )
        )
    return deltas


def render_bench_check(
    name: str, deltas: List[BenchDelta], tolerance: float
) -> str:
    """Fixed-width bench comparison table plus the verdict line."""
    table = TextTable(
        [
            ColumnSpec("key", 24, "<"),
            ColumnSpec("baseline", 12),
            ColumnSpec("fresh", 12),
            ColumnSpec("change", 8),
            ColumnSpec("better", 6, "<"),
            ColumnSpec("verdict", 10, "<"),
        ]
    )
    for d in deltas:
        table.add_row(
            [
                d.key,
                f"{d.baseline:.4g}",
                f"{d.fresh:.4g}",
                f"{d.change:+.1%}",
                {"higher": "high", "lower": "low"}.get(d.direction or "", "-"),
                "REGRESSED" if d.regressed else "ok",
            ]
        )
    regressions = [d for d in deltas if d.regressed]
    verdict = (
        f"{len(regressions)} regression(s) beyond {tolerance:.0%} tolerance: "
        + ", ".join(d.key for d in regressions)
        if regressions
        else f"no regressions beyond {tolerance:.0%} tolerance"
    )
    return f"--- bench-check: {name} ---\n{table.render()}\n{verdict}"


def update_bench_baseline(
    baseline_path: Union[str, Path], fresh: Dict[str, object]
) -> Dict[str, object]:
    """Rewrite a bench baseline in place with the fresh measurements.

    The old baseline's top-level values are preserved one generation
    deep under a ``previous`` key (the old baseline's own ``previous``
    is dropped — baselines don't grow unboundedly).  The write is
    atomic.  Returns the payload that was written.
    """
    from ..utils.io import write_json_atomic

    path = Path(baseline_path)
    try:
        with open(path) as handle:
            old = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"unreadable baseline {path}: {exc}") from exc
    payload = {k: v for k, v in fresh.items() if k != "previous"}
    payload["previous"] = {k: v for k, v in old.items() if k != "previous"}
    write_json_atomic(path, payload)
    return payload
