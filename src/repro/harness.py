"""Batch experiment harness: solvers x layouts -> aggregated results.

The benchmark files each regenerate one paper table; this harness is
the generic engine behind ad-hoc studies: run any set of solvers over
any set of layouts, collect the scores into a matrix, format it as a
text table, and export CSV for spreadsheet analysis.

The harness isolates faults per cell: a solver that raises (or stalls
past its wall-clock budget) on one (solver, layout) cell no longer kills
the batch.  Each cell records a :class:`CellStatus` — ``ok``, ``failed``,
``timeout``, or ``recovered`` (succeeded after a retry) — and the result
matrix renders partial results: missing cells show as ``--`` in the
table, are skipped by :meth:`ExperimentResult.totals`, and exclude their
solver from the ratio row rather than raising ``KeyError``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import CellTimeoutError, HarnessError
from .geometry.layout import Layout
from .metrics.score import ScoreBreakdown
from .obs import Instrumentation
from .tables import ColumnSpec, TextTable, write_csv_rows

logger = logging.getLogger(__name__)

#: A solver factory: () -> object with .solve(layout) -> MosaicResult.
SolverFactory = Callable[[], object]


@dataclass(frozen=True)
class CellStatus:
    """Execution record of one (solver, layout) cell.

    Attributes:
        status: ``"ok"`` (clean first attempt), ``"recovered"``
            (succeeded after >= 1 retry), ``"failed"`` (all attempts
            raised), or ``"timeout"`` (last attempt exceeded the
            wall-clock budget).
        attempts: solve attempts executed (1 = no retry needed).
        runtime_s: wall-clock spent on the cell across all attempts.
        error: message of the last failure (None for clean cells).
    """

    status: str
    attempts: int = 1
    runtime_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the cell produced a score."""
        return self.status in ("ok", "recovered")


@dataclass
class ExperimentResult:
    """Scores for every (solver, layout) cell of one batch run.

    ``scores``/``runtimes`` only contain completed cells; ``statuses``
    covers every attempted cell, so a failed cell is visible without
    being confusable with a score.
    """

    solver_labels: List[str]
    layout_names: List[str]
    scores: Dict[Tuple[str, str], ScoreBreakdown] = field(default_factory=dict)
    runtimes: Dict[Tuple[str, str], float] = field(default_factory=dict)
    statuses: Dict[Tuple[str, str], CellStatus] = field(default_factory=dict)

    def score(self, solver: str, layout: str) -> ScoreBreakdown:
        return self.scores[(solver, layout)]

    def has_cell(self, solver: str, layout: str) -> bool:
        """True when the cell completed and carries a score."""
        return (solver, layout) in self.scores

    def is_complete(self, solver: str) -> bool:
        """True when every layout produced a score for this solver."""
        return all(self.has_cell(solver, name) for name in self.layout_names)

    def failed_cells(self) -> List[Tuple[str, str]]:
        """(solver, layout) keys that did not produce a score."""
        return [
            (label, name)
            for label in self.solver_labels
            for name in self.layout_names
            if not self.has_cell(label, name)
        ]

    def totals(self) -> Dict[str, float]:
        """Summed contest score per solver over its *completed* cells.

        Solvers with missing cells sum only what completed; compare
        totals across solvers only via :meth:`ranking`/:meth:`format_table`,
        which restrict the ratio comparison to complete solvers.
        """
        return {
            label: sum(
                self.scores[(label, name)].total
                for name in self.layout_names
                if self.has_cell(label, name)
            )
            for label in self.solver_labels
        }

    def ranking(self) -> List[str]:
        """Solver labels sorted best (lowest total) first.

        Solvers with missing cells sort after every complete solver
        (their partial totals are not comparable).
        """
        totals = self.totals()
        return sorted(
            self.solver_labels,
            key=lambda label: (not self.is_complete(label), totals[label]),
        )

    def format_table(self) -> str:
        """Fixed-width text table, one row per layout plus a ratio row.

        Missing cells render as ``--``; the ratio row compares only
        solvers whose every cell completed (incomplete solvers show
        ``--`` there too).
        """
        table = TextTable(
            [ColumnSpec("case", 8, "<")]
            + [ColumnSpec(label, 24) for label in self.solver_labels],
            separator="",
        )
        table.add_row([""] + ["#EPE   PVB      score"] * len(self.solver_labels))
        for name in self.layout_names:
            cells: List[Optional[str]] = [name]
            for label in self.solver_labels:
                if self.has_cell(label, name):
                    s = self.scores[(label, name)]
                    cells.append(
                        f"{s.epe_violations:7d}{s.pv_band_nm2:7.0f}{s.total:10.0f}"
                    )
                else:
                    cells.append(None)
            table.add_row(cells)
        totals = self.totals()
        complete = [label for label in self.solver_labels if self.is_complete(label)]
        best = min((totals[label] for label in complete), default=None)
        table.add_row(
            ["ratio"]
            + [
                f"{totals[label] / best:.3f}" if label in complete and best else None
                for label in self.solver_labels
            ]
        )
        return table.render()

    def to_csv(self, path: Union[str, Path]) -> None:
        """One CSV row per (solver, layout) cell with all components.

        Failed/timeout cells are exported too, with empty score fields
        and their status/error, so a batch's fault history survives in
        the same artifact as its results.
        """
        rows: List[List[object]] = []
        for label in self.solver_labels:
            for name in self.layout_names:
                status = self.statuses.get((label, name), CellStatus(status="ok"))
                if self.has_cell(label, name):
                    s = self.scores[(label, name)]
                    rows.append(
                        [label, name, status.status, s.epe_violations,
                         s.pv_band_nm2, s.shape_violations,
                         f"{s.runtime_s:.3f}", f"{s.total:.1f}", ""]
                    )
                else:
                    rows.append(
                        [label, name, status.status, "", "", "",
                         f"{status.runtime_s:.3f}", "", status.error or ""]
                    )
        write_csv_rows(
            path,
            ["solver", "layout", "status", "epe_violations", "pv_band_nm2",
             "shape_violations", "runtime_s", "score", "error"],
            rows,
        )


def call_with_budget(fn: Callable[[], object], timeout_s: Optional[float]) -> object:
    """Run ``fn``, enforcing a wall-clock budget when one is given.

    With a budget the call runs on a daemon worker thread and the caller
    waits at most ``timeout_s``; on expiry a :class:`CellTimeoutError`
    is raised and the worker is abandoned (it cannot be preempted — the
    budget bounds the *batch's* progress, not the worker's CPU).
    """
    if timeout_s is None:
        return fn()
    outcome: Dict[str, object] = {}
    done = threading.Event()

    def worker() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=worker, daemon=True, name="harness-cell")
    thread.start()
    if not done.wait(timeout_s):
        raise CellTimeoutError(
            f"cell exceeded its wall-clock budget of {timeout_s:g} s"
        )
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["value"]


#: Backwards-compatible alias — the budget runner predates its public name.
_call_with_budget = call_with_budget


def run_experiment(
    solvers: Sequence[Tuple[str, SolverFactory]],
    layouts: Sequence[Layout],
    progress: Callable[[str], None] = lambda msg: None,
    obs: Optional[Instrumentation] = None,
    keep_going: bool = False,
    max_retries: int = 0,
    cell_timeout_s: Optional[float] = None,
) -> ExperimentResult:
    """Run every solver on every layout.

    Args:
        solvers: (label, factory) pairs; a fresh solver is built per cell
            so per-run state never leaks (share a simulator through the
            factory closure to reuse kernel caches).
        layouts: the layouts to solve.
        progress: optional callback receiving one message per cell.
        obs: optional instrumentation; records one ``experiment`` span
            with a child span per (solver, layout) cell, a
            ``harness_cells_total`` counter, and a ``cell`` event per
            solved cell (plus ``cell_failed`` / ``cell_retry`` events and
            ``harness_cells_failed`` / ``harness_cell_retries`` /
            ``harness_cell_timeouts`` counters on the fault paths).
        keep_going: when True a cell whose every attempt fails is
            recorded in ``statuses`` and the batch continues; when False
            (the default, the legacy contract) the last error re-raises
            after being recorded.
        max_retries: extra solve attempts per cell after the first
            failure (fresh solver per attempt).
        cell_timeout_s: optional wall-clock budget per attempt; an
            attempt past the budget counts as a failure with status
            ``timeout``.

    Returns:
        The result matrix — complete, or partial when ``keep_going``
        tolerated failed cells.
    """
    if not solvers:
        raise HarnessError("run_experiment needs at least one solver")
    if not layouts:
        raise HarnessError("run_experiment needs at least one layout")
    if max_retries < 0:
        raise HarnessError(f"max_retries must be >= 0, got {max_retries}")
    if cell_timeout_s is not None and cell_timeout_s <= 0:
        raise HarnessError(f"cell_timeout_s must be positive, got {cell_timeout_s}")
    labels = [label for label, _ in solvers]
    if len(set(labels)) != len(labels):
        raise HarnessError(f"duplicate solver labels: {labels}")
    obs = obs or Instrumentation.disabled()
    result = ExperimentResult(
        solver_labels=labels,
        layout_names=[layout.name for layout in layouts],
    )
    cells = obs.metrics.counter("harness_cells_total")
    # Register the fault-path counters up front so a metrics dump always
    # carries them, even for an all-clean batch.
    failed_cells = obs.metrics.counter("harness_cells_failed")
    retried_cells = obs.metrics.counter("harness_cell_retries")
    timeout_cells = obs.metrics.counter("harness_cell_timeouts")
    obs.events.emit(
        "experiment_start",
        solvers=labels,
        layouts=[layout.name for layout in layouts],
        keep_going=keep_going,
        max_retries=max_retries,
        cell_timeout_s=cell_timeout_s,
    )
    with obs.tracer.span("experiment"):
        for layout in layouts:
            for label, factory in solvers:
                progress(f"{label} on {layout.name}")
                logger.info("solving %s with %s", layout.name, label)
                # Liveness pulse for bundles wired with a heartbeat
                # writer (no-op on the default null twin): a batch run
                # reports which cell it is on, like tile workers do.
                obs.heartbeat.beat(phase=f"{label}:{layout.name}")
                cell_start = time.perf_counter()
                solved = None
                last_error: Optional[BaseException] = None
                attempts = 0
                for attempt in range(max_retries + 1):
                    attempts = attempt + 1
                    if attempt > 0:
                        retried_cells.inc()
                        obs.events.emit(
                            "cell_retry",
                            solver=label,
                            layout=layout.name,
                            attempt=attempts,
                        )
                        logger.warning(
                            "retrying %s on %s (attempt %d/%d)",
                            label, layout.name, attempts, max_retries + 1,
                        )
                    try:
                        with obs.tracer.span(f"cell:{label}:{layout.name}"):
                            solved = call_with_budget(
                                lambda: factory().solve(layout), cell_timeout_s
                            )
                        last_error = None
                        break
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:  # noqa: BLE001 - isolation boundary
                        last_error = exc
                        logger.warning(
                            "cell %s on %s failed (attempt %d): %s",
                            label, layout.name, attempts, exc,
                        )
                cell_runtime = time.perf_counter() - cell_start
                cells.inc()
                key = (label, layout.name)
                if solved is not None:
                    result.scores[key] = solved.score
                    result.runtimes[key] = solved.runtime_s
                    result.statuses[key] = CellStatus(
                        status="ok" if attempts == 1 else "recovered",
                        attempts=attempts,
                        runtime_s=cell_runtime,
                    )
                    obs.events.emit(
                        "cell",
                        solver=label,
                        layout=layout.name,
                        score=solved.score.total,
                        epe_violations=solved.score.epe_violations,
                        pv_band_nm2=solved.score.pv_band_nm2,
                        runtime_s=solved.runtime_s,
                        attempts=attempts,
                    )
                    continue
                timed_out = isinstance(last_error, CellTimeoutError)
                status = "timeout" if timed_out else "failed"
                result.statuses[key] = CellStatus(
                    status=status,
                    attempts=attempts,
                    runtime_s=cell_runtime,
                    error=f"{type(last_error).__name__}: {last_error}",
                )
                failed_cells.inc()
                if timed_out:
                    timeout_cells.inc()
                obs.events.emit(
                    "cell_failed",
                    solver=label,
                    layout=layout.name,
                    status=status,
                    attempts=attempts,
                    error=str(last_error),
                )
                logger.error(
                    "cell %s on %s %s after %d attempt(s): %s",
                    label, layout.name, status, attempts, last_error,
                )
                if not keep_going:
                    raise last_error
    obs.events.emit(
        "experiment_end",
        cells=len(result.statuses),
        failed=len(result.failed_cells()),
    )
    return result
