"""Statistics, quality, failure counting and run context for the benchmark.

Everything here is pure or reads only the process and the checkout, so
``perfbench/tests`` can cover it without running a workload.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Metric names: a letter or digit, then letters, digits, ``_ . -``; at
#: most 64 characters (the benchmark contract's grammar).
METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles tried for a timing's tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Thread-count variables recorded as found; the benchmark never sets them.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "REPRO_ARRAY_BACKEND",
)


@dataclass
class Context:
    """One invocation: the checkout, the arguments, and a scratch dir."""

    root: Path
    tmp_dir: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class WorkloadRun:
    """What a workload measured; ``run.py`` turns it into metrics.

    Attributes:
        setup_s: one entry per fresh set-up launch (untraced runs), in
            host-corrected seconds (see ``calibrate.py``).
        solve_s: one entry per timed sample, in host-corrected seconds.
        setup_wall_s, solve_wall_s: the same, as raw wall seconds.
        parts: Eq. 22 components per distinct input solved.
        outcomes: ``ok`` or a failure label per attempted unit.
        gates: ``(name, passed, detail)`` correctness checks.
        peak_rss_mb: peak resident set of the measured process(es).
        timings: further named timings (e.g. the service's cache hits).
        per_layer: per-layer metrics (traced runs).
        not_measured: per-layer metric -> why this workload cannot give it.
        cache_state: metric -> cold/warm cache state it was measured in.
        inputs: the inputs in the order they ran.
    """

    setup_s: List[float] = field(default_factory=list)
    solve_s: List[float] = field(default_factory=list)
    setup_wall_s: List[float] = field(default_factory=list)
    solve_wall_s: List[float] = field(default_factory=list)
    parts: Dict[str, Dict[str, float]] = field(default_factory=dict)
    outcomes: List[str] = field(default_factory=list)
    gates: List[Tuple[str, bool, str]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    timings: Dict[str, List[float]] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    not_measured: Dict[str, str] = field(default_factory=dict)
    cache_state: Dict[str, str] = field(default_factory=dict)
    inputs: List[str] = field(default_factory=list)
    tracer: Optional[object] = None

    def add_setup(self, wall_s: float, corrected_s: float) -> None:
        self.setup_wall_s.append(wall_s)
        self.setup_s.append(corrected_s)

    def add_solve(self, wall_s: float, corrected_s: float) -> None:
        self.solve_wall_s.append(wall_s)
        self.solve_s.append(corrected_s)

    def gate(self, name: str, passed: bool, detail: str = "") -> bool:
        self.gates.append((name, bool(passed), detail))
        return bool(passed)


def another_unit_fits(start: float, units_done: int, seconds: float) -> bool:
    """Whether one more unit (a pass, a canvas, a job), at the mean
    length of those done since ``start``, still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / units_done <= seconds


def is_binary(mask) -> bool:
    import numpy as np

    return bool(np.all((mask == 0) | (mask == 1)))


def check_metric_name(name: str) -> str:
    """Return ``name`` when it fits the metric grammar, else raise."""
    if not isinstance(name, str) or not METRIC_NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: need [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}")
    return name


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 9)))
    return float(ordered[rank - 1])


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``min_beyond`` samples above
    it, as ``(p, value)``; None when even the median lacks them."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            return p, percentile(values, p)
    return None


def timing(values: Sequence[float]) -> Dict[str, object]:
    """Median, tail percentile and sample count of one timing."""
    if not values:
        return {"n": 0, "p50": None, "tail": None}
    tail = tail_percentile(values)
    return {
        "n": len(values),
        "p50": float(statistics.median(values)),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median, as the acceptance check
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else math.inf,
    }


def tracing_overhead(pairs: Sequence[Tuple[float, float]]) -> float:
    """(traced - untraced) / untraced median over ``(traced, untraced)``
    timings of the same inputs."""
    traced = statistics.median(t for t, _ in pairs)
    plain = statistics.median(u for _, u in pairs)
    return (traced - plain) / plain


# -- quality ------------------------------------------------------------------


def quality_score(pv_band_nm2: float, epe_violations: int, shape_violations: int) -> float:
    """Eq. 22 without its runtime term: 4 PVB + 5000 #EPE + 10000 #shape.

    The runtime term is wall-clock and differs between identical runs,
    so ``ScoreBreakdown.total`` and a job's ``score.total`` are never
    used.
    """
    from repro import constants

    return (
        constants.SCORE_PVB_WEIGHT * pv_band_nm2
        + constants.SCORE_EPE_WEIGHT * epe_violations
        + constants.SCORE_SHAPE_WEIGHT * shape_violations
    )


def quality_of(parts: Dict[str, float]) -> float:
    return quality_score(parts["pv_band_nm2"], parts["epe_violations"], parts["shape_violations"])


def quality_totals(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Summed components and Eq. 22 quality over a run's outputs."""
    parts = list(parts)
    return {
        "quality_score": sum(quality_of(p) for p in parts),
        "pv_band_nm2": sum(p["pv_band_nm2"] for p in parts),
        "epe_violations": sum(p["epe_violations"] for p in parts),
        "shape_violations": sum(p["shape_violations"] for p in parts),
    }


# -- failures -----------------------------------------------------------------


def classify_request(
    record: Optional[Dict[str, object]] = None,
    error: Optional[BaseException] = None,
    expect_cached_from: Optional[str] = None,
) -> str:
    """Outcome of one service request: ``ok`` or the reason it failed.

    A raised 429 is ``rate_limited``, a client-side timeout or a job
    that never settled is ``timeout``, any other raised error is
    ``http_error``; a record not ``DONE`` is ``not_done``, and a
    resubmit that was not a cache hit of ``expect_cached_from`` is
    ``uncached_hit``.
    """
    if error is not None:
        from repro.errors import RateLimitedError

        if isinstance(error, RateLimitedError):
            return "rate_limited"
        if isinstance(error, TimeoutError) or "did not settle" in str(error) or "timed out" in str(error):
            return "timeout"
        return "http_error"
    if record is None or record.get("state") != "DONE":
        return "not_done"
    if expect_cached_from is not None and not (
        record.get("cached") and record.get("cached_from") == expect_cached_from
    ):
        return "uncached_hit"
    return "ok"


def count_failures(outcomes: Iterable[str]) -> Tuple[int, int]:
    """``(attempted, failed)`` over outcome labels; anything but ``ok`` fails."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for o in outcomes if o != "ok")


# -- process and context ------------------------------------------------------


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_context(root: Path, workload: str, why: str, seed: int, trace: bool) -> Dict[str, object]:
    """Where and how a result was measured (recorded in every result)."""
    import numpy
    import scipy

    import repro
    from repro.xp import resolve_spec

    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "trace": trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "scale": "reduced",
        "backend": resolve_spec(),
    }
