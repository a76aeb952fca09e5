"""Deterministic fault injection for the fault-tolerance runtime.

A :class:`FaultInjector` is *armed* with faults that fire at exact,
reproducible points — "corrupt the gradient with NaN on the 5th
evaluation", "raise inside ``solve`` the first time solver X sees layout
Y", "stall that cell for 2 seconds" — and *wired* through the two seams
the stack exposes:

* **Objective seam** — :meth:`FaultInjector.wrap_objective` (or the
  ``objective_transform`` hook on :class:`~repro.opc.mosaic.MosaicSolver`)
  interposes on ``value_and_gradient`` calls, corrupting the returned
  value/gradient at the armed call index.  This drives the optimizer's
  :class:`~repro.opc.recovery.RecoveryPolicy` exactly as a real
  numerical fault would.
* **Harness seam** — :meth:`FaultInjector.wrap_factory` interposes on a
  solver factory, raising or stalling inside ``solve`` for the armed
  (label, layout, attempt) coordinates.  This drives the harness's
  per-cell isolation, retry, and timeout machinery.

Every fired fault is appended to :attr:`FaultInjector.log`, so a test
asserts both that the fault happened *and* that the system recovered
from it.  Nothing here is random: the same arming always produces the
same fault sequence.

Full-chip tile solves can run in other processes (queue worker forks,
``repro worker``), out of an injector's reach, so they take their faults from
the environment instead: the *tile fault plan* in
``REPRO_FULLCHIP_FAULTS`` (:func:`parse_tile_faults`), fired by the
tile worker through :func:`fire_tile_fault`.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import FullChipError, ReproError

__all__ = [
    "FaultInjector",
    "FaultRecord",
    "FaultyObjective",
    "FaultySolverFactory",
    "InjectedFault",
    "TILE_FAULTS_ENV",
    "TileFault",
    "fire_tile_fault",
    "parse_tile_faults",
]

logger = logging.getLogger(__name__)

#: Environment variable holding the tile fault plan: ``;``-separated
#: ``kind@row,col[:arg]`` entries.  Read inside the tile worker, so forked
#: queue workers and hand-launched ``repro worker`` processes inherit it.
TILE_FAULTS_ENV = "REPRO_FULLCHIP_FAULTS"

#: Fault kind -> default argument (None: the kind takes no argument).
_TILE_FAULT_DEFAULTS: Dict[str, Union[int, float, None]] = {
    "fail": None,
    "stall": 3600.0,
    "kill": 3,
}

_TILE_FAULT_GRAMMAR = (
    "'fail@row,col', 'stall@row,col[:seconds]' or 'kill@row,col[:pulses]'"
)


class InjectedFault(ReproError):
    """Default exception raised by an armed solve fault."""


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired."""

    kind: str                 # "gradient" | "value" | "solve_raise" | "solve_stall"
    where: str                # e.g. "call 5" or "fastB2 on B2 attempt 1"
    detail: str = ""


@dataclass
class _GradientFault:
    at_call: int
    mode: str                 # "nan" | "inf" | "value_nan" | "value_blowup"
    fraction: float = 0.01    # fraction of gradient entries corrupted
    blowup_factor: float = 1e9
    fired: bool = False


@dataclass
class _SolveFault:
    label: Optional[str]
    layout_name: Optional[str]
    times: int                # attempts that fail before succeeding
    stall_s: Optional[float]  # None = raise instead of stalling
    error: Optional[Exception]
    fired_count: int = 0

    def matches(self, label: str, layout_name: str) -> bool:
        return (self.label is None or self.label == label) and (
            self.layout_name is None or self.layout_name == layout_name
        )


class FaultInjector:
    """Armable, deterministic fault source for tests.

    Example::

        injector = FaultInjector()
        injector.arm_gradient_fault(at_call=5, mode="nan")
        solver = MosaicFast(config, simulator=sim,
                            objective_transform=injector.wrap_objective)
        result = solver.solve(layout)       # recovery machinery engages
        assert injector.log                 # the fault really fired
    """

    def __init__(self) -> None:
        self.log: List[FaultRecord] = []
        self._gradient_faults: List[_GradientFault] = []
        self._solve_faults: List[_SolveFault] = []

    # -- arming ------------------------------------------------------------

    def arm_gradient_fault(
        self,
        at_call: int,
        mode: str = "nan",
        fraction: float = 0.01,
    ) -> "FaultInjector":
        """Corrupt the gradient returned by the ``at_call``-th (0-based)
        ``value_and_gradient`` evaluation with NaN (``mode="nan"``) or
        Inf (``mode="inf"``) in ``fraction`` of its entries.  One-shot:
        the fault disarms after firing, so the optimizer's retry of the
        iteration sees a clean evaluation.
        """
        if mode not in ("nan", "inf"):
            raise ReproError(f"gradient fault mode must be 'nan' or 'inf', got {mode!r}")
        self._gradient_faults.append(
            _GradientFault(at_call=at_call, mode=mode, fraction=fraction)
        )
        return self

    def arm_value_fault(
        self,
        at_call: int,
        mode: str = "nan",
        blowup_factor: float = 1e9,
    ) -> "FaultInjector":
        """Corrupt the objective *value* of the ``at_call``-th evaluation:
        ``mode="nan"`` returns NaN, ``mode="blowup"`` multiplies the true
        value by ``blowup_factor`` (exercising restart-from-best).
        One-shot, like :meth:`arm_gradient_fault`.
        """
        if mode not in ("nan", "blowup"):
            raise ReproError(f"value fault mode must be 'nan' or 'blowup', got {mode!r}")
        self._gradient_faults.append(
            _GradientFault(
                at_call=at_call,
                mode="value_nan" if mode == "nan" else "value_blowup",
                blowup_factor=blowup_factor,
            )
        )
        return self

    def arm_solve_fault(
        self,
        label: Optional[str] = None,
        layout_name: Optional[str] = None,
        times: int = 1,
        error: Optional[Exception] = None,
    ) -> "FaultInjector":
        """Raise inside ``solve`` whenever a wrapped factory's solver
        matches ``(label, layout_name)`` — ``None`` matches anything.
        The first ``times`` matching attempts fail (``times=1`` with one
        harness retry yields a ``recovered`` cell); further attempts
        succeed.
        """
        self._solve_faults.append(
            _SolveFault(
                label=label, layout_name=layout_name, times=times,
                stall_s=None, error=error,
            )
        )
        return self

    def arm_solve_stall(
        self,
        seconds: float,
        label: Optional[str] = None,
        layout_name: Optional[str] = None,
        times: int = 1,
    ) -> "FaultInjector":
        """Sleep ``seconds`` inside matching ``solve`` calls before
        delegating — armed past a harness cell budget this drives the
        timeout path deterministically.
        """
        self._solve_faults.append(
            _SolveFault(
                label=label, layout_name=layout_name, times=times,
                stall_s=seconds, error=None,
            )
        )
        return self

    # -- seams -------------------------------------------------------------

    def wrap_objective(self, objective) -> "FaultyObjective":
        """Interpose on an objective (the optimizer-side seam)."""
        return FaultyObjective(objective, self)

    def wrap_factory(
        self, label: str, factory: Callable[[], object]
    ) -> Callable[[], object]:
        """Interpose on a solver factory (the harness-side seam)."""
        return FaultySolverFactory(label, factory, self)

    # -- firing (internal) -------------------------------------------------

    def _fire_gradient(
        self, call_index: int, value: float, gradient: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        for fault in self._gradient_faults:
            if fault.fired or fault.at_call != call_index:
                continue
            fault.fired = True
            if fault.mode in ("nan", "inf"):
                bad = np.nan if fault.mode == "nan" else np.inf
                corrupted = np.array(gradient, dtype=np.float64, copy=True)
                flat = corrupted.reshape(-1)
                count = max(1, int(round(fault.fraction * flat.size)))
                # Deterministic positions: evenly strided through the array.
                stride = max(1, flat.size // count)
                flat[::stride][:count] = bad
                self.log.append(
                    FaultRecord(
                        kind="gradient",
                        where=f"call {call_index}",
                        detail=f"{fault.mode} x{count}",
                    )
                )
                gradient = corrupted
            elif fault.mode == "value_nan":
                self.log.append(
                    FaultRecord(kind="value", where=f"call {call_index}", detail="nan")
                )
                value = float("nan")
            elif fault.mode == "value_blowup":
                self.log.append(
                    FaultRecord(
                        kind="value",
                        where=f"call {call_index}",
                        detail=f"x{fault.blowup_factor:g}",
                    )
                )
                value = value * fault.blowup_factor if value != 0 else fault.blowup_factor
        return value, gradient

    def _fire_solve(self, label: str, layout_name: str) -> None:
        for fault in self._solve_faults:
            if not fault.matches(label, layout_name):
                continue
            if fault.fired_count >= fault.times:
                continue
            fault.fired_count += 1
            where = f"{label} on {layout_name} attempt {fault.fired_count}"
            if fault.stall_s is not None:
                self.log.append(
                    FaultRecord(kind="solve_stall", where=where,
                                detail=f"{fault.stall_s:g}s")
                )
                time.sleep(fault.stall_s)
                return
            error = fault.error or InjectedFault(
                f"injected solve failure: {where}"
            )
            self.log.append(
                FaultRecord(kind="solve_raise", where=where,
                            detail=type(error).__name__)
            )
            raise error


class FaultyObjective:
    """Objective proxy corrupting armed ``value_and_gradient`` calls.

    Delegates everything else (``value``, ``last_term_values``,
    ``required_corners``...) to the wrapped objective, so line searches
    and telemetry behave exactly as they would un-wrapped.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector
        self.calls = 0

    def value_and_gradient(self, ctx):
        value, gradient = self._inner.value_and_gradient(ctx)
        value, gradient = self._injector._fire_gradient(self.calls, value, gradient)
        self.calls += 1
        return value, gradient

    def value(self, ctx):
        return self._inner.value(ctx)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FaultySolverFactory:
    """Factory proxy whose solvers fire armed solve faults first."""

    def __init__(
        self, label: str, factory: Callable[[], object], injector: FaultInjector
    ) -> None:
        self._label = label
        self._factory = factory
        self._injector = injector

    def __call__(self):
        return _FaultySolver(self._label, self._factory(), self._injector)


class _FaultySolver:
    def __init__(self, label: str, inner, injector: FaultInjector) -> None:
        self._label = label
        self._inner = inner
        self._injector = injector

    def solve(self, layout, *args, **kwargs):
        self._injector._fire_solve(self._label, layout.name)
        return self._inner.solve(layout, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass(frozen=True)
class TileFault:
    """One planned tile fault.

    * ``fail`` raises on every attempt.
    * ``stall`` pulses a few heartbeats, then makes no progress for
      ``arg`` seconds (default 3600, effectively forever) and raises,
      so the liveness watchdog is testable without a real hang.
    * ``kill`` pulses ``arg`` heartbeats (default 3), then SIGKILLs its
      own process mid-solve, on the tile's first overall attempt only,
      so a requeued attempt recovers deterministically.
    """

    kind: str
    arg: Union[int, float, None] = None


def parse_tile_faults(spec: str) -> Dict[Tuple[int, int], TileFault]:
    """Parse a ``REPRO_FULLCHIP_FAULTS`` value into a per-tile plan.

    Raises:
        FullChipError: on a malformed entry, naming the variable and
            the entry: an unknown kind, a bad index or argument, an
            argument on ``fail``, or a tile listed twice.
    """
    plan: Dict[Tuple[int, int], TileFault] = {}
    for entry in (part.strip() for part in spec.split(";")):
        if not entry:
            continue
        kind, _, target = entry.partition("@")
        index_part, _, arg_part = target.partition(":")
        try:
            if kind not in _TILE_FAULT_DEFAULTS:
                raise ValueError(f"unknown fault kind {kind!r}")
            row, col = (int(v) for v in index_part.split(","))
            if not arg_part:
                arg = _TILE_FAULT_DEFAULTS[kind]
            elif kind == "fail":
                raise ValueError("fail takes no argument")
            else:
                arg = float(arg_part) if kind == "stall" else int(arg_part)
            if kind == "stall" and not arg > 0:
                raise ValueError("seconds must be positive")
            if kind == "kill" and arg < 0:
                raise ValueError("pulses must be >= 0")
            if (row, col) in plan:
                raise ValueError(f"tile {(row, col)} is already listed")
        except ValueError as exc:
            raise FullChipError(
                f"bad {TILE_FAULTS_ENV} entry {entry!r}: {exc}; "
                f"entries look like {_TILE_FAULT_GRAMMAR}"
            ) from exc
        plan[(row, col)] = TileFault(kind, arg)
    return plan


def _pulse(heartbeat, pulses: int) -> None:
    for iteration in range(pulses):
        if heartbeat is not None:
            heartbeat.beat(phase="optimize", iteration=iteration)
        time.sleep(0.01)


def fire_tile_fault(
    index: Tuple[int, int], attempt: int, heartbeat=None
) -> None:
    """Fire the planned fault of tile ``index``, if any (runs in the worker).

    ``attempt`` is the tile's overall attempt number (1 on the first
    solve, requeued queue generations continue the count); ``heartbeat``
    is the worker's heartbeat writer, pulsed before a stall or a kill so
    the run has seen the tile alive and working.
    """
    spec = os.environ.get(TILE_FAULTS_ENV, "")
    if not spec:
        return
    fault = parse_tile_faults(spec).get(index)
    if fault is None:
        return
    if fault.kind == "fail":
        raise FullChipError(f"injected failure for tile {index}")
    if fault.kind == "kill":
        if attempt != 1:
            return
        _pulse(heartbeat, fault.arg)
        logger.warning("injected kill for tile %s (SIGKILL pid %d)", index, os.getpid())
        os.kill(os.getpid(), signal.SIGKILL)
        return
    # A stall: progress first (arming the watchdog's per-tile track),
    # then silence — the signature of a hung worker — then a failure.
    _pulse(heartbeat, 3)
    logger.warning("injected stall for tile %s (%.1fs)", index, fault.arg)
    deadline = time.monotonic() + fault.arg
    while time.monotonic() < deadline:
        time.sleep(0.05)
    raise FullChipError(
        f"injected stall for tile {index} expired after {fault.arg:.1f}s"
    )
