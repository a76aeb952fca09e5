"""Deterministic testing aids: fault injection for the robustness stack.

Tests (and the CI fault-injection lane) use this package to exercise
the recovery, checkpoint, and harness-isolation paths end-to-end
instead of trusting them on faith.  Production code imports one hook
from it: the full-chip tile worker calls
:func:`~repro.testing.faults.fire_tile_fault` before each solve attempt,
which does nothing unless ``REPRO_FULLCHIP_FAULTS`` plans a fault for
that tile.
"""

from .faults import (
    FaultInjector,
    FaultRecord,
    FaultyObjective,
    FaultySolverFactory,
)

__all__ = [
    "FaultInjector",
    "FaultRecord",
    "FaultyObjective",
    "FaultySolverFactory",
]
