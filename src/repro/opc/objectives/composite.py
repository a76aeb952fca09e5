"""Weighted sums of objectives (paper Eqs. 19-20)."""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import OptimizationError
from ...process.corners import ProcessCorner
from ..state import FocusPlan, ForwardContext
from .base import ImagingObjective, Objective


def _term_name(objective: Objective) -> str:
    """Stable snake_case label for one term, e.g. ``image_difference``."""
    name = type(objective).__name__
    if name.endswith("Objective") and len(name) > len("Objective"):
        name = name[: -len("Objective")]
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name).lower()


class CompositeObjective(Objective):
    """F = sum_i weight_i * F_i, with one shared forward context.

    Per-term values of the latest evaluation are exposed through
    ``last_term_values``, keyed by a stable snake_case term name derived
    from the objective class (``names`` overrides; duplicates get a
    positional suffix).  Per-term evaluation spans are recorded on the
    simulator's tracer when observability is enabled.

    Example:
        >>> # F_fast = alpha * F_id + beta * F_pvb   (paper Eq. 20)
        >>> # composite = CompositeObjective([(alpha, f_id), (beta, f_pvb)])
    """

    def __init__(
        self,
        terms: Sequence[Tuple[float, Objective]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if not terms:
            raise OptimizationError("composite objective needs at least one term")
        for weight, _ in terms:
            if weight < 0:
                raise OptimizationError(f"term weights must be >= 0, got {weight}")
        self.terms: List[Tuple[float, Objective]] = list(terms)
        if names is not None:
            if len(names) != len(self.terms):
                raise OptimizationError(
                    f"got {len(names)} names for {len(self.terms)} terms"
                )
            self.term_names: List[str] = list(names)
        else:
            self.term_names = [_term_name(obj) for _, obj in self.terms]
            # Disambiguate repeated objective types positionally.
            for i, name in enumerate(self.term_names):
                if self.term_names.count(name) > 1:
                    self.term_names[i] = f"{name}_{i}"
        if len(set(self.term_names)) != len(self.term_names):
            raise OptimizationError(f"duplicate term names: {self.term_names}")
        #: Per-term values from the latest evaluation, for logging/history.
        self.last_term_values: Dict[str, float] = {}

    def value_and_gradient(self, ctx: ForwardContext) -> Tuple[float, np.ndarray]:
        return self._evaluate(ctx, gradient=True)

    def value(self, ctx: ForwardContext) -> float:
        """Composite value without dF/dI or the adjoint (line search path)."""
        return self._evaluate(ctx, gradient=False)[0]

    def _evaluate(
        self, ctx: ForwardContext, gradient: bool
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Every term's value, and with ``gradient`` the summed dF/dM.

        The imaging terms' (term, corner) pairs are grouped by focus in
        first-seen order, and each focus runs as one task on the engine
        threads (:meth:`ForwardContext.map_foci`): its fields and
        intensity, every pair's contribution at that focus, the
        dose-combined dF/dI (each ``weight * dF/dI`` in term then corner
        order) and the adjoint up to its support samples.  The calling
        thread then sums each term's values from ``0.0`` in corner
        order, adds the foci's samples in focus order and runs the one
        inverse transform: the same numpy calls on the same operands as
        one thread running everything, so the bits do not depend on the
        thread count.  Other terms run on the calling thread.
        """
        tracer = ctx.sim.obs.tracer
        # (term, position, corner) of every imaging term's corners, by focus.
        corner_values: Dict[int, List[float]] = {}
        pairs: Dict[float, List[Tuple[int, int, ProcessCorner]]] = {}
        for i, (_, objective) in enumerate(self.terms):
            if isinstance(objective, ImagingObjective):
                corners = objective.required_corners(ctx)
                corner_values[i] = [0.0] * len(corners)
                for j, corner in enumerate(corners):
                    pairs.setdefault(float(corner.defocus_nm), []).append((i, j, corner))

        def focus_task(plan: FocusPlan) -> Tuple[List[float], Any]:
            ctx.image_focus(plan)
            values: List[float] = []
            contributions: List[Tuple[ProcessCorner, np.ndarray]] = []
            for i, _, corner in pairs[plan.focus]:
                weight, objective = self.terms[i]
                value, df_di = objective.corner_contribution(ctx, corner, gradient)
                values.append(value)
                if gradient and weight:
                    contributions.append((corner, weight * df_di))
            if not contributions:
                return values, None
            return values, ctx.backproject_focus(plan, contributions)

        results: List[Tuple[List[float], Any]] = []
        plans: List[FocusPlan] = []
        if pairs:
            with tracer.span("focus_tasks"):
                plans = ctx.plan_foci(c for group in pairs.values() for _, _, c in group)
                results = ctx.map_foci(plans, focus_task)
        for plan, (values, _) in zip(plans, results):
            for (i, j, _), value in zip(pairs[plan.focus], values):
                corner_values[i][j] = value

        total = 0.0
        grad = np.zeros_like(ctx.mask) if gradient else None
        self.last_term_values = {}
        for i, (name, (weight, objective)) in enumerate(zip(self.term_names, self.terms)):
            if i in corner_values:
                # A plain loop: sum() compensates float sums on 3.12+.
                value = 0.0
                for corner_value in corner_values[i]:
                    value += corner_value
            else:
                with tracer.span(f"term:{name}"):
                    if gradient:
                        value, g = objective.value_and_gradient(ctx)
                        if weight:
                            grad += weight * g
                    else:
                        value = objective.value(ctx)
            self.last_term_values[name] = value
            if weight:
                total += weight * value
        parts = [(plan, samples) for plan, (_, samples) in zip(plans, results) if samples is not None]
        if parts:
            with tracer.span("adjoint_sum"):
                grad += ctx.sum_adjoints(parts)
        return total, grad
