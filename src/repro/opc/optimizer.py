"""Gradient-descent ILT engine (paper Alg. 1).

The loop:

1. ``M <- initial mask`` (typically target + rule-based SRAFs),
2. ``P <- sig^-1(M) / theta_M`` (unconstrained relaxation, Eq. 8),
3. repeat: evaluate ``F`` and ``dF/dP``, step ``P <- P - step * g``,
   rebuild ``M = sig(theta_M P)``; stop at th_iter iterations or when
   ``RMS(dF/dP) < th_g``;
4. return the iterate with the lowest objective seen (Alg. 1 line 9).

The step is normalized by the gradient's max magnitude, which makes one
``step_size`` work across grids, kernel counts and objective scales.  The
"jump technique" (ref [12]) periodically boosts the step to hop between
local minima of the nonconvex landscape.

The engine is fault tolerant: a :class:`~repro.opc.recovery.RecoveryPolicy`
turns non-finite evaluations and objective blow-ups into bounded
rollback/backoff/restart actions instead of immediate failure, and an
optional :class:`~repro.opc.checkpoint.CheckpointConfig` periodically
freezes the full optimizer state (params, Adam moments, best-so-far,
history) to disk atomically, so an interrupted run resumes
mid-trajectory via ``run(..., resume_from=...)`` with a bit-identical
continuation.  SIGINT (and any ``KeyboardInterrupt`` reaching the loop)
flushes a final checkpoint before propagating.

The engine is instrumented: iteration/objective/line-search spans on the
tracer, ``line_search_backtracks`` / ``jump_activations`` /
``recovery_*`` / ``checkpoints_written`` counters and a gradient-RMS
histogram on the metrics registry, and one JSONL event per iteration
plus run-lifecycle and ``recovery`` / ``checkpoint`` events on the
emitter.  All of it is no-op when the simulator's instrumentation is
disabled (the default).
"""

from __future__ import annotations

import logging
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..config import OptimizerConfig
from ..errors import OptimizationError
from ..litho.simulator import LithographySimulator
from ..mask.mask import binarize
from ..mask.transform import mask_from_params, mask_param_derivative, params_from_mask
from ..obs import Instrumentation
from ..utils.timer import Timer
from .checkpoint import (
    CheckpointConfig,
    OptimizerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .history import IterationRecord, OptimizationHistory
from .objectives.base import Objective
from .recovery import FaultKind, RecoveryPolicy, classify_fault

logger = logging.getLogger(__name__)

#: Guards against division by a vanishing gradient when normalizing steps.
_GRAD_EPS = 1e-12


@dataclass
class OptimizationResult:
    """Output of one ILT run.

    Attributes:
        mask: continuous optimized mask M in (0, 1).
        binary_mask: M binarized at 0.5 — the manufacturable output.
        history: per-iteration trajectory.
        iterations: iterations executed.
        converged: True when the RMS-gradient tolerance stopped the loop.
        best_iteration: iteration whose objective the returned mask had.
        runtime_s: wall-clock seconds of the optimization loop.
        recovered_faults: recovery actions taken during the run (0 for a
            clean run); details are on the metrics/events telemetry.
    """

    mask: np.ndarray
    binary_mask: np.ndarray
    history: OptimizationHistory
    iterations: int
    converged: bool
    best_iteration: int
    runtime_s: float
    recovered_faults: int = 0


class _LoopState:
    """Mutable descent state, separable from the loop for checkpointing."""

    def __init__(self, params: np.ndarray, theta_m: float) -> None:
        self.params = params
        self.mask = mask_from_params(params, theta_m)
        self.adam_m = np.zeros_like(params)
        self.adam_v = np.zeros_like(params)
        self.iteration = 0
        self.step_scale = 1.0
        self.history = OptimizationHistory()
        self.best_value = np.inf
        self.best_params = params.copy()
        self.best_mask = self.mask.copy()
        self.best_iteration = 0

    def load(self, ckpt: OptimizerCheckpoint, theta_m: float) -> None:
        self.params = ckpt.params
        self.mask = mask_from_params(ckpt.params, theta_m)
        self.adam_m = ckpt.adam_m
        self.adam_v = ckpt.adam_v
        self.iteration = ckpt.iteration
        self.step_scale = ckpt.step_scale
        self.history = ckpt.history
        self.best_value = ckpt.best_value
        self.best_params = ckpt.best_params
        self.best_mask = mask_from_params(ckpt.best_params, theta_m)
        self.best_iteration = ckpt.best_iteration


class GradientDescentOptimizer:
    """Runs Alg. 1 for any :class:`Objective`.

    Args:
        sim: forward lithography simulator.
        objective: differentiable objective F(M).
        config: descent hyper-parameters (paper defaults via
            ``OptimizerConfig.paper()``).
        iteration_callback: optional hook ``f(iteration, mask, record)``
            called after each iteration — used by convergence benches to
            attach evaluated metrics to the history.
        obs: optional instrumentation bundle; defaults to the
            simulator's (which itself defaults to disabled).
        recovery: divergence-recovery policy; defaults to
            ``RecoveryPolicy()`` (bounded rollback + step backoff).  Pass
            ``RecoveryPolicy.strict()`` for the legacy raise-on-first-NaN
            contract.
        checkpoint: optional checkpoint configuration; when given the
            run periodically flushes atomic state snapshots and installs
            a SIGINT handler that writes a final checkpoint before the
            interrupt propagates.
    """

    def __init__(
        self,
        sim: LithographySimulator,
        objective: Objective,
        config: Optional[OptimizerConfig] = None,
        iteration_callback: Optional[Callable[[int, np.ndarray, IterationRecord], IterationRecord]] = None,
        obs: Optional[Instrumentation] = None,
        recovery: Optional[RecoveryPolicy] = None,
        checkpoint: Optional[CheckpointConfig] = None,
    ) -> None:
        self.sim = sim
        self.objective = objective
        self.config = config or OptimizerConfig()
        self.iteration_callback = iteration_callback
        self.obs = obs or sim.obs
        self.recovery = recovery or RecoveryPolicy()
        self.checkpoint = checkpoint
        self._interrupted = False

    def _step_size_at(self, iteration: int) -> float:
        cfg = self.config
        step = cfg.step_size
        if cfg.use_jump and iteration > 0 and iteration % cfg.jump_period == 0:
            step *= cfg.jump_factor
            self.obs.metrics.counter("jump_activations").inc()
        return step

    def _line_search(
        self,
        params: np.ndarray,
        direction: np.ndarray,
        step: float,
        current_value: float,
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Backtracking line search (ref [12]): shrink the step until the
        objective decreases, accepting the smallest step if nothing does.

        Returns:
            ``(params, mask, accepted_step)`` — the accepted iterate and
            the step size actually taken after backtracking.
        """
        cfg = self.config
        backtracks = self.obs.metrics.counter("line_search_backtracks")
        trial_params = params - step * direction
        trial_mask = mask_from_params(trial_params, cfg.theta_m)
        for _ in range(cfg.line_search_max_steps - 1):
            trial_value = self.objective.value(self.sim.context(trial_mask))
            if trial_value < current_value:
                break
            backtracks.inc()
            step *= cfg.line_search_shrink
            trial_params = params - step * direction
            trial_mask = mask_from_params(trial_params, cfg.theta_m)
        return trial_params, trial_mask, step

    # -- checkpointing -----------------------------------------------------

    def _checkpoint_state(self, state: _LoopState) -> OptimizerCheckpoint:
        """Freeze a copy of the committed loop state for serialization."""
        return OptimizerCheckpoint(
            iteration=state.iteration,
            params=state.params.copy(),
            adam_m=state.adam_m.copy(),
            adam_v=state.adam_v.copy(),
            best_params=state.best_params.copy(),
            best_value=float(state.best_value),
            best_iteration=state.best_iteration,
            step_scale=state.step_scale,
            history=OptimizationHistory(records=list(state.history.records)),
            theta_m=self.config.theta_m,
            grid_shape=tuple(self.sim.grid.shape),
        )

    def _flush_checkpoint(
        self, frozen: Optional[OptimizerCheckpoint], reason: str
    ) -> Optional[Path]:
        """Write one checkpoint (if checkpointing is configured)."""
        if self.checkpoint is None or frozen is None:
            return None
        path = save_checkpoint(self.checkpoint, frozen)
        self.obs.metrics.counter("checkpoints_written").inc()
        self.obs.events.emit(
            "checkpoint",
            iteration=frozen.iteration,
            path=str(path),
            reason=reason,
        )
        logger.info("checkpoint at iteration %d -> %s (%s)",
                    frozen.iteration, path, reason)
        return path

    def _resolve_resume(
        self, resume_from: Union[str, Path, OptimizerCheckpoint, None]
    ) -> Optional[OptimizerCheckpoint]:
        if resume_from is None:
            return None
        if isinstance(resume_from, OptimizerCheckpoint):
            ckpt = resume_from
        else:
            ckpt = load_checkpoint(resume_from)
        ckpt.validate_against(tuple(self.sim.grid.shape), self.config.theta_m)
        if ckpt.iteration > self.config.max_iterations:
            raise OptimizationError(
                f"checkpoint is at iteration {ckpt.iteration} but "
                f"max_iterations={self.config.max_iterations}; nothing to resume"
            )
        return ckpt

    # -- recovery ----------------------------------------------------------

    def _recover(
        self,
        state: _LoopState,
        last_good: Tuple[np.ndarray, np.ndarray, np.ndarray],
        fault: str,
        value: float,
        consecutive_failures: int,
    ) -> None:
        """React to one classified fault by mutating ``state`` in place.

        Rollback restores the last good ``(params, Adam moments)``
        snapshot; blow-up restarts from the best iterate with fresh Adam
        moments.  Both back off the global step scale.  The caller
        re-runs the iteration from the repaired state.

        Raises:
            OptimizationError: when the retry budget is exhausted.
        """
        policy = self.recovery
        obs = self.obs
        if consecutive_failures >= policy.max_retries:
            obs.events.emit(
                "recovery",
                action="exhausted",
                reason=fault,
                iteration=state.iteration,
                retries_used=consecutive_failures,
            )
            raise OptimizationError(
                f"{fault} at iteration {state.iteration}: recovery exhausted "
                f"after {consecutive_failures} attempt(s) "
                f"(max_retries={policy.max_retries})"
            )
        old_scale = state.step_scale
        state.step_scale = policy.backed_off(state.step_scale)
        obs.metrics.counter("recovery_step_backoffs").inc()

        if fault == FaultKind.OBJECTIVE_BLOWUP:
            # Descending further into a divergent basin is pointless;
            # restart from the best iterate with fresh Adam moments.
            state.params = state.best_params.copy()
            state.adam_m = np.zeros_like(state.params)
            state.adam_v = np.zeros_like(state.params)
            action = "restart_from_best"
            obs.metrics.counter("recovery_restarts").inc()
        else:
            good_params, good_m, good_v = last_good
            state.params = good_params.copy()
            state.adam_m = good_m.copy()
            state.adam_v = good_v.copy()
            action = "rollback"
            obs.metrics.counter("recovery_rollbacks").inc()
        state.mask = mask_from_params(state.params, self.config.theta_m)

        obs.events.emit(
            "recovery",
            action=action,
            reason=fault,
            iteration=state.iteration,
            objective=value if np.isfinite(value) else None,
            step_scale_before=old_scale,
            step_scale_after=state.step_scale,
            retries_used=consecutive_failures + 1,
        )
        logger.warning(
            "recovery at iteration %d: %s (%s), step scale %.4g -> %.4g",
            state.iteration, action, fault, old_scale, state.step_scale,
        )

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        initial_mask: np.ndarray,
        resume_from: Union[str, Path, OptimizerCheckpoint, None] = None,
    ) -> OptimizationResult:
        """Optimize starting from ``initial_mask`` (binary or continuous).

        Args:
            initial_mask: the optimizer seed (ignored for the trajectory
                when ``resume_from`` is given, but still shape-checked).
            resume_from: a checkpoint file, a checkpoint directory (the
                newest checkpoint is used), or a loaded
                :class:`OptimizerCheckpoint` — the run continues
                mid-trajectory from its state and reproduces the
                uninterrupted run exactly.
        """
        cfg = self.config
        obs = self.obs
        policy = self.recovery
        initial_mask = np.asarray(initial_mask, dtype=np.float64)
        if initial_mask.shape != self.sim.grid.shape:
            raise OptimizationError(
                f"initial mask {initial_mask.shape} != grid {self.sim.grid.shape}"
            )
        state = _LoopState(params_from_mask(initial_mask, cfg.theta_m), cfg.theta_m)
        resumed = self._resolve_resume(resume_from)
        if resumed is not None:
            state.load(resumed, cfg.theta_m)
            obs.events.emit(
                "resume",
                iteration=state.iteration,
                best_objective=state.best_value,
                step_scale=state.step_scale,
            )
            logger.info("resuming at iteration %d (best F=%.6g)",
                        state.iteration, state.best_value)

        history = state.history
        converged = False
        recovered_faults = 0
        consecutive_failures = 0
        # Snapshot of the last successfully *evaluated* iterate (params +
        # pre-update Adam moments): the rollback target.
        last_good = (state.params.copy(), state.adam_m.copy(), state.adam_v.copy())
        # Last committed inter-iteration state (what checkpoints write).
        frozen: Optional[OptimizerCheckpoint] = (
            self._checkpoint_state(state) if self.checkpoint is not None else None
        )

        obs.events.emit(
            "run_start",
            grid_shape=list(self.sim.grid.shape),
            max_iterations=cfg.max_iterations,
            descent_mode=cfg.descent_mode,
            use_line_search=cfg.use_line_search,
            resumed_at=state.iteration if resumed is not None else None,
        )
        obs.heartbeat.beat(phase="setup", iteration=state.iteration)
        rms_hist = obs.metrics.histogram("gradient_rms")
        iterations_total = obs.metrics.counter("iterations_total")
        # Register the loop counters up front so a metrics dump always
        # carries them, even when the run never backtracks, jumps, faults
        # or checkpoints.
        obs.metrics.counter("line_search_backtracks")
        obs.metrics.counter("jump_activations")
        obs.metrics.counter("recovery_rollbacks")
        obs.metrics.counter("recovery_step_backoffs")
        obs.metrics.counter("recovery_restarts")
        obs.metrics.counter("recovery_sanitized_gradients")
        if self.checkpoint is not None:
            obs.metrics.counter("checkpoints_written")

        self._interrupted = False
        previous_handler: Optional[object] = None
        install_handler = (
            self.checkpoint is not None
            and threading.current_thread() is threading.main_thread()
        )
        if install_handler:
            def _on_sigint(signum, frame):  # pragma: no cover - signal path
                self._interrupted = True
            previous_handler = signal.signal(signal.SIGINT, _on_sigint)

        try:
            with Timer() as timer, obs.tracer.span("optimize"):
                while state.iteration < cfg.max_iterations:
                    iteration = state.iteration
                    with obs.tracer.span("iteration"):
                        ctx = self.sim.context(state.mask)
                        with obs.tracer.span("objective"):
                            value, grad_mask = self.objective.value_and_gradient(ctx)

                        if not policy.enabled:
                            if not np.isfinite(value) or not np.all(np.isfinite(grad_mask)):
                                raise OptimizationError(
                                    f"non-finite objective/gradient at iteration {iteration}"
                                )
                        else:
                            fault = classify_fault(
                                value, grad_mask, state.best_value, policy
                            )
                            if fault is not None:
                                if (
                                    fault == FaultKind.NONFINITE_GRADIENT
                                    and policy.nonfinite_action == "sanitize"
                                ):
                                    if consecutive_failures >= policy.max_retries:
                                        raise OptimizationError(
                                            f"{fault} at iteration {iteration}: recovery "
                                            f"exhausted after {consecutive_failures} "
                                            f"attempt(s) (max_retries={policy.max_retries})"
                                        )
                                    grad_mask = policy.sanitize_gradient(grad_mask)
                                    obs.metrics.counter(
                                        "recovery_sanitized_gradients"
                                    ).inc()
                                    obs.events.emit(
                                        "recovery",
                                        action="sanitize_gradient",
                                        reason=fault,
                                        iteration=iteration,
                                        retries_used=consecutive_failures + 1,
                                    )
                                    consecutive_failures += 1
                                    recovered_faults += 1
                                    # Fall through: the repaired gradient
                                    # drives a normal descent step.
                                else:
                                    self._recover(
                                        state, last_good, fault, value,
                                        consecutive_failures,
                                    )
                                    consecutive_failures += 1
                                    recovered_faults += 1
                                    continue  # retry this iteration index
                            else:
                                consecutive_failures = 0

                        grad_params = grad_mask * mask_param_derivative(
                            state.mask, cfg.theta_m
                        )
                        rms = float(np.sqrt(np.mean(grad_params**2)))
                        step = self._step_size_at(iteration) * state.step_scale
                        iterations_total.inc()
                        rms_hist.observe(rms)

                        # Capture per-term values now: a line search
                        # re-evaluates the composite and would overwrite
                        # them.  Duck-typed so objective wrappers (fault
                        # injection, adapters) keep the telemetry flowing.
                        last_terms = getattr(self.objective, "last_term_values", None)
                        term_values = dict(last_terms) if last_terms else {}
                        current_mask = state.mask
                        converged = rms < cfg.gradient_rms_tol
                        accepted_step = step

                        # The rollback target: this iterate evaluated finite.
                        last_good = (
                            state.params.copy(),
                            state.adam_m.copy(),
                            state.adam_v.copy(),
                        )

                        if not converged:
                            if cfg.descent_mode == "adam":
                                # Adaptive-moment direction.  Adam's per-pixel
                                # normalization turns noise-scale gradients into
                                # full-size steps, so pixels whose raw gradient is
                                # negligible (< 0.1% of the max) are gated out —
                                # otherwise the background fills with mask texture.
                                state.adam_m = (
                                    cfg.adam_beta1 * state.adam_m
                                    + (1 - cfg.adam_beta1) * grad_params
                                )
                                state.adam_v = (
                                    cfg.adam_beta2 * state.adam_v
                                    + (1 - cfg.adam_beta2) * grad_params**2
                                )
                                m_hat = state.adam_m / (1 - cfg.adam_beta1 ** (iteration + 1))
                                v_hat = state.adam_v / (1 - cfg.adam_beta2 ** (iteration + 1))
                                direction = m_hat / (np.sqrt(v_hat) + _GRAD_EPS)
                                gate = np.abs(grad_params) > 1e-3 * float(
                                    np.max(np.abs(grad_params))
                                )
                                direction = direction * gate
                                direction /= max(float(np.max(np.abs(direction))), 1.0)
                            else:
                                # Paper-style max-normalized step: scale-free across
                                # objectives.
                                max_grad = float(np.max(np.abs(grad_params)))
                                direction = grad_params / (max_grad + _GRAD_EPS)
                            if cfg.use_line_search:
                                with obs.tracer.span("line_search"):
                                    state.params, state.mask, accepted_step = (
                                        self._line_search(
                                            state.params, direction, step, value
                                        )
                                    )
                            else:
                                state.params = state.params - step * direction
                                state.mask = mask_from_params(state.params, cfg.theta_m)

                        record = IterationRecord(
                            iteration=iteration,
                            objective=value,
                            gradient_rms=rms,
                            step_size=accepted_step,
                            term_values=term_values,
                        )
                        if self.iteration_callback is not None:
                            record = self.iteration_callback(
                                iteration, current_mask, record
                            )
                        history.append(record)
                        obs.events.emit(**record.to_event())
                        obs.heartbeat.beat(
                            phase="optimize",
                            iteration=iteration,
                            objective=value if np.isfinite(value) else None,
                        )
                        logger.debug(
                            "iteration %d: F=%.6g rms=%.3g step=%.3g",
                            iteration, value, rms, accepted_step,
                        )

                        if value < state.best_value:
                            state.best_value = value
                            state.best_params = last_good[0]
                            state.best_mask = current_mask.copy()
                            state.best_iteration = iteration

                    state.iteration = iteration + 1
                    if self.checkpoint is not None:
                        frozen = self._checkpoint_state(state)
                        if state.iteration % self.checkpoint.every == 0:
                            self._flush_checkpoint(frozen, reason="periodic")
                    if self._interrupted:
                        self._flush_checkpoint(frozen, reason="sigint")
                        obs.events.emit("interrupted", iteration=state.iteration)
                        raise KeyboardInterrupt

                    if converged:
                        break

                # Consider the final iterate too (the loop records pre-update
                # values).
                obs.heartbeat.beat(phase="final_eval", iteration=state.iteration)
                with obs.tracer.span("final_eval"):
                    final_ctx = self.sim.context(state.mask)
                    final_value = self.objective.value(final_ctx)
                best_value = state.best_value
                best_mask = state.best_mask
                best_iteration = state.best_iteration
                if not cfg.keep_best or final_value < best_value:
                    best_value = final_value
                    best_mask = state.mask
                    best_iteration = len(history)
        except KeyboardInterrupt:
            # An interrupt that bypassed the cooperative flag (delivered
            # mid-iteration from a callback, or with no handler installed)
            # still flushes the last committed state before propagating.
            if not self._interrupted:
                self._flush_checkpoint(frozen, reason="interrupt")
                obs.events.emit(
                    "interrupted",
                    iteration=frozen.iteration if frozen is not None else None,
                )
            raise
        finally:
            if install_handler:
                signal.signal(signal.SIGINT, previous_handler)

        obs.metrics.gauge("best_objective").set(best_value)
        obs.events.emit(
            "run_end",
            iterations=len(history),
            converged=converged,
            best_iteration=best_iteration,
            best_objective=best_value,
            runtime_s=timer.elapsed,
            recovered_faults=recovered_faults,
        )
        logger.info(
            "optimization finished: %d iterations, converged=%s, best F=%.6g "
            "at iteration %d (%.2f s, %d recovered fault(s))",
            len(history), converged, best_value, best_iteration, timer.elapsed,
            recovered_faults,
        )
        return OptimizationResult(
            mask=best_mask,
            binary_mask=binarize(best_mask),
            history=history,
            iterations=len(history),
            converged=converged,
            best_iteration=best_iteration,
            runtime_s=timer.elapsed,
            recovered_faults=recovered_faults,
        )
