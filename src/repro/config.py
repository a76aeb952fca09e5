"""Configuration dataclasses for the lithography stack and the optimizer.

Each config validates its fields on construction and provides a
``paper()`` classmethod returning the exact values used in the MOSAIC
paper (DAC 2014) / ICCAD 2013 contest, plus a ``reduced()`` classmethod
returning a smaller, faster setup suitable for unit tests and CI-scale
benchmarks (coarser pixels, fewer kernels).  The reduced setup preserves
all qualitative behaviour; only resolution and runtime change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from . import constants
from .errors import OpticsError, OptimizationError, ProcessError


def _validated_backend(backend: Optional[str]) -> Optional[str]:
    """Canonicalize an array-backend spec field (None passes through).

    Validates the spec grammar and backend name eagerly — a typo fails at
    config construction with a clear :class:`OpticsError` — without
    importing the backend library, so configs may name torch/cupy on
    machines that lack them (the import error surfaces only when a
    simulator actually requests the backend).
    """
    if backend is None:
        return None
    from .xp import validate_backend_spec  # deferred: xp imports errors only

    return validate_backend_spec(backend)


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid on which masks and images live.

    Attributes:
        shape: (rows, cols) of the pixel grid.
        pixel_nm: physical side length of one pixel in nanometres.
    """

    shape: Tuple[int, int] = (1024, 1024)
    pixel_nm: float = constants.PIXEL_SIZE_NM

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if rows < 8 or cols < 8:
            raise OpticsError(f"grid too small: {self.shape} (need >= 8x8)")
        if self.pixel_nm <= 0:
            raise OpticsError(f"pixel size must be positive, got {self.pixel_nm}")

    @property
    def extent_nm(self) -> Tuple[float, float]:
        """Physical (height, width) of the grid in nanometres."""
        return (self.shape[0] * self.pixel_nm, self.shape[1] * self.pixel_nm)

    def nm_to_px(self, length_nm: float) -> int:
        """Convert a physical length to a whole number of pixels (rounded)."""
        return int(round(length_nm / self.pixel_nm))

    @classmethod
    def for_clip(cls, width_nm: float, height_nm: float, pixel_nm: float) -> "GridSpec":
        """Grid covering a ``width_nm`` x ``height_nm`` window.

        The window must be an exact multiple of the pixel size in both
        directions — tiles near chip edges are rectangular, and a silent
        round would shift every shape in the clipped layout off-grid.
        """
        rows = height_nm / pixel_nm
        cols = width_nm / pixel_nm
        if abs(rows - round(rows)) > 1e-9 or abs(cols - round(cols)) > 1e-9:
            raise OpticsError(
                f"clip {width_nm} x {height_nm} nm is not a whole number of "
                f"{pixel_nm} nm pixels"
            )
        return cls(shape=(int(round(rows)), int(round(cols))), pixel_nm=pixel_nm)

    @classmethod
    def paper(cls) -> "GridSpec":
        """1024 x 1024 px at 1 nm/px, as in the paper."""
        return cls(shape=(1024, 1024), pixel_nm=1.0)

    @classmethod
    def reduced(cls) -> "GridSpec":
        """256 x 256 px at 4 nm/px — same 1024 nm clip, 16x fewer pixels."""
        return cls(shape=(256, 256), pixel_nm=4.0)


@dataclass(frozen=True)
class OpticsConfig:
    """Partially coherent projection-system parameters.

    Attributes:
        wavelength_nm: exposure wavelength (paper: 193 nm).
        numerical_aperture: image-side NA (immersion: 1.35).
        sigma_inner: inner partial-coherence factor of the annular source.
        sigma_outer: outer partial-coherence factor.
        num_kernels: SOCS approximation order h (paper: 24).
        backend: array-backend spec for the numeric core
            (``"numpy"``, ``"numpy:float32"``, ``"torch"``,
            ``"torch:float32"``, ``"cupy"``, ...); ``None`` defers to
            the ``REPRO_ARRAY_BACKEND`` environment variable and then
            the numpy float64 reference.  Unknown specs raise
            :class:`~repro.errors.OpticsError` at construction.
    """

    wavelength_nm: float = constants.WAVELENGTH_NM
    numerical_aperture: float = constants.NUMERICAL_APERTURE
    sigma_inner: float = constants.SIGMA_INNER
    sigma_outer: float = constants.SIGMA_OUTER
    num_kernels: int = constants.NUM_KERNELS
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", _validated_backend(self.backend))
        if self.wavelength_nm <= 0:
            raise OpticsError("wavelength must be positive")
        if self.numerical_aperture <= 0:
            raise OpticsError("numerical aperture must be positive")
        if not 0 <= self.sigma_inner < self.sigma_outer:
            raise OpticsError(
                "annular source needs 0 <= sigma_inner < sigma_outer, got "
                f"({self.sigma_inner}, {self.sigma_outer})"
            )
        if self.sigma_outer > 1.0:
            raise OpticsError("sigma_outer cannot exceed 1.0")
        if self.num_kernels < 1:
            raise OpticsError("need at least one SOCS kernel")

    @property
    def cutoff_frequency(self) -> float:
        """Maximum spatial frequency passed by the system, NA(1+sigma)/lambda."""
        return self.numerical_aperture * (1.0 + self.sigma_outer) / self.wavelength_nm

    @classmethod
    def paper(cls) -> "OpticsConfig":
        return cls()

    @classmethod
    def reduced(cls) -> "OpticsConfig":
        """Fewer kernels for fast tests; imaging physics unchanged."""
        return cls(num_kernels=8)


@dataclass(frozen=True)
class ResistConfig:
    """Resist model parameters (paper Eqs. 3-4, plus optional diffusion).

    Attributes:
        threshold: dose-to-clear threshold th_r on the aerial image.
        theta_z: sigmoid steepness of the differentiable threshold.
        diffusion_nm: Gaussian acid-diffusion length applied to the
            aerial image before thresholding (0 = the paper's pure
            constant-threshold model).
    """

    threshold: float = constants.RESIST_THRESHOLD
    theta_z: float = constants.THETA_Z
    diffusion_nm: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 1:
            raise ProcessError(f"resist threshold must be in (0,1), got {self.threshold}")
        if self.theta_z <= 0:
            raise ProcessError("sigmoid steepness theta_z must be positive")
        if self.diffusion_nm < 0:
            raise ProcessError("diffusion length must be non-negative")

    @classmethod
    def paper(cls) -> "ResistConfig":
        return cls()


@dataclass(frozen=True)
class ProcessConfig:
    """Process-window specification (paper Sec. 4: +/-25 nm defocus, +/-2 % dose)."""

    defocus_range_nm: float = constants.DEFOCUS_RANGE_NM
    dose_range: float = constants.DOSE_RANGE

    def __post_init__(self) -> None:
        if self.defocus_range_nm < 0:
            raise ProcessError("defocus range must be non-negative")
        if not 0 <= self.dose_range < 1:
            raise ProcessError("dose range must be in [0,1)")

    @classmethod
    def paper(cls) -> "ProcessConfig":
        return cls()


@dataclass(frozen=True)
class OptimizerConfig:
    """Gradient-descent settings for Alg. 1.

    Attributes:
        max_iterations: th_iter (paper: 20).
        gradient_rms_tol: th_g, stop when RMS(gradient) falls below (paper: 1e-5).
        step_size: gradient-descent step.
        theta_m: mask-relaxation sigmoid steepness (paper Eq. 8).
        alpha: weight of the design-target term (F_epe or F_id).
        beta: weight of the process-window term F_pvb.
        gamma: image-difference exponent for F_id (paper: 4).
        theta_epe: steepness of the sigmoid EPE-violation indicator.
        use_jump: enable the jump technique (step-size perturbation to
            escape local minima, paper ref [12]).
        jump_period: iterations between jump step-size boosts.
        jump_factor: multiplicative step boost applied on a jump.
        keep_best: return the iterate with the lowest evaluated objective
            (Alg. 1 line 9) rather than the final iterate.
        use_line_search: backtrack the step until the objective decreases
            (the line-search strategy of ref [12]); costs one extra
            forward evaluation per tried step.
        line_search_shrink: step multiplier per backtracking round.
        line_search_max_steps: backtracking rounds before accepting the
            smallest step unconditionally.
        descent_mode: "normalized" (the paper-style max-normalized step)
            or "adam" (adaptive moments, the optimizer modern ILT work
            favours); jump boosts apply to either.  Adam's sign-like
            steps overshoot without a safeguard — pair it with
            ``use_line_search=True`` and a step around 1.0.
        adam_beta1: Adam first-moment decay.
        adam_beta2: Adam second-moment decay.
        backend: array-backend spec for the solver's simulator (see
            :class:`OpticsConfig.backend`); only consulted when the
            solver builds its own simulator.  ``None`` defers to the
            optics config / environment / numpy reference chain.
    """

    max_iterations: int = constants.MAX_ITERATIONS
    gradient_rms_tol: float = constants.GRADIENT_RMS_TOLERANCE
    step_size: float = 12.0
    theta_m: float = constants.THETA_M
    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = constants.GAMMA_FAST
    theta_epe: float = constants.THETA_EPE
    use_jump: bool = True
    jump_period: int = 5
    jump_factor: float = 3.0
    keep_best: bool = True
    use_line_search: bool = False
    line_search_shrink: float = 0.5
    line_search_max_steps: int = 4
    descent_mode: str = "normalized"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", _validated_backend(self.backend))
        if self.max_iterations < 0:
            raise OptimizationError(
                f"max_iterations must be >= 0 (0 = evaluate the seed only), "
                f"got {self.max_iterations}"
            )
        if self.step_size <= 0:
            raise OptimizationError(
                f"step_size must be positive, got {self.step_size}"
            )
        if self.theta_m <= 0:
            raise OptimizationError(
                f"theta_m (mask-relaxation steepness) must be positive, got {self.theta_m}"
            )
        if self.alpha < 0 or self.beta < 0:
            raise OptimizationError(
                f"objective weights must be non-negative, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )
        if self.gamma < 2:
            raise OptimizationError(
                f"gamma must be >= 2 for a differentiable objective, got {self.gamma}"
            )
        if self.jump_period < 1:
            raise OptimizationError(
                f"jump_period must be >= 1 (the jump fires every jump_period "
                f"iterations), got {self.jump_period}"
            )
        if not 0 < self.line_search_shrink < 1:
            raise OptimizationError(
                f"line_search_shrink must be in (0, 1), got {self.line_search_shrink}"
            )
        if self.line_search_max_steps < 1:
            raise OptimizationError(
                f"line_search_max_steps must be >= 1, got {self.line_search_max_steps}"
            )
        if self.descent_mode not in ("normalized", "adam"):
            raise OptimizationError(
                f"descent_mode must be 'normalized' or 'adam', got {self.descent_mode!r}"
            )
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise OptimizationError(
                f"adam decay rates must be in [0, 1), got "
                f"beta1={self.adam_beta1}, beta2={self.adam_beta2}"
            )

    @classmethod
    def paper(cls) -> "OptimizerConfig":
        return cls()

    def with_weights(self, alpha: float, beta: float) -> "OptimizerConfig":
        """Return a copy with different objective weights."""
        return replace(self, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class ObservabilityConfig:
    """What run telemetry to collect (see :mod:`repro.obs`).

    Attributes:
        trace: record hierarchical spans (per-phase time breakdown).
        metrics: record counters/gauges/histograms.
        events_path: JSONL file receiving one event per optimizer
            iteration and run-lifecycle event (None = no event stream).
        timeline: additionally record timestamped span slices for
            Chrome-trace export (requires ``trace``; see
            :mod:`repro.obs.export`).
        verbose: logging verbosity level (0 = warnings, 1 = info,
            2+ = debug), applied by the CLI via ``logging``.

    ``ObservabilityConfig()`` is fully disabled — the no-op default the
    rest of the stack assumes, so timing-sensitive benches pay nothing.
    """

    trace: bool = False
    metrics: bool = False
    events_path: Optional[str] = None
    timeline: bool = False
    verbose: int = 0

    def __post_init__(self) -> None:
        if self.verbose < 0:
            raise ProcessError(f"verbose must be >= 0, got {self.verbose}")

    @property
    def any_enabled(self) -> bool:
        return bool(self.trace or self.metrics or self.events_path)

    @classmethod
    def disabled(cls) -> "ObservabilityConfig":
        return cls()

    @classmethod
    def full(cls, events_path: Optional[str] = None) -> "ObservabilityConfig":
        """Everything on (events only when a path is given)."""
        return cls(trace=True, metrics=True, events_path=events_path)


@dataclass(frozen=True)
class LithoConfig:
    """Bundle of everything the forward simulator needs."""

    grid: GridSpec = field(default_factory=GridSpec)
    optics: OpticsConfig = field(default_factory=OpticsConfig)
    resist: ResistConfig = field(default_factory=ResistConfig)
    process: ProcessConfig = field(default_factory=ProcessConfig)

    @classmethod
    def paper(cls) -> "LithoConfig":
        return cls(
            grid=GridSpec.paper(),
            optics=OpticsConfig.paper(),
            resist=ResistConfig.paper(),
            process=ProcessConfig.paper(),
        )

    @classmethod
    def reduced(cls) -> "LithoConfig":
        """Fast configuration for tests and CI-scale benchmarks."""
        return cls(
            grid=GridSpec.reduced(),
            optics=OpticsConfig.reduced(),
            resist=ResistConfig.paper(),
            process=ProcessConfig.paper(),
        )
