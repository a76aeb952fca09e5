"""Central finite-difference validation of the analytic objective gradients.

For each MOSAIC data term (F_epe, F_id with gamma=4, F_pvb) the analytic
dF/dM is compared against the central difference

    (F(M + eps e_i) - F(M - eps e_i)) / (2 eps)

at the ~20 pixels where the gradient is largest, on a structured random
mask at ``LithoConfig.reduced()`` scale.  The central scheme's
truncation error is O(eps^2), so with eps = 1e-6 the agreement floor
sits far below the 1e-4 relative tolerance asserted here.

The check is parametrized over every registered array backend.  Finite
differences with eps = 1e-6 are meaningless below float32 resolution,
so single-precision backends are instead held to the analytic gradient
of the numpy float64 reference within the float32 gate — the float64
reference itself is what the FD probes validate.
"""

import numpy as np
import pytest

from repro.geometry.raster import rasterize_layout
from repro.opc.objectives import (
    EPEObjective,
    ImageDifferenceObjective,
    PVBandObjective,
)

EPS = 1e-6
REL_TOL = 1e-4
NUM_PIXELS = 20
# Float32 forward/adjoint noise, relative to the gradient's peak.  The
# gate is looser than the 1e-5 forward-image gate because the adjoint
# chains two more FFTs and the objective chain rules through the resist
# sigmoid.
FLOAT32_GRAD_RTOL = 1e-4


@pytest.fixture(scope="module")
def fd_setup(sim, rng_module):
    """Structured random mask + rasterized target at reduced scale."""
    from repro.geometry.layout import Layout
    from repro.geometry.rect import Rect

    layout = Layout("fd_square")
    layout.add(Rect(384, 384, 640, 640))
    target = rasterize_layout(layout, sim.grid).astype(np.float64)
    mask = np.clip(
        0.8 * target + 0.1 + 0.05 * rng_module.standard_normal(target.shape),
        0.05,
        0.95,
    )
    return layout, target, mask


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(20140601)


def objective_for(name, sim, layout, target):
    if name == "epe":
        return EPEObjective(target, layout, sim.grid)
    if name == "image_diff":
        return ImageDifferenceObjective(target, gamma=4)
    if name == "pvband":
        return PVBandObjective(target)
    raise ValueError(name)


def check_gradient(sim, objective, mask):
    _, grad = objective.value_and_gradient(sim.context(mask))

    # Probe where the gradient is largest: relative error is meaningful
    # there, and any systematic adjoint bug must show up at the peaks.
    flat = np.argsort(np.abs(grad).ravel())[::-1][:NUM_PIXELS]
    pixels = np.unravel_index(flat, mask.shape)

    worst = 0.0
    for row, col in zip(*pixels):
        plus = mask.copy()
        plus[row, col] += EPS
        minus = mask.copy()
        minus[row, col] -= EPS
        fd = (
            objective.value(sim.context(plus))
            - objective.value(sim.context(minus))
        ) / (2.0 * EPS)
        rel = abs(fd - grad[row, col]) / max(abs(fd), abs(grad[row, col]))
        worst = max(worst, rel)
    assert worst < REL_TOL, f"worst relative FD error {worst:.3e}"


def check_gradient_vs_reference(backend_sim, ref_sim, objective_name,
                                layout, target, mask):
    """Float32 path: analytic gradient vs the float64 reference gradient."""
    objective = objective_for(objective_name, backend_sim, layout, target)
    _, grad = objective.value_and_gradient(backend_sim.context(mask))
    reference_objective = objective_for(objective_name, ref_sim, layout, target)
    _, reference = reference_objective.value_and_gradient(ref_sim.context(mask))
    scale = np.max(np.abs(reference))
    assert np.allclose(
        grad, reference, rtol=FLOAT32_GRAD_RTOL, atol=FLOAT32_GRAD_RTOL * scale
    ), f"float32 gradient deviates from float64 reference for {objective_name}"


@pytest.mark.parametrize("name", ["epe", "image_diff", "pvband"])
def test_analytic_gradient_matches_finite_differences(
    sim, backend_sim, backend, fd_setup, name
):
    layout, target, mask = fd_setup
    if backend.precision == "float64":
        objective = objective_for(name, backend_sim, layout, target)
        check_gradient(backend_sim, objective, mask)
    else:
        check_gradient_vs_reference(backend_sim, sim, name, layout, target, mask)
