"""Shared fixtures: configs and prewarmed simulators at test-friendly scales."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import GridSpec, LithoConfig, OpticsConfig, ProcessConfig, ResistConfig
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.litho.simulator import LithographySimulator
from repro.xp import ALL_BACKEND_SPECS, backend_available, get_backend


@pytest.fixture(scope="session", autouse=True)
def isolated_model_cache(tmp_path_factory):
    """Keep the ambit-model disk cache in a per-session temp directory.

    Set in ``os.environ`` so the processes the suite spawns (queue
    workers, CLI runs) share it, and no test reads or writes the
    developer's own ``~/.cache/repro``.
    """
    previous = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg_cache"))
    yield
    if previous is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = previous


@pytest.fixture(scope="session")
def reduced_config() -> LithoConfig:
    """256 px @ 4 nm/px, 8 kernels — the CI-scale configuration."""
    return LithoConfig.reduced()


@pytest.fixture(scope="session")
def tiny_config() -> LithoConfig:
    """64 px @ 16 nm/px, 4 kernels — for gradient checks and fast loops."""
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=16.0),
        optics=OpticsConfig(num_kernels=4),
        resist=ResistConfig(),
        process=ProcessConfig(),
    )


@pytest.fixture(scope="session")
def sim(reduced_config: LithoConfig) -> LithographySimulator:
    """Shared reduced-scale simulator with prewarmed kernels.

    Pinned to the numpy float64 reference backend so the suite's golden
    numbers stay valid even when ``REPRO_ARRAY_BACKEND`` selects another
    backend (the CI float32 lane does exactly that).
    """
    simulator = LithographySimulator(reduced_config, backend="numpy")
    simulator.prewarm()
    return simulator


@pytest.fixture(scope="session")
def tiny_sim(tiny_config: LithoConfig) -> LithographySimulator:
    """Shared tiny simulator for gradient-check tests (numpy reference)."""
    simulator = LithographySimulator(tiny_config, backend="numpy")
    simulator.prewarm()
    return simulator


@pytest.fixture(scope="session", params=ALL_BACKEND_SPECS)
def backend(request):
    """Every registered backend spec; clean skip when the library is absent.

    Cross-backend equivalence tests parametrize over this fixture.  The
    numpy pair always runs; torch/cupy run only where installed.
    """
    spec = request.param
    if not backend_available(spec):
        pytest.skip(f"array backend {spec!r} not installed")
    return get_backend(spec)


@pytest.fixture(scope="session")
def backend_sim(backend, sim, reduced_config) -> LithographySimulator:
    """Reduced-scale simulator on the parametrized backend.

    Shares the reference simulator's kernel cache — kernel sets are
    backend-independent numpy data, read-only after construction — so
    the battery pays for TCC/SOCS builds once per scale, not once per
    backend.
    """
    simulator = LithographySimulator(reduced_config, backend=backend)
    simulator._kernel_cache = sim._kernel_cache
    return simulator


@pytest.fixture(scope="session")
def backend_tiny_sim(backend, tiny_sim, tiny_config) -> LithographySimulator:
    """Tiny simulator on the parametrized backend (shared kernel cache)."""
    simulator = LithographySimulator(tiny_config, backend=backend)
    simulator._kernel_cache = tiny_sim._kernel_cache
    return simulator


@pytest.fixture(scope="session")
def backend_close():
    """Per-dtype comparison: bitwise vs the reference backend, scaled rtol else."""

    def check(actual, reference, backend, what="arrays"):
        actual = np.asarray(actual)
        reference = np.asarray(reference)
        assert actual.shape == reference.shape, f"{what}: shape mismatch"
        if backend.is_reference:
            np.testing.assert_array_equal(actual, reference, err_msg=what)
            return
        rtol = backend.equivalence_rtol
        scale = float(np.max(np.abs(reference))) or 1.0
        np.testing.assert_allclose(
            actual, reference, rtol=rtol, atol=rtol * scale, err_msg=what
        )

    return check


@pytest.fixture()
def square_layout() -> Layout:
    """One 256 x 256 nm square in the clip centre."""
    layout = Layout("square")
    layout.add(Rect(384, 384, 640, 640))
    return layout


@pytest.fixture()
def line_layout() -> Layout:
    """One 500 x 72 nm horizontal line."""
    layout = Layout("line")
    layout.add(Rect(262, 476, 762, 548))
    return layout


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20140601)  # DAC 2014 conference date
