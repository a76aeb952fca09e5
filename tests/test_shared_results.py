"""Tile-job backend-spec validation.

This module once tested the pool's shared-memory tile-result transport.
That transport is gone: pool workers return the solved mask inside the
pickled :class:`~repro.fullchip.scheduler.TileResult`, and the serial ==
pool == queue mask pin lives in ``tests/test_queue_executor.py``.  The
job-validation check below outlived the transport and keeps its id here.
"""

import pytest

from repro.config import GridSpec, LithoConfig, OpticsConfig
from repro.errors import OpticsError
from repro.fullchip import TileJob, build_tile_plan
from repro.geometry.rect import Rect
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0


@pytest.fixture(scope="module")
def fc_litho() -> LithoConfig:
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
    )


class TestJobValidation:
    def test_backend_spec_validated_and_canonicalized(self, fc_litho):
        plan = build_tile_plan(Rect(0, 0, 1024, 1024), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        window = tile.clip_layout(synthetic_canvas(1024.0, 1024.0, seed=2))
        good = TileJob(
            tile=tile, layout=window, litho=fc_litho, backend="numpy:float64"
        )
        assert good.backend == "numpy"
        with pytest.raises(OpticsError):
            TileJob(tile=tile, layout=window, litho=fc_litho, backend="bogus")
