"""Partially coherent optical projection modelling (paper Sec. 2, Eqs. 1-2).

The Hopkins diffraction model is approximated by a sum of coherent systems
(SOCS): the Transmission Cross Coefficient operator is built from a
parameterized source and pupil, then eigendecomposed into ``h`` coherent
kernels with weights (paper uses h = 24).  The aerial image is

    I(x, y) = sum_k  w_k * | M (*) h_k |^2 .

Kernels are synthesized from first principles here because the ICCAD-2013
contest kernel data files are not redistributable; see DESIGN.md §3.
"""

from .pupil import pupil_values, defocus_phase
from .source import AnnularSource, CircularSource, QuadrupoleSource, SourcePoint
from .tcc import (
    FrequencySupport,
    build_amplitude_matrix,
    build_frequency_support,
    dense_frequency_support,
    tcc_matrix,
)
from .kernels import SOCSKernels, build_socs_kernels, common_grid_shape
from .hopkins import (
    ForwardCache,
    ForwardCacheInfo,
    accumulate_backprojection,
    aerial_image,
    backproject_fields,
    batched_field_stacks,
    field_stack,
)
from .abbe import AbbeImager

__all__ = [
    "AbbeImager",
    "pupil_values",
    "defocus_phase",
    "AnnularSource",
    "CircularSource",
    "QuadrupoleSource",
    "SourcePoint",
    "FrequencySupport",
    "build_frequency_support",
    "dense_frequency_support",
    "build_amplitude_matrix",
    "tcc_matrix",
    "SOCSKernels",
    "build_socs_kernels",
    "common_grid_shape",
    "ForwardCache",
    "ForwardCacheInfo",
    "accumulate_backprojection",
    "aerial_image",
    "batched_field_stacks",
    "field_stack",
    "backproject_fields",
]
