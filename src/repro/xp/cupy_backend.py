"""CuPy adapter for the array-API seam (CUDA device arrays).

Imported lazily by the registry; raises ``ImportError`` when cupy is not
installed (translated into :class:`~repro.errors.OpticsError`).  CuPy
mirrors the numpy API closely — including single-precision FFTs, which
``numpy.fft`` itself lacks — so this adapter is a thin dispatch layer.
"""

from __future__ import annotations

from typing import Any, Tuple

import cupy as cp
import numpy as np

from .base import ArrayBackend, into


class CupyBackend(ArrayBackend):
    """CuPy device arrays at either precision."""

    name = "cupy"

    # -- array construction / crossing ------------------------------------

    def _dtype_for(self, kind: str):
        if kind == "index":
            return cp.intp
        return self.float_dtype if kind == "float" else self.complex_dtype

    def asarray(self, x: Any, kind: str = "float") -> Any:
        return cp.asarray(x, dtype=self._dtype_for(kind))

    def to_numpy(self, x: Any) -> np.ndarray:
        return cp.asnumpy(x)

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        return cp.zeros(shape, dtype=self._dtype_for(kind))

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        return cp.empty(shape, dtype=self._dtype_for(kind))

    # -- transforms --------------------------------------------------------

    def fft2(self, x: Any, out: Any = None) -> Any:
        return into(cp.fft.fft2(x, axes=(-2, -1)), out)

    def ifft2(self, x: Any, out: Any = None) -> Any:
        return into(cp.fft.ifft2(x, axes=(-2, -1)), out)

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        return into(cp.fft.fft(x, axis=axis), out)

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        return into(cp.fft.ifft(x, axis=axis), out)

    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> Any:
        return into(cp.einsum(subscripts, *operands), out)

    # -- elementwise -------------------------------------------------------

    def conj(self, x: Any) -> Any:
        return cp.conj(x)

    def real(self, x: Any) -> Any:
        return cp.real(x)

    def abs(self, x: Any, out: Any = None) -> Any:
        return into(cp.abs(x), out)

    def exp(self, x: Any) -> Any:
        return cp.exp(x)

    def log(self, x: Any) -> Any:
        return cp.log(x)

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        return cp.clip(x, lo, hi)

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return cp.where(cond, a, b)
