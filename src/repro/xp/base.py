"""The array-API seam: the `ArrayBackend` contract and shared helpers.

The hot numeric core (Hopkins forward/adjoint FFT stack, sigmoid mask
transforms, :class:`~repro.optics.hopkins.ForwardCache`) is written
against this small protocol instead of ``numpy`` directly, so the same
code runs on numpy (the reference), CuPy, or torch arrays.  A backend
bundles three things:

* an **array library** (``numpy`` / ``cupy`` / ``torch``) supplying the
  FFTs, einsum and elementwise kernels;
* a **dtype policy** (``float64``/``complex128`` or
  ``float32``/``complex64``) applied by :meth:`ArrayBackend.asarray`;
* a **device-side kernel cache** (:meth:`ArrayBackend.kernel_data`):
  SOCS spectra, weights, and support index arrays (none for a dense
  support) converted once per kernel set and reused across every
  forward/adjoint call — the "FFT-plan/workspace reuse" half of the
  seam.  An entry is dropped when its kernel set dies.

Equivalence contract (enforced by ``tests/test_backend_seam.py`` and the
backend-parametrized equivalence suites):

* ``numpy``/``float64`` is the *reference*: it must execute the same
  numpy calls as the legacy code and reproduce it **bitwise**
  (``equivalence_rtol == 0``).
* other float64 backends must agree to ~1e-12 relative (FFT
  implementations differ in summation order, nothing more);
* float32 backends must agree to ``<= 1e-5`` relative on forward images
  (the float32 A/B gate, see CONTRIBUTING).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import OpticsError

T = TypeVar("T")

#: Precisions a backend spec may request.
PRECISIONS = ("float64", "float32")

#: Relative tolerance of the float32 A/B gate on forward images.
FLOAT32_FORWARD_RTOL = 1e-5

#: Relative tolerance allowed between float64 backends that are not the
#: numpy reference (different FFT libraries reorder the summation).
FLOAT64_CROSS_RTOL = 1e-12


@dataclass
class DeviceKernelData:
    """A SOCS kernel set converted to one backend's arrays, cached.

    Attributes:
        weights: real eigenvalue weights ``(h,)`` at the policy dtype.
        spectra: complex kernel spectra ``(h, support_size)``.
        rows / cols: support index arrays in the backend's index type;
            None for a dense support, which is addressed by reshaping.
    """

    weights: Any
    spectra: Any
    rows: Any
    cols: Any


def into(result: Any, out: Any) -> Any:
    """``result``, or ``out`` holding a copy of it when ``out`` is given.

    The ``out=`` form of a method whose library call cannot write into
    a given array: the call runs as it would without ``out``.
    """
    if out is None:
        return result
    out[...] = result
    return out


class ArrayBackend:
    """Contract every array backend implements.

    Subclasses provide the array library calls; this base class carries
    the dtype policy, the tolerance ladder, and the per-kernel-set device
    cache.  All methods accept and return *backend-native* arrays except
    :meth:`asarray` (numpy in) and :meth:`to_numpy` (numpy out), which
    are the only crossing points.
    """

    #: Library name: ``"numpy"`` / ``"cupy"`` / ``"torch"``.
    name: str = "abstract"

    def __init__(self, precision: str = "float64") -> None:
        if precision not in PRECISIONS:
            raise OpticsError(
                f"unknown backend precision {precision!r}; expected one of {PRECISIONS}"
            )
        self.precision = precision
        self._kernel_data: Dict[int, Tuple[weakref.ref, DeviceKernelData]] = {}

    # -- identity / policy -------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical spec string (``"numpy"``, ``"torch:float32"``, ...)."""
        return self.name if self.precision == "float64" else f"{self.name}:{self.precision}"

    @property
    def float_dtype(self) -> np.dtype:
        """Numpy dtype describing the real policy dtype."""
        return np.dtype(np.float64 if self.precision == "float64" else np.float32)

    @property
    def complex_dtype(self) -> np.dtype:
        """Numpy dtype describing the complex policy dtype."""
        return np.dtype(np.complex128 if self.precision == "float64" else np.complex64)

    @property
    def is_reference(self) -> bool:
        """True for the bitwise-reference backend (numpy float64)."""
        return self.name == "numpy" and self.precision == "float64"

    @property
    def fft_threads(self) -> int:
        """Threads one transform or engine stage may split across (1 = the caller's)."""
        return 1

    @property
    def equivalence_rtol(self) -> float:
        """Per-dtype tolerance vs the numpy reference (0.0 == bitwise)."""
        if self.is_reference:
            return 0.0
        if self.precision == "float64":
            return FLOAT64_CROSS_RTOL
        return FLOAT32_FORWARD_RTOL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec}>"

    # -- array construction / crossing ------------------------------------

    def asarray(self, x: Any, kind: str = "float") -> Any:
        """Convert ``x`` (numpy or native) to a native array of ``kind``.

        ``kind`` is ``"float"``, ``"complex"`` or ``"index"`` (integer
        arrays used for advanced indexing).
        """
        raise NotImplementedError

    def to_numpy(self, x: Any) -> np.ndarray:
        """Native array back to numpy (host memory, policy dtype kept)."""
        raise NotImplementedError

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        raise NotImplementedError

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        raise NotImplementedError

    # -- transforms --------------------------------------------------------
    #
    # Every transform and ``out=`` method returns its result; given
    # ``out`` (a native array of the result's shape, which may be the
    # input itself), it writes the result there and returns ``out``.

    def fft2(self, x: Any, out: Any = None) -> Any:
        """2-D FFT over the last two axes (batched over leading axes)."""
        raise NotImplementedError

    def ifft2(self, x: Any, out: Any = None) -> Any:
        raise NotImplementedError

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        raise NotImplementedError

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        raise NotImplementedError

    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> Any:
        raise NotImplementedError

    # -- engine stages -----------------------------------------------------

    def map_chunks(self, fn: Callable[[int, int], None], n: int, points: int) -> None:
        """Run ``fn(lo, hi)`` over the index range ``[0, n)``.

        ``fn`` covers ``[lo, hi)`` of one axis of an engine stage and
        writes only that part of its output, so disjoint ranges may run
        at once.  ``points`` is the size of the whole stage.  Returns
        once every chunk has run.  This base runs ``fn(0, n)`` once on
        the calling thread; a backend with a thread pool may cut the
        range into contiguous chunks.
        """
        fn(0, n)

    def map_tasks(self, tasks: Sequence[Callable[[], T]], points: int) -> List[T]:
        """Run each of ``tasks`` once and return their results in order.

        ``points`` is the size of the work the tasks hold together.
        This base runs them in order on the calling thread; a backend
        with a thread pool may run several at once, so a task must not
        touch state another task or the caller uses meanwhile.
        """
        return [task() for task in tasks]

    # -- elementwise -------------------------------------------------------

    def multiply(self, a: Any, b: Any, out: Any = None) -> Any:
        """``a * b`` with broadcasting, in that operand order."""
        return into(a * b, out)

    def conj(self, x: Any) -> Any:
        raise NotImplementedError

    def real(self, x: Any) -> Any:
        raise NotImplementedError

    def abs(self, x: Any, out: Any = None) -> Any:
        raise NotImplementedError

    def exp(self, x: Any) -> Any:
        raise NotImplementedError

    def log(self, x: Any) -> Any:
        raise NotImplementedError

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        raise NotImplementedError

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        raise NotImplementedError

    # -- device kernel cache ----------------------------------------------

    def kernel_data(self, kernels: Any) -> DeviceKernelData:
        """Backend-side arrays for a SOCS kernel set, converted once.

        Keyed by object identity like
        :meth:`~repro.optics.hopkins.ForwardCache.gathered`: kernel sets
        are built once per (grid, focus) and live as long as their
        simulator, so the converted spectra/weights/index arrays are
        reused by every forward and adjoint call on this backend
        instance.  An id is unique only among live objects, so each
        entry keeps a weak reference to its kernel set and is served
        only to that same object, never to a later set that reuses a
        dead one's id.  The entry is dropped when its set dies, so the
        cache never pins a dead set's arrays.
        """
        key = id(kernels)
        table = self._kernel_data
        entry = table.get(key)
        if entry is not None and entry[0]() is kernels:
            return entry[1]
        support = kernels.support
        data = DeviceKernelData(
            weights=self.asarray(kernels.weights, "float"),
            spectra=self.asarray(kernels.spectra, "complex"),
            rows=None if support.dense else self.asarray(support.rows, "index"),
            cols=None if support.dense else self.asarray(support.cols, "index"),
        )

        def forget(ref: weakref.ref) -> None:
            # A newer set may already hold this id; drop only our entry.
            current = table.get(key)
            if current is not None and current[0] is ref:
                table.pop(key, None)

        table[key] = (weakref.ref(kernels, forget), data)
        return data
