"""Numpy backends: the float64 bitwise reference and a float32 mode.

``NumpyBackend("float64")`` is *the* reference implementation: every
method forwards to the exact numpy call the legacy (pre-seam) code made,
so the ported core reproduces the old results bitwise and the existing
golden/equivalence pins keep holding.

Its transforms and the engine's elementwise stages may run on several
threads.  A large enough batch is cut along one axis into contiguous
chunks, and each chunk calls numpy on its own slice of one output
array.  Every transform in a batch, and every element of a stage, is
computed on its own, so the result is bitwise the unsplit call's
(``tests/test_backend_seam.py::TestThreadedTransformPin``,
``tests/test_forward_batching.py::TestParentEnginePin``).  Numpy
releases the GIL inside its FFTs and its ufunc and einsum loops, so the
chunks run in parallel.

Whole tasks run on the same threads (:meth:`NumpyBackend.map_tasks`):
the engine's per-focus share of an objective evaluation is one task.
Every chunk of a split, task or transform, runs under
:func:`fft_threads_scope` with its share of the caller's threads, so a
task that reaches a transform or stage splits only across that share,
and the pool holds one thread fewer than the caller's count.

``NumpyBackend("float32")`` is the single-precision mode.  Its
transforms route through ``scipy.fft`` (same pocketfft core), imported
only when such a backend is built, and split the same way: each chunk
is one ``scipy.fft`` call.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import OpticsError
from .base import ArrayBackend

#: Fewest points a batched transform or engine stage needs before it is
#: split across threads.  On a 2-vCPU host two threads lost on some 1-D
#: passes of 2^16 points and won on every call from 8e4 points; the
#: clip's (16, 27, 256) row pass is just above this line.
SPLIT_MIN_POINTS = 100_000

#: The numpy call behind each float64 transform when it writes into a
#: given output.  Not np.fft.ifft2: it accepts out= but never writes to it.
_NUMPY_OUT_CALLS = {"fft2": "fftn", "ifft2": "ifftn", "fft": "fft", "ifft": "ifft"}

T = TypeVar("T")

#: Thread count for the solve running in this context; None leaves every
#: usable core.  Set by :func:`fft_threads_scope`.
_SCOPED_THREADS: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_fft_threads", default=None
)


def usable_cores() -> int:
    """CPU cores this process may run on (its affinity mask when known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def fft_threads_scope(threads: Optional[int]) -> Iterator[None]:
    """Run transforms and engine stages called in this context on ``threads`` threads.

    A solver process that shares the host with others solves inside one
    of these, so the processes together use each core once.  ``None``
    leaves the default, every usable core.  The scope is per thread (a
    context variable), so concurrent solves in one process do not see
    each other's count.
    """
    if threads is not None and threads < 1:
        raise OpticsError(f"fft threads must be >= 1, got {threads}")
    token = _SCOPED_THREADS.set(threads)
    try:
        yield
    finally:
        _SCOPED_THREADS.reset(token)


class NumpyBackend(ArrayBackend):
    """Host-memory numpy backend at either precision."""

    name = "numpy"

    def __init__(self, precision: str = "float64") -> None:
        super().__init__(precision)
        if precision == "float64":
            # np.fft keeps bitwise identity with the legacy path.
            self._fft_mod: Any = np.fft
        else:
            import scipy.fft  # honours single precision end to end

            self._fft_mod = scipy.fft
        # The chunk pool starts on first use, so building a backend
        # starts no thread.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_pid = 0
        self._pool_size = 0

    @property
    def fft_threads(self) -> int:
        """The scope's count (:func:`fft_threads_scope`), else every usable core."""
        scoped = _SCOPED_THREADS.get()
        return scoped if scoped is not None else usable_cores()

    # -- array construction / crossing ------------------------------------

    def asarray(self, x: Any, kind: str = "float") -> Any:
        if kind == "index":
            return np.asarray(x, dtype=np.intp)
        dtype = self.float_dtype if kind == "float" else self.complex_dtype
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        return np.asarray(x)

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        dtype = self.float_dtype if kind == "float" else self.complex_dtype
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        dtype = self.float_dtype if kind == "float" else self.complex_dtype
        return np.empty(shape, dtype=dtype)

    # -- transforms --------------------------------------------------------

    def fft2(self, x: Any, out: Any = None) -> Any:
        return self._transform("fft2", x, (-2, -1), out, axes=(-2, -1))

    def ifft2(self, x: Any, out: Any = None) -> Any:
        return self._transform("ifft2", x, (-2, -1), out, axes=(-2, -1))

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        return self._transform("fft", x, (axis,), out, axis=axis)

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        return self._transform("ifft", x, (axis,), out, axis=axis)

    def _transform(
        self, name: str, x: Any, along: Sequence[int], out: Any, **kw: Any
    ) -> Any:
        """One transform over the axes ``along``, split along the leading
        axis when :meth:`_chunks` says so.

        Unsplit and without ``out`` it is the library's own call.  Each
        chunk writes its slice of one output: numpy's ``out=``, or a copy
        of the ``scipy.fft`` result at single precision.
        """
        chunks = self._chunks(x, along)
        if out is None and chunks == 1:
            return getattr(self._fft_mod, name)(x, **kw)
        if out is None:
            out = np.empty(x.shape, dtype=self.complex_dtype)
        if self.precision == "float64":
            call = getattr(np.fft, _NUMPY_OUT_CALLS[name])

            def run(lo: int, hi: int) -> None:
                call(x[lo:hi], out=out[lo:hi], **kw)
        else:
            call = getattr(self._fft_mod, name)

            def run(lo: int, hi: int) -> None:
                out[lo:hi] = call(x[lo:hi], **kw)

        self._map(run, len(x), chunks)
        return out

    def _chunks(self, x: Any, axes: Sequence[int]) -> int:
        """How many pieces a transform over ``axes`` runs as (1 = unsplit).

        Splits a numpy array of the backend's own dtypes along its
        leading axis when that axis is not transformed, under the rule
        of :meth:`_chunk_count`.
        """
        if not isinstance(x, np.ndarray) or x.dtype not in (
            self.float_dtype,
            self.complex_dtype,
        ):
            return 1
        if any(axis % x.ndim == 0 for axis in axes):
            return 1
        return self._chunk_count(x.shape[0], x.size)

    def _chunk_count(self, n: int, points: int) -> int:
        """Chunks for ``n`` entries holding ``points`` in all (1 = unsplit).

        One per thread when every thread gets at least one entry and
        the whole call is large enough to pay for the hand-off.
        """
        if points < SPLIT_MIN_POINTS:
            return 1
        threads = self.fft_threads
        return threads if 1 < threads <= n else 1

    def map_chunks(self, fn: Callable[[int, int], None], n: int, points: int) -> None:
        """``fn`` over contiguous chunks of ``[0, n)``, on the transforms' threads."""
        self._map(fn, n, self._chunk_count(n, points))

    def map_tasks(self, tasks: Sequence[Callable[[], T]], points: int) -> List[T]:
        """Each task once, on the transforms' threads; results in order.

        The tasks run as ``min(threads, len(tasks))`` contiguous chunks
        when they hold :data:`SPLIT_MIN_POINTS` points together, else in
        order on the calling thread.
        """
        results: List[Any] = [None] * len(tasks)

        def run(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                results[i] = tasks[i]()

        chunks = min(self.fft_threads, len(tasks)) if points >= SPLIT_MIN_POINTS else 1
        self._map(run, len(tasks), max(chunks, 1))
        return results

    def _map(self, fn: Callable[[int, int], None], n: int, chunks: int) -> None:
        """``fn(lo, hi)`` over ``chunks`` contiguous pieces of ``[0, n)``.

        The calling thread runs the first piece itself; the pool runs
        the rest.  Each piece runs under ``fft_threads_scope`` with its
        share of the caller's threads, so a piece that splits again
        splits only across that share.  A waiter runs a piece no pool
        thread has started yet itself, so a full pool never deadlocks.
        """
        if chunks == 1:
            fn(0, n)
            return
        threads = self.fft_threads
        share = max(threads // chunks, 1)

        def scoped(lo: int, hi: int) -> None:
            with fft_threads_scope(share):
                fn(lo, hi)

        bounds = [n * i // chunks for i in range(chunks + 1)]
        pool = self._executor(threads - 1)
        pieces = list(zip(bounds[1:-1], bounds[2:]))
        futures = [pool.submit(scoped, lo, hi) for lo, hi in pieces]
        try:
            scoped(0, bounds[1])
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        for future, (lo, hi) in zip(futures, pieces):
            if future.cancel():
                scoped(lo, hi)
            else:
                future.result()

    def _executor(self, workers: int) -> ThreadPoolExecutor:
        """The chunk pool, with at least ``workers`` threads.

        Sized on first use to the caller's threads less one (the caller
        runs a piece itself), so the pieces of one split and the pieces
        nested inside them all find a thread.  Rebuilt for a larger
        count, and in a forked child: the parent's pool threads do not
        exist there, so work queued on the inherited pool would never
        run.  No lock guards the swap: racing callers at most build a
        spare pool, each still runs its chunks on the pool it got, and
        a fork cannot inherit a held lock.  A replaced pool is not shut
        down, since a caller may still be submitting to it; its threads
        exit once it is freed.
        """
        pid = os.getpid()
        pool = self._pool
        if pool is None or self._pool_pid != pid or self._pool_size < workers:
            pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-fft")
            self._pool, self._pool_pid, self._pool_size = pool, pid, workers
        return pool

    def einsum(self, subscripts: str, *operands: Any, out: Any = None) -> Any:
        return np.einsum(subscripts, *operands, out=out)

    # -- elementwise -------------------------------------------------------

    def multiply(self, a: Any, b: Any, out: Any = None) -> Any:
        return np.multiply(a, b, out=out)

    def conj(self, x: Any) -> Any:
        return np.conj(x)

    def real(self, x: Any) -> Any:
        return np.real(x)

    def abs(self, x: Any, out: Any = None) -> Any:
        return np.abs(x, out=out)

    def exp(self, x: Any) -> Any:
        return np.exp(x)

    def log(self, x: Any) -> Any:
        return np.log(x)

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        return np.clip(x, lo, hi)

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return np.where(cond, a, b)
