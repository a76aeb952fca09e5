"""Optical ambit: compactly-supported kernels for exact tiled imaging.

Tiled full-chip optimization only works if a tile's printed image inside
its core is *identical* to what a monolithic simulation of the whole
chip would produce there — otherwise stitching moves contours.  Freshly
building SOCS kernels per window cannot deliver that: the frequency
lattice (and with it the discretized source) depends on the grid size,
so two windows of different sizes disagree at the 1e-2..1e-3 level no
matter how generous the halo.

This module therefore fixes the *model* first: the full-chip forward
model is defined as **linear convolution with ambit-truncated spatial
kernels** built once on a canonical probe grid.  The SOCS kernels decay
quickly in space, so truncating each kernel to a Chebyshev radius R (the
**ambit**) where the retained weighted energy reaches ``1 - energy_tol``
changes the model by a bounded, quantified amount — and from then on the
truncated stencils ARE the optical model, shared bit-for-bit by every
window size.

Evaluation uses overlap-discard: a window of ``core + 2*halo`` pixels is
imaged with periodic FFT convolution and only the core is kept.  For any
halo >= R a core pixel's convolution sum never wraps and never misses
kernel mass, so tiled and monolithic images agree to FFT rounding
(~1e-15) — the seam-equivalence test pins this exactly.

:class:`WindowSimulator` wraps the stencils back into a standard
:class:`~repro.litho.simulator.LithographySimulator` by synthesizing a
:class:`~repro.optics.kernels.SOCSKernels` per window shape (the
stencil embedded on the window grid, transformed with one ``fft2``), so
the entire existing forward/gradient/objective stack works on tiles
unchanged.  A truncated stencil is not band-limited, so its spectrum
fills the whole window grid: the set lives on a *dense*
:class:`~repro.optics.tcc.FrequencySupport`, which carries no index
arrays and which the imaging engine addresses by reshaping.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .._version import __version__
from ..config import GridSpec, LithoConfig
from ..errors import FullChipError, ReproError
from ..litho.simulator import LithographySimulator
from ..obs import Instrumentation
from ..optics.kernels import SOCSKernels, build_socs_kernels
from ..optics.tcc import dense_frequency_support
from ..process.corners import enumerate_corners
from ..utils.hashing import canonical_hash
from ..utils.io import write_npz_atomic

logger = logging.getLogger(__name__)

#: Default retained-energy tolerance: the truncated stencils keep
#: >= 1 - tol of the weighted kernel energy at every focus condition.
DEFAULT_ENERGY_TOL = 2e-3

#: Default physical extent of the canonical probe grid the stencils are
#: measured on.  Must comfortably exceed twice the expected ambit.
DEFAULT_PROBE_EXTENT_NM = 2048.0


@dataclass(frozen=True)
class FocusStencils:
    """Truncated spatial kernels for one focus condition.

    Attributes:
        defocus_nm: the focus offset.
        weights: SOCS weights, re-normalized so an open-frame (all-ones)
            mask images to unit intensity *under the truncated model*.
        stencils: complex array ``(h, 2R+1, 2R+1)``, kernel k centred at
            pixel ``(R, R)``.
    """

    defocus_nm: float
    weights: np.ndarray
    stencils: np.ndarray

    @property
    def radius_px(self) -> int:
        return (self.stencils.shape[1] - 1) // 2


def _defocus_values(litho: LithoConfig) -> List[float]:
    """The distinct focus conditions of the process window, ascending."""
    return sorted({float(c.defocus_nm) for c in enumerate_corners(litho.process)})


def _centered_spatial_kernels(kernels: SOCSKernels) -> np.ndarray:
    """All spatial kernels of a set, centred on the grid midpoint."""
    out = np.empty((kernels.num_kernels,) + kernels.shape, dtype=np.complex128)
    for k in range(kernels.num_kernels):
        out[k] = kernels.spatial_kernel(k)
    return out


def _ambit_radius(
    weights: np.ndarray, spatial: np.ndarray, energy_tol: float
) -> int:
    """Smallest Chebyshev radius keeping >= 1 - tol of the weighted energy."""
    _, rows, cols = spatial.shape
    cy, cx = rows // 2, cols // 2
    yy, xx = np.meshgrid(np.arange(rows) - cy, np.arange(cols) - cx, indexing="ij")
    cheb = np.maximum(np.abs(yy), np.abs(xx))
    energy = np.einsum("k,kij->ij", weights, np.abs(spatial) ** 2)
    max_radius = int(cheb.max())
    per_radius = np.bincount(cheb.ravel(), weights=energy.ravel(), minlength=max_radius + 1)
    cumulative = np.cumsum(per_radius)
    total = cumulative[-1]
    if total <= 0:
        raise FullChipError("kernel set carries no energy; cannot derive an ambit")
    usable = min(cy, cx, rows - 1 - cy, cols - 1 - cx)
    for radius in range(usable + 1):
        if 1.0 - cumulative[radius] / total <= energy_tol:
            return radius
    raise FullChipError(
        f"kernel energy tail still exceeds {energy_tol:g} at the probe-grid "
        f"boundary (radius {usable} px) — enlarge probe_extent_nm or relax "
        f"the tolerance"
    )


@dataclass
class AmbitModel:
    """The canonical truncated-kernel optical model for one litho setup.

    Built once (expensively: one SOCS decomposition per focus condition
    on the probe grid) and then reused by every window of the full-chip
    run — including forked worker processes, which inherit the parent's
    warmed module cache for free.

    Attributes:
        litho: the configuration the stencils were derived from (its
            ``grid`` field only contributes the pixel size).
        energy_tol: retained-energy tolerance used for the ambit.
        probe_extent_nm: physical extent of the probe grid.
        ambit_px: Chebyshev truncation radius in pixels, maximized over
            all focus conditions of the process window.
        focus_stencils: per-defocus truncated kernels.
    """

    litho: LithoConfig
    energy_tol: float
    probe_extent_nm: float
    ambit_px: int
    focus_stencils: Dict[float, FocusStencils]
    _window_cache: Dict[Tuple[Tuple[int, int], float], SOCSKernels] = field(
        default_factory=dict, repr=False
    )

    @property
    def pixel_nm(self) -> float:
        return self.litho.grid.pixel_nm

    @property
    def ambit_nm(self) -> float:
        """The optical ambit: interaction range of the truncated model."""
        return self.ambit_px * self.pixel_nm

    @property
    def min_window_px(self) -> int:
        """Smallest window edge that can hold a stencil without aliasing."""
        return 2 * self.ambit_px + 1

    @property
    def defocus_values_nm(self) -> Tuple[float, ...]:
        return tuple(sorted(self.focus_stencils))

    @classmethod
    def build(
        cls,
        litho: LithoConfig,
        energy_tol: float = DEFAULT_ENERGY_TOL,
        probe_extent_nm: float = DEFAULT_PROBE_EXTENT_NM,
    ) -> "AmbitModel":
        """Derive the ambit and truncated stencils for a configuration.

        The probe grid spans ``probe_extent_nm`` at the configuration's
        pixel size; every distinct defocus of the process window gets its
        own SOCS decomposition, and the ambit is the *maximum* truncation
        radius over all of them (defocus spreads the kernels).
        """
        if not 0 < energy_tol < 1:
            raise FullChipError(f"energy_tol must be in (0, 1), got {energy_tol}")
        pixel_nm = litho.grid.pixel_nm
        probe_px = int(round(probe_extent_nm / pixel_nm))
        if probe_px < 32:
            raise FullChipError(
                f"probe grid of {probe_px} px is too small to measure kernel "
                f"decay; increase probe_extent_nm"
            )
        probe_grid = GridSpec(shape=(probe_px, probe_px), pixel_nm=pixel_nm)
        defocus_values = _defocus_values(litho)
        raw: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
        ambit_px = 0
        for defocus in defocus_values:
            logger.info("probing kernel ambit at defocus %.1f nm", defocus)
            kernels = build_socs_kernels(probe_grid, litho.optics, defocus_nm=defocus)
            spatial = _centered_spatial_kernels(kernels)
            raw[defocus] = (kernels.weights, spatial)
            ambit_px = max(ambit_px, _ambit_radius(kernels.weights, spatial, energy_tol))
        center = probe_px // 2
        lo, hi = center - ambit_px, center + ambit_px + 1
        focus_stencils: Dict[float, FocusStencils] = {}
        for defocus, (weights, spatial) in raw.items():
            stencils = np.ascontiguousarray(spatial[:, lo:hi, lo:hi])
            # Re-normalize for unit open-frame intensity under the
            # truncated model: the DC response of kernel k is the plain
            # sum of its stencil, so truncation would otherwise dim every
            # image by the discarded tail energy.
            dc = np.array([np.abs(np.sum(stencils[k])) ** 2 for k in range(len(weights))])
            open_intensity = float(np.sum(weights * dc))
            if open_intensity <= 0:
                raise FullChipError("truncated stencils pass no DC energy")
            focus_stencils[defocus] = FocusStencils(
                defocus_nm=defocus,
                weights=weights / open_intensity,
                stencils=stencils,
            )
        logger.info(
            "ambit = %d px (%.0f nm) at tol %.1e over %d focus conditions",
            ambit_px, ambit_px * pixel_nm, energy_tol, len(defocus_values),
        )
        return cls(
            litho=litho,
            energy_tol=energy_tol,
            probe_extent_nm=probe_extent_nm,
            ambit_px=ambit_px,
            focus_stencils=focus_stencils,
        )

    def window_kernels(self, shape: Tuple[int, int], defocus_nm: float = 0.0) -> SOCSKernels:
        """The model's kernels as a SOCS set on ``shape``'s dense support.

        The stencil is embedded on the window grid wrapped around the
        origin and transformed with one ``fft2``; multiplying a mask
        spectrum by the result is exactly periodic convolution with the
        centred stencil, which the overlap-discard construction turns
        into linear convolution inside the core.
        """
        key = (tuple(shape), float(defocus_nm))
        cached = self._window_cache.get(key)
        if cached is not None:
            return cached
        stencil_set = self.focus_stencils.get(float(defocus_nm))
        if stencil_set is None:
            raise FullChipError(
                f"no stencils at defocus {defocus_nm} nm; the model covers "
                f"{self.defocus_values_nm}"
            )
        rows, cols = shape
        diameter = 2 * self.ambit_px + 1
        if rows < diameter or cols < diameter:
            raise FullChipError(
                f"window {shape} cannot hold a stencil of diameter {diameter} px "
                f"(ambit {self.ambit_px} px) without self-overlap"
            )
        offsets = np.arange(-self.ambit_px, self.ambit_px + 1)
        emb = np.zeros((len(stencil_set.weights), rows, cols), dtype=np.complex128)
        emb[:, (offsets % rows)[:, None], (offsets % cols)[None, :]] = stencil_set.stencils
        spectra = np.fft.fft2(emb, axes=(-2, -1)).reshape(len(stencil_set.weights), -1)
        kernels = SOCSKernels(
            support=dense_frequency_support((rows, cols), self.pixel_nm),
            weights=stencil_set.weights.copy(),
            spectra=spectra,
            defocus_nm=float(defocus_nm),
        )
        self._window_cache[key] = kernels
        return kernels

    def simulator_for(
        self,
        shape: Tuple[int, int],
        obs: Optional[Instrumentation] = None,
        backend: Optional[str] = None,
    ) -> "WindowSimulator":
        """A :class:`WindowSimulator` on a window of ``shape`` pixels.

        ``backend`` selects the window's array backend (spec string or
        instance); ``None`` defers to the optics config / environment /
        numpy-reference chain.  Backend instances are process-wide
        singletons, so every window sharing a spec shares one backend.
        """
        return WindowSimulator(self, shape, obs=obs, backend=backend)


class WindowSimulator(LithographySimulator):
    """A :class:`LithographySimulator` driven by an :class:`AmbitModel`.

    Only the kernel build changes: instead of a fresh SOCS build per
    grid (whose frequency lattice would depend on the window size), the
    kernels come from the shared ambit-truncated stencils — so every
    window of a full-chip run, and the monolithic reference, image with
    the *same* optical model.  All forward/gradient/process-window
    machinery is inherited unchanged.
    """

    def __init__(
        self,
        model: AmbitModel,
        shape: Tuple[int, int],
        obs: Optional[Instrumentation] = None,
        backend: Optional[str] = None,
    ) -> None:
        config = LithoConfig(
            grid=GridSpec(shape=tuple(shape), pixel_nm=model.pixel_nm),
            optics=model.litho.optics,
            resist=model.litho.resist,
            process=model.litho.process,
        )
        super().__init__(config, obs=obs, backend=backend)
        self.model = model

    def _build_kernels(self, defocus_nm: float) -> SOCSKernels:
        """The ambit model's kernels embedded on this window."""
        with self.obs.tracer.span("window_kernel_embed"):
            return self.model.window_kernels(self.grid.shape, defocus_nm)


# -- shared model cache --------------------------------------------------------
#
# Stencil derivation is the expensive one-time step of a full-chip run
# (one SOCS decomposition per focus on the probe grid).  Two tiers sit in
# front of it.  The memory tier is module-global on purpose: the
# engine looks the model up in the parent process *before* forking its
# queue workers, so every worker inherits the built model through
# copy-on-write memory instead of rebuilding it.  The disk tier
# keeps one ``.npz`` per model under the user's cache directory, so a
# fresh process (a CLI run, a hand-launched ``repro worker``, the
# service) reads the stencils an earlier process derived, bit for bit,
# instead of deriving them again.

#: Layout of a disk entry; part of every entry's key.
_ENTRY_FORMAT = 1

#: Sources (relative to the package root) whose code decides the
#: stencils' bits: editing any of them changes every entry's key.
_STENCIL_SOURCES = ("optics/*.py", "fullchip/ambit.py", "config.py", "process/corners.py")

_MODEL_CACHE: Dict[Tuple, AmbitModel] = {}
_MODEL_CACHE_LOCK = threading.Lock()
_MODEL_CACHE_HITS = 0
_MODEL_CACHE_MISSES = 0
_DISK_HITS = 0
_DISK_MISSES = 0
#: Cache directories a write failed in; this process no longer uses them.
_UNWRITABLE_DIRS: Set[Path] = set()


def _new_model_cache_lock() -> None:
    # A lookup holds the lock through a whole disk read or build, so a
    # child forked meanwhile would inherit it held, with no thread left
    # to release it.
    global _MODEL_CACHE_LOCK
    _MODEL_CACHE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_new_model_cache_lock)


@dataclass(frozen=True)
class ModelCacheInfo:
    """Snapshot of the shared stencil-model cache (mirrors
    :class:`~repro.litho.simulator.KernelCacheInfo`).

    Attributes:
        hits: lookups served from this process's memory.
        misses: lookups that were not in memory.
        entries: models currently held in memory.
        disk_hits: memory misses served from a disk entry.
        disk_misses: memory misses the disk could not serve (no entry, a
            torn, alien or misshapen one, or no usable cache directory),
            each of which built the model.
    """

    hits: int
    misses: int
    entries: int
    disk_hits: int
    disk_misses: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
        }


def _model_key(litho: LithoConfig, energy_tol: float, probe_extent_nm: float) -> Tuple:
    return (litho.grid.pixel_nm, litho.optics, litho.process, energy_tol, probe_extent_nm)


def model_cache_dir() -> Path:
    """Where disk entries live: ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME")
    return (Path(base) if base else Path.home() / ".cache") / "repro"


def _source_fingerprint(root: Path) -> str:
    """SHA-256 over the names and bytes of the stencil sources under ``root``."""
    digest = hashlib.sha256()
    for pattern in _STENCIL_SOURCES:
        for path in sorted(root.glob(pattern)):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Fingerprint of this package's stencil code, as it is on disk."""
    return _source_fingerprint(Path(__file__).resolve().parent.parent)


def _disk_key(litho: LithoConfig, energy_tol: float, probe_extent_nm: float) -> str:
    """Content address of a model: everything :func:`_model_key` holds,
    plus the package and numpy versions and the code fingerprint."""
    return canonical_hash(
        {
            "format": _ENTRY_FORMAT,
            "pixel_nm": litho.grid.pixel_nm,
            "optics": dataclasses.asdict(litho.optics),
            "process": dataclasses.asdict(litho.process),
            "energy_tol": energy_tol,
            "probe_extent_nm": probe_extent_nm,
            "version": __version__,
            "numpy": np.__version__,
            "code": code_fingerprint(),
        }
    )


def _entry_arrays(model: AmbitModel, key: str) -> Dict[str, np.ndarray]:
    arrays = {
        "key": np.array(key),
        "ambit_px": np.array(model.ambit_px, dtype=np.int64),
        "defocus_nm": np.array(model.defocus_values_nm, dtype=np.float64),
    }
    for i, defocus in enumerate(model.defocus_values_nm):
        focus = model.focus_stencils[defocus]
        arrays[f"weights_{i}"] = focus.weights
        arrays[f"stencils_{i}"] = focus.stencils
    return arrays


def _model_from_arrays(
    arrays: Dict[str, np.ndarray],
    key: str,
    litho: LithoConfig,
    energy_tol: float,
    probe_extent_nm: float,
) -> AmbitModel:
    """Rebuild a model from an entry's arrays; ValueError unless it is
    exactly the entry ``key`` names, with every array shaped as built."""
    if str(arrays["key"]) != key:
        raise ValueError("entry holds another model (key mismatch)")
    ambit = arrays["ambit_px"]
    if ambit.shape != () or ambit.dtype != np.int64 or int(ambit) < 0:
        raise ValueError(f"bad ambit_px {ambit!r}")
    ambit_px = int(ambit)
    defocus_values = arrays["defocus_nm"]
    if defocus_values.dtype != np.float64 or defocus_values.ndim != 1:
        raise ValueError(f"bad defocus_nm {defocus_values!r}")
    diameter = 2 * ambit_px + 1
    focus_stencils: Dict[float, FocusStencils] = {}
    for i, defocus in enumerate(defocus_values.tolist()):
        weights = arrays[f"weights_{i}"]
        stencils = arrays[f"stencils_{i}"]
        if (
            weights.dtype != np.float64
            or weights.ndim != 1
            or stencils.dtype != np.complex128
            or stencils.shape != (len(weights), diameter, diameter)
        ):
            raise ValueError(
                f"focus {defocus} nm: weights {weights.dtype}{weights.shape}, "
                f"stencils {stencils.dtype}{stencils.shape} for ambit {ambit_px} px"
            )
        focus_stencils[defocus] = FocusStencils(
            defocus_nm=defocus, weights=weights, stencils=stencils
        )
    if list(focus_stencils) != _defocus_values(litho):
        raise ValueError(f"entry covers defocus {list(focus_stencils)}")
    return AmbitModel(
        litho=litho,
        energy_tol=energy_tol,
        probe_extent_nm=probe_extent_nm,
        ambit_px=ambit_px,
        focus_stencils=focus_stencils,
    )


def _load_entry(
    path: Path,
    key: str,
    litho: LithoConfig,
    energy_tol: float,
    probe_extent_nm: float,
) -> Optional[AmbitModel]:
    """The model stored at ``path``; None for anything but a sound entry."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        return _model_from_arrays(arrays, key, litho, energy_tol, probe_extent_nm)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except Exception as exc:  # noqa: BLE001 - torn, alien or misshapen: rebuild
        logger.warning("ignoring ambit model cache entry %s: %s", path, exc)
        return None


def _store_entry(directory: Path, path: Path, key: str, model: AmbitModel) -> None:
    try:
        write_npz_atomic(path, **_entry_arrays(model, key))
    except OSError as exc:
        _UNWRITABLE_DIRS.add(directory)
        logger.warning(
            "cannot write the ambit model cache in %s (%s); this process "
            "keeps its models in memory only",
            directory, exc,
        )


def _from_disk_or_build(
    litho: LithoConfig, energy_tol: float, probe_extent_nm: float
) -> Tuple[AmbitModel, str]:
    """Serve a memory miss: read the disk entry, else build and write it."""
    global _DISK_HITS, _DISK_MISSES
    directory = model_cache_dir()
    try:
        key: Optional[str] = _disk_key(litho, energy_tol, probe_extent_nm)
    except ReproError:  # a non-finite setting has no address; build names it
        key = None
    path: Optional[Path] = None
    if key is not None and directory not in _UNWRITABLE_DIRS:
        path = directory / f"ambit-{key}.npz"
        model = _load_entry(path, key, litho, energy_tol, probe_extent_nm)
        if model is not None:
            _DISK_HITS += 1
            logger.info("ambit model read from %s", path)
            return model, "disk"
    _DISK_MISSES += 1
    model = AmbitModel.build(litho, energy_tol=energy_tol, probe_extent_nm=probe_extent_nm)
    if path is not None:
        _store_entry(directory, path, key, model)
    return model, "built"


def lookup_ambit_model(
    litho: LithoConfig,
    energy_tol: float = DEFAULT_ENERGY_TOL,
    probe_extent_nm: float = DEFAULT_PROBE_EXTENT_NM,
) -> Tuple[AmbitModel, str]:
    """:func:`ambit_model_for`, plus the tier that served it:
    ``"memory"`` (this process held it), ``"disk"`` (read from an entry)
    or ``"built"`` (derived by :meth:`AmbitModel.build`)."""
    global _MODEL_CACHE_HITS, _MODEL_CACHE_MISSES
    key = _model_key(litho, energy_tol, probe_extent_nm)
    with _MODEL_CACHE_LOCK:
        model = _MODEL_CACHE.get(key)
        if model is not None:
            _MODEL_CACHE_HITS += 1
            return model, "memory"
        _MODEL_CACHE_MISSES += 1
        model, tier = _from_disk_or_build(litho, energy_tol, probe_extent_nm)
        _MODEL_CACHE[key] = model
        return model, tier


def ambit_model_for(
    litho: LithoConfig,
    energy_tol: float = DEFAULT_ENERGY_TOL,
    probe_extent_nm: float = DEFAULT_PROBE_EXTENT_NM,
) -> AmbitModel:
    """The shared :class:`AmbitModel` for a configuration (built once).

    Keyed on everything that shapes the stencils: pixel size, optics,
    process window, tolerance and probe extent (resist and grid shape do
    not participate).  A model not yet in this process's memory is read
    from the disk cache (:func:`model_cache_dir`) when an entry for the
    same inputs, package and numpy versions and stencil code exists;
    otherwise it is built and written there for the next process.
    """
    return lookup_ambit_model(litho, energy_tol, probe_extent_nm)[0]


def model_cache_info() -> ModelCacheInfo:
    """Hit/miss statistics of the shared model cache (process-local).

    Worker processes inherit the parent's warmed cache through fork but
    count their own lookups from zero; the numbers reported by the
    full-chip run summary are the parent's.
    """
    with _MODEL_CACHE_LOCK:
        return ModelCacheInfo(
            hits=_MODEL_CACHE_HITS,
            misses=_MODEL_CACHE_MISSES,
            entries=len(_MODEL_CACHE),
            disk_hits=_DISK_HITS,
            disk_misses=_DISK_MISSES,
        )
