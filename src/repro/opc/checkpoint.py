"""Atomic checkpoint/resume for the gradient-descent engine.

A checkpoint freezes everything the optimizer needs to continue a run
mid-trajectory *bit-for-bit*: the unconstrained parameters, both Adam
moment buffers, the best-so-far iterate, the recovery step scale, and
the full iteration history.  Because the descent is deterministic, a run
resumed from iteration k reproduces the uninterrupted run's iterations
k..N exactly (float64 arrays round-trip exactly through ``.npz``; the
history round-trips through the same JSONL schema the event stream
uses).

Writes are atomic: the payload is written to a temporary file in the
checkpoint directory and ``os.replace``-d into its final name, so a
checkpoint file is either complete or absent — a kill mid-write can
never leave a torn file that a later resume would trust.

File layout: ``<dir>/ckpt_<iteration:06d>.npz`` containing the state
arrays plus one JSON metadata blob (see ``_META_KEY``).  Loading
validates a format version and the grid shape/theta_m against the
resuming optimizer, raising :class:`~repro.errors.CheckpointError` on
any mismatch or corruption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..errors import CheckpointError
from ..utils.hashing import stable_json_dumps
from ..utils.io import write_npz_atomic
from .history import OptimizationHistory

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "OptimizerCheckpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bumped whenever the on-disk schema changes incompatibly.
CHECKPOINT_VERSION = 1

#: Key of the JSON metadata blob inside the npz archive.
_META_KEY = "meta_json"

#: Array-valued state fields stored verbatim in the archive.
_ARRAY_KEYS = ("params", "adam_m", "adam_v", "best_params")


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often the optimizer checkpoints.

    Attributes:
        directory: directory receiving ``ckpt_*.npz`` files (created on
            first write).
        every: iterations between periodic checkpoints (a final
            checkpoint is also flushed on SIGINT/KeyboardInterrupt).
        keep: retain only the newest ``keep`` checkpoints, pruning older
            ones after each successful write (0 = keep everything).
    """

    directory: Union[str, Path]
    every: int = 5
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every < 1:
            raise CheckpointError(f"checkpoint every must be >= 1, got {self.every}")
        if self.keep < 0:
            raise CheckpointError(f"checkpoint keep must be >= 0, got {self.keep}")

    @property
    def path(self) -> Path:
        return Path(self.directory)


@dataclass
class OptimizerCheckpoint:
    """Full optimizer state at the boundary between two iterations.

    ``iteration`` is the next iteration to run: a checkpoint taken after
    iteration 9 completes carries ``iteration=10`` and a 10-record
    history.
    """

    iteration: int
    params: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    best_params: np.ndarray
    best_value: float
    best_iteration: int
    step_scale: float
    history: OptimizationHistory = field(default_factory=OptimizationHistory)
    theta_m: float = 0.0
    grid_shape: tuple = ()

    def validate_against(self, grid_shape: tuple, theta_m: float) -> None:
        """Reject checkpoints from an incompatible configuration."""
        if tuple(self.grid_shape) != tuple(grid_shape):
            raise CheckpointError(
                f"checkpoint grid {tuple(self.grid_shape)} != simulator grid "
                f"{tuple(grid_shape)}"
            )
        if self.theta_m != theta_m:
            raise CheckpointError(
                f"checkpoint theta_m={self.theta_m} != config theta_m={theta_m}; "
                "resuming under a different relaxation would corrupt the trajectory"
            )


def _checkpoint_name(iteration: int) -> str:
    return f"ckpt_{iteration:06d}.npz"


def save_checkpoint(
    config: CheckpointConfig, state: OptimizerCheckpoint
) -> Path:
    """Atomically write ``state`` under ``config.directory``.

    Returns:
        The final checkpoint path.

    Raises:
        CheckpointError: when the directory cannot be created or the
            payload cannot be written.
    """
    meta: Dict[str, object] = {
        "version": CHECKPOINT_VERSION,
        "iteration": int(state.iteration),
        "best_value": float(state.best_value),
        "best_iteration": int(state.best_iteration),
        "step_scale": float(state.step_scale),
        "theta_m": float(state.theta_m),
        "grid_shape": list(state.grid_shape),
        "history_jsonl": state.history.to_jsonl(),
    }
    final_path = config.path / _checkpoint_name(state.iteration)
    try:
        write_npz_atomic(
            final_path,
            params=state.params,
            adam_m=state.adam_m,
            adam_v=state.adam_v,
            best_params=state.best_params,
            **{_META_KEY: np.array(stable_json_dumps(meta, non_finite="allow"))},
        )
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {final_path}: {exc}") from exc
    _prune(config)
    return final_path


def _prune(config: CheckpointConfig) -> None:
    """Drop all but the newest ``config.keep`` checkpoints (best effort)."""
    if config.keep <= 0:
        return
    checkpoints = list_checkpoints(config.path)
    for stale in checkpoints[:-config.keep]:
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - benign race with a reader
            pass


def list_checkpoints(directory: Union[str, Path]) -> List[Path]:
    """All checkpoint files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("ckpt_*.npz"))


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The newest checkpoint in ``directory``, or None when there is none."""
    checkpoints = list_checkpoints(directory)
    return checkpoints[-1] if checkpoints else None


def load_checkpoint(path: Union[str, Path]) -> OptimizerCheckpoint:
    """Read and validate one checkpoint file.

    Raises:
        CheckpointError: missing file, unreadable archive, missing keys,
            or an incompatible format version.
    """
    path = Path(path)
    if path.is_dir():
        found = latest_checkpoint(path)
        if found is None:
            raise CheckpointError(f"no checkpoints found in directory {path}")
        path = found
    if not path.is_file():
        raise CheckpointError(f"checkpoint file {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as archive:
            missing = [k for k in (*_ARRAY_KEYS, _META_KEY) if k not in archive]
            if missing:
                raise CheckpointError(
                    f"checkpoint {path} is missing keys {missing} — truncated "
                    "or not an optimizer checkpoint"
                )
            arrays = {k: np.array(archive[k], dtype=np.float64) for k in _ARRAY_KEYS}
            meta = json.loads(str(archive[_META_KEY]))
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile/json/npz corruption
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, expected "
            f"{CHECKPOINT_VERSION}"
        )
    return OptimizerCheckpoint(
        iteration=int(meta["iteration"]),
        params=arrays["params"],
        adam_m=arrays["adam_m"],
        adam_v=arrays["adam_v"],
        best_params=arrays["best_params"],
        best_value=float(meta["best_value"]),
        best_iteration=int(meta["best_iteration"]),
        step_scale=float(meta["step_scale"]),
        history=OptimizationHistory.from_jsonl(meta.get("history_jsonl", "").splitlines()),
        theta_m=float(meta["theta_m"]),
        grid_shape=tuple(meta.get("grid_shape", ())),
    )
