"""Small shared IO helpers (atomic writes).

The checkpoint/spool/artifact writers all follow the same discipline:
write to a temp file in the target directory, then ``os.replace`` onto
the final name, so readers see a complete file or none at all.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Union

import numpy as np

from .hashing import stable_json_dumps

__all__ = ["write_text_atomic", "write_json_atomic", "write_npz_atomic"]


def _replace_atomic(
    path: Union[str, Path], mode: str, write: Callable[[IO], object]
) -> Path:
    """Run ``write`` on a temp file beside ``path``, then rename it over.

    A write that fails midway leaves ``path`` as it was and removes the
    temp file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return target


def write_text_atomic(path: Union[str, Path], text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (tmp + ``os.replace``)."""
    return _replace_atomic(path, "w", lambda handle: handle.write(text))


def write_json_atomic(path: Union[str, Path], payload: object) -> Path:
    """Atomically replace ``path`` with ``payload`` as canonical JSON.

    Serialized via :func:`~repro.utils.hashing.stable_json_dumps` with
    ``non_finite="allow"`` — telemetry payloads may carry sentinel
    inf/nan values and a status write must never fail on them.
    """
    text = stable_json_dumps(payload, indent=2, non_finite="allow")
    return write_text_atomic(path, text + "\n")


def write_npz_atomic(path: Union[str, Path], **arrays: np.ndarray) -> Path:
    """Atomically replace ``path`` with an uncompressed ``.npz`` of ``arrays``."""
    return _replace_atomic(path, "wb", lambda handle: np.savez(handle, **arrays))
