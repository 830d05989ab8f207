"""Atomic file writes shared by the cache and the report writers, and the
one record store of the cache.

A cache entry is one .npy file holding one structured record of a fixed
dtype, with a "request" field that names what the entry was computed for.
Kernel tables and level-shift records are both stored, read and checked
here; each kind adds only its own checks of the fields it holds.
"""

from __future__ import annotations

import io
import logging
import os
import tempfile
from typing import Callable, Optional, TypeVar, Union

import numpy as np

_log = logging.getLogger(__name__)

T = TypeVar("T")


def atomic_write(path: str, text: Union[str, bytes]) -> None:
    """Write text (or bytes) to path through a unique temporary file and a rename.

    Readers see either the old file or the complete new one, and concurrent
    writers of the same path never share a temporary file.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_record(path: str, record: np.ndarray) -> None:
    """Store one structured record at path as .npy, atomically."""
    buf = io.BytesIO()
    np.save(buf, record)
    atomic_write(path, buf.getvalue())


def read_record(path: str, dtype: np.dtype, request: tuple) -> np.ndarray:
    """The record at path, checked to be one record of exactly dtype (never
    a pickle) whose request field equals request; ValueError otherwise."""
    with open(path, "rb") as fh:
        # the .npy format alone: no zip archive, and never a pickle
        record = np.lib.format.read_array(fh, allow_pickle=False)
    if not (record.dtype == dtype and record.shape == ()):
        raise ValueError("it is not one record of the expected layout")
    stored = record["request"].item()
    if stored != request:
        raise ValueError("it was computed for " + ", ".join(
            "%s=%r" % item for item in zip(dtype["request"].names, stored)))
    return record


def load_record(path: str, kind: str, read: Callable[[str], T]) -> Optional[T]:
    """read(path), or None when the entry is absent or does not hold up.

    An entry that read refuses with ValueError, or that cannot be read, is
    logged as one warning naming the kind of entry and its file; the caller
    then recomputes and rewrites it.
    """
    if not os.path.exists(path):
        return None
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        _log.warning("%s cache entry %s is unusable (%s); recomputing it",
                     kind, path, exc)
        return None
