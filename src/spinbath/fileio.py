"""Atomic file writes shared by the cache and the report writers, and the
one lookup of the cache.

A cache entry is one .npy file holding one structured record of a fixed
dtype, with a "request" field that names what the entry was computed for.
Kernel tables and level-shift records both go through cached_record, which
names the entry by its key, reads and checks it, or warns once, computes
and stores it; each kind adds only its own checks of the fields it holds.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import tempfile
from typing import Callable, Sequence, Tuple, TypeVar, Union

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


def cached_record(cache_dir: str, key: Sequence[Union[str, float]], kind: str,
                  dtype: np.dtype, request: tuple,
                  read: Callable[[np.ndarray], T],
                  compute: Callable[[], Tuple[T, np.ndarray]]) -> T:
    """The value of one cache entry: read from cache_dir, or computed and
    stored there.

    The entry is the file named by the first 32 hex characters of the
    sha256 of its key parts joined by "|", each a string or a number
    written as %.17g, plus ".npy".  It holds up when it is one record of
    exactly dtype (never a pickle), whose request field equals request, and
    which read turns into the value.  One that does not, or cannot be read,
    is logged as one warning naming kind and its file, then recomputed.
    compute returns the value and its record; the record is written
    atomically, and the value is returned without reading it back.
    """
    text = "|".join(part if isinstance(part, str) else "%.17g" % part
                    for part in key)
    path = os.path.join(cache_dir,
                        hashlib.sha256(text.encode()).hexdigest()[:32] + ".npy")
    if os.path.exists(path):
        try:
            with open(path, "rb") as fh:
                # the .npy format alone: no zip archive, and never a pickle
                record = np.lib.format.read_array(fh, allow_pickle=False)
            if not (record.dtype == dtype and record.shape == ()):
                raise ValueError("it is not one record of the expected layout")
            stored = record["request"].item()
            if stored != request:
                raise ValueError("it was computed for " + ", ".join(
                    "%s=%r" % item for item in zip(dtype["request"].names, stored)))
            return read(record)
        except (OSError, ValueError) as exc:
            _log.warning("%s cache entry %s is unusable (%s); recomputing it",
                         kind, path, exc)
    value, record = compute()
    buf = io.BytesIO()
    np.save(buf, record)
    atomic_write(path, buf.getvalue())
    return value
