"""Atomic file writes shared by the kernel cache and the report writers."""

from __future__ import annotations

import os
import tempfile
from typing import Union


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
