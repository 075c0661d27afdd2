"""Whole-file writes that never leave a torn file where a good one was."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Write `data` (bytes, or text) to a temp file beside `path`, then rename
    it over `path`, so a failed or interrupted write leaves neither a
    truncated file nor the temp file.  The umask applies, as for a plain
    open()."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_file(path, data: bytes | str) -> None:
    """Write `data` (bytes, or text) to `path`.  A regular file or a new name
    is written atomically, at a symlink's target so links stay; a device,
    FIFO or dangling link is written through, as open() does."""
    path = os.fspath(path)
    if os.path.isfile(path) or not os.path.lexists(path):
        write_atomic(os.path.realpath(path), data)
    else:
        with open(path, "w" if isinstance(data, str) else "wb") as f:
            f.write(data)
