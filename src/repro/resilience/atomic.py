"""Atomic file writes for experiment artifacts.

An interrupted run must never leave a torn JSON/CSV on disk: exports,
telemetry traces and checkpoints are all written to a temporary file in
the *target directory* (same filesystem, so the final rename cannot
cross a device boundary) and moved into place with :func:`os.replace`,
which is atomic on POSIX and Windows.  Readers therefore observe either
the previous complete artifact or the new complete artifact — never a
prefix.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

PathLike = Union[str, Path]


@contextmanager
def atomic_write(
    path: PathLike,
    mode: str = "w",
    encoding: str = "utf-8",
    newline: str = None,
) -> Iterator[IO]:
    """Open a temp file next to ``path``; atomically rename on success.

    On any exception the temp file is removed and the original artifact
    (if any) is left untouched.  The data is flushed and fsynced before
    the rename, so a crash immediately after the context exits still
    leaves a complete file.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=f".{target.name}.", suffix=".tmp"
    )
    handle = os.fdopen(fd, mode, encoding=encoding, newline=newline)
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp_name, str(target))
    except BaseException:
        try:
            handle.close()
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        raise
