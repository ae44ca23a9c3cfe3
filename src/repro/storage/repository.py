"""Crash-safe file writes for the persistence layer.

The journal and the snapshot store depend on one exact write sequence
(temp file, optional fsync, rename, directory fsync).  It lives here once,
so the two cannot drift apart.
"""

from __future__ import annotations

import os
import tempfile

from ..errors import StorageError


def atomic_write_text(path: str, text: str, fsync: bool = False) -> None:
    """Atomically (re)place ``path`` with ``text``: temp file + rename.

    A reader never observes a partial file — it sees the old content or the
    new, nothing in between.  With ``fsync`` the data is forced to stable
    storage before the rename commits it (power-loss safety; callers should
    follow up with :func:`fsync_directory` so the rename itself survives).
    The snapshot store publishes every manifest through it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        raise StorageError("could not write {!r}: {}".format(path, exc))
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)


def fsync_directory(directory: str) -> None:
    """fsync a directory so completed file creations/renames survive power loss.

    File-data fsync alone does not make a *new* file durable: the directory
    entry lives in the directory, which has its own write-back.  Every
    durability-critical writer (WAL journal, snapshot store) shares this
    helper.
    """
    try:
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
    except OSError as exc:
        raise StorageError("could not sync {!r}: {}".format(directory, exc))
