"""Atomic file writes: a file lands whole at its path or not at all.

Checkpoints, recorded traces and promoted stressors are written through
:func:`atomic_write`, so a crash or a full disk mid-write never leaves a
truncated file at the target path, nor a temporary one beside it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator, Union


@contextmanager
def atomic_write(
    path: Union[str, os.PathLike], mode: str = "wb", **open_kwargs
) -> Iterator[IO]:
    """Write ``path`` through a temporary sibling.

    Yields the open temporary file.  On a clean exit it is flushed,
    fsynced and moved onto ``path`` with :func:`os.replace`; on any
    failure it is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.tmp.{os.getpid()}")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
