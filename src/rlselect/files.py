"""Whole-file writes: a reader sees the old file or the new one, never a partial one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replace_atomically(path):
    """Open a UTF-8 text file beside ``path`` for writing; on a clean exit it replaces ``path``.

    Line ends pass untranslated, as csv needs. If the block raises, the
    temporary file is removed and ``path`` keeps its earlier contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
