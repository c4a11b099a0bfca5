"""Atomic artifact writes: a reader sees the previous file or the new one, never a part."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """Text file that replaces ``path`` only when the block exits cleanly.

    The block writes ``<path>.tmp``, which is then renamed over ``path``. If
    the block or the rename fails, the temporary file is removed and
    ``path`` keeps its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
