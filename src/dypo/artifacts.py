"""Artifact files: a reader sees the previous file or the new one, never a
part, and a file it cannot read or decode is the reader's own error."""

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


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of ``path``, line ends as they are; ``error`` naming
    ``what`` and the path if it cannot be read or decoded."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
