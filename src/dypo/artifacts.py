"""Artifact files: a reader sees the previous file or the new one, never a
part, a file that cannot be written is an ``ArtifactError`` naming it, and
a file a reader cannot read or decode is the reader's own error."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Iterator

from .errors import ArtifactError


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """Text file that replaces ``path`` only when the block exits cleanly.

    The block writes ``<path>.tmp``, which is then renamed over ``path``. If
    the block or the rename fails, the temporary file is removed and
    ``path`` keeps its previous contents; an ``OSError`` is re-raised as an
    ``ArtifactError`` naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # a directory in the temporary file's place stays
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ArtifactError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of ``path``, line ends as they are; ``error`` naming
    ``what`` and the path if it cannot be read or decoded."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
