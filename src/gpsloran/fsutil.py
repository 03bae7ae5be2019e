"""Small filesystem helpers: content digests and atomic writes."""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from pathlib import Path
from typing import Any


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class AtomicWriter:
    """Stream bytes to *path*, hashing them, via a sibling ``<name>.tmp``
    that :meth:`commit` fsyncs and renames over *path*; rename is atomic on
    POSIX filesystems, so readers never observe a partial file.  Leaving a
    ``with`` block by an exception discards the writer."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.tmp = self.path.with_name(self.path.name + ".tmp")
        self.digest = hashlib.sha256()
        self.committed = False
        self._handle = open(self.tmp, "wb")

    def __enter__(self) -> AtomicWriter:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self.discard()

    def write(self, data: bytes) -> None:
        self.digest.update(data)
        self._handle.write(data)

    def commit(self) -> str:
        """Make the file durable under its final name; return its sha256."""
        with self._handle:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        os.replace(self.tmp, self.path)
        self.committed = True
        return self.digest.hexdigest()

    def discard(self) -> None:
        """Remove what this writer put on disk, the committed file included."""
        with suppress(OSError):  # on a full disk, closing fails to flush again
            self._handle.close()
        self.tmp.unlink(missing_ok=True)
        if self.committed:
            self.path.unlink(missing_ok=True)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    with AtomicWriter(path) as writer:
        writer.write(data)
        writer.commit()


def atomic_write_json(path: Path, payload: Any) -> None:
    atomic_write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
