"""Small filesystem helpers: content digests, the one writer of output
files (:class:`OutputSet`), and the session's event log and its fold,
which load no pipeline or capture code."""
from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import AbstractContextManager, suppress
from pathlib import Path
from typing import Any, BinaryIO, NamedTuple

RECORDED = "recorded"
CLASSIFIED = "classified"
CONVERTED = "converted"

STATE_NAME = "events.jsonl"  # a segment's stage is its last line there

# Held across the torn-line check and the write, so no two writers end the
# same torn line; each fsyncs after releasing it, so none waits for another.
_APPEND_LOCK = threading.Lock()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class OutputSet(AbstractContextManager):
    """The output files of one job in *directory*, which it makes.  Each is
    written to a sibling ``<name>.tmp`` and hashed as it goes out, then
    :meth:`commit` makes them durable; an exception leaving a ``with``
    block removes every file and directory the set made."""

    def __init__(self, directory: Path):
        self.dir = Path(directory)
        self._made = [d for d in (self.dir, *self.dir.parents) if not d.exists()]  # deepest first
        self.dir.mkdir(parents=True, exist_ok=True)
        self._files: dict[str, tuple[BinaryIO, Any]] = {}  # name -> (.tmp handle, sha256)
        self._committed: list[str] = []

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self.discard()

    def write(self, name: str, data: bytes) -> None:
        entry = self._files.get(name)
        if entry is None:
            entry = self._files[name] = (open(self.dir / f"{name}.tmp", "wb"), hashlib.sha256())
        entry[1].update(data)
        entry[0].write(data)

    def digest(self, name: str) -> str:
        """The sha256 of the bytes written to *name* so far."""
        return self._files[name][1].hexdigest()

    def commit(self) -> None:
        """Fsync each file and rename it over its final name (atomic on
        POSIX, so no reader sees a partial file), in the order the files
        were first written; then fsync the directory."""
        for name, (handle, _) in self._files.items():
            with handle:
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(self.dir / f"{name}.tmp", self.dir / name)
            self._committed.append(name)
        sync_dir(self.dir)

    def discard(self) -> None:
        """Remove what this set put on disk, committed files and the
        directories it made included."""
        for name, (handle, _) in self._files.items():
            with suppress(OSError):  # on a full disk, closing fails to flush again
                handle.close()
            (self.dir / f"{name}.tmp").unlink(missing_ok=True)
        for name in self._committed:
            (self.dir / name).unlink(missing_ok=True)
        for directory in self._made:
            with suppress(OSError):  # one that holds files this set did not make stays
                directory.rmdir()


def sync_dir(directory: Path) -> None:
    """Fsync *directory*, so the renames and new names in it are durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def json_document(payload: Any) -> bytes:
    """*payload* as a JSON document: indent 2, sorted keys, a trailing newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    with OutputSet(path.parent) as out:
        out.write(path.name, data)
        out.commit()


def atomic_write_json(path: Path, payload: Any) -> None:
    atomic_write_bytes(path, json_document(payload))


def read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def json_number(value, name: str, kind: str = "float") -> int | float:
    """*value* if it is a finite JSON number, not text and not a bool, and
    an int where *kind* is ``"int"``; a float field takes it as a float.
    The one rule for a number read from a JSON document."""
    if type(value) is int or (kind == "float" and type(value) is float and math.isfinite(value)):
        return value if kind == "int" else float(value)
    raise ValueError(f"{name} must be {'an integer' if kind == 'int' else 'a finite number'}: "
                     f"{value!r}")


def append_event(session_dir: Path, payload: dict) -> None:
    """Append *payload* to the session's event log as one JSON line and
    fsync it.  A torn last line, left by a crash mid-write, is ended
    first, so the event starts on a line of its own.  This is the log's
    one writer: capture's segment and gap events and every stage
    transition go through it."""
    line = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    with open(Path(session_dir) / STATE_NAME, "a+b") as handle:
        with _APPEND_LOCK:
            if end := handle.seek(0, os.SEEK_END):
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
        os.fsync(handle.fileno())


def read_events(session_dir: Path) -> list[dict]:
    """Load the session's event log, skipping any line that is not JSON,
    such as one torn by a crash mid-write."""
    events = []
    with suppress(FileNotFoundError), open(Path(session_dir) / STATE_NAME, "rb") as handle:
        for raw in handle:
            with suppress(ValueError):  # UnicodeDecodeError is a ValueError too
                events.append(json.loads(raw.decode("utf-8")))
    return events


class SegmentEntry(NamedTuple):
    name: str
    stage: str
    error: str | None = None


class StateStore:
    """Each segment's stage, as lines of the session's event log.

    A segment's ``segment_closed`` event is its ``recorded`` transition;
    each later one appends one ``{"event": "stage", ...}`` line, however
    long the session.  Entries keep the order of each segment's first line.
    """

    def __init__(self, path: Path, session_id: str):
        self.dir = Path(path).parent
        self.session_id = session_id
        self.meta: dict = {}  # session.json, as :meth:`load` read it
        self.open_times: dict[str, str | None] = {}  # each segment's last segment_open time
        self.closed: set[str] = set()  # the segments with a recorded transition
        # No lock: capture only inserts names, and one worker at a time moves a segment.
        self._entries: dict[str, SegmentEntry] = {}

    @property
    def entries(self) -> list[SegmentEntry]:
        return list(self._entries.values())

    @classmethod
    def load(cls, path: Path) -> StateStore:
        """Fold the session of the event log at *path*: its ``session.json``
        read once into :attr:`meta`, and the log once into the entries,
        :attr:`open_times` and :attr:`closed`."""
        meta = read_json(Path(path).parent / "session.json")
        store = cls(path, meta["session_id"])
        store.meta = meta
        for event in read_events(store.dir):
            kind, name = event.get("event"), event.get("segment")
            if kind == "stage":
                store._entries[name] = SegmentEntry(name, event["stage"], event["error"])
            elif kind == "segment_closed":
                store.add_segment(name)
            elif kind == "segment_open":
                store.open_times[name] = event.get("open_time")
        return store

    def add_segment(self, name: str) -> None:
        self.closed.add(name)
        self._entries.setdefault(name, SegmentEntry(name, RECORDED))

    def set_stage(self, name: str, stage: str, error: str | None = None) -> None:
        append_event(self.dir, {"event": "stage", "segment": name, "stage": stage, "error": error})
        self._entries[name] = SegmentEntry(name, stage, error)

    def stage(self, name: str) -> str:
        """*name*'s stage: ``recorded`` for a segment the log has no line of."""
        return self._entries.get(name, SegmentEntry(name, RECORDED)).stage

    def flag(self, name: str, error: str) -> None:
        self.set_stage(name, self.stage(name), error)

    def unfinished(self) -> list[SegmentEntry]:
        """The entries not yet ``converted``, or flagged with an error."""
        return [e for e in self._entries.values() if e.stage != CONVERTED or e.error is not None]
