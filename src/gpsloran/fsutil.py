"""Small filesystem helpers: content digests, atomic writes, and the
session's event log and its fold, which load no pipeline or capture code."""
from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import suppress
from pathlib import Path
from typing import Any, NamedTuple

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
