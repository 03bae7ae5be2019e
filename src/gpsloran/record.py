"""Lossless capture of a receiver byte stream into rotating segment files.

The recorder's one job is to get every byte onto disk exactly as it
arrived: no decoding, no line framing, no filtering.  Interpretation
belongs to later stages, which only ever read closed segments.

A capture session is a directory::

    <out_dir>/<session_id>/
        session.json          static session metadata (source, policy)
        events.jsonl          append-only segment open/close + gap events
                              (and stage lines), by fsutil.append_event
        raw_<stamp>.log       verbatim byte segments, one per rotation

Rotation closes the active segment at a policy boundary (UTC midnight by
default) and opens a new one; the boundary always falls between appended
chunks, so no chunk is ever split.  Appended bytes are flushed and
fsynced at least every ``flush_interval`` wall-clock seconds (the clock's
``monotonic()``, which an accelerated replay does not speed up), which
bounds how much a crash can lose.

Every instant here, from the clock's ``now()`` through boundaries,
segment times and events, is an int of UTC epoch milliseconds, the same
form records carry; :mod:`timeutil` formats it only when it is written.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from contextlib import suppress
from pathlib import Path
from typing import NamedTuple, Protocol

from .clock import Clock, SystemClock
from .fsutil import append_event, atomic_write_json
from .timeutil import MS_PER_DAY, basic_stamp, iso_ms

# Pacing base for file replay: a classic 4800-baud NMEA feed moves about
# 480 bytes per second (10 bits per byte on the wire).  replay_speed
# multiplies this; 0 means unpaced.
REPLAY_BYTES_PER_SECOND = 480.0


class SourceClosed(Exception):
    """The source hit EOF or dropped the connection."""


class SourceUnavailable(Exception):
    """The source could not be opened within the retry budget."""


class RotationPolicy:
    """When to close the active segment: UTC-midnight-aligned (default)
    or a fixed interval from session start."""

    def __init__(self, mode: str = "utc-midnight", interval_s: float = 86400.0) -> None:
        if mode not in ("utc-midnight", "fixed-interval"):
            raise ValueError(f"unknown rotation mode: {mode!r}")
        if not 0.5 < interval_s * 1000 < math.inf:  # round() gives at least 1 ms
            raise ValueError(f"rotation interval must be finite and >= 1 ms: {interval_s!r}")
        self.mode, self.interval_s = mode, interval_s

    def next_boundary(self, now: int, session_start: int) -> int:
        """First boundary strictly after *now*, in epoch milliseconds.

        A timestamp exactly on a boundary maps to the following one, so a
        segment opened on a boundary spans a full period.
        """
        if self.mode == "utc-midnight":
            return now - now % MS_PER_DAY + MS_PER_DAY
        interval = round(self.interval_s * 1000)
        return now + interval - (now - session_start) % interval

    def to_json(self) -> dict:
        return {"mode": self.mode, "interval_s": self.interval_s}


class RawSegment:
    """One closed (or active) capture file."""

    def __init__(self, path: Path, open_time: int) -> None:
        self.path, self.open_time = path, open_time
        self.byte_count = 0
        self.digest: str | None = None

    @property
    def name(self) -> str:
        return self.path.name


# --- byte sources -----------------------------------------------------------


class ByteSource(Protocol):
    def read(self, max_bytes: int, timeout: float) -> bytes:
        """Return up to *max_bytes*; b"" on timeout; raise SourceClosed on EOF."""
        ...

    def close(self) -> None: ...


class TcpSource:
    def __init__(self, address: str, connect_timeout: float = 5.0):
        import socket  # only a TCP source loads it
        host, _, port = address.rpartition(":")
        self._sock = socket.create_connection((host, int(port)), timeout=connect_timeout)

    def read(self, max_bytes: int, timeout: float) -> bytes:
        self._sock.settimeout(timeout)
        try:
            data = self._sock.recv(max_bytes)
        except TimeoutError:
            return b""
        except OSError as exc:
            raise SourceClosed(f"connection lost: {exc}") from None
        if not data:
            raise SourceClosed("connection closed by peer")
        return data

    def close(self) -> None:
        with suppress(OSError):
            self._sock.close()


class SerialSource:
    """Reads a serial-style character device (or FIFO) as raw bytes."""

    def __init__(self, address: str):
        from select import select  # only a serial source loads it
        self._select = select
        self._fd = os.open(address, os.O_RDONLY | os.O_NONBLOCK)

    def read(self, max_bytes: int, timeout: float) -> bytes:
        ready, _, _ = self._select([self._fd], [], [], timeout)
        if not ready:
            return b""
        try:
            data = os.read(self._fd, max_bytes)
        except BlockingIOError:
            return b""
        if not data:
            raise SourceClosed("device closed")
        return data

    def close(self) -> None:
        with suppress(OSError):
            os.close(self._fd)


class FileReplaySource:
    """Replays a previously captured file, paced like a live feed.

    replay_speed multiplies the nominal NMEA feed rate
    (:data:`REPLAY_BYTES_PER_SECOND`); 0 replays as fast as possible.
    """

    def __init__(self, address: str, replay_speed: float = 1.0, clock: Clock | None = None):
        self._handle = open(address, "rb")
        self._speed = replay_speed
        self._clock = clock or SystemClock()
        self._started: int | None = None
        self._sent = 0

    def read(self, max_bytes: int, timeout: float) -> bytes:
        if self._speed:
            now = self._clock.now()
            if self._started is None:
                self._started = now
            rate = REPLAY_BYTES_PER_SECOND * self._speed
            budget = int((now - self._started) / 1000 * rate) - self._sent
            if budget < 1:
                self._clock.sleep(min(timeout, max(1.0 / rate, 0.001)))
                return b""
            max_bytes = min(max_bytes, budget)
        data = self._handle.read(max_bytes)
        if not data:
            raise SourceClosed("end of replay file")
        self._sent += len(data)
        return data

    def close(self) -> None:
        self._handle.close()


class RetryPolicy(NamedTuple):
    """Exponential backoff for opening (and reopening) a source."""

    max_attempts: int = 5
    initial_delay_s: float = 0.5
    max_delay_s: float = 30.0

    def delays(self):
        delay = min(self.initial_delay_s, self.max_delay_s)
        for _ in range(self.max_attempts - 1):
            yield delay
            delay = min(delay * 2, self.max_delay_s)


def open_source(text: str, clock: Clock | None = None, retry: RetryPolicy = RetryPolicy(),
                replay_speed: float = 1.0) -> ByteSource:
    """Open the byte source *text* names, retrying with backoff before
    declaring it unavailable.  *text* is ``tcp:<host>:<port>`` (a port from
    1 to 65535), ``serial:<device>`` or ``replay:<file>``; any other text is
    a ``ValueError`` before the first attempt."""
    clock = clock or SystemClock()
    kind, _, address = text.partition(":")
    host, _, port = address.rpartition(":")
    opener = {"tcp": lambda: TcpSource(address), "serial": lambda: SerialSource(address),
              "replay": lambda: FileReplaySource(address, replay_speed, clock)}.get(kind)
    if opener is None or not address or kind == "tcp" and not (
            host and port.isascii() and port.isdigit() and 0 < int(port) < 65536):
        raise ValueError("source must be tcp:<host>:<port> (port 1 to 65535), serial:<device> "
                         f"or replay:<file>: {text!r}")
    for delay in (*retry.delays(), None):  # one attempt more than waits
        try:
            return opener()
        except OSError as exc:
            if delay is None:
                raise SourceUnavailable(f"cannot open {kind} source {address!r}: {exc}") from None
            clock.sleep(delay)


# --- capture session --------------------------------------------------------


class CaptureSession:
    """Single-writer capture into a session directory.

    Exactly one loop appends; rotation happens between appends.  Closed
    segments are immutable and safe for concurrent readers.
    """

    def __init__(self, out_dir: Path, *, session_id: str | None = None, source_text: str = "",
                 rotation: RotationPolicy | None = None, flush_interval: float = 1.0,
                 clock: Clock | None = None, extra_config: dict | None = None):
        self.clock = clock or SystemClock()
        self.rotation = rotation or RotationPolicy()
        self.flush_interval = flush_interval
        now = self.clock.now()
        self.session_id = session_id or f"session_{basic_stamp(now)}"
        self.dir = Path(out_dir) / self.session_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.session_start = now
        metadata = {
            "session_id": self.session_id,
            "source": source_text,
            "rotation": self.rotation.to_json(),
            "flush_interval_s": flush_interval,
            "start_time": iso_ms(now),
            **(extra_config or {}),
        }
        atomic_write_json(self.dir / "session.json", metadata)
        self._handle = None
        self.active = self._open_segment(now)
        self.next_boundary = self.rotation.next_boundary(now, self.session_start)

    # -- segment lifecycle

    def _open_segment(self, now: int) -> RawSegment:
        stem = f"raw_{basic_stamp(now)}"
        path = self.dir / f"{stem}.log"
        bump = 1
        while path.exists():
            bump += 1
            path = self.dir / f"{stem}_{bump}.log"
        segment = RawSegment(path=path, open_time=now)
        self._handle = open(path, "wb")
        self._hasher = hashlib.sha256()
        self._last_flush = self.clock.monotonic()
        append_event(self.dir, {"event": "segment_open", "segment": path.name,
                                "open_time": iso_ms(now)})
        return segment

    def append(self, chunk: bytes) -> None:
        """Append *chunk* verbatim to the active segment (never split)."""
        if self._handle is None:
            raise RuntimeError("session is closed")
        self._handle.write(chunk)
        self._hasher.update(chunk)
        self.active.byte_count += len(chunk)
        self.maybe_flush()

    def maybe_flush(self) -> None:
        """Flush+fsync if flush_interval wall-clock seconds have elapsed;
        callers tick this even when idle so the durability bound holds
        without traffic."""
        now = self.clock.monotonic()
        if now - self._last_flush >= self.flush_interval:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._last_flush = now

    def due_rotation(self, now: int | None = None) -> bool:
        return (self.clock.now() if now is None else now) >= self.next_boundary

    def rotate(self) -> RawSegment:
        """Close the active segment at the current boundary and open the
        next one.  Returns the closed, immutable segment."""
        closed = self._close_active(boundary=self.next_boundary)
        now = self.clock.now()
        self.active = self._open_segment(now)
        self.next_boundary = self.rotation.next_boundary(now, self.session_start)
        return closed

    def close(self) -> RawSegment:
        """Close the session, returning the final segment."""
        closed = self._close_active(boundary=None)
        self._handle = None
        return closed

    def _close_active(self, boundary: int | None) -> RawSegment:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        segment = self.active
        segment.digest = self._hasher.hexdigest()
        event = {
            "event": "segment_closed",
            "segment": segment.name,
            "open_time": iso_ms(segment.open_time),
            "close_time": iso_ms(self.clock.now()),
            "byte_count": segment.byte_count,
            "digest": segment.digest,
        }
        if boundary is not None:
            event["boundary"] = iso_ms(boundary)
        try:
            append_event(self.dir, event)
        except OSError as exc:
            # A metadata failure must not abort rotation; note it and go on.
            logging.getLogger(__name__).error(
                "event=digest_pending segment=%s error=%s", segment.name, json.dumps(str(exc))
            )
        return segment

    def record_gap(self, start: int, end: int, reason: str) -> None:
        append_event(self.dir, {"event": "gap", "start": iso_ms(start), "end": iso_ms(end),
                                "reason": reason})

