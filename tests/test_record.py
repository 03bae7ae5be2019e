import calendar
import errno
import hashlib
import json
import os
import random
import socket
import struct
import sys
import threading
import time
from datetime import datetime, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsloran.record import (
    CaptureSession,
    FileReplaySource,
    RetryPolicy,
    RotationPolicy,
    SerialSource,
    SourceClosed,
    SourceUnavailable,
    TcpSource,
    open_source,
)
from gpsloran import fsutil
from gpsloran.fsutil import append_event, read_events, read_json, sha256_file

from conftest import ManualClock, ms, utc


START = utc(2020, 4, 17, 9, 30, 0)
START_MS = ms(2020, 4, 17, 9, 30, 0)


def make_session(tmp_path, clock, **kwargs):
    kwargs.setdefault("session_id", "s1")
    kwargs.setdefault("rotation", RotationPolicy())
    return CaptureSession(tmp_path, clock=clock, **kwargs)


# --- rotation boundary arithmetic ---------------------------------------------


def test_midnight_boundary_from_midday():
    policy = RotationPolicy()
    assert policy.next_boundary(START_MS, START_MS) == ms(2020, 4, 18)


def test_midnight_boundary_exactly_at_midnight():
    policy = RotationPolicy()
    midnight = ms(2020, 4, 17)
    assert policy.next_boundary(midnight, midnight) == ms(2020, 4, 18)


def test_midnight_boundary_strictly_after():
    policy = RotationPolicy()
    midnight = ms(2020, 4, 17)
    # a hair past or before midnight rolls to the nearest one after it
    assert policy.next_boundary(midnight + 1, midnight) == ms(2020, 4, 18)
    assert policy.next_boundary(midnight - 1, midnight) == midnight
    # the session start plays no part
    assert policy.next_boundary(START_MS, 0) == ms(2020, 4, 18)
    # instants before the epoch are ints like any other
    assert policy.next_boundary(ms(1969, 12, 31, 12), 0) == 0


@given(st.integers(min_value=ms(2000, 1, 1), max_value=ms(2099, 12, 31, 23, 59, 59, 999)))
def test_midnight_boundary_property(now):
    boundary = RotationPolicy().next_boundary(now, START_MS)
    assert now < boundary <= now + 86_400_000
    assert boundary % 86_400_000 == 0


def test_fixed_interval_boundaries_from_start():
    policy = RotationPolicy(mode="fixed-interval", interval_s=3600.0)
    # session started 09:30: boundaries at 10:30, 11:30, ... aligned to start
    assert policy.next_boundary(START_MS, START_MS) == ms(2020, 4, 17, 10, 30)
    assert policy.next_boundary(ms(2020, 4, 17, 10, 30), START_MS) == ms(2020, 4, 17, 11, 30)
    assert policy.next_boundary(ms(2020, 4, 17, 11, 29, 59), START_MS) == ms(2020, 4, 17, 11, 30)


def test_rotation_policy_validation():
    with pytest.raises(ValueError):
        RotationPolicy(mode="hourly")
    with pytest.raises(ValueError):
        RotationPolicy(interval_s=0)
    with pytest.raises(ValueError):
        RotationPolicy(interval_s=-60)
    for interval in (0.0001, 0.0005, float("inf"), float("nan")):  # 0 ms, or not a number of ms
        with pytest.raises(ValueError):
            RotationPolicy(mode="fixed-interval", interval_s=interval)
    assert RotationPolicy(mode="fixed-interval", interval_s=0.001).next_boundary(5, 0) == 6


@given(
    st.integers(min_value=0, max_value=10 * 86400 * 1000),
    st.sampled_from([60.0, 3600.0, 86400.0, 900.5, 0.4]),
)
def test_fixed_interval_boundary_properties(offset_ms, interval):
    policy = RotationPolicy(mode="fixed-interval", interval_s=interval)
    now = START_MS + offset_ms
    boundary = policy.next_boundary(now, START_MS)
    assert now < boundary <= now + interval * 1000
    # boundary sits on the session-start lattice
    assert (boundary - START_MS) % round(interval * 1000) == 0


def calendar_ms(moment: datetime) -> int:
    return calendar.timegm(moment.timetuple()) * 1000 + moment.microsecond // 1000


@given(
    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31)),
    st.integers(min_value=0, max_value=400 * 86400 * 1000),
    st.one_of(st.none(), st.integers(min_value=1, max_value=3 * 86400 * 1000)),
)
def test_next_boundary_matches_calendar_arithmetic(start, offset_ms, interval_ms):
    """Both modes against a computation on datetimes and the calendar."""
    start = start.replace(microsecond=start.microsecond // 1000 * 1000)
    now = start + timedelta(milliseconds=offset_ms)
    if interval_ms is None:
        policy = RotationPolicy()
        expected = datetime.combine(now.date() + timedelta(days=1), datetime.min.time())
    else:
        policy = RotationPolicy(mode="fixed-interval", interval_s=interval_ms / 1000)
        periods = (now - start) // timedelta(milliseconds=interval_ms) + 1
        expected = start + periods * timedelta(milliseconds=interval_ms)
    assert policy.next_boundary(calendar_ms(now), calendar_ms(start)) == calendar_ms(expected)


# --- lossless capture ----------------------------------------------------------


def test_capture_concatenation_is_input(tmp_path):
    rng = random.Random(5)
    data = bytes(rng.randrange(256) for _ in range(40000))
    clock = ManualClock(START)
    session = make_session(
        tmp_path, clock, rotation=RotationPolicy(mode="fixed-interval", interval_s=60)
    )
    position = 0
    segments = []
    while position < len(data):
        size = rng.randrange(1, 700)
        session.append(data[position : position + size])
        position += size
        if rng.random() < 0.05:
            clock.advance(61)
        while session.due_rotation(clock.now()):
            segments.append(session.rotate())
    segments.append(session.close())
    assert len(segments) >= 3
    replay = b"".join(seg.path.read_bytes() for seg in segments)
    assert replay == data


def test_segment_digests_match_contents(tmp_path):
    clock = ManualClock(START)
    session = make_session(tmp_path, clock)
    session.append(b"\x00\xff$GPGGA,binary-safe\r\n")
    session.append("non-ascii µ bytes".encode("utf-8"))
    segment = session.close()
    assert segment.digest == sha256_file(segment.path)
    assert segment.byte_count == segment.path.stat().st_size
    expected = hashlib.sha256(segment.path.read_bytes()).hexdigest()
    assert segment.digest == expected


def test_due_rotation_takes_instant_zero_as_given(tmp_path):
    clock = ManualClock(utc(1970, 1, 1))
    session = make_session(tmp_path, clock)
    clock.advance(2 * 86400)
    assert session.due_rotation()
    assert not session.due_rotation(0)  # the epoch itself is an instant, not "now"
    session.close()


def test_rotation_never_splits_a_chunk(tmp_path):
    clock = ManualClock(START)
    session = make_session(
        tmp_path, clock, rotation=RotationPolicy(mode="fixed-interval", interval_s=10)
    )
    chunk = b"$GPGGA,atomic-chunk*00\r\n"
    segments = []
    for _ in range(5):
        session.append(chunk)
        clock.advance(11)
        while session.due_rotation(clock.now()):
            segments.append(session.rotate())
    segments.append(session.close())
    for seg in segments:
        content = seg.path.read_bytes()
        assert len(content) % len(chunk) == 0


def test_empty_segments_are_valid(tmp_path):
    clock = ManualClock(START)
    session = make_session(
        tmp_path, clock, rotation=RotationPolicy(mode="fixed-interval", interval_s=10)
    )
    clock.advance(11)
    first = session.rotate()
    final = session.close()
    assert first.byte_count == 0
    assert first.path.exists()
    assert final.byte_count == 0


def test_segment_names_unique_under_fast_rotation(tmp_path):
    clock = ManualClock(START)
    session = make_session(
        tmp_path, clock, rotation=RotationPolicy(mode="fixed-interval", interval_s=0.25)
    )
    segments = []
    for _ in range(4):
        clock.advance(0.26)
        segments.append(session.rotate())
    segments.append(session.close())
    names = [seg.name for seg in segments]
    assert len(names) == len(set(names))


# --- durability ----------------------------------------------------------------


def test_appends_become_durable_within_flush_interval(tmp_path):
    clock = ManualClock(START)
    session = make_session(tmp_path, clock, flush_interval=1.0)
    session.append(b"A" * 100)
    clock.advance(1.5)
    session.append(b"B" * 100)  # crossing the interval flushes
    on_disk = session.active.path.read_bytes()
    assert on_disk == b"A" * 100 + b"B" * 100
    session.close()


def test_idle_flush_via_maybe_flush(tmp_path):
    clock = ManualClock(START)
    session = make_session(tmp_path, clock, flush_interval=1.0)
    session.append(b"X" * 10)
    clock.advance(2.0)
    session.maybe_flush()  # capture loop calls this on idle timeouts
    assert session.active.path.read_bytes() == b"X" * 10
    session.close()


# --- session records -------------------------------------------------------------


def test_session_metadata_and_events(tmp_path):
    clock = ManualClock(START)
    session = make_session(
        tmp_path,
        clock,
        source_text="replay:/tmp/x.log",
        rotation=RotationPolicy(mode="fixed-interval", interval_s=60),
        extra_config={"pipeline": {"formats": ["columns"]}},
    )
    meta = read_json(session.dir / "session.json")
    assert meta["session_id"] == "s1"
    assert meta["source"] == "replay:/tmp/x.log"
    assert meta["rotation"] == {"mode": "fixed-interval", "interval_s": 60}
    assert meta["start_time"] == "2020-04-17T09:30:00.000Z"
    assert meta["pipeline"] == {"formats": ["columns"]}

    session.append(b"hello\r\n")
    clock.advance(61)
    first = session.rotate()
    session.record_gap(clock.now(), clock.now(), "reconnect")
    session.close()

    events = read_events(session.dir)
    kinds = [event["event"] for event in events]
    assert kinds.count("segment_closed") == 2
    assert "gap" in kinds
    closed = [event for event in events if event["event"] == "segment_closed"]
    assert closed[0]["byte_count"] == 7
    assert closed[0]["digest"] == sha256_file(first.path)
    # rotation-driven close records the policy boundary it honored
    assert closed[0]["boundary"] == "2020-04-17T09:31:00.000Z"
    assert "boundary" not in closed[1]


def test_read_events_tolerates_torn_tail(tmp_path):
    clock = ManualClock(START)
    session = make_session(tmp_path, clock)
    session.append(b"x")
    session.close()
    events_path = session.dir / "events.jsonl"
    with open(events_path, "ab") as handle:
        handle.write(b'{"event": "segment_clo')  # torn write mid-crash
    events = read_events(session.dir)
    assert [event["event"] for event in events] == ["segment_open", "segment_closed"]


def test_an_event_after_a_torn_line_starts_a_line_of_its_own(tmp_path):
    clock = ManualClock(START)
    session = make_session(tmp_path, clock)
    session.close()
    events_path = session.dir / "events.jsonl"
    with open(events_path, "ab") as handle:
        handle.write(b'{"event": "segment_clo')  # torn write mid-crash
    append_event(session.dir, {"event": "gap", "reason": "test"})
    append_event(session.dir, {"event": "gap", "reason": "again"})
    lines = events_path.read_bytes().split(b"\n")
    assert lines[2:] == [b'{"event": "segment_clo', b'{"event": "gap", "reason": "test"}',
                         b'{"event": "gap", "reason": "again"}', b""]
    assert [event["event"] for event in read_events(session.dir)] == [
        "segment_open", "segment_closed", "gap", "gap"]


def test_concurrent_appends_end_a_torn_line_once(tmp_path, monkeypatch):
    """Threads appending at once to a log that ends in a torn line: one
    newline ends it, and every other line is a whole event of its own.
    Each read of the log's last byte sleeps, so writers that did not
    exclude each other would all find the torn line and each end it."""
    class SlowReads:
        def __init__(self, handle):
            self._handle = handle

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._handle.close()

        def read(self, size):
            time.sleep(0.005)
            return self._handle.read(size)

    monkeypatch.setattr(fsutil, "open", lambda *args: SlowReads(open(*args)), raising=False)
    torn = '{"event": "segment_clo'
    (tmp_path / "events.jsonl").write_text(torn)
    writers, each = 4, 10
    start = threading.Barrier(writers)

    def write(writer):
        start.wait()
        for index in range(each):
            fsutil.append_event(tmp_path, {"event": "gap", "writer": writer, "index": index})

    threads = [threading.Thread(target=write, args=(writer,)) for writer in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    lines = (tmp_path / "events.jsonl").read_text().split("\n")
    assert lines[0] == torn and lines[-1] == ""
    events = [json.loads(line) for line in lines[1:-1]]
    assert sorted((event["writer"], event["index"]) for event in events) == [
        (writer, index) for writer in range(writers) for index in range(each)]


def test_a_close_event_that_cannot_be_written_does_not_stop_rotation(
        tmp_path, monkeypatch, caplog):
    def full_disk_append(session_dir, payload):
        if payload["event"] == "segment_closed":
            raise OSError(errno.ENOSPC, "disk full")
        append_event(session_dir, payload)

    monkeypatch.setattr("gpsloran.record.append_event", full_disk_append)
    clock = ManualClock(START)
    session = make_session(
        tmp_path, clock, rotation=RotationPolicy(mode="fixed-interval", interval_s=10)
    )
    session.append(b"kept")
    clock.advance(11)
    closed = session.rotate()
    session.append(b"more")
    assert closed.digest == sha256_file(closed.path)
    assert session.close().path.read_bytes() == b"more"
    assert f"event=digest_pending segment={closed.name}" in caplog.text
    assert [(event["event"], event["segment"]) for event in read_events(session.dir)] == [
        ("segment_open", closed.name), ("segment_open", session.active.name)]


# --- sources --------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "ftp:host:1", "tcp:just-a-host", "tcp:host:abc", "tcp::", "tcp::4001", "tcp:127.0.0.1:-1",
    "tcp:127.0.0.1:0", "tcp:127.0.0.1:65536", "tcp:127.0.0.1:+80", "tcp:127.0.0.1:٨٠",
    "serial:", "replay:", "replay", "", "injected",
])
def test_open_source_rejects_a_malformed_text_before_any_attempt(text):
    """Only ``tcp:<host>:<port>`` with a port from 1 to 65535,
    ``serial:<device>`` and ``replay:<file>``, each with an address, name a
    source; any other text fails at once, with no backoff wait."""
    clock = ManualClock(START)
    with pytest.raises(ValueError, match="source must be tcp:<host>:<port>"):
        open_source(text, clock=clock, retry=RetryPolicy(max_attempts=3, initial_delay_s=0.5))
    assert clock.now() == START_MS


def test_replay_source_unpaced_returns_everything(tmp_path):
    blob = b"line one\r\nline two\r\n" * 50
    path = tmp_path / "raw.log"
    path.write_bytes(blob)
    source = FileReplaySource(str(path), replay_speed=0)
    got = b""
    with pytest.raises(SourceClosed):
        while True:
            got += source.read(64, timeout=0.01)
    source.close()
    assert got == blob


def test_replay_source_paced_by_clock(tmp_path):
    blob = b"x" * 960  # two nominal seconds of feed
    path = tmp_path / "raw.log"
    path.write_bytes(blob)
    clock = ManualClock(START)
    source = FileReplaySource(str(path), replay_speed=1.0, clock=clock)

    def drain():
        got = b""
        while True:
            try:
                chunk = source.read(4096, timeout=0.0)
            except SourceClosed:
                return got, True
            if not chunk:
                return got, False
            got += chunk

    assert source.read(4096, timeout=0.0) == b""  # anchors the stream, nothing due
    clock.advance(0.5)
    first, closed = drain()
    assert not closed
    assert abs(len(first) - 240) <= 1  # half a nominal second of bytes
    clock.advance(5.0)
    rest, closed = drain()
    assert closed
    assert first + rest == blob
    source.close()


def test_tcp_source_reads_then_closes():
    server = socket.create_server(("127.0.0.1", 0))
    host, port = server.getsockname()

    def feed():
        conn, _ = server.accept()
        conn.sendall(b"$GPGGA,from-tcp\r\n")
        conn.close()

    thread = threading.Thread(target=feed)
    thread.start()
    source = TcpSource(f"{host}:{port}")
    got = b""
    try:
        while True:
            got += source.read(4096, timeout=0.5)
    except SourceClosed:
        pass
    thread.join()
    server.close()
    source.close()
    assert got == b"$GPGGA,from-tcp\r\n"


def tcp_pair():
    """A connected (TcpSource, server-side socket) pair on loopback."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        host, port = server.getsockname()
        source = TcpSource(f"{host}:{port}")
        server.settimeout(5.0)
        conn, _ = server.accept()
    return source, conn


def test_tcp_source_read_times_out_empty():
    source, conn = tcp_pair()
    try:
        assert source.read(4096, timeout=0.05) == b""  # connected, nothing sent
        conn.sendall(b"$GPGGA,late\r\n")
        assert source.read(4096, timeout=5.0) == b"$GPGGA,late\r\n"
    finally:
        conn.close()
        source.close()


def test_tcp_source_reset_by_peer_is_a_lost_connection():
    source, conn = tcp_pair()
    # SO_LINGER (on, 0 s) makes close() send a reset instead of an orderly FIN
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.close()
    try:
        with pytest.raises(SourceClosed, match="^connection lost: "):
            source.read(4096, timeout=5.0)
    finally:
        source.close()


def test_serial_source_read_times_out_empty_while_the_writer_is_idle(tmp_path):
    fifo = tmp_path / "tty"
    os.mkfifo(fifo)
    writer = os.open(fifo, os.O_RDWR)  # holds the FIFO open without blocking
    source = SerialSource(str(fifo))
    try:
        assert source.read(4096, timeout=0.05) == b""
        os.write(writer, b"$GPGGA,serial\r\n")
        assert source.read(4096, timeout=5.0) == b"$GPGGA,serial\r\n"
    finally:
        source.close()
        os.close(writer)


def test_open_source_retries_then_gives_up(tmp_path):
    clock = ManualClock(START)
    retry = RetryPolicy(max_attempts=3, initial_delay_s=0.5)
    with pytest.raises(SourceUnavailable):
        open_source(f"replay:{tmp_path / 'missing.log'}", clock=clock, retry=retry)
    # two backoff sleeps between three attempts: 0.5 + 1.0
    assert clock.now() == START_MS + 1500


def test_open_source_recovers_when_source_appears(tmp_path):
    path = tmp_path / "late.log"

    class CreatingClock(ManualClock):
        def sleep(self, seconds):
            path.write_bytes(b"late data")
            super().sleep(seconds)

    clock = CreatingClock(START)
    source = open_source(f"replay:{path}", clock=clock, retry=RetryPolicy(max_attempts=2))
    assert isinstance(source, FileReplaySource)  # opened on the second attempt
    assert clock.now() == START_MS + 500  # after one backoff wait
    source.close()


def test_retry_policy_delays_double_and_cap():
    policy = RetryPolicy(max_attempts=6, initial_delay_s=1.0, max_delay_s=4.0)
    assert list(policy.delays()) == [1.0, 2.0, 4.0, 4.0, 4.0]
    # the first wait is capped too
    assert list(RetryPolicy(4, 10.0, 1.0).delays()) == [1.0, 1.0, 1.0]
