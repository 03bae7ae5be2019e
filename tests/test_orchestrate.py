import errno
import json
import logging
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time as time_mod
import tracemalloc
from pathlib import Path

import pytest

from gpsloran.clock import AcceleratedClock, SystemClock
from gpsloran.classify import REPORT_NAME
from gpsloran.convert import MANIFEST_NAME, export, merge_sort
from gpsloran.fsutil import append_event, read_events, read_json, sha256_file
from gpsloran.orchestrate import (
    CLASSIFIED,
    CONVERTED,
    RECORDED,
    STATE_NAME,
    Hooks,
    StateStore,
    convert_classified,
    pipeline_settings,
    process_segment,
    recover,
    run_pipeline,
    segment_open_time,
    write_parse_errors,
)
from gpsloran.parse import ParseIssue, parse_classified
from gpsloran.record import CaptureSession, RetryPolicy
from gpsloran.simulate import Scenario, SimServer, StationSpec, generate_stream

from conftest import (ManualClock, ScriptedSource, SimulatedCrash, crlf, gga_line, ms, plrm_line,
                      sentence, utc, zda_line)


START = utc(2020, 4, 17, 12, 0, 0)
START_MS = ms(2020, 4, 17, 12, 0, 0)


def base_config(tmp_path, **overrides):
    config = {
        "out_dir": str(tmp_path),
        "session_id": "unit",
        "rotation": "1h",
        "on_eof": "stop",
        "inline_processing": True,
        "formats": ["columns", "lines"],
    }
    config.update(overrides)
    return config


def lines_block_one():
    return crlf(
        zda_line(START),
        gga_line(tod="120001.000"),
        plrm_line(tod="120002.000"),
    )


def lines_block_two():
    return crlf(
        zda_line(utc(2020, 4, 17, 13, 1, 45)),
        gga_line(tod="130150.000"),
    )


# --- configuration helpers -----------------------------------------------------


def test_pipeline_settings_defaults_and_filtering():
    settings = pipeline_settings({"formats": ["lines"], "bogus": 1})
    assert settings["formats"] == ["lines"]
    assert settings["gap_threshold_s"] == 300.0
    assert settings["on_eof"] == "reconnect"
    assert "bogus" not in settings


def test_rotation_from_config_variants():
    assert pipeline_settings({})["rotation"].mode == "utc-midnight"
    assert pipeline_settings({"rotation": "utc-midnight"})["rotation"].mode == "utc-midnight"
    policy = pipeline_settings({"rotation": "6h"})["rotation"]
    assert (policy.mode, policy.interval_s) == ("fixed-interval", 21600.0)
    policy = pipeline_settings({"rotation": {"mode": "fixed-interval", "interval_s": 60}})[
        "rotation"]
    assert policy.interval_s == 60.0


def test_clock_from_config():
    assert isinstance(pipeline_settings({})["clock"], SystemClock)
    clock = pipeline_settings(
        {"clock": {"kind": "accelerated", "start": "2020-04-17T00:00:00.000Z", "factor": 100}}
    )["clock"]
    assert isinstance(clock, AcceleratedClock)
    assert clock.now() >= ms(2020, 4, 17)
    with pytest.raises(ValueError):
        pipeline_settings({"clock": {"kind": "lunar"}})


def test_retry_from_config():
    assert pipeline_settings({})["retry"] == RetryPolicy()
    assert pipeline_settings({"retry": {"max_attempts": 2}})["retry"] == RetryPolicy()._replace(
        max_attempts=2)


def test_accelerated_clock_scales_time():
    clock = AcceleratedClock(start=START, factor=1000.0)
    wall_before = time_mod.monotonic()
    time_mod.sleep(0.02)
    elapsed = (clock.now() - START_MS) / 1000
    wall = time_mod.monotonic() - wall_before
    assert elapsed >= 0.02 * 1000 * 0.5
    assert elapsed <= (wall + 0.1) * 1000


def test_accelerated_replay_flushes_on_wall_clock_seconds(tmp_path, monkeypatch):
    """flush_interval_s counts wall-clock seconds, not the clock's: a 1000x
    replay of 200 s of feed (about 0.2 s of wall time) fsyncs the raw
    segment about once per wall second, not once per replayed second."""
    feed = tmp_path / "feed.log"
    feed.write_bytes(crlf(*[gga_line(tod=f"12{i // 60 % 60:02d}{i % 60:02d}.000")
                            for i in range(1200)]))  # 96 000 bytes: 200 s at 480 B/s
    synced_inodes = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        synced_inodes.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    config = {
        "source": f"replay:{feed}",
        "out_dir": str(tmp_path / "out"),
        "session_id": "fast",
        "on_eof": "stop",
        "process_segments": False,
        "flush_interval_s": 1.0,
    }
    wall_before = time_mod.monotonic()
    assert run_pipeline(config, clock=AcceleratedClock(start=START, factor=1000.0)) == 0
    wall = time_mod.monotonic() - wall_before

    (raw,) = (tmp_path / "out" / "fast").glob("raw_*.log")
    assert raw.read_bytes() == feed.read_bytes()
    segment_fsyncs = synced_inodes.count(raw.stat().st_ino)
    assert 1 <= segment_fsyncs <= wall / config["flush_interval_s"] + 1  # + the close


def test_accelerated_clock_sleep_divides():
    clock = AcceleratedClock(start=START, factor=1000.0)
    wall_before = time_mod.monotonic()
    clock.sleep(20.0)  # simulated seconds
    assert time_mod.monotonic() - wall_before < 1.0


def test_segment_open_time():
    assert segment_open_time("raw_20200417T093005Z.log") == ms(2020, 4, 17, 9, 30, 5)
    assert segment_open_time("raw_20200417T093005Z_2.log") == ms(2020, 4, 17, 9, 30, 5)
    assert segment_open_time("notes.txt") is None
    with pytest.raises(ValueError):
        segment_open_time("raw_20201317T093005Z.log")


# --- hooks and state ------------------------------------------------------------


def test_hooks_count_invocations():
    hooks = Hooks()
    seen = []
    hooks.on("point", lambda count: seen.append(count))
    hooks.fire("point")
    hooks.fire("point")
    hooks.fire("other")
    assert seen == [1, 2]


def test_simulated_crash_evades_exception_handlers():
    assert not issubclass(SimulatedCrash, Exception)
    with pytest.raises(SimulatedCrash):
        try:
            raise SimulatedCrash("boom")
        except Exception:  # the pipeline's per-segment catch block
            pytest.fail("SimulatedCrash must not be caught as Exception")


def write_session_json(session_dir, session_id="unit"):
    """The one file a session's state needs besides its event log."""
    (session_dir / "session.json").write_text(json.dumps({"session_id": session_id}))


def test_state_store_round_trip(tmp_path):
    write_session_json(tmp_path, "s1")
    path = tmp_path / STATE_NAME
    store = StateStore(path, "s1")
    store.add_segment("raw_a.log")
    store.add_segment("raw_b.log")
    store.add_segment("raw_a.log")  # idempotent
    store.set_stage("raw_a.log", CLASSIFIED)
    store.flag("raw_b.log", "exploded")

    loaded = StateStore.load(path)
    assert loaded.session_id == "s1"
    assert [entry.name for entry in loaded.entries] == ["raw_a.log", "raw_b.log"]
    assert loaded.entries[0].stage == CLASSIFIED
    assert loaded.entries[1].error == "exploded"

    # a successful stage transition clears the flag
    store.set_stage("raw_b.log", CONVERTED)
    reloaded = StateStore.load(path)
    assert reloaded.entries[1].error is None


def test_a_stage_transition_costs_the_same_however_long_the_session(tmp_path):
    """One ``set_stage`` writes as many bytes in a session of 10,000
    segments as in one of 10: it appends a line and rewrites nothing.
    Bytes are this process's ``wchar``, what it passed to write calls; the
    least of five transitions leaves out another thread's writes."""
    io_counters = Path("/proc/self/io")
    if not io_counters.exists():
        pytest.skip("needs Linux per-process I/O counters")

    def wchar():
        return int(re.search(r"^wchar: (\d+)$", io_counters.read_text(), re.M).group(1))

    written = {}
    for count in (10, 10_000):
        session_dir = tmp_path / str(count)
        session_dir.mkdir()
        write_session_json(session_dir)
        names = [f"raw_{index:05d}.log" for index in range(count)]
        # the segments as the event log records them, and as the state file
        # of a store that rewrites it would, so that either loads them all
        (session_dir / "events.jsonl").write_text("".join(
            json.dumps({"event": "segment_closed", "segment": name}) + "\n" for name in names))
        (session_dir / "state.json").write_text(json.dumps({"session_id": "unit", "segments": [
            {"name": name, "stage": RECORDED, "flagged": False, "error": None}
            for name in names]}))
        state = StateStore.load(session_dir / STATE_NAME)
        assert len(state.entries) == count
        costs = []
        for _ in range(5):
            before = wchar()
            state.set_stage(names[5], CLASSIFIED)
            costs.append(wchar() - before)
        written[count] = min(costs)
    assert written[10_000] == written[10]


def test_write_parse_errors(tmp_path):
    issues = [
        ParseIssue("GPGGA.txt", 4, "minutes out of range", "latitude", "$GPGGA,x"),
        ParseIssue("P_LRM.txt", 2, "unknown station role: 'Q'", "station_role", "$PLRM,y"),
    ]
    path = tmp_path / "parse_errors.jsonl"
    write_parse_errors(path, issues)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {
        "source_file": "GPGGA.txt",
        "line_number": 4,
        "field": "latitude",
        "message": "minutes out of range",
        "raw": "$GPGGA,x",
    }
    assert lines[1]["source_file"] == "P_LRM.txt"


# --- single-segment processing ----------------------------------------------------


def make_session_dir(tmp_path, name="raw_20200417T120000Z.log", payload=None):
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    (session_dir / name).write_bytes(payload if payload is not None else lines_block_one())
    state = StateStore(session_dir / STATE_NAME, "unit")
    state.add_segment(name)
    return session_dir, name, state


def test_process_segment_stages_and_outputs(tmp_path):
    session_dir, name, state = make_session_dir(tmp_path)
    settings = pipeline_settings({"formats": ["columns"]})
    process_segment(session_dir, name, settings, state, Hooks())

    stem = "raw_20200417T120000Z"
    assert (session_dir / "classified" / stem / "GPGGA.txt").exists()
    assert (session_dir / "exports" / stem / "timeline_gps.csv").exists()
    assert (session_dir / "exports" / stem / "parse_errors.jsonl").exists()
    manifest = read_json(session_dir / "exports" / stem / MANIFEST_NAME)
    assert manifest["record_counts"]["gps_fix"] == 1
    assert manifest["record_counts"]["loran"] == 1
    assert state.entries[0].stage == CONVERTED
    assert not list((session_dir / "classified").glob(".tmp-*"))
    assert not list((session_dir / "exports").glob(".tmp-*"))


def test_process_segment_is_deterministic(tmp_path):
    session_dir, name, state = make_session_dir(tmp_path)
    settings = pipeline_settings({})
    process_segment(session_dir, name, settings, state, Hooks())
    stem = "raw_20200417T120000Z"
    exports = session_dir / "exports" / stem
    first = {p.name: p.read_bytes() for p in exports.iterdir()}

    state.set_stage(name, RECORDED)
    process_segment(session_dir, name, settings, state, Hooks())
    second = {p.name: p.read_bytes() for p in exports.iterdir()}
    assert first == second


def test_process_segment_resumes_from_classified(tmp_path):
    session_dir, name, state = make_session_dir(tmp_path)
    settings = pipeline_settings({})
    process_segment(session_dir, name, settings, state, Hooks())

    # wipe exports, keep classified: the state's stage restarts it from classified
    stem = "raw_20200417T120000Z"
    shutil.rmtree(session_dir / "exports" / stem)
    state.set_stage(name, CLASSIFIED)
    hooks = Hooks()
    fired = []
    hooks.on("mid-classify", lambda count: fired.append(count))
    process_segment(session_dir, name, settings, state, hooks)
    assert fired == []  # classification was not redone
    assert (session_dir / "exports" / stem / MANIFEST_NAME).exists()
    assert state.entries[0].stage == CONVERTED


def test_process_segment_builds_each_stage_from_an_empty_temp_directory(tmp_path):
    """A crash can leave a stage's temp directory half built; the stage's next
    build replaces it, so nothing stale reaches the published directory."""
    session_dir, name, state = make_session_dir(tmp_path)
    stem = "raw_20200417T120000Z"
    for kind in ("classified", "exports"):
        stale = session_dir / kind / f".tmp-{stem}"
        stale.mkdir(parents=True)
        (stale / "stale.txt").write_text("left by a crash")
    process_segment(session_dir, name, pipeline_settings({}), state, Hooks())
    assert state.entries[0].stage == CONVERTED
    for kind in ("classified", "exports"):
        assert (session_dir / kind / stem).is_dir()
        assert not (session_dir / kind / stem / "stale.txt").exists()
        assert not list((session_dir / kind).glob(".tmp-*"))


# --- the full pipeline loop --------------------------------------------------------


def run_scripted(tmp_path, steps, config_overrides=None, hooks=None):
    clock = ManualClock(START)
    source = ScriptedSource(clock, steps)
    config = base_config(tmp_path, **(config_overrides or {}))
    code = run_pipeline(config, clock=clock, source=source, hooks=hooks)
    return code, tmp_path / "unit"


def test_run_pipeline_rotates_and_processes(tmp_path):
    code, session_dir = run_scripted(
        tmp_path,
        [
            (0, lines_block_one()),
            (3700, b""),  # idle read that crosses the 13:00 boundary
            (0, lines_block_two()),
        ],
    )
    assert code == 0
    seg1 = session_dir / "raw_20200417T120000Z.log"
    seg2 = session_dir / "raw_20200417T130140Z.log"
    assert seg1.read_bytes() == lines_block_one()
    assert seg2.read_bytes() == lines_block_two()

    state = StateStore.load(session_dir / STATE_NAME)
    assert [entry.stage for entry in state.entries] == [CONVERTED, CONVERTED]

    manifest1 = read_json(session_dir / "exports" / "raw_20200417T120000Z" / MANIFEST_NAME)
    assert manifest1["record_counts"]["gps_fix"] == 1
    manifest2 = read_json(session_dir / "exports" / "raw_20200417T130140Z" / MANIFEST_NAME)
    assert manifest2["record_counts"]["gps_fix"] == 1

    closed = [e for e in read_events(session_dir) if e["event"] == "segment_closed"]
    assert closed[0]["boundary"] == "2020-04-17T13:00:00.000Z"

    meta = read_json(session_dir / "session.json")
    assert meta["pipeline"]["formats"] == ["columns", "lines"]


def test_run_pipeline_stops_cleanly_on_an_interrupt(tmp_path, caplog):
    """Ctrl-C in the capture loop closes the session as an ended source
    does: the close event with its digest, the state entry, the source
    closed and the pool drained; then exit 130, with no traceback."""
    caplog.set_level(logging.INFO, logger="gpsloran")
    clock = ManualClock(START)

    class InterruptedSource(ScriptedSource):
        closed = False

        def read(self, max_bytes, timeout):
            if not self.steps:
                raise KeyboardInterrupt
            return super().read(max_bytes, timeout)

        def close(self):
            self.closed = True

    source = InterruptedSource(clock, [(0, lines_block_one())])
    config = base_config(tmp_path, inline_processing=False)
    assert run_pipeline(config, clock=clock, source=source) == 130
    assert source.closed
    session_dir = tmp_path / "unit"
    segment = session_dir / "raw_20200417T120000Z.log"
    assert segment.read_bytes() == lines_block_one()
    closed = [e for e in read_events(session_dir) if e["event"] == "segment_closed"]
    assert [(e["segment"], e["digest"]) for e in closed] == [(segment.name, sha256_file(segment))]
    state = StateStore.load(session_dir / STATE_NAME)
    assert [(e.name, e.stage, e.error) for e in state.entries] == [(segment.name, CONVERTED, None)]
    assert "event=interrupted" in caplog.text


def test_workers_and_capture_write_whole_lines_of_one_log(tmp_path):
    """Segments processed on the worker pool while capture goes on: every
    line of ``events.jsonl`` is JSON, and each segment's stage lines follow
    its close event and end at ``converted``."""
    steps = [(0, lines_block_one())]
    for _ in range(5):
        steps += [(3700, b""), (0, lines_block_one())]
    code, session_dir = run_scripted(tmp_path, steps,
                                     {"inline_processing": False, "max_workers": 2})
    assert code == 0
    events = [json.loads(line) for line in (session_dir / "events.jsonl").read_text().splitlines()]
    names = sorted(p.name for p in session_dir.glob("raw_*.log"))
    assert len(names) == 6
    for name in names:
        kinds = [(event["event"], event.get("stage")) for event in events
                 if event.get("segment") == name]
        assert kinds == [("segment_open", None), ("segment_closed", None), ("stage", CLASSIFIED),
                         ("stage", CONVERTED)]
    state = StateStore.load(session_dir / STATE_NAME)
    assert [(entry.name, entry.stage) for entry in state.entries] == [
        (name, CONVERTED) for name in names]


def test_run_pipeline_capture_only_mode(tmp_path):
    code, session_dir = run_scripted(
        tmp_path,
        [(0, lines_block_one())],
        config_overrides={"process_segments": False},
    )
    assert code == 0
    assert not (session_dir / "exports").exists()
    state = StateStore.load(session_dir / STATE_NAME)
    assert [entry.stage for entry in state.entries] == [RECORDED]


def test_run_pipeline_flags_failed_segment_and_exits_2(tmp_path):
    hooks = Hooks()

    def explode(count):
        if count == 1:
            raise RuntimeError("converter exploded")

    hooks.on("mid-convert", explode)
    code, session_dir = run_scripted(
        tmp_path,
        [
            (0, lines_block_one()),
            (3700, b""),
            (0, lines_block_two()),
        ],
        hooks=hooks,
    )
    assert code == 2
    state = StateStore.load(session_dir / STATE_NAME)
    flagged = [entry for entry in state.entries if entry.error is not None]
    assert len(flagged) == 1
    assert "converter exploded" in flagged[0].error
    healthy = [entry for entry in state.entries if entry.error is None]
    assert all(entry.stage == CONVERTED for entry in healthy)
    # capture never stopped: both raw segments hold their bytes
    assert (session_dir / "raw_20200417T120000Z.log").read_bytes() == lines_block_one()
    assert (session_dir / "raw_20200417T130140Z.log").read_bytes() == lines_block_two()


def test_run_pipeline_unavailable_source_exits_1(tmp_path):
    config = base_config(
        tmp_path,
        source="tcp:127.0.0.1:9",  # discard port: nothing listens
        retry={"max_attempts": 2, "initial_delay_s": 0.01},
    )
    assert run_pipeline(config) == 1


def test_run_pipeline_reconnect_exhaustion_records_gap(tmp_path):
    scenario = Scenario(
        seed=1, start=START_MS, duration_s=30.0, stations=[StationSpec(gri=9930, role="M")]
    )
    stream, truth = generate_stream(scenario)
    server = SimServer(stream).start()
    config = base_config(
        tmp_path,
        source=f"tcp:{server.address}",
        on_eof="reconnect",
        retry={"max_attempts": 2, "initial_delay_s": 0.01},
        rotation="24h",
    )
    code = run_pipeline(config)
    server.stop()
    assert code == 1  # the feed died and never came back
    session_dir = tmp_path / "unit"
    raw = b"".join(p.read_bytes() for p in sorted(session_dir.glob("raw_*.log")))
    assert raw == stream.to_bytes()
    gaps = [e for e in read_events(session_dir) if e["event"] == "gap"]
    assert len(gaps) == 1
    assert "lost source" in gaps[0]["reason"]
    # the captured bytes still got processed on shutdown
    state = StateStore.load(session_dir / STATE_NAME)
    assert all(entry.stage == CONVERTED for entry in state.entries)
    manifest = read_json(session_dir / "exports" / state.entries[0].name[:-4] / MANIFEST_NAME)
    assert manifest["record_counts"]["gps_fix"] == len(truth.gps)


def test_run_pipeline_reconnects_after_a_drop(tmp_path, caplog):
    """A TCP source that drops and comes back is reopened: one drop line,
    one gap event for the outage, and the raw bytes are what the two
    connections sent, in order.  The run ends as Ctrl-C ends it, once
    every byte is on disk."""
    caplog.set_level(logging.INFO, logger="gpsloran")
    part_a, part_b = lines_block_one(), lines_block_two()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def serve():
        with listener:
            for part in (part_a, part_b):
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(10.0)
                    conn.sendall(part)
                    if part is part_b:
                        conn.recv(1)  # held open until the capture closes it

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    session_dir = tmp_path / "unit"

    def stop_once_captured(count):
        if sum(p.stat().st_size for p in session_dir.glob("raw_*.log")) == len(part_a + part_b):
            raise KeyboardInterrupt

    hooks = Hooks()
    hooks.on("mid-capture", stop_once_captured)
    config = base_config(tmp_path, source=f"tcp:127.0.0.1:{listener.getsockname()[1]}",
                         on_eof="reconnect", rotation="24h", flush_interval_s=0.0,
                         retry={"max_attempts": 2, "initial_delay_s": 0.01})
    assert run_pipeline(config, hooks=hooks) == 130
    server.join(timeout=10.0)
    assert not server.is_alive()
    assert [m for m in caplog.messages if "event=source_dropped" in m] == [
        'event=source_dropped next=reconnect reason="connection closed by peer"']
    gaps = [e for e in read_events(session_dir) if e["event"] == "gap"]
    assert [gap["reason"] for gap in gaps] == ["reconnected after drop"]
    raw = b"".join(p.read_bytes() for p in sorted(session_dir.glob("raw_*.log")))
    assert raw == part_a + part_b


def test_run_pipeline_captures_a_serial_device(tmp_path):
    """``serial:<path>`` captures a device's bytes as given.  The device is
    a FIFO whose writer is open before capture opens it, so capture sees
    no end of input before the bytes; closing the writer ends the run."""
    fifo = tmp_path / "ttyS0"
    os.mkfifo(fifo)
    writer = os.open(fifo, os.O_RDWR)  # Linux opens a FIFO so without waiting for a reader
    os.write(writer, lines_block_one())

    def end_of_input(count):  # the written bytes stay readable after the close
        if count == 1:
            os.close(writer)

    hooks = Hooks()
    hooks.on("mid-capture", end_of_input)
    codes = []
    config = base_config(tmp_path, source=f"serial:{fifo}", rotation="24h")
    capture = threading.Thread(target=lambda: codes.append(run_pipeline(config, hooks=hooks)),
                               daemon=True)
    capture.start()
    capture.join(timeout=10.0)
    assert codes == [0]
    raw = b"".join(p.read_bytes() for p in sorted((tmp_path / "unit").glob("raw_*.log")))
    assert raw == lines_block_one()


# --- crash recovery -------------------------------------------------------------


def test_recover_rejects_corrupt_state(tmp_path, caplog):
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    (session_dir / "raw_20200417T120000Z.log").write_bytes(lines_block_one())
    (session_dir / STATE_NAME).write_text("{not json")
    code = recover(session_dir)
    assert code == 1
    assert "raw_20200417T120000Z.log" in caplog.text


def test_recover_without_session_json_does_not_guess_the_settings(tmp_path, caplog):
    """A session's export formats are in ``session.json``; without it,
    recovery does not convert with the default settings but reports the
    session as one it cannot resume, listing the raw segments."""
    hooks = Hooks()

    def crash(count):
        raise SimulatedCrash("kill after first rotation")

    hooks.on("post-rotation", crash)
    with pytest.raises(SimulatedCrash):
        run_scripted(tmp_path, [(0, lines_block_one()), (3700, b""), (0, lines_block_two())],
                     hooks=hooks)
    session_dir = tmp_path / "unit"
    assert read_json(session_dir / "session.json")["pipeline"]["formats"] == ["columns", "lines"]
    (session_dir / "session.json").unlink()
    assert recover(session_dir) == 1
    assert not (session_dir / "exports").exists()
    assert ("event=cannot_resume reason=session_unreadable" in caplog.text
            and "recoverable_segments=raw_20200417T120000Z.log,raw_20200417T130140Z.log"
            in caplog.text)


def test_recover_missing_state_file(tmp_path):
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    assert recover(session_dir) == 1


def test_recover_noop_when_all_converted(tmp_path):
    code, session_dir = run_scripted(tmp_path, [(0, lines_block_one())])
    assert code == 0
    hooks = Hooks()
    fired = []
    hooks.on("mid-classify", lambda count: fired.append(count))
    assert recover(session_dir, hooks=hooks) == 0
    assert fired == []


def test_recover_ends_a_torn_event_line_before_its_own(tmp_path):
    """A crash mid-write leaves ``events.jsonl`` ending inside a JSON
    object; the close event recovery writes starts on a line of its own,
    and reading the log skips the torn line and keeps what follows."""
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    name = "raw_20200417T120000Z.log"
    (session_dir / name).write_bytes(lines_block_one())
    write_session_json(session_dir)
    opened = json.dumps({"event": "segment_open", "open_time": "2020-04-17T12:00:00.000Z",
                         "segment": name}, sort_keys=True)
    torn = '{"end": "2020-04-17T12:00:03.000Z", "event": "ga'
    (session_dir / "events.jsonl").write_text(f"{opened}\n{torn}")

    assert recover(session_dir) == 0
    events = read_events(session_dir)
    assert [event["event"] for event in events] == ["segment_open", "segment_closed", "stage",
                                                     "stage"]
    assert events[1]["recovered"] is True
    assert events[1]["digest"] == sha256_file(session_dir / name)
    assert events[1]["open_time"] == "2020-04-17T12:00:00.000Z"
    lines = (session_dir / "events.jsonl").read_text().split("\n")
    assert lines == [opened, torn, *(json.dumps(event, sort_keys=True) for event in events[1:]), ""]


def test_recover_writes_the_close_events_a_full_disk_kept_out(tmp_path, monkeypatch, caplog):
    """A segment whose ``segment_closed`` event could not be written
    (``digest_pending``) is already in the state; ``recover`` still gives
    it a close event with the digest of its bytes, and adds no entry."""
    def full_disk_append(session_dir, payload):
        if payload["event"] == "segment_closed":
            raise OSError(errno.ENOSPC, "disk full")
        append_event(session_dir, payload)

    monkeypatch.setattr("gpsloran.record.append_event", full_disk_append)
    code, session_dir = run_scripted(
        tmp_path, [(0, lines_block_one()), (3700, b""), (0, lines_block_two())])
    monkeypatch.undo()
    assert code == 0
    names = ["raw_20200417T120000Z.log", "raw_20200417T130140Z.log"]
    assert caplog.text.count("event=digest_pending") == 2
    assert [event["event"] for event in read_events(session_dir)
            if event["event"] != "stage"] == ["segment_open"] * 2

    def entries():
        return [(entry.name, entry.stage, entry.error)
                for entry in StateStore.load(session_dir / STATE_NAME).entries]

    assert entries() == [(name, CONVERTED, None) for name in names]

    assert recover(session_dir) == 0
    closed = [event for event in read_events(session_dir) if event["event"] == "segment_closed"]
    assert [(event["segment"], event["digest"], event["recovered"]) for event in closed] == [
        (name, sha256_file(session_dir / name), True) for name in names]
    assert entries() == [(name, CONVERTED, None) for name in names]  # no entry added
    events = len(read_events(session_dir))
    assert recover(session_dir) == 0
    assert len(read_events(session_dir)) == events  # a second run finds nothing to close


def test_recover_after_crash_matches_clean_run(tmp_path):
    hooks = Hooks()

    def crash(count):
        raise SimulatedCrash("kill after first rotation")

    hooks.on("post-rotation", crash)
    clock = ManualClock(START)
    source = ScriptedSource(
        clock,
        [
            (0, lines_block_one()),
            (3700, b""),
            (0, lines_block_two()),
        ],
    )
    config = base_config(tmp_path / "crashed")
    with pytest.raises(SimulatedCrash):
        run_pipeline(config, clock=clock, source=source, hooks=hooks)

    session_dir = tmp_path / "crashed" / "unit"
    # the rotated segment is durable; nothing was processed yet
    assert (session_dir / "raw_20200417T120000Z.log").read_bytes() == lines_block_one()
    state = StateStore.load(session_dir / STATE_NAME)
    assert [(e.name, e.stage) for e in state.entries] == [
        ("raw_20200417T120000Z.log", RECORDED)
    ]

    assert recover(session_dir) == 0
    state = StateStore.load(session_dir / STATE_NAME)
    assert all(entry.stage == CONVERTED for entry in state.entries)
    # the interrupted active segment was finalized from its on-disk bytes
    recovered_events = [
        e for e in read_events(session_dir) if e.get("recovered") and e["event"] == "segment_closed"
    ]
    assert len(recovered_events) == 1

    assert_exports_of_a_clean_run(session_dir, tmp_path / "clean")


def test_recover_reads_each_session_file_once(tmp_path):
    """One ``recover`` call, on a session that crashed with one closed
    segment unprocessed and the active one unclosed, opens ``session.json``
    and ``events.jsonl`` for reading once each.  Opens are counted by the
    interpreter's ``open`` audit event in a fresh interpreter, so the hook
    ends with it; the log's appends open it for writing and do not count."""
    hooks = Hooks()

    def crash(count):
        raise SimulatedCrash("kill after first rotation")

    hooks.on("post-rotation", crash)
    with pytest.raises(SimulatedCrash):
        run_scripted(tmp_path, [(0, lines_block_one()), (3700, b""), (0, lines_block_two())],
                     hooks=hooks)
    session_dir = tmp_path / "unit"
    script = ("import os, sys\n"
              "from collections import Counter\n"
              "from gpsloran.orchestrate import recover\n"
              "reads = Counter()\n"
              "def count(event, args):\n"
              "    if event == 'open' and args[2] & os.O_ACCMODE == os.O_RDONLY:\n"
              "        reads[os.path.basename(str(args[0]))] += 1\n"
              "sys.addaudithook(count)\n"
              f"assert recover({str(session_dir)!r}) == 0\n"
              "print(reads['session.json'], reads['events.jsonl'])\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "1"]
    state = StateStore.load(session_dir / STATE_NAME)
    assert [(entry.stage, entry.error) for entry in state.entries] == [(CONVERTED, None)] * 2


def assert_exports_of_a_clean_run(session_dir, clean_dir):
    """A clean run over the same raw bytes writes the same export files."""
    clean_dir.mkdir()
    for raw in session_dir.glob("raw_*.log"):
        shutil.copy(raw, clean_dir / raw.name)
    clean_state = StateStore(clean_dir / STATE_NAME, "unit")
    settings = pipeline_settings(read_json(session_dir / "session.json")["pipeline"])
    for raw in sorted(clean_dir.glob("raw_*.log")):
        clean_state.add_segment(raw.name)
        process_segment(clean_dir, raw.name, settings, clean_state, Hooks())
    assert sorted(p.name for p in (session_dir / "exports").iterdir()) == sorted(
        p.name for p in (clean_dir / "exports").iterdir())
    for exports in sorted((session_dir / "exports").iterdir()):
        clean_exports = clean_dir / "exports" / exports.name
        assert sorted(p.name for p in exports.iterdir()) == sorted(
            p.name for p in clean_exports.iterdir())
        for path in sorted(exports.iterdir()):
            assert path.read_bytes() == (clean_exports / path.name).read_bytes(), path.name


def test_a_session_with_a_state_file_recovers_by_reprocessing(tmp_path):
    """A session written when stages were kept in ``state.json`` has no
    stage lines in its event log.  Recovery reads no ``state.json``: it
    reprocesses every segment, converted ones too, to the exports a clean
    run writes, and leaves that file as it was."""
    hooks = Hooks()

    def crash(count):
        if count == 2:
            raise SimulatedCrash("kill while capturing the second segment")

    hooks.on("mid-capture", crash)
    with pytest.raises(SimulatedCrash):
        run_scripted(tmp_path / "crashed", [(0, lines_block_one()), (3700, b""),
                                            (0, lines_block_two())], hooks=hooks)
    session_dir = tmp_path / "crashed" / "unit"
    events_path = session_dir / "events.jsonl"
    capture_lines = [line for line in events_path.read_text().splitlines()
                     if json.loads(line)["event"] != "stage"]
    events_path.write_text("".join(f"{line}\n" for line in capture_lines))
    state_path = session_dir / "state.json"
    state_path.write_text(json.dumps({"segments": [
        {"error": None, "flagged": False, "name": "raw_20200417T120000Z.log", "stage": CONVERTED},
    ], "session_id": "unit"}, indent=2, sort_keys=True) + "\n")
    state_file = (state_path.read_bytes(), state_path.stat().st_mtime_ns)
    reprocessed = []
    hooks = Hooks()
    hooks.on("mid-classify", reprocessed.append)

    assert recover(session_dir, hooks=hooks) == 0
    assert reprocessed == [1, 2]
    assert (state_path.read_bytes(), state_path.stat().st_mtime_ns) == state_file
    state = StateStore.load(session_dir / STATE_NAME)
    assert [(entry.name, entry.stage, entry.error) for entry in state.entries] == [
        (name, CONVERTED, None) for name in ("raw_20200417T120000Z.log",
                                              "raw_20200417T130140Z.log")]
    assert_exports_of_a_clean_run(session_dir, tmp_path / "clean")


GOLDEN_FIXED_SESSION = """{
  "flush_interval_s": 0.0,
  "pipeline": {
    "flush_interval_s": 0.0,
    "formats": [
      "columns"
    ],
    "gap_threshold_s": 300.0,
    "quarantine_invalid": true
  },
  "rotation": {
    "interval_s": 0.4,
    "mode": "fixed-interval"
  },
  "session_id": "fixed",
  "source": "injected",
  "start_time": "2020-04-17T23:59:00.250Z"
}
"""

GOLDEN_FIXED_EVENTS = [
    '{"event": "segment_open", "open_time": "2020-04-17T23:59:00.250Z", "segment": "raw_20200417T235900Z.log"}',
    '{"boundary": "2020-04-17T23:59:00.650Z", "byte_count": 76, "close_time": "2020-04-17T23:59:00.750Z", '
    '"digest": "42e5b0ec2d90091f6f6d2c7c5b7c89ab98bc53392440544b24cce8ddb27c5d24", "event": "segment_closed", '
    '"open_time": "2020-04-17T23:59:00.250Z", "segment": "raw_20200417T235900Z.log"}',
    '{"event": "segment_open", "open_time": "2020-04-17T23:59:00.750Z", "segment": "raw_20200417T235900Z_2.log"}',
    '{"error": null, "event": "stage", "segment": "raw_20200417T235900Z.log", "stage": "classified"}',
    '{"error": null, "event": "stage", "segment": "raw_20200417T235900Z.log", "stage": "converted"}',
    '{"boundary": "2020-04-17T23:59:01.050Z", "byte_count": 69, "close_time": "2020-04-18T00:00:00.375Z", '
    '"digest": "675d8518579a419a8541bf253877efed78641e9ae98252f26c03dc86070fa5b3", "event": "segment_closed", '
    '"open_time": "2020-04-17T23:59:00.750Z", "segment": "raw_20200417T235900Z_2.log"}',
    '{"event": "segment_open", "open_time": "2020-04-18T00:00:00.375Z", "segment": "raw_20200418T000000Z.log"}',
    '{"error": null, "event": "stage", "segment": "raw_20200417T235900Z_2.log", "stage": "classified"}',
    '{"error": null, "event": "stage", "segment": "raw_20200417T235900Z_2.log", "stage": "converted"}',
    '{"byte_count": 69, "digest": "c43e13e18cb7a1d2fb66662c2bb1703b3a819690e4d40b94fe4ef00edad82d3e", '
    '"event": "segment_closed", "open_time": "2020-04-18T00:00:00.375Z", "recovered": true, '
    '"segment": "raw_20200418T000000Z.log"}',
    '{"error": null, "event": "stage", "segment": "raw_20200418T000000Z.log", "stage": "classified"}',
    '{"error": null, "event": "stage", "segment": "raw_20200418T000000Z.log", "stage": "converted"}',
]

GOLDEN_MIDNIGHT_SESSION = """{
  "flush_interval_s": 1.0,
  "rotation": {
    "interval_s": 86400.0,
    "mode": "utc-midnight"
  },
  "session_id": "midnight",
  "source": "",
  "start_time": "2020-04-17T23:59:58.500Z"
}
"""

GOLDEN_MIDNIGHT_EVENTS = [
    '{"event": "segment_open", "open_time": "2020-04-17T23:59:58.500Z", "segment": "raw_20200417T235958Z.log"}',
    '{"end": "2020-04-18T00:00:00.250Z", "event": "gap", "reason": "reconnected after drop", '
    '"start": "2020-04-17T23:59:59.500Z"}',
    '{"boundary": "2020-04-18T00:00:00.000Z", "byte_count": 17, "close_time": "2020-04-18T00:00:00.250Z", '
    '"digest": "1ba945f2a3c0b123ba3c82ab70ef2ee2776c74fbb6c1628557b7af8527da3c84", "event": "segment_closed", '
    '"open_time": "2020-04-17T23:59:58.500Z", "segment": "raw_20200417T235958Z.log"}',
    '{"event": "segment_open", "open_time": "2020-04-18T00:00:00.250Z", "segment": "raw_20200418T000000Z.log"}',
    '{"boundary": "2020-04-19T00:00:00.000Z", "byte_count": 11, "close_time": "2020-04-19T00:00:00.000Z", '
    '"digest": "3205a82cfea6d4abdd65f7c6ebe0463fda56e9f8c93218a78a99e571ca4d789d", "event": "segment_closed", '
    '"open_time": "2020-04-18T00:00:00.250Z", "segment": "raw_20200418T000000Z.log"}',
    '{"event": "segment_open", "open_time": "2020-04-19T00:00:00.000Z", "segment": "raw_20200419T000000Z.log"}',
    '{"boundary": "2020-04-20T00:00:00.000Z", "byte_count": 12, "close_time": "2020-04-20T00:00:00.000Z", '
    '"digest": "14b86bc4a937ecc25cd32d222b411f6a022ca8d903713fa3882d47049ef5f85b", "event": "segment_closed", '
    '"open_time": "2020-04-19T00:00:00.000Z", "segment": "raw_20200419T000000Z.log"}',
    '{"event": "segment_open", "open_time": "2020-04-20T00:00:00.000Z", "segment": "raw_20200420T000000Z.log"}',
    '{"byte_count": 0, "close_time": "2020-04-20T01:00:00.000Z", '
    '"digest": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "event": "segment_closed", '
    '"open_time": "2020-04-20T00:00:00.000Z", "segment": "raw_20200420T000000Z.log"}',
]


def test_capture_metadata_golden(tmp_path):
    """The exact text a session writes under a manual clock: segment names
    (with a ``_2`` bump), ``session.json``, ``events.jsonl`` through
    fixed-interval and midnight rotations, a gap and a recovered orphan,
    with each segment's stage lines through recovery."""
    clock = ManualClock(utc(2020, 4, 17, 23, 59, 0, 250000))
    hooks = Hooks()

    def crash(count):
        if count == 4:
            raise SimulatedCrash("kill after the fourth append")

    hooks.on("mid-capture", crash)
    steps = [
        (0, crlf(gga_line(tod="235900.250"))),
        (0.5, b"partial"),  # crosses 23:59:00.650; the next segment opens in the same second
        (0.125, crlf(gga_line(tod="235900.875"))),
        (59.5, b""),  # crosses 149 boundaries at once: one rotation
        (0, crlf(gga_line(tod="000000.375"))),  # the crash leaves this segment an orphan
        (0.1, b"never read"),
    ]
    config = base_config(tmp_path, session_id="fixed", formats=["columns"], flush_interval_s=0.0,
                         rotation={"mode": "fixed-interval", "interval_s": 0.4})
    with pytest.raises(SimulatedCrash):
        run_pipeline(config, clock=clock, source=ScriptedSource(clock, steps), hooks=hooks)
    fixed = tmp_path / "fixed"
    assert recover(fixed) == 0
    assert sorted(p.name for p in fixed.glob("raw_*.log")) == [
        "raw_20200417T235900Z.log", "raw_20200417T235900Z_2.log", "raw_20200418T000000Z.log",
    ]
    assert (fixed / "session.json").read_text() == GOLDEN_FIXED_SESSION
    assert (fixed / "events.jsonl").read_text() == "".join(f"{e}\n" for e in GOLDEN_FIXED_EVENTS)
    assert not (fixed / "state.json").exists()

    clock = ManualClock(utc(2020, 4, 17, 23, 59, 58, 500000))
    session = CaptureSession(tmp_path, session_id="midnight", clock=clock)
    session.append(b"before midnight\r\n")
    clock.advance(1.0)
    assert not session.due_rotation()
    drop = clock.now()
    clock.advance(0.75)
    session.record_gap(drop, clock.now(), "reconnected after drop")
    while session.due_rotation(clock.now()):
        session.rotate()
    session.append(b"first day\r\n")
    clock.advance(86399.75)  # lands exactly on the next midnight
    while session.due_rotation():
        session.rotate()
    session.append(b"second day\r\n")
    clock.advance(86399.999)  # a segment opened on midnight spans the whole day
    assert not session.due_rotation()
    clock.advance(0.001)
    while session.due_rotation():
        session.rotate()
    clock.advance(3600)
    session.close()
    midnight = tmp_path / "midnight"
    assert sorted(p.name for p in midnight.glob("raw_*.log")) == [
        "raw_20200417T235958Z.log", "raw_20200418T000000Z.log", "raw_20200419T000000Z.log",
        "raw_20200420T000000Z.log",
    ]
    assert (midnight / "session.json").read_text() == GOLDEN_MIDNIGHT_SESSION
    assert (midnight / "events.jsonl").read_text() == "".join(f"{e}\n" for e in GOLDEN_MIDNIGHT_EVENTS)


def test_recover_reprocesses_failure_as_exit_2(tmp_path):
    session_dir = tmp_path / "session"
    session_dir.mkdir()
    write_session_json(session_dir)
    append_event(session_dir, {"event": "segment_closed",  # its raw file is missing
                               "segment": "raw_20200417T120000Z.log"})
    assert recover(session_dir) == 2
    loaded = StateStore.load(session_dir / STATE_NAME)
    assert loaded.entries[0].error is not None


# --- logs ----------------------------------------------------------------------

# One key=value pair: a bare value, or free text quoted by json.dumps.
KEY_VALUE = r'([a-z_]+)=("(?:[^"\\]|\\.)*"|[^\s"=]+)'
MESSAGE = re.compile(rf"{KEY_VALUE}(?: {KEY_VALUE})*")


def key_value_pairs(message):
    """*message* as a dict, or None unless it is key=value pairs separated
    by single spaces; a quoted value is read as JSON text."""
    if not MESSAGE.fullmatch(message):
        return None
    return {key: json.loads(value) if value.startswith('"') else value
            for key, value in re.findall(KEY_VALUE, message)}


def test_log_messages_split_into_key_value_pairs(tmp_path, caplog, monkeypatch):
    """Each message the capture, processing, recovery and simulator code
    logs when something ends or fails is made of key=value pairs."""
    caplog.set_level(logging.INFO, logger="gpsloran")
    # startup_failed: nothing listens on the discard port
    assert run_pipeline(base_config(tmp_path / "a", source="tcp:127.0.0.1:9",
                                    retry={"max_attempts": 1, "initial_delay_s": 0.01})) == 1
    # processing_failed, source_ended
    def explode(count):
        raise RuntimeError('bad "input"\nhere')

    hooks = Hooks()
    hooks.on("mid-convert", explode)
    assert run_scripted(tmp_path / "b", [(0, lines_block_one())], hooks=hooks)[0] == 2
    # fatal_capture_error, digest_pending

    class BrokenSource:
        def read(self, max_bytes, timeout):
            raise OSError(errno.EIO, "device gone")

        def close(self):
            pass

    def full_disk_append(session_dir, payload):
        if payload["event"] == "segment_closed":
            raise OSError(errno.ENOSPC, "disk full")
        append_event(session_dir, payload)

    monkeypatch.setattr("gpsloran.record.append_event", full_disk_append)
    assert run_pipeline(base_config(tmp_path / "c", process_segments=False),
                        clock=ManualClock(START), source=BrokenSource()) == 1
    monkeypatch.undo()
    # cannot_resume
    corrupt = tmp_path / "d"
    corrupt.mkdir()
    (corrupt / "raw_20200417T120000Z.log").write_bytes(lines_block_one())
    (corrupt / STATE_NAME).write_text("{not json")
    assert recover(corrupt) == 1
    # finalize_interrupted_capture, reprocess, processing_failed
    orphan = tmp_path / "e"
    orphan.mkdir()
    (orphan / "raw_20200417T120000Z.log").write_bytes(lines_block_one())
    write_session_json(orphan)
    append_event(orphan, {"event": "segment_closed",  # its raw file is missing
                          "segment": "raw_20200417T110000Z.log"})
    assert recover(orphan) == 2
    # source_dropped, reconnect_failed; client_connected, client_left
    scenario = Scenario(seed=1, start=START_MS, duration_s=30.0,
                        stations=[StationSpec(gri=9930, role="M")])
    server = SimServer(generate_stream(scenario)[0]).start()
    assert run_pipeline(base_config(tmp_path / "f", source=f"tcp:{server.address}",
                                    on_eof="reconnect", rotation="24h",
                                    retry={"max_attempts": 1, "initial_delay_s": 0.01})) == 1
    server.stop()
    stream = generate_stream(Scenario(seed=1, start=START_MS, duration_s=600.0,
                                      stations=[StationSpec(gri=9930, role="M")]))[0]
    server = SimServer(stream, pace="accelerated:600").start()
    with socket.create_connection((server.host, server.port), timeout=5.0) as conn:
        conn.recv(4096)
    deadline = time_mod.monotonic() + 5.0
    while "event=client_left" not in caplog.text and time_mod.monotonic() < deadline:
        time_mod.sleep(0.01)
    server.stop()

    events = set()
    for record in caplog.records:
        if record.name.startswith("gpsloran"):
            pairs = key_value_pairs(record.getMessage())
            assert pairs is not None, record.getMessage()
            events.add(pairs.get("event"))
    assert events >= {
        "startup_failed", "processing_failed", "source_ended", "source_dropped",
        "reconnect_failed", "fatal_capture_error", "cannot_resume",
        "finalize_interrupted_capture", "reprocess", "digest_pending",
        "client_connected", "client_left",
    }
    failed = [r for r in caplog.records if "event=processing_failed" in r.getMessage()]
    assert key_value_pairs(failed[0].getMessage())["error"] == 'bad "input"\nhere'
    # case e's recovery logs its failure after the segment's reprocess line
    missing = [pairs["event"] for pairs in map(key_value_pairs, caplog.messages)
               if pairs and pairs.get("segment") == "raw_20200417T110000Z.log"]
    assert missing == ["reprocess", "processing_failed"]


# --- the parse-and-export golden -------------------------------------------------


def golden_classified(directory):
    """A hand-built classified directory around a midnight rollover: clean
    receiver lines, and near misses of each rule a line is parsed by."""
    directory.mkdir(parents=True)
    (directory / "GPZDA.txt").write_bytes(crlf(
        zda_line(utc(2020, 4, 17, 23, 59, 50)), zda_line(utc(2020, 4, 18, 0, 0, 10))))
    gga = [
        gga_line(tod="235958.000", lat="3723.4567", ns="S", lon="12201.2345", ew="W"),
        gga_line(tod="235958.000", hdop="0.90", alt="-12.5"),  # a repeated time of day
        gga_line(tod="235959.000", lat="3760.0000"),  # minutes >= 60
        sentence("GPGGA,235959.500,,,,,0,00,,,M,,M,,"),  # no fix
        gga_line(tod="235959.750", lat="9100.0000"),  # dated, then out of range
        gga_line(tod="000000.000", hdop="1_0"),
        gga_line(tod="000000.250", alt=" 30.0"),
        gga_line(tod="000000.500", sats=12, hdop="1.00", alt="0.0"),
        sentence("GPGGA,000001.000,3700.0000,N,12700.0000,E,1,08,1.00,30.0,M,*,M,,"),
        b"$GPGGA,000001.000,3700.5000,N,12700.5000,E,2,09,0.90,-0.0,M,,M,,*,x",
        gga_line(tod="000002.000", lat=""),  # a fix needs a position
        sentence("GPGGA,000002.000,3700.0000,N,12700.0000,E,1,08,,,M,,M,,"),
        b"$GPGGA,000002.750,3700.0000,N,12700.0000,E,1,08,1.00,3\xb50.0,M,,M,,",
        sentence("GPGGA,000003.000"),
        gga_line(tod="000003"),  # not the receivers' hhmmss.sss form
        gga_line(tod="000003.000", quality=0, lat="3700.0000", ns="N"),
        gga_line(tod="000003.000", ns="X"),
        b"$GPGGA,000004.000,3700.0000,N,12700.0000,E,1,08,1.00,30.0,M,,M,,\r",
    ]
    (directory / "GPGGA.txt").write_bytes(b"\n".join(gga) + b"\n")
    (directory / "GNGGA.txt").write_bytes(crlf(
        gga_line(tod="235958.000", lat="3723.4567", ns="S", lon="12201.2345", ew="W"),
        gga_line(tod="000001.000", quality=1, sats=8, hdop="0.90", alt="-12.5")))
    plrm = [
        plrm_line(tod="235958.000", toa="13000.5", snr="12.0", ecd="0.0"),
        plrm_line(tod="235958.000", role="W", toa="26000.25", ecd="-0.0"),  # repeated
        plrm_line(tod="235958.000", role="X", toa="41000.125", snr="12.0", ecd="-0.0"),
        plrm_line(tod="235959.000", snr="1_2.0"),
        plrm_line(tod="235959.000", ecd=" 0.5"),
        sentence("PLRM,235959.000,9930,M,45678.9*1,12.0,0.5"),
        b"$PLRM,235959.500,7430,Y,30000.25,9.5,0.5*,x",
        plrm_line(tod="000000.000", gri=7430, toa="80000.0"),  # outside the frame
        plrm_line(tod="000000.000", gri=3000),
        plrm_line(tod="000000.000", role="Q"),
        plrm_line(tod="000000.000", role="Y", toa="13000.5", snr="12.0", ecd="0.0"),
        plrm_line(tod="000000.500", snr="inf"),
        sentence("PLRM,000000.500,99_30,M,13000.5,12.0,0.5"),
        plrm_line(tod="000001.000", snr="12.0", ecd="0.0"),
        plrm_line(tod="000001.000", role="W", snr="12.0", ecd="-0.0"),
        plrm_line(tod="246000.000"),
        sentence("PLRM,000002.000,9930,M,100.0,12.0"),
        plrm_line(tod="000002.000", toa="1e3", snr="+5", ecd="-0"),
        sentence("PLRM,000003.000,09930,M,100.0,12.0,0.5"),
        sentence("PLRM,000003.000,9930,M,100.0,12.0,0.5,"),
        b"$PLRM,000003.500,9930,M,100.0,12.0,0.5",
        b"",
        plrm_line(tod="000004.000", role="V", toa="99299.999", snr="-3.25", ecd="1.5"),
    ]
    (directory / "P_LRM.txt").write_bytes(b"\n".join(plrm) + b"\n")
    (directory / REPORT_NAME).write_text(json.dumps({"quarantined_lines": 3}))


# sha256 of every file convert_classified writes for golden_classified(),
# in both formats.
CONVERT_GOLDEN_DIGESTS = {
    MANIFEST_NAME:
        "b51f4477366e6aaf56fa38b9df6f1ef277603323657cf0c6f1518ebb583df2f8",
    "parse_errors.jsonl":
        "48acc1e572bc651988911420af5412d8869a48ea265372ca700488be61973a9c",
    "timeline_all.csv":
        "07b5db48884a5fe3dda1d9ececa600e568a11fd3aa24ea5c1b6b1cdaefd2293c",
    "timeline_all.jsonl":
        "9487be8b901388369e526c63d2d31807d5ade3269750ed1af96a1e9b3879a6b1",
    "timeline_gps.csv":
        "9c73ee35cc5d849c4de4099e2447aa2181ddcba818d4aca0354df4260d4bf248",
    "timeline_gps.jsonl":
        "f90e32bcb06d11e1ed161478dd2a002439b31439f7aee56375fa7bea6150a393",
    "timeline_loran.csv":
        "b73764faca52ecb237fce00c8b27e8b70893b19d5e2cedc9c5e1c72c435f0e1a",
    "timeline_loran.jsonl":
        "774f39b7586bc8ff2f5f00762a36742f92293e0b334ccc802176405f59f0d648",
}


def test_convert_classified_golden_digests(tmp_path):
    golden_classified(tmp_path / "classified")
    convert_classified(tmp_path / "classified", tmp_path / "exports", ("columns", "lines"),
                       Hooks(), session_id="golden", gap_threshold_s=0.5)
    on_disk = {path.name: sha256_file(path) for path in (tmp_path / "exports").iterdir()}
    assert on_disk == CONVERT_GOLDEN_DIGESTS


# --- the reorder window ----------------------------------------------------------


def fully_sorted_exports(classified_dir, out_dir, formats, session_id):
    """What convert_classified writes, with each whole store sorted."""
    parsed = parse_classified(classified_dir, open_time=segment_open_time(classified_dir.name))
    export(merge_sort(*parsed.stores, window=None), formats, out_dir, session_id=session_id,
           parse_errors=lambda: len(parsed.errors),
           quarantined=read_json(classified_dir / REPORT_NAME)["quarantined_lines"])
    write_parse_errors(out_dir / "parse_errors.jsonl", parsed.errors)


def one_hz_lines(seconds, talkers=("GP",)):
    """A ZDA line, then each second a GGA fix per talker (at .000, .250, ...)
    and one Loran observation at .500, from 2020-04-17T12:00:00Z."""
    lines = [zda_line(utc(2020, 4, 17, 12, 0, 0))]
    loran = []
    for second in range(seconds):
        tod = f"12{second // 60:02d}{second % 60:02d}"
        for index, talker in enumerate(talkers):
            lines.append(sentence(f"{talker}GGA,{tod}.{250 * index:03d},3700.0000,N,12700.0000,"
                                  f"E,1,08,1.00,30.0,M,,M,,"))
        loran.append(plrm_line(tod=f"{tod}.500", snr=f"{10 + second % 7}.0"))
        lines.append(loran[-1])
    return lines, loran


@pytest.mark.parametrize("case", ["late-loran-line", "two-gga-stores"])
def test_a_segment_beyond_the_reorder_window_is_parsed_again(tmp_path, caplog, case):
    """A Loran line moved to the end of a 600-line store, far more than the
    window later, makes the streaming merge give up once: the exports are
    then those of the full sort, and no temporary file is left.  Two GGA
    stores that each report in time order are merged without a retry."""
    if case == "late-loran-line":
        lines, loran = one_hz_lines(600)
        lines.remove(loran[10])
        lines.append(loran[10])
    else:
        lines, _ = one_hz_lines(600, talkers=("GN", "GP"))
    session_dir, name, state = make_session_dir(tmp_path, payload=crlf(*lines))
    formats = ("columns", "lines")
    caplog.set_level(logging.WARNING, logger="gpsloran")
    process_segment(session_dir, name, pipeline_settings({"formats": list(formats)}), state,
                    Hooks())

    stem = name.removesuffix(".log")
    fully_sorted_exports(session_dir / "classified" / stem, tmp_path / "sorted", formats,
                         state.session_id)
    exports = session_dir / "exports" / stem
    assert sorted(p.name for p in exports.iterdir()) == sorted(
        p.name for p in (tmp_path / "sorted").iterdir())
    for path in (tmp_path / "sorted").iterdir():
        assert (exports / path.name).read_bytes() == path.read_bytes(), path.name
    assert read_json(exports / MANIFEST_NAME)["record_counts"]["loran"] == 600
    assert not [p for p in session_dir.rglob("*") if p.name.endswith(".tmp") or ".tmp-" in p.name]
    retries = [key_value_pairs(r.getMessage()) for r in caplog.records
               if "event=reorder_retry" in r.getMessage()]
    if case == "late-loran-line":
        assert retries == [{"event": "reorder_retry", "segment": stem, "store": "P_LRM.txt",
                            "at": "2020-04-17T12:00:10.500Z"}]
    else:
        assert sorted(p.name for p in (session_dir / "classified" / stem).glob("G?GGA.txt")) == [
            "GNGGA.txt", "GPGGA.txt"]
        assert retries == []


def dense_classified(directory, start, seconds):
    """A classified segment: a 1 Hz GGA store and a 7 Hz ``P_LRM`` store
    whose stations report in shuffled order within each second, as a
    receiver does; two stations share each instant."""
    rng = random.Random(seconds)
    stations = [(9930, "M"), (9930, "W"), (9930, "X"), (9930, "Y"), (7430, "M"), (7430, "X"),
                (7430, "Y")]
    gga, loran = [], []
    for second in range(seconds):
        tod = time_mod.strftime("%H%M%S", time_mod.gmtime(start // 1000 + second))
        gga.append(gga_line(tod=f"{tod}.000"))
        order = list(range(len(stations)))
        rng.shuffle(order)
        for index in order:
            gri, role = stations[index]
            loran.append(plrm_line(tod=f"{tod}.{200 * (index // 2):03d}", gri=gri, role=role,
                                   snr=f"{rng.uniform(5, 25):.1f}"))
    directory.mkdir(parents=True)
    (directory / "GPGGA.txt").write_bytes(b"\n".join(gga) + b"\n")
    (directory / "P_LRM.txt").write_bytes(b"\n".join(loran) + b"\n")


def test_convert_memory_does_not_grow_with_the_segment(tmp_path):
    """Converting a 4 h dense segment peaks within 1 MB of a 30 min one: the
    merge holds a window of each store, not the segment, and the summary
    folds the SNR values a block at a time."""
    start = ms(2020, 4, 17, 1)
    peaks = {}
    for seconds in (1800, 4 * 3600):
        classified = tmp_path / f"classified-{seconds}"
        dense_classified(classified, start, seconds)
        convert = lambda out: convert_classified(  # noqa: E731
            classified, out, "columns", Hooks(), session_id="m", gap_threshold_s=300.0,
            open_time=start)
        if not peaks:
            convert(tmp_path / "warm")  # module caches fill outside the measurement
        tracemalloc.start()
        try:
            counts = convert(tmp_path / f"exports-{seconds}")["record_counts"]
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts["loran"] == 7 * seconds and counts["parse_errors"] == 0
    assert peaks[4 * 3600] - peaks[1800] < 2**20
