"""Unattended pipeline: capture continuously, process each closed segment.

One capture loop appends bytes to the active raw segment.  At every
rotation boundary the segment closes and a processing pass (classify ->
parse -> convert) runs on it — asynchronously on a small worker pool, so
a slow or failing conversion can never stall capture.  Stage handoff is
purely through the filesystem:

    <out_dir>/<session_id>/
        session.json                      static capture + pipeline config
        events.jsonl                      segment open/close + gap events,
                                          and each segment's stage lines
        raw_<stamp>.log                   closed segments (plus the active one)
        classified/<stem>/                route() outputs + report.json
        exports/<stem>/                   timeline exports + manifest.json
                                          + parse_errors.jsonl

A segment's ``segment_closed`` event records it; each later stage
transition appends one fsynced ``stage`` line to the same log, and stage
outputs are built in a temp directory and renamed into place, so after a
crash each segment is cleanly at its recorded stage boundary, with at
most a stale temp directory that the stage's next build replaces.
``recover()`` reprocesses every segment stuck before ``converted`` from
its last completed stage; processing is deterministic, so reprocessing
is byte-identical.

Scheduling consults an injectable clock, which makes day-scale rotation
testable in milliseconds.
"""
from __future__ import annotations

import json
import logging
import os
import re
import shutil
import threading
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .classify import REPORT_NAME, route
from .convert import REORDER_WINDOW, ReorderOverflow, export, export_formats, merge_sort
from .fsutil import (CLASSIFIED, CONVERTED, RECORDED, STATE_NAME, StateStore, append_event,
                     atomic_write_bytes, json_number, read_json, sha256_file)
from .parse import parse_classified
from .timeutil import from_ms, iso_ms, parse_duration, parse_iso_ms

if TYPE_CHECKING:  # the capture code, which only capture and recovery load
    from .clock import Clock

logger = logging.getLogger(__name__)

READ_CHUNK = 1 << 16
READ_TIMEOUT_S = 0.05

_STEM_STAMP_RE = re.compile(r"raw_(\d{4})(\d{2})(\d{2})T(\d{2})(\d{2})(\d{2})Z")


class Hooks:
    """Named instrumentation points the pipeline fires as it runs.

    Tests register callbacks that count invocations and raise (e.g. a
    ``BaseException`` standing in for a crash) at a chosen occurrence.
    Production runs use the default empty registry, which makes fire() a
    no-op.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, list[Callable[[int], None]]] = {}
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def on(self, point: str, handler: Callable[[int], None]) -> None:
        self._handlers.setdefault(point, []).append(handler)

    def fire(self, point: str) -> None:
        with self._lock:
            count = self._counts.get(point, 0) + 1
            self._counts[point] = count
        for handler in self._handlers.get(point, ()):
            handler(count)


# --- configuration ----------------------------------------------------------

PIPELINE_DEFAULTS = {
    "formats": ["columns"],
    "gap_threshold_s": 300.0,
    "quarantine_invalid": True,
    "flush_interval_s": 1.0,
    "on_eof": "reconnect",
    "inline_processing": False,
    "max_workers": 2,
    "replay_speed": 1.0,
    "process_segments": True,
}


# Each nested object's keys and the json_number kind of each number (None: the
# value goes to the class as given); the defaults are the classes' own.
_NESTED = {
    "rotation": {"mode": None, "interval_s": "float"},
    "clock": {"kind": None, "start": None, "factor": "float"},
    "retry": {"max_attempts": "int", "initial_delay_s": "float", "max_delay_s": "float"},
}
# The range of each number, ends included (None: no upper end), beyond json_number's rule;
# RotationPolicy bounds its interval.  Sleeps and clock and replay paces stay within time_t.
_BOUNDS = {"gap_threshold_s": (0, None), "flush_interval_s": (0, None),
           "replay_speed": (0, 1_000_000), "max_workers": (1, None), "retry.max_attempts": (1, None),
           "retry.initial_delay_s": (0, 86_400), "retry.max_delay_s": (0, 86_400),
           "clock.factor": (0.001, 1_000_000)}


def _config_number(path: str, value, kind: str) -> int | float:
    number = json_number(value, f"config key {path!r}", kind)
    low, high = _BOUNDS.get(path, (number, None))
    if low <= number and (high is None or number <= high):
        return number
    raise ValueError(f"config key {path!r} must be >= {low}"
                     f"{'' if high is None else f' and <= {high}'}: {value!r}")


def _clock(kind: str = "system", start: str | None = None, **factor) -> Clock:
    from .clock import AcceleratedClock, SystemClock
    if kind == "accelerated":
        return AcceleratedClock(from_ms(parse_iso_ms(start)), **factor)
    if kind != "system":
        raise ValueError(f"unknown clock kind: {kind!r}")
    return SystemClock()


def pipeline_settings(config: dict) -> dict:
    """*config*'s pipeline settings, defaults filled in, with its rotation
    policy, clock and retry policy built as ``rotation``, ``clock`` and
    ``retry``; ``ValueError`` naming the first key whose value has the wrong
    type or lies out of range.  The one reader of a ``run`` config: it reads
    every key a setting takes, and ignores the other top-level keys."""
    from .record import RetryPolicy, RotationPolicy
    for key in ("source", "out_dir", "session_id"):
        if key in config and type(config[key]) is not str:
            raise ValueError(f"config key {key!r} must be text: {config[key]!r}")
    session_id = config.get("session_id", "")  # one directory inside out_dir
    if session_id in (".", "..") or "/" in session_id or "\0" in session_id:
        raise ValueError(f"config key 'session_id' must be a plain name: {session_id!r}")
    settings = dict(PIPELINE_DEFAULTS)
    settings.update({k: v for k, v in config.items() if k in PIPELINE_DEFAULTS})
    for key, default in PIPELINE_DEFAULTS.items():
        value = settings[key]
        if type(default) is bool and type(value) is not bool:
            raise ValueError(f"config key {key!r} must be true or false: {value!r}")
        if type(default) in (int, float):
            _config_number(key, value, type(default).__name__)  # files write the value as given
    if settings["on_eof"] not in ("stop", "reconnect"):
        raise ValueError(f"config key 'on_eof' must be stop or reconnect: {settings['on_eof']!r}")
    settings["formats"] = list(export_formats(settings["formats"]))
    if not settings["formats"]:
        raise ValueError("config key 'formats' names no export format")
    for key, build in (("rotation", RotationPolicy), ("clock", _clock), ("retry", RetryPolicy)):
        spec = config.get(key, {})
        if key == "rotation" and type(spec) is str:  # "utc-midnight" or an interval such as "6h"
            try:
                spec = {} if spec == "utc-midnight" else {"mode": "fixed-interval",
                                                          "interval_s": parse_duration(spec)}
            except ValueError as exc:
                raise ValueError(f"config key 'rotation': {exc}") from None
        if type(spec) is not dict:
            raise ValueError(f"config key {key!r} must be "
                             f"{'a text or ' if key == 'rotation' else ''}an object: {spec!r}")
        kinds = _NESTED[key]
        for name in sorted(spec.keys() - kinds.keys()):
            raise ValueError(f"config key '{key}.{name}' is unknown")
        arguments = {name: value if kinds[name] is None else
                     _config_number(f"{key}.{name}", value, kinds[name])
                     for name, value in spec.items()}
        if key == "clock" and spec.get("kind", "system") == "system":
            for name in sorted(spec.keys() - {"kind"}):
                raise ValueError(f"config key 'clock.{name}' is read by an accelerated clock only")
        try:
            settings[key] = build(**arguments)
        except ValueError as exc:  # the class's own check of a value
            raise ValueError(f"config key {key!r}: {exc}") from None
    return settings


# --- per-segment processing -------------------------------------------------


def segment_open_time(segment_name: str) -> int | None:
    """UTC epoch milliseconds embedded in a segment file name: the date
    anchor of a segment whose stream reports no ZDA/RMC instant."""
    match = _STEM_STAMP_RE.match(segment_name)
    if not match:
        return None
    return parse_iso_ms("{}-{}-{}T{}:{}:{}.000Z".format(*match.groups()))


def write_parse_errors(path: Path, issues) -> None:
    """Write one JSON object per skipped line, in input order."""
    lines = "".join(json.dumps({"source_file": issue.source_file, "line_number": issue.line_number,
                                "field": issue.field_name, "message": issue.message,
                                "raw": issue.raw}, sort_keys=True) + "\n" for issue in issues)
    atomic_write_bytes(path, lines.encode("utf-8"))


def convert_classified(classified_dir: Path, out_dir: Path, formats: tuple[str, ...] | str,
                       hooks: Hooks, *, session_id: str, gap_threshold_s: float,
                       open_time: int | None = None, fallback_date: date | None = None) -> dict:
    """Parse *classified_dir* (see :func:`parse_classified` for the date
    anchor) and write its timeline exports, manifest and parse errors into
    *out_dir*; return the manifest.  The quarantined count is read from
    ``report.json``, and is 0 without one.

    The stores are parsed as they are merged and exported, holding a
    reorder window of each.  A segment whose records arrive further out of
    time order than that is parsed again, each whole store sorted, and
    logs ``event=reorder_retry``; the exports are the same either way."""
    report = classified_dir / REPORT_NAME
    quarantined = read_json(report).get("quarantined_lines", 0) if report.exists() else 0
    for window in (REORDER_WINDOW, None):
        parsed = parse_classified(classified_dir, fallback_date, open_time)
        hooks.fire("mid-parse")
        try:
            manifest = export(merge_sort(*parsed.stores, window=window), formats, out_dir,
                              session_id=session_id, parse_errors=lambda: len(parsed.errors),
                              quarantined=quarantined, gap_threshold_s=gap_threshold_s)
            break
        except ReorderOverflow as exc:
            logger.warning("event=reorder_retry segment=%s store=%s at=%s", classified_dir.name,
                           parsed.names[exc.store], iso_ms(exc.record.timestamp))
    write_parse_errors(out_dir / "parse_errors.jsonl", parsed.errors)
    return manifest


def process_segment(session_dir: Path, segment_name: str, settings: dict, state: StateStore,
                    hooks: Hooks) -> None:
    """Run classify -> parse -> convert for one closed segment, skipping
    classify once *state* has it classified and its directory is in place.

    Each stage is built in a temp directory that is renamed into place just
    before its stage line is appended, so a crash at any point leaves the old
    stage boundary or the new one, never a half-visible directory.  A failure
    logs ``event=processing_failed`` and flags the segment; a ``BaseException``
    (a crash) propagates."""
    session_dir = Path(session_dir)
    stem = Path(segment_name).stem
    classified_dir = session_dir / "classified" / stem

    def publish(kind: str, stage: str, hook: str, build: Callable[[Path], Any]) -> Any:
        final, tmp = session_dir / kind / stem, session_dir / kind / f".tmp-{stem}"
        if tmp.exists():
            shutil.rmtree(tmp)
        result = build(tmp)
        hooks.fire(hook)
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
        state.set_stage(segment_name, stage)
        return result

    try:
        if state.stage(segment_name) == RECORDED or not classified_dir.exists():
            publish("classified", CLASSIFIED, "mid-classify", lambda tmp: route(
                session_dir / segment_name, tmp, quarantine_invalid=settings["quarantine_invalid"]))
        counts = publish("exports", CONVERTED, "mid-convert", lambda tmp: convert_classified(
            classified_dir, tmp, tuple(settings["formats"]), hooks, session_id=state.session_id,
            gap_threshold_s=settings["gap_threshold_s"], open_time=segment_open_time(segment_name),
        ))["record_counts"]
    except Exception as exc:
        logger.error("event=processing_failed segment=%s error=%s", segment_name, json.dumps(str(exc)))
        state.flag(segment_name, str(exc))
    else:
        logger.info("segment=%s stage=converted records=%d errors=%d quarantined=%d", segment_name,
                    counts["gps_fix"] + counts["loran"], counts["parse_errors"], counts["quarantined"])


# --- the long-running pipeline ----------------------------------------------


def run_pipeline(config: dict, *, clock: Clock | None = None, source=None,
                 hooks: Hooks | None = None) -> int:
    """Capture continuously, processing each closed segment, until the
    source ends (or fails fatally).  Returns the process exit code:
    0 success, 1 fatal capture/config error, 2 some segments flagged, 130
    stopped by an interrupt (Ctrl-C), which closes the session as an ended
    source does.
    """
    from .record import (CaptureSession, FileReplaySource, SourceClosed, SourceUnavailable,
                         open_source)
    hooks = hooks or Hooks()
    settings = pipeline_settings(config)
    clock = clock or settings["clock"]

    def connect():
        try:
            return open_source(config["source"], clock, settings["retry"], settings["replay_speed"])
        except ValueError as exc:
            raise ValueError(f"config key 'source': {exc}") from None

    stop_on_eof = settings["on_eof"] == "stop" or source is not None  # an injected source
    if source is None:
        try:
            source = connect()
        except SourceUnavailable as exc:
            logger.error("event=startup_failed error=%s", json.dumps(str(exc)))
            return 1
        stop_on_eof |= isinstance(source, FileReplaySource)  # a replay cannot be reopened

    session = CaptureSession(
        Path(config["out_dir"]), session_id=config.get("session_id"),
        source_text=config.get("source", "injected"), rotation=settings["rotation"],
        flush_interval=float(settings["flush_interval_s"]), clock=clock,
        extra_config={"pipeline": {k: settings[k] for k in (
            "formats", "gap_threshold_s", "quarantine_invalid", "flush_interval_s")}})
    state = StateStore(session.dir / STATE_NAME, session.session_id)
    logger.info("session=%s dir=%s", session.session_id, session.dir)

    executor = None
    if settings["process_segments"] and not settings["inline_processing"]:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
        executor = ThreadPoolExecutor(max_workers=settings["max_workers"])

    def submit(name: str) -> None:
        state.add_segment(name)
        if executor is not None:
            executor.submit(process_segment, session.dir, name, settings, state, hooks)
        elif settings["process_segments"]:
            process_segment(session.dir, name, settings, state, hooks)

    fatal = interrupted = False
    try:
        while True:
            now = clock.now()
            while session.due_rotation(now):
                closed = session.rotate()
                hooks.fire("post-rotation")
                submit(closed.name)
                now = clock.now()
            try:
                chunk = source.read(READ_CHUNK, READ_TIMEOUT_S)
            except SourceClosed as exc:
                if stop_on_eof:
                    logger.info("event=source_ended reason=%s", json.dumps(str(exc)))
                    break
                drop_time = clock.now()
                logger.warning("event=source_dropped next=reconnect reason=%s", json.dumps(str(exc)))
                source.close()
                try:
                    source = connect()
                except SourceUnavailable as retry_exc:
                    logger.error("event=reconnect_failed error=%s", json.dumps(str(retry_exc)))
                    session.record_gap(drop_time, clock.now(), f"lost source: {retry_exc}")
                    fatal = True
                    break
                session.record_gap(drop_time, clock.now(), "reconnected after drop")
                continue
            if chunk:
                session.append(chunk)
                hooks.fire("mid-capture")
            else:
                session.maybe_flush()
    except OSError as exc:
        logger.error("event=fatal_capture_error error=%s", json.dumps(str(exc)))
        fatal = True
    except KeyboardInterrupt:
        logger.info("event=interrupted")
        interrupted = True

    submit(session.close().name)
    source.close()
    if executor is not None:
        executor.shutdown(wait=True)

    if interrupted:
        return 130
    if fatal:
        return 1
    if settings["process_segments"] and state.unfinished():
        return 2
    return 0


# --- crash recovery ---------------------------------------------------------


def _finalize_orphan(session_dir: Path, name: str, open_time: str | None) -> None:
    """Close the books on a segment with no close event: take the flushed
    bytes on disk as its content and record a synthetic close event."""
    path = session_dir / name
    payload = {
        "event": "segment_closed",
        "segment": name,
        "byte_count": path.stat().st_size,
        "digest": sha256_file(path),
        "recovered": True,
    }
    if open_time:
        payload["open_time"] = open_time
    append_event(session_dir, payload)


def recover(session_dir: Path, *, hooks: Hooks | None = None) -> int:
    """Bring every segment of an interrupted session to ``converted``.

    Re-runs each stuck segment from its last completed stage; since
    processing is deterministic, the reprocessed outputs are
    byte-identical to what an uninterrupted run would have produced from
    the same raw bytes.  A session whose ``session.json`` cannot be read
    is never resumed silently: the diagnostic lists the raw segments so
    they can be reprocessed by hand.
    """
    hooks = hooks or Hooks()
    session_dir = Path(session_dir)
    raw_names = sorted(p.name for p in session_dir.glob("raw_*.log"))
    try:
        state = StateStore.load(session_dir / STATE_NAME)
        settings = pipeline_settings(state.meta.get("pipeline", {}))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        logger.error("event=cannot_resume reason=session_unreadable error=%s "
                     "recoverable_segments=%s", json.dumps(str(exc)), ",".join(raw_names) or "none")
        return 1

    for name in raw_names:
        if name not in state.closed:
            logger.info("event=finalize_interrupted_capture segment=%s", name)
            _finalize_orphan(session_dir, name, state.open_times.get(name))
            state.add_segment(name)

    for entry in state.unfinished():
        logger.info("event=reprocess segment=%s stage=%s", entry.name, entry.stage)
        process_segment(session_dir, entry.name, settings, state, hooks)
    return 2 if state.unfinished() else 0
