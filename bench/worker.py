"""Child process that makes the program's calls for one benchmark run.

``python3 bench/worker.py SPEC.json`` reads a spec written by ``run.py``,
imports ``gpsloran`` from the checkout's ``src`` (via ``PYTHONPATH``),
runs the workload's captures and segment processing, and writes timings,
capture lag and, for traced passes, per-layer figures to the spec's
``result`` path.  A batch loop makes one round per ``round`` line on
standard input and answers ``done`` on standard output, so ``run.py`` can
run the CLI between rounds.  Running the calls here keeps input generation
and the checks out of this process's peak RSS.
"""
from __future__ import annotations

import bisect
import functools
import hashlib
import json
import os
import shutil
import sys
import threading
import time
from array import array
from datetime import datetime
from pathlib import Path

from gpsloran import orchestrate, record
from gpsloran.clock import AcceleratedClock
from spans import Tracer, durations, median, peak_rss_kb, self_times

STAGES = ("route", "parse_classified", "merge_sort", "export", "write_parse_errors")


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] if ordered else float("nan")


class PacedSource:
    """In-process byte source that hands out a pre-built stream on a fixed
    wall-clock schedule: a line becomes readable at its due instant, and a
    read returns every whole line due by then, up to *max_bytes*."""

    def __init__(self, data: bytes, ends: array, due: list[float]):
        self.data, self.ends, self.due = data, ends, due
        self.next = 0
        self.reads: list[tuple[float, int, int]] = []  # (returned at, first line, end line)
        self.gaps: list[float] = []  # from one read returning to the next read call
        self._returned: float | None = None

    def read(self, max_bytes: int, timeout: float) -> bytes:
        called = time.monotonic()
        if self._returned is not None:
            self.gaps.append(called - self._returned)
        first = self.next
        if first >= len(self.ends):
            raise record.SourceClosed("stream fed")
        wait = self.due[first] - called
        if wait > 0:
            time.sleep(min(wait, timeout))
        now = time.monotonic()
        start = self.ends[first - 1] if first else 0
        end = min(bisect.bisect_right(self.due, now, first),
                  bisect.bisect_right(self.ends, start + max_bytes, first))
        if end <= first:
            self._returned = time.monotonic()
            return b""
        self.next = end
        chunk = self.data[start:self.ends[end - 1]]
        self._returned = time.monotonic()
        self.reads.append((self._returned, first, end))
        return chunk

    def close(self) -> None:
        pass

    def lags(self) -> list[float]:
        due = self.due
        return [returned - due[k] for returned, first, end in self.reads
                for k in range(first, end)]


def trace_program(tracer: Tracer) -> None:
    """Wrap the public functions process_segment and run_pipeline call."""

    def mark_segment(span, args, kwargs):
        span[5] = args[1] if len(args) > 1 else kwargs.get("segment_name")

    tracer.wrap(orchestrate, "process_segment", "process_segment", on_call=mark_segment)
    for name in STAGES:
        tracer.wrap(orchestrate, name, name)
    tracer.wrap(orchestrate.StateStore, "add_segment", "StateStore.add_segment")
    tracer.wrap(record.CaptureSession, "rotate", "CaptureSession.rotate")
    tracer.wrap(os, "fsync", "os.fsync")


class RssSampler:
    """Resident set size sampled every 20 ms on a thread, for the traced pass."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        with open("/proc/self/statm", "rb") as statm:
            while not self._stop.wait(0.02):
                statm.seek(0)
                self.samples.append((time.monotonic(), int(statm.read().split()[1]) * self.PAGE))

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def rise(self, start: float, end: float) -> float:
        """Bytes the RSS rose above its level at *start* before *end*."""
        before = [rss for t, rss in self.samples if t <= start]
        during = [rss for t, rss in self.samples if start < t <= end]
        return max(max(during, default=0) - (before[-1] if before else 0), 0)


def layer_metrics(spans: list[list], capture_thread: int | None, rss: RssSampler) -> dict:
    """Per-layer figures of one traced pass; fsyncs count the capture thread's."""
    export_rise = [rss.rise(s[2], s[3]) for s in spans if s[1] == "export"]
    metrics = {
        "classify.route_s": median(durations(spans, "route")),
        "parse.parse_classified_s": median(durations(spans, "parse_classified")),
        "convert.merge_sort_s": median(durations(spans, "merge_sort")),
        "convert.export_s": median(durations(spans, "export")),
        "convert.export_rss_mb": max(export_rise, default=0) / 2**20,
        "orchestrate.write_parse_errors_s": median(durations(spans, "write_parse_errors")),
        "orchestrate.process_segment_self_s": median(
            self_times(spans, "process_segment", STAGES)),
    }
    metrics["record.rotate_ms"] = median(durations(spans, "CaptureSession.rotate")) * 1000
    metrics["record.fsyncs"] = sum(
        1 for s in spans if s[1] == "os.fsync" and s[6] == capture_thread)
    return metrics


def read_stream(spec: dict) -> tuple[bytes, array, list[float]]:
    data = Path(spec["stream"]).read_bytes()
    ends = array("q")
    ends.frombytes(Path(spec["ends"]).read_bytes())
    due = array("d")
    due.frombytes(Path(spec["due"]).read_bytes())
    return data, ends, list(due)


def capture(spec: dict, session_id: str, process: bool,
            timed: list[tuple[str, float, float]] | None = None) -> dict:
    """Feed the stream through run_pipeline on its schedule; return the
    capture figures and each rotated segment's rotation instant on our
    clock.  With *timed*, every process_segment call is timed into it."""
    data, ends, due_data = read_stream(spec)
    start = datetime.fromisoformat(spec["start"])
    factor = float(spec["factor"])
    config = {"source": "injected", "out_dir": spec["out_dir"], "session_id": session_id,
              "rotation": {"mode": "fixed-interval", "interval_s": spec["rotation_s"]},
              "formats": spec["formats"],
              "process_segments": process, **spec.get("pipeline", {})}
    anchor = time.monotonic()
    clock = AcceleratedClock(start=start, factor=factor)
    source = PacedSource(data, ends, [anchor + d / factor for d in due_data])
    original = orchestrate.process_segment

    def timed_process(session_dir, segment_name, *args, **kwargs):
        begin = time.monotonic()
        try:
            return original(session_dir, segment_name, *args, **kwargs)
        finally:
            timed.append((segment_name, begin, time.monotonic()))

    if timed is not None:
        orchestrate.process_segment = timed_process
    try:
        code = orchestrate.run_pipeline(config, clock=clock, source=source)
    finally:
        orchestrate.process_segment = original
    rotations = {}
    session_dir = Path(spec["out_dir"]) / session_id
    for line in (session_dir / "events.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event.get("event") == "segment_closed" and "boundary" in event:
            closed = datetime.fromisoformat(event["close_time"].replace("Z", "+00:00"))
            rotations[event["segment"]] = anchor + (closed - start).total_seconds() / factor
    lags = source.lags()
    return {
        "thread": threading.get_ident(),
        "anchor": anchor,
        "exit_code": code,
        "session": str(session_dir),
        "lag_p50_ms": median(lags) * 1000,
        "lag_p99_ms": percentile(lags, 0.99) * 1000,
        "lag_samples": len(lags),
        "lag_max_ms": max(lags, default=float("nan")) * 1000,
        "lag_quantiles_ms": {str(q): percentile(lags, q) * 1000
                             for q in (0.9, 0.95, 0.98, 0.99, 0.995, 0.999)},
        "capture_end": source.reads[-1][0] if source.reads else anchor,
        "loop_gap_p99_ms": percentile(source.gaps, 0.99) * 1000,
        "bytes": source.ends[source.next - 1] if source.next else 0,
        "rotations": rotations,
    }


def tree_digest(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for directory in dirs:
        for path in sorted(Path(directory).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(directory)).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(hashlib.file_digest(handle, "sha256").digest())
    return digest.hexdigest()


def run_batch(spec: dict, protocol) -> dict:
    """Closed loop: one whole round of process_segment over the segments
    for each ``round`` line on standard input, answered with ``done`` on
    *protocol*, until any other line or the end of input.  A traced pass
    first feeds the round's stream through run_pipeline (without
    processing), so the capture layer is measured on this workload's bytes
    too.  Each round first removes the segment's previous outputs, outside
    the timing, so every call takes the same path as the first."""
    settings = orchestrate.pipeline_settings({"formats": spec["formats"]})
    hooks = orchestrate.Hooks()
    jobs = []
    for session, names in ((spec["session"], spec["names"]),
                           (spec["multiday"], spec["multiday_names"])):
        state = orchestrate.StateStore(Path(session) / orchestrate.STATE_NAME, "bench")
        for name in names:
            state.add_segment(name)
            jobs.append((Path(session), name, state))
    probe = capture(spec["probe"], "capture", False) if spec["trace"] else None
    ops, rounds = [], 0
    print("ready", file=protocol, flush=True)
    while sys.stdin.readline() == "round\n":
        ready = time.monotonic()
        timings = []
        for session, name, state in jobs:
            for stage in ("classified", "exports"):
                shutil.rmtree(session / stage / Path(name).stem, ignore_errors=True)
            begin = time.monotonic()
            orchestrate.process_segment(session, name, settings, state, hooks)
            timings.append((begin, time.monotonic()))
        for (session, name, _), (begin, end) in zip(jobs, timings):
            stem = Path(name).stem
            ops.append({
                "round": rounds, "name": name, "seconds": end - begin,
                "queue_wait": begin - ready, "bytes": (session / name).stat().st_size,
                "digest": tree_digest(session / "classified" / stem, session / "exports" / stem),
            })
        rounds += 1
        print("done", file=protocol, flush=True)
    return {"probe": probe, "ops": ops, "rounds": rounds,
            "queue_wait_s": median([op["queue_wait"] for op in ops])}


def run_live(spec: dict) -> dict:
    """Open loop: run_pipeline captures the stream on its schedule and
    processes each closed segment on its own worker pool."""
    timed: list[tuple[str, float, float]] = []
    outcome = capture(spec, "live", True, timed)
    outcome["segments"] = [
        {"name": name, "begin": begin, "end": end,
         "bytes": (Path(outcome["session"]) / name).stat().st_size,
         "rotation": outcome["rotations"].get(name)}
        for name, begin, end in timed
    ]
    outcome["queue_wait_s"] = median(
        [s["begin"] - s["rotation"] for s in outcome["segments"] if s["rotation"]])
    return outcome


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    protocol, sys.stdout = sys.stdout, sys.stderr  # standard output carries only the protocol
    run = run_live if spec["mode"] == "live" else functools.partial(run_batch, protocol=protocol)
    if spec["trace"]:
        tracer = Tracer()
        trace_program(tracer)
        with RssSampler() as rss:
            result = run(spec)
        tracer.unwrap()
        capture_thread = (result if spec["mode"] == "live" else result["probe"]).get("thread")
        result["layers"] = layer_metrics(tracer.spans, capture_thread, rss)
        result["layers"]["orchestrate.queue_wait_s"] = result["queue_wait_s"]
    else:
        result = run(spec)
    result["peak_rss_kb"] = peak_rss_kb()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
