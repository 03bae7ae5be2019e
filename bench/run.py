"""Benchmark of the gpsloran pipeline: one command, two workloads.

    python3 bench/run.py --workload day-dense --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --selfcheck

Run from the root of a checkout.  Inputs come from the seeded generator in
``gen.py``; the program is called only through its public functions (in
the ``worker.py`` child process) and its CLI (``main`` of ``gpsloran.cli``,
run in a fresh process by ``launch.py``);
every output is checked against the generator's expected records by
``check.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``bench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from array import array
from datetime import datetime, timezone
from pathlib import Path

import check
import gen
from spans import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"

WORKLOADS = ("day-dense", "day-noisy")
PROBE_SECONDS = 2.5  # a traced pass first captures the round's stream in this time
CHILD_TIMEOUT_S = 120
WORKER_GRACE_S = 60  # for the last cycle and the result after a pass's seconds

END_TO_END = {"setup_s": "s", "segment_mb_per_s": "MB/s", "peak_rss_mb": "MB", "stats_s": "s"}
PER_LAYER = {
    "record.lag_p99_ms": "ms", "record.loop_gap_p99_ms": "ms", "record.lag_p50_ms": "ms",
    "record.rotate_ms": "ms",
    "record.fsyncs": "count", "record.bytes": "bytes", "classify.route_s": "s",
    "classify.lines": "count", "classify.quarantined": "count",
    "parse.parse_classified_s": "s", "parse.records": "count", "parse.errors": "count",
    "convert.merge_sort_s": "s", "convert.export_s": "s", "convert.export_bytes": "bytes",
    "convert.export_rss_mb": "MB", "convert.read_exports_s": "s", "convert.summarize_s": "s",
    "orchestrate.write_parse_errors_s": "s", "orchestrate.process_segment_self_s": "s",
    "orchestrate.queue_wait_s": "s", "cli.import_s": "s", "cli.stats_self_s": "s",
}


class Run:
    """What one benchmark run collects: problems, operations and figures."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.problems: list[str] = []
        self.known_fault: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []
        self.peak_rss_kb: list[int] = []  # each program process's own high-water mark
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self._launches = itertools.count()

    def call(self, argv: list[str], what: str) -> tuple[float, subprocess.CompletedProcess]:
        begin = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.monotonic() - begin
        if proc.returncode != 0:
            self.problems.append(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return elapsed, proc

    def cli(self, *args: str,
            traced: bool = False) -> tuple[float, subprocess.CompletedProcess, dict]:
        """Run ``gpsloran ARGS`` in a fresh process; return its wall time,
        the process and the figures ``launch.py`` wrote for it."""
        out = self.work / f"launch-{next(self._launches)}.json"
        argv = [sys.executable, str(BENCH / "launch.py"), "traced" if traced else "plain",
                str(out), *args]
        elapsed, proc = self.call(argv, f"gpsloran {args[0]}")
        figures = json.loads(out.read_text()) if out.exists() else {}
        if "peak_rss_kb" in figures:
            self.peak_rss_kb.append(figures["peak_rss_kb"])
        return elapsed, proc, figures

    def worker(self, spec: dict) -> dict:
        spec_path = self.work / "spec.json"
        spec = {**spec, "result": str(self.work / "result.json")}
        spec_path.write_text(json.dumps(spec))
        _, proc = self.call([sys.executable, str(BENCH / "worker.py"), str(spec_path)], "worker")
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads(Path(spec["result"]).read_text())
        self.peak_rss_kb.append(result["peak_rss_kb"])
        return result


def drift_reference() -> float:
    """Seconds for a fixed pure-Python loop; shows host speed drift."""
    begin = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - begin


def write_stream(stream: gen.Stream, start: datetime,
                 directory: Path) -> tuple[dict, bytes, array]:
    """Files the worker's paced source reads: bytes, line ends, due times."""
    directory.mkdir(parents=True, exist_ok=True)
    data = stream.to_bytes()
    ends, total = array("q"), 0
    for line in stream.lines:
        total += len(line) + 2
        ends.append(total)
    origin = start.timestamp()
    due = array("d", (d - origin for d in stream.due))
    (directory / "stream.log").write_bytes(data)
    (directory / "ends.bin").write_bytes(ends.tobytes())
    (directory / "due.bin").write_bytes(due.tobytes())
    return {"stream": str(directory / "stream.log"), "ends": str(directory / "ends.bin"),
            "due": str(directory / "due.bin"), "start": start.isoformat()}, data, ends


def concat(streams: list[gen.Stream]) -> gen.Stream:
    whole = gen.Stream()
    for part in streams:
        for name in ("lines", "due", "labels", "records", "errors"):
            getattr(whole, name).extend(getattr(part, name))
    return whole


# --- the measured pass --------------------------------------------------------


def setup_once(run: Run, traced: bool = False) -> tuple[float, dict]:
    """A fresh ``gpsloran record`` on an empty replay source: it starts,
    opens its session and first segment, and exits."""
    empty = run.work / "empty.log"
    empty.touch()
    out = run.work / "setup"
    elapsed, proc, figures = run.cli("record", "--source", f"replay:{empty}", "--out", str(out),
                                     "--on-eof", "stop", "--replay-speed", "0",
                                     "--session-id", "s", traced=traced)
    session = out / "s"
    raws = list(session.glob("raw_*.log"))
    events = (session / "events.jsonl").read_text() if (session / "events.jsonl").exists() else ""
    if (proc.returncode != 0 or not (session / "session.json").exists() or len(raws) != 1
            or raws[0].stat().st_size != 0 or "segment_closed" not in events):
        run.problems.append("record on an empty source did not open and close one empty segment")
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, figures


def stats_once(run: Run, session: Path, timeline: list[tuple],
               traced: bool = False) -> tuple[float, dict]:
    """``gpsloran stats`` over the session's exports, checked."""
    out = run.work / "stats"
    elapsed, proc, figures = run.cli("stats", "--session", str(session), "--out", str(out),
                                     traced=traced)
    run.problems += check.check_stats(proc.stdout, out, timeline)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, figures


def measure_pass(run: Run, spec: dict, seconds: float, timeline: list[tuple]) -> dict:
    """One pass: whole rounds of the worker's loop, each followed by one
    ``stats`` run over the exports and one set-up start, until *seconds*
    have passed.  Interleaving them spreads every timed metric over the
    whole pass, so each sees the same share of the shared host's slow
    spells."""
    traced = spec["trace"]
    spec_path = run.work / f"spec-{int(traced)}.json"
    result_path = run.work / f"result-{int(traced)}.json"
    spec_path.write_text(json.dumps({**spec, "result": str(result_path)}))
    setups: list[tuple[float, dict]] = []
    stats: list[tuple[float, dict]] = []
    with open(run.work / f"worker-{int(traced)}.err", "w+") as errors:
        worker = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                  cwd=ROOT, env=run.env, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=errors, text=True)
        watchdog = threading.Timer(seconds + WORKER_GRACE_S, worker.kill)
        watchdog.start()
        try:
            if worker.stdout.readline() == "ready\n":
                start = time.monotonic()
                while True:
                    begin = time.monotonic()
                    worker.stdin.write("round\n")
                    worker.stdin.flush()
                    if worker.stdout.readline() != "done\n":
                        break
                    stats.append(stats_once(run, Path(spec["session"]), timeline, traced))
                    setups.append(setup_once(run, traced))
                    now = time.monotonic()
                    if now - start + (now - begin) > seconds:
                        break
            worker.stdin.close()
            worker.wait(timeout=CHILD_TIMEOUT_S)
        except BrokenPipeError:  # the worker died; its exit code says why
            pass
        finally:
            watchdog.cancel()
            if worker.poll() is None:
                worker.kill()
            worker.wait()
        if worker.returncode != 0 or not result_path.exists():
            errors.seek(0)
            raise RuntimeError(f"worker exited {worker.returncode}: {errors.read()[-2000:]}")
    result = json.loads(result_path.read_text())
    run.peak_rss_kb.append(result["peak_rss_kb"])
    result["setup_s"] = median([elapsed for elapsed, _ in setups])
    result["stats_s"] = median([elapsed for elapsed, _ in stats])
    result["setups"], result["stats"] = setups, stats
    return result


def output_counts(run: Run, jobs: list[tuple[Path, str]]) -> None:
    """Work counts of one pass over *jobs*, read from the program's outputs."""
    lines = quarantined = records = errors = export_bytes = 0
    for session, name in jobs:
        stem = Path(name).stem
        report = json.loads((session / "classified" / stem / "report.json").read_text())
        manifest = json.loads((session / "exports" / stem / "manifest.json").read_text())
        lines += report["total_lines"]
        quarantined += report["quarantined_lines"]
        counts = manifest["record_counts"]
        records += counts["gps_fix"] + counts["loran"]
        errors += counts["parse_errors"]
        export_bytes += sum((session / "exports" / stem / f["path"]).stat().st_size
                            for f in manifest["export_files"])
    run.layers.update({"classify.lines": lines, "classify.quarantined": quarantined,
                       "parse.records": records, "parse.errors": errors,
                       "convert.export_bytes": export_bytes})


# --- workloads ---------------------------------------------------------------


def run_batch(run: Run, workload: str, seed: int, seconds: float, small: bool = False) -> None:
    """Closed loop: rounds of process_segment over the day's segments,
    interleaved with ``stats`` runs and set-up starts."""
    layout = (2, 600) if small else gen.BATCH_LAYOUT[workload]
    segments = gen.batch_segments(workload, seed, *layout)
    session = run.work / "session"
    session.mkdir(parents=True)
    for segment in segments:
        (session / segment.name).write_bytes(segment.stream.to_bytes())
    expected = {s.name: s.stream.expected() for s in segments}
    fault = misdated = None
    multiday = run.work / "multiday"
    if workload == "day-noisy":
        fault = gen.multiday_segment()
        multiday.mkdir()
        (multiday / fault.name).write_bytes(fault.stream.to_bytes())
        expected[fault.name] = fault.stream.expected()
        misdated = gen.multiday_misdated(fault.stream).expected()
    timeline = sorted((r for s in segments for r in expected[s.name]["timeline"]),
                      key=lambda r: r[1])

    fed_stream = concat([s.stream for s in segments])
    start = datetime.fromtimestamp(fed_stream.due[0] - 0.5, timezone.utc)
    probe, fed, _ = write_stream(fed_stream, start, run.work / "probe")
    formats = ["columns", "lines"] if workload == "day-dense" else ["columns"]
    probe.update(factor=layout[0] * layout[1] / PROBE_SECONDS, rotation_s=layout[1], formats=formats,
                 out_dir=str(run.work / "captures"))
    spec = {"mode": "batch", "formats": formats, "session": str(session),
            "names": [s.name for s in segments], "multiday": str(multiday),
            "multiday_names": [fault.name] if fault else [], "probe": probe}
    setup_once(run)  # fills the bytecode cache; not timed
    span = seconds / 2 if run.trace else seconds  # a traced run makes two passes
    passes = [measure_pass(run, {**spec, "trace": traced}, span, timeline)
              for traced in ((False, True) if run.trace else (False,))]
    run.notes.append(f"worker peak_rss_mb={passes[0]['peak_rss_kb'] / 1024:.1f} "
                     f"rounds={[p['rounds'] for p in passes]} "
                     f"stats_runs={[len(p['stats']) for p in passes]} "
                     f"setup_starts={[len(p['setups']) for p in passes]}")

    finals = {}
    for name, exp in expected.items():
        # the multi-day segment counts as the known fault only if it is exactly that
        where, known = (multiday, misdated) if fault and name == fault.name else (session, None)
        finals[name] = check.judge(where, name, exp, formats, known_fault=known)
    last_digest = {op["name"]: op["digest"] for p in passes for op in p["ops"]}
    for outcome in passes:
        if outcome["probe"]:
            run.problems += check.check_capture(Path(outcome["probe"]["session"]), fed)[0]
        for op in outcome["ops"]:
            run.attempted += 1
            problems, known = finals[op["name"]]
            if op["digest"] != last_digest[op["name"]]:
                problems = [f"{op['name']} round {op['round']} output differs from the last round"]
                known = False
            if problems:
                run.failed += 1
                (run.known_fault if known else run.problems).extend(problems[:1])
        plain = [op for op in outcome["ops"] if not (fault and op["name"] == fault.name)]
        outcome["mb_per_s"] = (sum(op["bytes"] for op in plain) / 1e6
                               / sum(op["seconds"] for op in plain))
        outcome["plain_s"] = [op["seconds"] for op in plain]
        outcome["timed"] = len(plain)

    first = passes[0]
    for name, key in (("segment_mb_per_s", "mb_per_s"), ("setup_s", "setup_s"),
                      ("stats_s", "stats_s")):
        run.e2e[name] = first[key]
    run.notes.append(f"segments_timed={first['timed']} segment_s_median="
                     f"{median(first['plain_s']):.4f}")
    if fault:
        run.notes.append("multiday_segment_s=%.4f" % median(
            [op["seconds"] for op in first["ops"] if op["name"] == fault.name]))

    if run.trace:
        traced = passes[1]
        capture_layers(run, traced["probe"])
        run.notes.append(lag_note(traced["probe"]))
        run.layers.update(traced["layers"])
        run.layers["cli.import_s"] = median([f["cli.import_s"] for _, f in traced["setups"]])
        for name in ("convert.read_exports_s", "convert.summarize_s", "cli.stats_self_s"):
            run.layers[name] = median([f[name] for _, f in traced["stats"] if name in f])
        output_counts(run, [(session, s.name) for s in segments]
                      + ([(multiday, fault.name)] if fault else []))
        overhead(run, first, traced, ("segment_mb_per_s", "mb_per_s"), ("setup_s", "setup_s"),
                 ("stats_s", "stats_s"))


def capture_layers(run: Run, capture: dict) -> None:
    run.layers.update({
        "record.lag_p99_ms": capture["lag_p99_ms"],
        "record.loop_gap_p99_ms": capture["loop_gap_p99_ms"],
        "record.lag_p50_ms": capture["lag_p50_ms"],
        "record.bytes": capture["bytes"],
    })


def lag_note(capture: dict) -> str:
    quantiles = " ".join(f"p{float(q) * 100:g}={v:.1f}"
                         for q, v in capture["lag_quantiles_ms"].items())
    return (f"capture_lag_ms samples={capture['lag_samples']} p50={capture['lag_p50_ms']:.2f} "
            f"{quantiles} max={capture['lag_max_ms']:.1f}")


def overhead(run: Run, untraced: dict, traced: dict, *pairs: tuple[str, str]) -> None:
    for name, key in pairs:
        run.notes.append(f"tracing overhead {name}: traced={traced[key]:.4f} "
                         f"untraced={untraced[key]:.4f} ({traced[key] / untraced[key] - 1:+.1%})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 small: bool = False) -> Run:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, trace)
    run_batch(run, workload, seed, seconds, small)
    run.e2e["peak_rss_mb"] = max(run.peak_rss_kb) / 1024
    return run


# --- self-check --------------------------------------------------------------


def selfcheck() -> int:
    """Every workload end to end at a small size, then the checker's own test."""
    import test_check

    failures = 0
    for workload in WORKLOADS:
        work = WORK_ROOT / f"selfcheck-{workload}-{os.getpid()}"
        try:
            run = run_workload(workload, 1, 1.5, True, work, small=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = [m for m in END_TO_END if m not in run.e2e]
        missing += [m for m in PER_LAYER if m not in run.layers]
        ok = not run.problems and not missing and run.attempted > 0
        failures += not ok
        print(f"selfcheck {workload}: {'ok' if ok else 'FAILED'} attempted={run.attempted} "
              f"failed={run.failed} problems={run.problems[:3]} missing={missing}")
    work = WORK_ROOT / f"selfcheck-mutations-{os.getpid()}"
    try:
        for name, right in test_check.mutations_caught(work).items():
            failures += not right
            print(f"selfcheck checker judges {name}: {'ok' if right else 'FAILED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


# --- entry point ---------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gpsloran" / "cli.py").is_file():
        print(f"error: no gpsloran sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    drift_start = drift_reference()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    drift_end = drift_reference()

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"drift_reference_s start={drift_start:.4f} end={drift_end:.4f} (host speed, not a metric)")
    for note in run.notes:
        print(note)
    for name, unit in END_TO_END.items():
        print(f"end_to_end {name}={run.e2e[name]:.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"per_layer {name}={run.layers.get(name, float('nan')):.6g} {unit}")
    print(f"operations attempted={run.attempted} failed={run.failed}")
    for problem in run.known_fault[:1]:
        print(f"known fault (counted as failed): {problem}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    names = PER_LAYER if args.trace else END_TO_END
    source = run.layers if args.trace else run.e2e
    unmeasured = [name for name in names if not math.isfinite(source.get(name, math.nan))]
    if unmeasured:
        print(f"error: no figure for {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in names.items()}
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
