"""Reference capture lag of a live capture, three ways.

    python3 bench/bracket.py --seed 1

An in-process source hands ``run_pipeline`` a dense stream (the
``day-dense`` mix) on a wall-clock schedule, at LIVE_FACTOR times real
time with hourly rotation, and the capture lag of each way is printed:
segments processed on the worker pool (the default), with
``process_segments: false`` (capture alone, the floor), and with
``inline_processing: true`` (processing on the capture thread, the
ceiling).  Outputs are not checked here.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics

import gen
import run

LIVE_FACTOR = 1000.0  # one hour of data every 3.6 s

MODES = {
    "worker pool (the default)": {},
    "process_segments: false": {"process_segments": False},
    "inline_processing: true": {"inline_processing": True},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    start, stream = gen.live_stream(args.seed, int(args.seconds * LIVE_FACTOR))
    for label, overrides in MODES.items():
        work = run.WORK_ROOT / f"bracket-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            spec, _, _ = run.write_stream(stream, start, work / "live")
            spec.update(mode="live", trace=False, factor=LIVE_FACTOR, rotation_s=3600.0,
                        formats=["columns"],
                        out_dir=str(work / "captures"), pipeline=overrides)
            outcome = run.Run(work, False).worker(spec)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        turnaround = [s["end"] - s["rotation"] for s in outcome["segments"] if s["rotation"]]
        print(f"{label}: {run.lag_note(outcome)} turnaround_s="
              f"{statistics.median(turnaround) if turnaround else float('nan'):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
