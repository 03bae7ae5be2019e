"""Capture pipeline driver that dies mid-flight, for recovery tests.

Run as a script:

    python crash_driver.py OUT_DIR POINT OCCURRENCE

A fixed two-segment feed runs on a manual clock and the process
hard-exits (``os._exit``, so buffered file handles are NOT flushed)
at the OCCURRENCE-th firing of hook POINT.  Exit code 9 marks the
kill; a run the script never kills exits with the pipeline's own code.

Tests import this module for the feed constants, so expected durable
bytes can be computed independently, and invoke it as a subprocess to
get real kill semantics.
"""

from __future__ import annotations

import os
import sys

from gpsloran.orchestrate import Hooks, run_pipeline
from gpsloran.parse import GpsFix, LoranMeasurement
from gpsloran.record import SourceClosed
from gpsloran.simulate import serialize, serialize_zda
from gpsloran.timeutil import from_ms, parse_iso_ms

from conftest import ManualClock

START_MS = parse_iso_ms("2020-04-17T12:00:00.000Z")
START = from_ms(START_MS)
SESSION_ID = "c8"
CONFIG = {
    "session_id": SESSION_ID,
    "rotation": "1h",
    "on_eof": "stop",
    "inline_processing": True,
    "formats": ["columns", "lines"],
}
KILL_EXIT_CODE = 9


def _at(offset_s: float) -> int:
    return START_MS + round(offset_s * 1000)


def _gga(offset_s: float) -> bytes:
    fix = GpsFix(
        timestamp=_at(offset_s),
        lat=37.0,
        lon=127.0,
        alt_m=30.0,
        fix_quality=1,
        num_sats=8,
        hdop=1.0,
    )
    return serialize(fix) + b"\r\n"


def _plrm(offset_s: float) -> bytes:
    obs = LoranMeasurement(
        timestamp=_at(offset_s),
        gri=9930,
        station_role="M",
        toa_us=45678.9,
        snr_db=12.5,
        ecd_us=0.0,
    )
    return serialize(obs) + b"\r\n"


def _zda(offset_s: float) -> bytes:
    return serialize_zda(_at(offset_s)) + b"\r\n"


# Segment 1 spans 12:00-13:00; the idle poll carries the clock to
# 13:01:41.2 so the rotation fires there and segment 2 opens.  Chunk
# spacing against the 1 s flush interval makes the durable prefix at
# every kill point exactly predictable: within each segment the third
# append is the first one past the interval, so it flushes itself and
# everything before it, while later appends sit in the stdio buffer
# until the next flush or close.
SEG1_CHUNKS = [_zda(0.0) + _gga(1.0), _gga(2.0) + _plrm(3.0), _gga(4.0)]
SEG2_CHUNKS = [_zda(3702.0) + _gga(3703.0), _plrm(3704.0), _gga(3705.0), _gga(3706.0)]
SEG1_NAME = "raw_20200417T120000Z.log"
SEG2_NAME = "raw_20200417T130141Z.log"


def feed_steps() -> list[tuple[float, bytes]]:
    return [
        (0.0, SEG1_CHUNKS[0]),
        (0.6, SEG1_CHUNKS[1]),
        (0.6, SEG1_CHUNKS[2]),
        (3700.0, b""),
        (0.0, SEG2_CHUNKS[0]),
        (0.6, SEG2_CHUNKS[1]),
        (0.6, SEG2_CHUNKS[2]),
        (0.5, SEG2_CHUNKS[3]),
    ]


class _Feed:
    def __init__(self, clock, steps):
        self.clock = clock
        self.steps = list(steps)

    def read(self, max_bytes: int, timeout: float) -> bytes:
        if not self.steps:
            raise SourceClosed("script exhausted")
        advance, data = self.steps.pop(0)
        if advance:
            self.clock.advance(advance)
        return data

    def close(self) -> None:
        pass


def main(argv: list[str]) -> int:
    out_dir, point, occurrence = argv[1], argv[2], int(argv[3])
    clock = ManualClock(START)
    hooks = Hooks()

    def kill(count: int) -> None:
        if count == occurrence:
            os._exit(KILL_EXIT_CODE)

    hooks.on(point, kill)
    config = dict(CONFIG, out_dir=out_dir)
    return run_pipeline(config, clock=clock, source=_Feed(clock, feed_steps()), hooks=hooks)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
