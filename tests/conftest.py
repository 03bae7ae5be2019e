"""Shared builders for the test suite.

Sentence builders here compute checksums with an XOR fold written
independently of the package, so fixture data does not inherit bugs
from the code under test.
"""

from __future__ import annotations

import calendar
import functools
import operator
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

from gpsloran.convert import (REORDER_WINDOW, export_digests, merge_sort,
                              read_gps_export)
from gpsloran.parse import GpsFix, LoranMeasurement, parse_classified
from gpsloran.timeutil import UTC, epoch_ms, parse_iso_ms


def xor_fold(body: bytes) -> int:
    return functools.reduce(operator.xor, body, 0)


def sentence(body: str) -> bytes:
    """$<body>*HH with an independently computed checksum."""
    payload = body.encode("ascii")
    return b"$" + payload + b"*%02X" % xor_fold(payload)


def gga_line(
    tod: str = "120000.000",
    lat: str = "3700.0000",
    ns: str = "N",
    lon: str = "12700.0000",
    ew: str = "E",
    quality: int = 1,
    sats: int = 8,
    hdop: str = "1.00",
    alt: str = "30.0",
) -> bytes:
    body = f"GPGGA,{tod},{lat},{ns},{lon},{ew},{quality},{sats:02d},{hdop},{alt},M,,M,,"
    return sentence(body)


def zda_line(moment: datetime) -> bytes:
    tod = moment.strftime("%H%M%S") + ".%03d" % (moment.microsecond // 1000)
    body = f"GPZDA,{tod},{moment.day:02d},{moment.month:02d},{moment.year:04d},00,00"
    return sentence(body)


def rmc_line(moment: datetime, lat: str = "3730.5000", ns: str = "N") -> bytes:
    tod = moment.strftime("%H%M%S") + ".%03d" % (moment.microsecond // 1000)
    ddmmyy = moment.strftime("%d%m%y")
    body = f"GPRMC,{tod},A,{lat},{ns},12311.1200,W,0.5,054.7,{ddmmyy},,"
    return sentence(body)


def plrm_line(
    tod: str = "120000.000",
    gri: int = 9930,
    role: str = "M",
    toa: str = "45678.9",
    snr: str = "12.0",
    ecd: str = "0.5",
) -> bytes:
    body = f"PLRM,{tod},{gri},{role},{toa},{snr},{ecd}"
    return sentence(body)


def utc(*args: int) -> datetime:
    return datetime(*args, tzinfo=UTC)


def ms(year: int, month: int, day: int, hour: int = 0, minute: int = 0, second: int = 0,
       millisecond: int = 0) -> int:
    """UTC epoch milliseconds of a calendar instant, the way records carry it."""
    return calendar.timegm((year, month, day, hour, minute, second)) * 1000 + millisecond


class SimulatedCrash(BaseException):
    """Raised by test hooks to kill the pipeline at a chosen point.

    Derives from BaseException so ordinary per-segment error handling
    (which contains Exception) cannot swallow it — it takes the whole
    process down, exactly like a real crash.
    """


class ManualClock:
    """Clock that only moves when told to; for deterministic tests.

    ``sleep`` advances the clock by the requested amount so code that waits
    in a loop still makes progress.  Its ``monotonic`` seconds move with
    ``advance`` too, standing in for the wall clock.
    """

    def __init__(self, start: datetime):
        self._now = self._start = epoch_ms(start)

    def now(self) -> int:
        return self._now

    def monotonic(self) -> float:
        return (self._now - self._start) / 1000

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.advance(seconds)

    def advance(self, seconds: float) -> None:
        self._now += round(seconds * 1000)


def read_records(reader, path) -> list:
    """Every record of an export in file order, made from the texts a
    ``convert`` reader hands on for it, whose manifest it is checked against."""
    def number(text, kind=float):
        return None if text == "" else kind(text)

    def record(stamp, *cells):
        if reader is read_gps_export:
            lat, lon, alt, quality, sats, hdop = cells
            return GpsFix(parse_iso_ms(stamp), number(lat), number(lon), number(alt),
                          int(quality), int(sats), number(hdop))
        gri, role, toa, snr, ecd = cells
        return LoranMeasurement(parse_iso_ms(stamp), int(gri), role, float(toa), float(snr),
                                float(ecd))

    records = []
    reader(path, lambda rows: records.extend(record(*row) for row in rows),
           export_digests(Path(path).parent))
    return records


def flat_timeline(*stores, window=REORDER_WINDOW) -> list:
    """The timeline ``merge_sort`` yields in blocks, as one list of records."""
    return [record for block in merge_sort(*stores, window=window) for record in block]


def reference_gaps(instants, gap_threshold_s: float) -> list[tuple[int, int]]:
    """The gaps of a timeline from a list of all its instants: each pair of
    consecutive sorted instants further apart than the threshold."""
    stamps = sorted(instants)
    return [(earlier, later) for earlier, later in zip(stamps, stamps[1:])
            if (later - earlier) / 1000 > gap_threshold_s]


def parse_records(classified_dir, **kwargs) -> SimpleNamespace:
    """``parse_classified`` with every store read: its ``gps`` fixes,
    ``loran`` observations and ``errors``."""
    parsed = parse_classified(classified_dir, **kwargs)
    records = [record for store in parsed.stores for record in store]
    return SimpleNamespace(gps=[r for r in records if isinstance(r, GpsFix)],
                           loran=[r for r in records if isinstance(r, LoranMeasurement)],
                           errors=parsed.errors)


class ScriptedSource:
    """Byte source driven by a list of (advance_seconds, payload) steps.

    Each read advances the injected clock and returns the payload (b""
    models an idle poll).  An exhausted script raises SourceClosed, like
    a feed that went away.
    """

    def __init__(self, clock, steps):
        from gpsloran.record import SourceClosed

        self._closed_error = SourceClosed
        self.clock = clock
        self.steps = list(steps)

    def read(self, max_bytes: int, timeout: float) -> bytes:
        if not self.steps:
            raise self._closed_error("script exhausted")
        advance, data = self.steps.pop(0)
        if advance:
            self.clock.advance(advance)
        return data

    def close(self) -> None:
        pass


def crlf(*lines: bytes) -> bytes:
    return b"".join(line + b"\r\n" for line in lines)
