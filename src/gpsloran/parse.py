"""Decode classified receiver sentences into typed GPS and Loran records.

Sentences carry a UTC time of day but (mostly) no date, so parsing threads
a :class:`DateContext` through each line store: the context is seeded from
the first date-bearing sentence (ZDA or RMC) in the segment, or from a
configured fallback date, and advances across midnight when the time of
day wraps.  Every record's timestamp is the context's day plus the time of
day, in integer UTC epoch milliseconds.

Each field's range check exists once, here: the parsers call it, and so
do the export readers in :mod:`gpsloran.convert`, so a record never holds
a value the parser would have rejected.

Supported sentences:

``$--GGA`` (GPS fix; any talker)
    field 1   UTC time of day ``hhmmss.sss``
    field 2,3 latitude ``ddmm.mmmm`` + hemisphere N/S
    field 4,5 longitude ``dddmm.mmmm`` + hemisphere E/W
    field 6   fix quality (0 = no fix)
    field 7   satellites in use
    field 8   HDOP
    field 9   altitude above MSL, meters

``$--ZDA`` / ``$--RMC``
    parsed only for their date fields (ZDA: day,month,year at 2,3,4;
    RMC: ddmmyy at field 9) to maintain the date context.

``$PLRM`` (proprietary Loran observation, one sentence per station)
    ``$PLRM,<hhmmss.sss>,<gri>,<role>,<toa_us>,<snr_db>,<ecd_us>*hh``
    where ``gri`` is the 4-digit group repetition interval designator
    (interval = designator x 10 microseconds), ``role`` is a station
    letter in {M, V, W, X, Y, Z}, ``toa_us`` the time of arrival within
    the GRI frame, ``snr_db`` the signal-to-noise ratio, and ``ecd_us``
    the envelope-to-cycle difference.  Additional proprietary grammars
    register in :data:`PROPRIETARY_PARSERS` without touching the batch
    driver.

Malformed lines never abort a batch: each one becomes a structured
:class:`ParseIssue` and parsing continues, so a day-long unattended run
survives corrupt input.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Callable

from .timeutil import MS_PER_DAY, day_ms, epoch_ms

STATION_ROLES = frozenset("MVWXYZ")
GRI_MIN = 4000
GRI_MAX = 9999
_HALF_DAY_MS = MS_PER_DAY // 2

_TOD_RE = re.compile(r"^(\d{2})(\d{2})(\d{2})(?:\.(\d{1,3}))?$")
_COORD_RE = re.compile(r"^(\d{4,5})\.(\d+)$")
_RMC_DATE_RE = re.compile(r"^(\d{2})(\d{2})(\d{2})$")

# Sentences whose only contribution is the date context.
DATE_SENTENCES = ("ZDA", "RMC")


class ParseError(ValueError):
    """A single malformed sentence, naming the offending field."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


@dataclass(slots=True)
class GpsFix:
    """One GGA fix, timestamped in UTC epoch milliseconds.  ``fix_quality
    == 0`` marks a no-fix record whose position fields are None; such
    records are excluded from position statistics but kept in the
    timeline.  :func:`check_fix` holds its range checks."""

    timestamp: int
    lat: float | None
    lon: float | None
    alt_m: float | None
    fix_quality: int
    num_sats: int
    hdop: float | None
    source_line: int | None = field(default=None, compare=False)

    @property
    def no_fix(self) -> bool:
        return self.fix_quality == 0


@dataclass(slots=True)
class LoranMeasurement:
    """One Loran station observation from a ``$PLRM`` sentence,
    timestamped in UTC epoch milliseconds.  :func:`loran_values` holds its
    range checks."""

    timestamp: int
    gri: int
    station_role: str
    toa_us: float
    snr_db: float
    ecd_us: float
    source_line: int | None = field(default=None, compare=False)

    @property
    def station(self) -> str:
        """Designator string, e.g. ``9930M``."""
        return f"{self.gri}{self.station_role}"


@dataclass
class ParseIssue:
    """One skipped line, with provenance into its classified store."""

    source_file: str
    line_number: int
    message: str
    field_name: str | None = None
    raw: str = ""


class DateContext:
    """Tracks the current UTC day while times of day stream past.

    ``resolve`` adds a time of day to the current day's start, both in
    milliseconds, advancing the day when the time of day jumps back more
    than 12 hours (midnight rollover).  The day never regresses within a
    context's lifetime.
    """

    def __init__(self, day_ms: int):
        self.day_ms = day_ms
        self.last_tod: int | None = None

    def observe_date(self, day: int) -> None:
        """Adopt an explicitly reported day, but never move backwards."""
        if day > self.day_ms:
            self.day_ms = day
            self.last_tod = None

    def resolve(self, tod: int) -> int:
        if self.last_tod is not None and tod - self.last_tod < -_HALF_DAY_MS:
            self.day_ms += MS_PER_DAY
        self.last_tod = tod
        return self.day_ms + tod


def parse_tod(value: str) -> int:
    """Milliseconds into the UTC day of ``hhmmss`` with up to three
    fractional digits."""
    match = _TOD_RE.match(value)
    if not match:
        raise ParseError(f"malformed time of day: {value!r}", "time")
    hour, minute, second, fraction = match.groups()
    hour, minute, second = int(hour), int(minute), int(second)
    if hour > 23 or minute > 59 or second > 59:
        raise ParseError(f"time of day out of range: {value!r}", "time")
    return ((hour * 60 + minute) * 60 + second) * 1000 + int((fraction or "").ljust(3, "0"))


def parse_coordinate(value: str, hemisphere: str, field_name: str = "coordinate") -> float:
    """Decode an NMEA ``ddmm.mmmm``/``dddmm.mmmm`` + hemisphere pair.

    Returns signed decimal degrees: degrees + minutes/60, negated for the
    S and W hemispheres.
    """
    match = _COORD_RE.match(value)
    if not match:
        raise ParseError(f"malformed {field_name}: {value!r}", field_name)
    digits = match.group(1)
    degrees = int(digits[:-2])
    minutes = float(value[len(digits) - 2 :])
    if minutes >= 60.0:
        raise ParseError(f"{field_name} minutes out of range: {value!r}", field_name)
    decimal = degrees + minutes / 60.0
    if hemisphere in ("N", "E"):
        return decimal
    if hemisphere in ("S", "W"):
        return -decimal
    raise ParseError(f"bad {field_name} hemisphere: {hemisphere!r}", field_name)


def _require_fields(fields: list[str], minimum: int, sentence: str) -> None:
    if len(fields) < minimum:
        raise ParseError(
            f"{sentence} needs {minimum} fields, got {len(fields)}", "field-count"
        )


def parse_float(value: str, field_name: str) -> float:
    """*value*, not a bool, as a finite float; ``ParseError`` naming *field_name* if not."""
    try:
        number = float(None if type(value) is bool else value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"malformed {field_name}: {value!r}", field_name) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {field_name}: {value!r}", field_name)
    return number


def parse_int(value: str, field_name: str) -> int:
    """*value*, a text or an int, as an int; ``ParseError`` naming *field_name* if not."""
    try:
        return int(value if type(value) in (str, int) else None)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"malformed {field_name}: {value!r}", field_name) from None


def check_fix(lat: float | None, lon: float | None, fix_quality: int, num_sats: int,
              hdop: float | None) -> None:
    """The range checks of a GGA fix's values; ``ParseError`` on the first
    that fails."""
    if lat is not None and not -90.0 <= lat <= 90.0:
        raise ParseError(f"latitude out of range: {lat}")
    if lon is not None and not -180.0 <= lon <= 180.0:
        raise ParseError(f"longitude out of range: {lon}")
    if fix_quality < 0:
        raise ParseError(f"fix_quality must be non-negative: {fix_quality}")
    if num_sats < 0:
        raise ParseError(f"num_sats must be non-negative: {num_sats}")
    if hdop is not None and hdop < 0:
        raise ParseError(f"hdop must be non-negative: {hdop}")
    if fix_quality > 0 and (lat is None or lon is None):
        raise ParseError("positive fix_quality requires a position")


def parse_gga(fields: list[str], ctx: DateContext, source_line: int | None = None) -> GpsFix:
    """Parse a comma-split GGA sentence (header at index 0).

    Empty position fields are an error unless fix quality is 0, in which
    case a flagged no-fix record is produced.
    """
    _require_fields(fields, 10, "GGA")
    tod = parse_tod(fields[1])
    quality = parse_int(fields[6], "fix_quality") if fields[6] else 0
    if fields[2] or fields[3] or quality > 0:
        lat = parse_coordinate(fields[2], fields[3], "latitude")
        lon = parse_coordinate(fields[4], fields[5], "longitude")
    else:
        lat = lon = None
    num_sats = parse_int(fields[7], "num_sats") if fields[7] else 0
    hdop = parse_float(fields[8], "hdop") if fields[8] else None
    alt = parse_float(fields[9], "alt_m") if fields[9] else None
    # A fix that fails the range checks still counts as the time of day it
    # carried for the midnight rollover.
    timestamp = ctx.resolve(tod)
    check_fix(lat, lon, quality, num_sats, hdop)
    return GpsFix(timestamp, lat, lon, alt, quality, num_sats, hdop, source_line)


def parse_date_sentence(fields: list[str], sentence: str) -> int:
    """Epoch milliseconds of the UTC day a ZDA or RMC field list reports."""
    try:
        if sentence == "ZDA":
            _require_fields(fields, 5, "ZDA")
            return day_ms(date(int(fields[4]), int(fields[3]), int(fields[2])))
        if sentence == "RMC":
            _require_fields(fields, 10, "RMC")
            match = _RMC_DATE_RE.match(fields[9])
            if not match:
                raise ParseError(f"malformed RMC date: {fields[9]!r}", "date")
            day, month, year2 = int(match.group(1)), int(match.group(2)), int(match.group(3))
            year = 1900 + year2 if year2 >= 80 else 2000 + year2
            return day_ms(date(year, month, day))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"malformed {sentence} date: {exc}", "date") from None
    raise ParseError(f"not a date sentence: {sentence}", "sentence")


def loran_values(gri, role, toa, snr, ecd) -> tuple[int, str, float, float, float]:
    """A Loran observation's values, from text (or numbers), checked in
    field order; ``ParseError`` naming the first field that fails."""
    gri = parse_int(gri, "gri")
    if not GRI_MIN <= gri <= GRI_MAX:
        raise ParseError(f"GRI designator out of range: {gri}", "gri")
    if role not in STATION_ROLES:
        raise ParseError(f"unknown station role: {role!r}", "station_role")
    toa = parse_float(toa, "toa_us")
    if not 0.0 <= toa < gri * 10:
        raise ParseError(f"toa_us outside GRI frame: {toa}", "toa_us")
    return gri, role, toa, parse_float(snr, "snr_db"), parse_float(ecd, "ecd_us")


def parse_loran(
    fields: list[str], ctx: DateContext, source_line: int | None = None
) -> LoranMeasurement:
    """Parse a comma-split ``$PLRM`` sentence (header at index 0)."""
    if len(fields) != 7:
        raise ParseError(f"PLRM needs 7 fields, got {len(fields)}", "field-count")
    tod = parse_tod(fields[1])
    values = loran_values(*fields[2:])
    return LoranMeasurement(ctx.resolve(tod), *values, source_line)


# Registry of proprietary vendor tags this pipeline can decode.  Adding a
# grammar means adding a parse function and one entry here.
PROPRIETARY_PARSERS: dict[str, Callable[[list[str], DateContext, int | None], LoranMeasurement]] = {
    "LRM": parse_loran,
}


# --- batch parsing of classified stores ------------------------------------


@dataclass
class ParsedSegment:
    """Everything parse_classified() extracted from one segment."""

    gps: list[GpsFix]
    loran: list[LoranMeasurement]
    errors: list[ParseIssue]
    seed_day_ms: int
    date_source: str


def split_sentence(raw: str) -> list[str]:
    """Comma-split a sentence with any trailing ``*hh`` checksum removed."""
    star = raw.rfind("*")
    if star != -1 and len(raw) - star == 3:
        raw = raw[:star]
    return raw.split(",")


def _first(path: Path, decode) -> int | None:
    """What *decode* makes of the first line of a store it can decode."""
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                return decode(split_sentence(raw.rstrip(b"\r\n").decode("latin-1")))
            except (ParseError, IndexError):
                continue
    return None


def _class_files(classified_dir: Path) -> dict[str, list[Path]]:
    """Group the class stores we parse: sentence code or ``P_<tag>`` key."""
    groups: dict[str, list[Path]] = {}
    for path in sorted(classified_dir.glob("*.txt")):
        stem = path.stem
        if stem.startswith("P_") and len(stem) > 2:
            groups.setdefault(stem, []).append(path)
        elif len(stem) == 5 and stem.isalpha() and stem.isupper():
            groups.setdefault(stem[2:], []).append(path)
    return groups


def parse_classified(
    classified_dir: Path,
    fallback_date: date | None = None,
    open_time: datetime | None = None,
) -> ParsedSegment:
    """Parse every supported class store under *classified_dir*.

    The date context seeds from the earliest date carried by the
    segment's ZDA/RMC stores, else *fallback_date*, else the date of
    *open_time*; raises ValueError if none exists (a configuration
    problem, unlike per-line errors, which are collected in the result).
    Each class store gets its own context seeded from that date, since
    each store is in receiver order and crosses midnight at most once
    per day of capture.

    *open_time* is the instant the segment started (for live captures,
    the segment open timestamp).  When given, it anchors the rollover
    window before the first line: a store whose first time of day sits
    more than 12 h ahead of the open time is data buffered from the
    previous day, so a fallback seed shifts back one day, and a first
    time of day more than 12 h behind the open time rolls the date
    forward through the usual midnight rule.  Without it, the first
    line's time of day is taken at face value against the seed date.
    """
    classified_dir = Path(classified_dir)
    groups = _class_files(classified_dir)

    seed: int | None = None
    date_source = "configured-start-date"
    for sentence in DATE_SENTENCES:
        for path in groups.get(sentence, []):
            found = _first(path, lambda fields: parse_date_sentence(fields, sentence))
            if found is not None and (seed is None or found < seed):
                seed = found
                date_source = sentence
    seeded_from_fallback = False
    if seed is None:
        if fallback_date is not None:
            seed = day_ms(fallback_date)
        elif open_time is not None:
            seed = epoch_ms(open_time) // MS_PER_DAY * MS_PER_DAY
            date_source = "segment-open-time"
        else:
            raise ValueError(
                f"no date sentence in {classified_dir} and no fallback date configured"
            )
        seeded_from_fallback = True

    gps: list[GpsFix] = []
    loran: list[LoranMeasurement] = []
    errors: list[ParseIssue] = []
    open_tod = epoch_ms(open_time) % MS_PER_DAY if open_time is not None else None

    def parse_store(path: Path, handler) -> None:
        store_seed = seed
        if seeded_from_fallback and open_tod is not None:
            first = _first(path, lambda fields: parse_tod(fields[1]))
            if first is not None and first - open_tod > _HALF_DAY_MS:
                store_seed -= MS_PER_DAY
        ctx = DateContext(store_seed)
        if open_tod is not None:
            ctx.last_tod = open_tod
        with open(path, "rb") as handle:
            for line_number, raw_bytes in enumerate(handle, start=1):
                raw = raw_bytes.rstrip(b"\r\n").decode("latin-1")
                try:
                    handler(split_sentence(raw), ctx, line_number)
                except ParseError as exc:
                    errors.append(
                        ParseIssue(
                            source_file=path.name,
                            line_number=line_number,
                            message=str(exc),
                            field_name=exc.field_name,
                            raw=raw,
                        )
                    )

    for path in groups.get("GGA", []):
        parse_store(path, lambda f, ctx, n: gps.append(parse_gga(f, ctx, n)))

    for sentence in DATE_SENTENCES:
        for path in groups.get(sentence, []):
            parse_store(
                path,
                lambda f, ctx, n, s=sentence: ctx.observe_date(parse_date_sentence(f, s)),
            )

    for key, paths in groups.items():
        if not key.startswith("P_"):
            continue
        handler = PROPRIETARY_PARSERS.get(key[2:])
        if handler is None:
            continue
        for path in paths:
            parse_store(path, lambda f, ctx, n, h=handler: loran.append(h(f, ctx, n)))

    return ParsedSegment(
        gps=gps, loran=loran, errors=errors, seed_day_ms=seed, date_source=date_source
    )
